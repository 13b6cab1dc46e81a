"""Weighted tree augmentation via altered weights.

Upward phase: every vertex v keeps, for each ancestor u, the cheapest way
w_v(u) to cover the path v..u using edges incoming to its subtree, after
subtracting min_v = w_v(parent(v)) (the cost charged to v's own tree
edge). Values flow to the parent as 1-token alteredWeight messages,
exactly one per tree edge per round, deepest ancestor first and every
depth in turn, so the whole phase is pipelined and no message names its
depth: the receiver counts each child's weights down from its own depth.
An ancestor is named by its depth, which every label carries and which is
unique on a root path, so no vertex needs an ancestor directory. Nor does
a vertex keep a table by depth: it forwards each depth's value in the step
its last child reports it, and keeps only its own edges' breakpoints, a
next-depth counter per child, one pending entry per depth some children
have reported and others have not, and the runs of the winning source, so
its memory is O(own edges + children + winner runs + pending window)
rather than O(depth). Downward phase: each vertex either starts a cover for
its own tree edge, naming its parent as the top ancestor, or relays the
ancestor's (topDepth, topId, deciderId) choice to the recorded cheapest
sender; the vertex at the end of a chain adds its own incoming edge.

The per-tree-edge charges c(t) = min_v sum exactly to the weight of the
produced cover, and no augmentation can cost less than their sum.
"""
from __future__ import annotations

from bisect import bisect_right

from . import labels as lbl, sim, virtual_graph as vg
from .sim import ACTIVE, HALT, IDLE
from .unweighted import BridgeDetected

INF = 1 << 62
# the fewest tokens per edge and round that carry the downward (topDepth,
# topId, deciderId) relays unframed; the upward weights take one token
MIN_BUDGET = 3


# ---------------------------------------------------------------------------
# ancestor directories: every vertex learns the labels of all its ancestors.

def disseminate_ancestors(g, tree, all_labels, budget: int = sim.DEFAULT_BUDGET,
                          phase: str = "ancestors"):
    """Standalone helper, run by no algorithm: v outputs its ancestors'
    labels by depth. A framed sim.Downcast from the root: each vertex sends
    its children one frame, its root path's label hops with its own label's
    last, once its own frame is in. Every label's first hop, and no later
    one, is headed by the root, so the stream is cut into labels there.
    It is store-and-forward, O(h^2 L / budget) rounds on a path of height h
    with L-hop labels."""
    view = lbl.TreeView.of_tree(tree)

    def act(v, mail):
        toks = () if mail is None else mail[0][1]
        seqs = []
        for _, head, pos in toks:
            if head == tree.root:
                seqs.append(())
            seqs[-1] += ((head, pos),)
        anc = [lbl.LcaLabel(None, lbl.seq_depth(seq), seq) for seq in seqs]
        down = toks + lbl.hop_tokens(all_labels[v].seq)
        return anc, [(eid, down) for _, eid in view.children[v]]

    prog = sim.Downcast(lambda v: v == tree.root, act, budget, framed=True)
    return sim.run(g, prog, budget=budget, phase=phase)


# ---------------------------------------------------------------------------
# upward phase

def _own_table(incoming, depth, scheme):
    """best_w[j] / best_edge[j]: cheapest own incoming edge covering v..u for
    the ancestor u at depth j (ties by lowest edge id)."""
    best_w = [INF] * depth
    best_edge = [None] * depth
    by_depth = sorted(incoming, key=lambda e: (scheme.depth(e.anc), e.weight, e.origin))
    i = 0
    cur_w, cur_e = INF, None
    for j in range(depth):
        while i < len(by_depth) and scheme.depth(by_depth[i].anc) <= j:
            e = by_depth[i]
            if e.weight < cur_w or (e.weight == cur_w and cur_e is not None
                                    and e.origin < cur_e.origin):
                cur_w, cur_e = e.weight, e
            i += 1
        best_w[j] = cur_w
        best_edge[j] = cur_e
    return best_w, best_edge


def _own_steps(incoming, depth, scheme):
    """The breakpoints of `_own_table`'s step function: ascending depths
    `starts` and edges `edges` such that the cheapest own edge for the
    ancestor at depth j < depth is edges[i] for the last i with
    starts[i] <= j, and there is none when starts[0] > j."""
    starts, edges = [], []
    cur_w, cur_e = INF, None
    for e in sorted(incoming, key=lambda e: (scheme.depth(e.anc), e.weight, e.origin)):
        a = scheme.depth(e.anc)
        if a >= depth:
            break
        # edges of one depth come cheapest first, so each depth changes the
        # step function at most once
        if e.weight < cur_w or (e.weight == cur_w and cur_e is not None
                                and e.origin < cur_e.origin):
            cur_w, cur_e = e.weight, e
            starts.append(a)
            edges.append(e)
    return starts, edges


class _WeightedUpState:
    """One vertex's upward state. Weights arrive in the order each child
    sends them, depths d - 1, d - 2, ..., 0, so no weight names its depth:
    a one-child vertex takes it from j, the next depth it settles, and a
    vertex with several children from that child's own next-depth
    counter."""
    __slots__ = ("v", "d", "pe", "j", "min_v", "own_starts", "own_edges", "own_i",
                 "kid", "kids", "pending", "run_pos", "run_src")

    def __init__(self, v, d, pe, own_starts, own_edges, children):
        self.v = v
        self.d = d
        self.pe = pe
        self.j = d - 1  # the next depth to settle
        self.min_v = None
        # own-edge step function, and the breakpoint in force at depth j
        self.own_starts = own_starts
        self.own_edges = own_edges
        self.own_i = len(own_starts) - 1
        # one child: its id; several: child edge -> [child, the depth its
        # next weight is for], and for each depth some but not all children
        # reported, [best weight, its child, reports so far]
        self.kid = children[0][0] if len(children) == 1 else None
        self.kids = ({eid: [c, d - 1] for c, eid in children}
                     if len(children) > 1 else None)
        self.pending = {} if self.kids is not None else None
        # the winning source (-1: own edge) by runs: run i starts at depth
        # d - 1 - run_pos[i] and holds down to the next run
        self.run_pos = []
        self.run_src = []
        if not children and d > 0:
            self.min_v = self.settle(d - 1, INF, -1)
            self.j = d - 2

    def settle(self, j, w, src):
        """Fix the value at depth j, the next to settle, from the children's
        best w (from child src; INF, -1 if none) and the own edge, which wins
        only when strictly cheaper. Returns the value."""
        if j != self.j:
            raise sim.SimError("vertex %d settled depth %d before %d"
                               % (self.v, j, self.j))
        i = self.own_i
        starts = self.own_starts
        while i >= 0 and starts[i] > j:
            i -= 1
        self.own_i = i
        if i >= 0 and self.own_edges[i].weight < w:
            w, src = self.own_edges[i].weight, -1
        if not self.run_src or self.run_src[-1] != src:
            self.run_pos.append(self.d - 1 - j)
            self.run_src.append(src)
        self.j = j - 1
        return w

    def src_at(self, j):
        """The source of the cheapest cover of v..u for the ancestor u at
        depth j: a child, or -1 for an own edge."""
        return self.run_src[bisect_right(self.run_pos, self.d - 1 - j) - 1]

    def own_edge(self, j):
        """The cheapest own incoming edge covering v..u for the ancestor u at
        depth j, or None."""
        i = bisect_right(self.own_starts, j) - 1
        return self.own_edges[i] if i >= 0 else None


class WeightedUpProgram:
    """One 1-token (alteredWeight,) message per tree edge per round, for
    ancestors other than the parent, deepest first.

    Every child sends its weights for depths d - 1, d - 2, ..., 0 of its
    parent v (depth d), one a round, in that order and with none left out,
    INF included, so the depth of a weight is implied: v counts each
    child's weights. A depth is complete once its slowest child reported
    it, depths complete one at a time in decreasing order, and v sends
    each depth's weight in the step it completes. A vertex with children
    never halts, so a weight past a child's depth 0 reaches `step`, which
    raises SimError, and a child whose weights stop short leaves v
    unsettled, which raises SimError in `output`. A vertex therefore keeps
    no per-depth table: it holds its own-edge step function as breakpoints,
    with a pointer that walks them down; a next-depth counter per child and
    a pending map for the depths some children have reported and others
    have not (neither with one child, whose weight is final on arrival and
    for depth j); and the winning source as runs, appended as depths
    complete. That is O(own edges + children + winner runs + pending
    window) per vertex instead of O(depth), O(n) in all on a path. A vertex
    outputs its state; the downward phase reads min_v, d, src_at(j) and
    own_edge(j)."""

    def __init__(self, view, incidence, all_labels, scheme):
        self.view = view
        self.incidence = incidence
        self.labels = all_labels
        self.scheme = scheme

    def init_state(self, v):
        d = self.labels[v].depth
        starts, edges = _own_steps(self.incidence[v], d, self.scheme)
        return _WeightedUpState(v, d, self.view.parent_edge[v], starts, edges,
                                self.view.children[v])

    def step(self, st, rnd, inbox):
        if st.kid is None and st.kids is None:  # a leaf: every depth is ready
            j = st.j
            if j < 0:
                return [], HALT
            out = [(st.pe, (self._altered(st, st.settle(j, INF, -1)),))]
            return out, ACTIVE if j > 0 else HALT
        outbox = []
        if st.kid is not None:  # one child: its weight is for depth j, final
            if inbox:
                j = st.j
                if j < 0:
                    raise sim.SimError("vertex %d got a weight past depth 0 "
                                       "from child %d" % (st.v, st.kid))
                w = st.settle(j, inbox[0][1][0], st.kid)
                if st.min_v is None:
                    st.min_v = w  # depth d - 1: v's own tree edge's charge
                elif w >= INF:
                    outbox = [(st.pe, (INF,))]
                elif w < st.min_v:
                    raise sim.SimError("negative altered weight at vertex %d" % st.v)
                else:
                    outbox = [(st.pe, (w - st.min_v,))]
            return outbox, IDLE
        if inbox:
            for eid, (w,) in inbox:
                kid = st.kids[eid]
                c, j = kid
                if j < 0:
                    raise sim.SimError("vertex %d got a weight past depth 0 "
                                       "from child %d" % (st.v, c))
                kid[1] = j - 1
                p = st.pending.get(j)
                if p is None:
                    p = st.pending[j] = [w, c, 0]
                elif w < p[0] or (w == p[0] and c < p[1]):
                    p[0] = w
                    p[1] = c
                p[2] += 1
                if p[2] < len(st.kids):
                    continue
                del st.pending[j]
                w = st.settle(j, p[0], p[1])
                if st.min_v is None:
                    st.min_v = w  # depth d - 1: v's own tree edge's charge
                else:
                    outbox.append((st.pe, (self._altered(st, w),)))
        return outbox, IDLE

    @staticmethod
    def _altered(st, w):
        if w >= INF:
            return INF
        alt = w - st.min_v
        if alt < 0:
            raise sim.SimError("negative altered weight at vertex %d" % st.v)
        return alt

    def output(self, st):
        if st.j >= 0:
            raise sim.SimError("vertex %d got no weight for depth %d: a child's "
                               "weights stopped short" % (st.v, st.j))
        return st


def weighted_down(view, tables):
    """Relay (topDepth, topId, deciderId) unchanged along the recorded
    cheapest-sender chain; the chain end adds its own incoming edge. A
    sim.Downcast started by the depth-1 vertices, each a decider for its own
    tree edge; the tree root never acts. A vertex outputs its (virtual
    edge, top id, decider id) records and whether its tree edge is a
    bridge."""
    def act(v, mail):
        tab = tables[v]
        added = []
        bridge = False
        chain_child = None
        m = None if mail is None else mail[0][1]
        if m is None or m[0] == "bot":
            m = None
            if tab.min_v >= INF:
                bridge = True
            else:
                # decider: the top ancestor is the parent, at depth d - 1
                m = (tab.d - 1, view.parent_vertex[v], v)
        if m is not None:
            j, u, dec = m
            src = tab.src_at(j)
            if src == -1:
                added.append((tab.own_edge(j), u, dec))
            else:
                chain_child = src
        return (added, bridge), [(eid, m if c == chain_child else ("bot",))
                                 for c, eid in view.children[v]]

    return sim.Downcast(lambda v: tables[v].d == 1, act)


def weighted_cover_distributed(g, tree, budget: int = sim.DEFAULT_BUDGET):
    """Full distributed run. Returns dict with "added" [(ve, top, decider)],
    "costs" {tree edge id: charge}, "bridges", "labels", "incidence",
    "metrics".

    Raises ValueError when budget is below MIN_BUDGET."""
    if budget < MIN_BUDGET:
        raise ValueError("weighted augmentation needs a budget of at least %d "
                         "tokens (got %d)" % (MIN_BUDGET, budget))
    view = lbl.TreeView.of_tree(tree)
    all_labels, metrics = lbl.assign_labels_distributed(g, view, budget=budget)
    scheme = vg.PlainScheme()
    incidence, m2 = vg.build_incidence_distributed(g, tree, all_labels,
                                                   scheme, budget=budget)
    metrics.merge(m2)
    up = WeightedUpProgram(view, incidence, all_labels, scheme)
    tables, m3 = sim.run(g, up, budget=budget, phase="weighted_up")
    metrics.merge(m3)
    outs, m4 = sim.run(g, weighted_down(view, tables), budget=budget,
                       phase="weighted_down")
    metrics.merge(m4)
    added = []
    bridges = []
    costs = {}
    for v in range(g.n):
        if v == tree.root:
            continue  # the root has no tree edge and never acts
        costs[tree.parent_edge[v]] = tables[v].min_v
        added_v, bridge = outs[v]
        added.extend(added_v)
        if bridge:
            bridges.append(v)
    return {"added": added, "costs": costs, "bridges": bridges,
            "labels": all_labels, "incidence": incidence, "metrics": metrics}


def sequential_weighted_cover(g, tree):
    """Central reference of the same computation (shadow for tests)."""
    view = lbl.TreeView.of_tree(tree)
    all_labels = lbl.assign_labels_sequential(view)
    scheme = vg.PlainScheme()
    incidence = vg.build_incidence_sequential(g, tree, all_labels, scheme)
    n = g.n
    depth = tree.depth
    best_w = [None] * n
    best_src = [None] * n
    best_edge = [None] * n
    min_v = [None] * n
    for v in reversed(tree.order):
        d = depth[v]
        bw, be = _own_table(incidence[v], d, scheme)
        bs = [-1] * d
        for c in tree.children[v]:
            mc = min_v[c]
            for j in range(d):
                w = best_w[c][j]
                alt = INF if w >= INF else w - mc
                if alt < bw[j] or (alt == bw[j] and (bs[j] == -1 or c < bs[j])):
                    bw[j] = alt
                    bs[j] = c
                    be[j] = None
            best_w[c] = None  # merged; only best_src and best_edge are read later
        best_w[v], best_src[v], best_edge[v] = bw, bs, be
        if d > 0:
            min_v[v] = bw[d - 1]
    added = []
    bridges = []
    msg = {v: None for v in range(n)}
    for v in tree.order:
        if v == tree.root:
            continue
        m = msg[v]
        if m is None:
            if min_v[v] >= INF:
                bridges.append(v)
                continue
            u, dec = tree.parent[v], v
        else:
            u, dec = m
        j = depth[u]
        src = best_src[v][j]
        if src == -1:
            added.append((best_edge[v][j], u, dec))
        else:
            msg[src] = (u, dec)
    costs = {tree.parent_edge[v]: min_v[v] for v in range(n) if v != tree.root}
    return {"added": added, "costs": costs, "bridges": bridges,
            "labels": all_labels, "incidence": incidence}


@sim.collector_paused()
def augment_weighted(g, tree, budget: int = sim.DEFAULT_BUDGET):
    """2-approximate minimum-weight augmentation of tree within g.

    Returns (Augmentation, cover records, costs, Metrics). The cover
    records are (virtual edge, top ancestor id, decider id) triples; the
    covered tree path of each edge runs from its descendant endpoint up to
    the top ancestor, and those paths partition the covered tree edges.
    """
    res = weighted_cover_distributed(g, tree, budget=budget)
    if res["bridges"]:
        raise BridgeDetected(res["bridges"])
    ves = [e for e, _, _ in res["added"]]
    aug = vg.project_cover(res["incidence"], ves)
    aug.meta["virtual_cover_weight"] = sum(e.weight for e in ves)
    return aug, res["added"], res["costs"], res["metrics"]
