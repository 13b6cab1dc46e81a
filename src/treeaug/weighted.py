"""Weighted tree augmentation via altered weights.

Upward phase: every vertex v keeps, for each ancestor u, the cheapest way
w_v(u) to cover the path v..u using edges incoming to its subtree, after
subtracting min_v = w_v(parent(v)) (the cost charged to v's own tree
edge). Values flow to the parent as (ancestorDepth, alteredWeight) pairs,
exactly one pair per tree edge per round, deepest ancestor first, so the
whole phase is pipelined. An ancestor is named by its depth, which every
label carries and which is unique on a root path, so no vertex needs an
ancestor directory. Downward phase: each vertex either starts a cover for
its own tree edge, naming its parent as the top ancestor, or relays the
ancestor's (topDepth, topId, deciderId) choice to the recorded cheapest
sender; the vertex at the end of a chain adds its own incoming edge.

The per-tree-edge charges c(t) = min_v sum exactly to the weight of the
produced cover, and no augmentation can cost less than their sum.
"""
from __future__ import annotations

from . import labels as lbl, sim, virtual_graph as vg
from .sim import ACTIVE, HALT, IDLE
from .unweighted import BridgeDetected

INF = 1 << 62
# the fewest tokens per edge and round that carry the upward (depth, weight)
# pairs and the downward (topDepth, topId, deciderId) relays unframed
MIN_BUDGET = 3


# ---------------------------------------------------------------------------
# ancestor directories: every vertex learns (id, label) of all its ancestors.

class _AncestorState:
    __slots__ = ("ch", "kids", "anc", "got")

    def __init__(self, ch, kids, depth):
        self.ch = ch
        self.kids = kids
        self.anc = [None] * depth  # ancestor labels by depth
        self.got = 0


class _AncestorProgram:
    """Every vertex sends its label to its children and relays each label
    frame it receives from its parent to them."""

    def __init__(self, view, all_labels, budget):
        self.view = view
        self.labels = all_labels
        self.budget = budget

    def init_state(self, v):
        ch = sim.Channel(self.budget)
        kids = [eid for _, eid in self.view.children[v]]
        toks = lbl.label_tokens(self.labels[v])
        for eid in kids:
            ch.send(eid, toks)
        return _AncestorState(ch, kids, self.labels[v].depth)

    def step(self, st, rnd, inbox):
        for _, toks in st.ch.recv(inbox):
            label, _ = lbl.parse_label(toks, 0)
            st.anc[label.depth] = label
            st.got += 1
            for eid in st.kids:
                st.ch.send(eid, toks)
        return st.ch.flush(st.got == len(st.anc))

    def output(self, st):
        # ancestors indexed by depth 0..depth(v)-1
        if None in st.anc:
            raise sim.SimError("incomplete ancestor directory")
        return st.anc


def disseminate_ancestors(g, tree, all_labels, budget: int = sim.DEFAULT_BUDGET,
                          phase: str = "ancestors"):
    """Standalone ancestor-directory helper: v outputs its ancestors' labels by depth."""
    view = lbl.TreeView.of_tree(tree)
    prog = _AncestorProgram(view, all_labels, budget)
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


class _WeightedUpState:
    __slots__ = ("v", "d", "pe", "best_w", "best_src", "best_edge", "recv_cnt",
                 "recv_total", "expected", "nchild", "child_of_edge", "next_j",
                 "min_v")

    def __init__(self, v, d, pe, best_w, best_edge, child_of_edge):
        self.v = v
        self.d = d
        self.pe = pe
        # per ancestor depth j < d: cheapest altered weight, the child it
        # came from (-1: own edge), own edge, and pairs received so far
        self.best_w = best_w
        self.best_src = [-1] * d
        self.best_edge = best_edge
        self.recv_cnt = [0] * d
        self.recv_total = 0
        self.nchild = len(child_of_edge)
        self.expected = self.nchild * d
        self.child_of_edge = child_of_edge
        self.next_j = d - 2  # next depth to send; the parent's is not sent
        self.min_v = best_w[d - 1] if self.nchild == 0 and d > 0 else None


class WeightedUpProgram:
    """One (ancestorDepth, alteredWeight) pair per tree edge per round, for
    ancestors other than the parent, deepest first. A vertex outputs its
    state, whose min_v, d, best_src and best_edge the downward phase
    reads."""

    def __init__(self, view, incidence, all_labels, scheme):
        self.view = view
        self.incidence = incidence
        self.labels = all_labels
        self.scheme = scheme

    def init_state(self, v):
        d = self.labels[v].depth
        best_w, best_edge = _own_table(self.incidence[v], d, self.scheme)
        return _WeightedUpState(v, d, self.view.parent_edge[v], best_w, best_edge,
                                {eid: c for c, eid in self.view.children[v]})

    def step(self, st, rnd, inbox):
        bw = st.best_w
        cnt = st.recv_cnt
        nchild = st.nchild
        if inbox:
            bs = st.best_src
            be = st.best_edge
            child_of_edge = st.child_of_edge
            for eid, (j, w) in inbox:
                c = child_of_edge[eid]
                if w < bw[j] or (w == bw[j] and (bs[j] == -1 or c < bs[j])):
                    bw[j] = w
                    bs[j] = c
                    be[j] = None
                cnt[j] += 1
            st.recv_total += len(inbox)
            d = st.d
            if st.min_v is None and d > 0 and cnt[d - 1] == nchild:
                st.min_v = bw[d - 1]
        min_v = st.min_v
        j = st.next_j
        outbox = []
        if j >= 0 and min_v is not None and cnt[j] == nchild:
            w = bw[j]
            if w >= INF:
                alt = INF
            else:
                alt = w - min_v
                if alt < 0:
                    raise sim.SimError("negative altered weight at vertex %d" % st.v)
            outbox.append((st.pe, (j, alt)))
            j -= 1
            st.next_j = j
        if j < 0 and st.recv_total == st.expected:
            return outbox, HALT
        ready = j >= 0 and min_v is not None and cnt[j] == nchild
        return outbox, ACTIVE if ready else IDLE

    def output(self, st):
        return st


def weighted_down(view, tables):
    """Relay (topDepth, topId, deciderId) unchanged along the recorded
    cheapest-sender chain; the chain end adds its own incoming edge. A
    sim.Downcast started by the depth-1 vertices, each a decider for its own
    tree edge; the tree root never acts. A vertex outputs its (virtual
    edge, top id, decider id) records and whether its tree edge is a
    bridge."""
    def act(v, m):
        tab = tables[v]
        added = []
        bridge = False
        chain_child = None
        if m is None or m[0] == "bot":
            m = None
            if tab.min_v >= INF:
                bridge = True
            else:
                # decider: the top ancestor is the parent, at depth d - 1
                m = (tab.d - 1, view.parent_vertex[v], v)
        if m is not None:
            j, u, dec = m
            src = tab.best_src[j]
            if src == -1:
                added.append((tab.best_edge[j], u, dec))
            else:
                chain_child = src
        return (added, bridge), [(eid, m if c == chain_child else ("bot",))
                                 for c, eid in view.children[v]]

    return sim.Downcast(lambda v: tables[v].d == 1, act)


def weighted_cover_distributed(g, tree, budget: int = sim.DEFAULT_BUDGET):
    """Full distributed run. Returns dict with "added" [(ve, top, decider)],
    "costs" {tree edge id: charge}, "bridges", "labels", "metrics".

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
            "labels": all_labels, "metrics": metrics}


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
            if min_v[v] is None or min_v[v] >= INF:
                if min_v[v] is not None and min_v[v] >= INF:
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
    aug = vg.project_augmentation(g, tree, res["labels"], ves)
    aug.meta["virtual_cover_weight"] = sum(e.weight for e in ves)
    return aug, res["added"], res["costs"], res["metrics"]
