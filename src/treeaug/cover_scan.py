"""Leaves-to-root covering scan: the optimal unweighted cover of tree edges
by ancestor-descendant virtual edges.

Each non-root node is responsible for the edge to its parent. A leaf whose
edge is uncovered adds its maximal incoming edge (necessary). An internal
node forwards the maximal necessary edge and the maximal optional; if its
own edge is not covered by the necessaries it adds the maximal optional,
which thereby becomes necessary. A root-to-leaves verdict pass tells each
node whether the optional it offered was used.

The scan is generic over:
  * the tree it runs on (whole tree, a fragment forest, or the contracted
    fragment tree), given as ScanNode records;
  * the label scheme (plain or fragment-split), used only for ancestor
    depth comparisons;
  * pre-covered edges (t0 flags) and extra leaf candidates, both used by
    the fast algorithm.

Both a sequential executor and engine programs are provided; they must
produce identical results.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import sim
from .sim import HALT, IDLE
from .virtual_graph import VirtualEdge, maximal_covering, maximal_of


@dataclass
class ScanNode:
    ident: object                    # T vertex id, or fragment id on the contracted tree
    label: object                    # label of the responsible vertex (None at a root)
    children: list = field(default_factory=list)   # child idents
    incoming: list = field(default_factory=list)   # VirtualEdges incoming here
    t0: bool = False                 # parent edge already covered
    root: bool = False


@dataclass
class ScanRecord:
    added: list = field(default_factory=list)      # edges this node added (up pass)
    bridge: bool = False
    opt: VirtualEdge | None = None                 # optional forwarded up
    opt_src: tuple | None = None                   # ("child", ident) | ("own", ve)
    nec: VirtualEdge | None = None                 # necessary forwarded up
    case2_child: object = None                     # child whose optional was consumed


def _scan_node(node: ScanNode, child_recs, scheme) -> ScanRecord:
    """Covering rule for one node, children already processed."""
    rec = ScanRecord()
    if node.root:
        return rec
    mydepth = scheme.depth(node.label)
    own_max = maximal_covering(node.incoming, mydepth, scheme)
    if not node.children:
        if node.t0:
            rec.opt = own_max
            rec.opt_src = ("own", own_max) if own_max is not None else None
        elif own_max is None:
            rec.bridge = True
        else:
            rec.added.append(own_max)
            rec.nec = own_max
        return rec
    nec = None
    opt = None
    opt_src = None
    for ident, crec in child_recs:
        if crec.nec is not None:
            nec = maximal_of(nec, crec.nec, scheme)
        if crec.opt is not None and scheme.depth(crec.opt.anc) < mydepth:
            cand = maximal_of(opt, crec.opt, scheme)
            if cand is not opt:
                opt = cand
                opt_src = ("child", ident)
    if own_max is not None:
        cand = maximal_of(opt, own_max, scheme)
        if cand is not opt:
            opt = cand
            opt_src = ("own", own_max)
    covered = node.t0 or (nec is not None and scheme.depth(nec.anc) < mydepth)
    if covered:
        if nec is not None and scheme.depth(nec.anc) < mydepth:
            rec.nec = nec
        rec.opt = opt
        rec.opt_src = opt_src
        return rec
    if opt is None:
        rec.bridge = True
        return rec
    # the maximal optional becomes necessary and is added here (or at the
    # child that offered it, settled by the verdict pass)
    rec.nec = maximal_of(nec, opt, scheme) if nec is not None else opt
    if scheme.depth(rec.nec.anc) >= mydepth:
        rec.nec = opt
    kind, payload = opt_src
    if kind == "own":
        rec.added.append(opt)
    else:
        rec.case2_child = payload
    return rec


def sequential_cover_scan(nodes: dict, scheme):
    """Run the scan centrally. nodes maps ident -> ScanNode.

    Returns dict with "added" (list of VirtualEdge) and "bridges" (idents).
    """
    roots = [nid for nid, nd in nodes.items() if nd.root]
    order = []
    stack = list(sorted(roots))
    while stack:
        nid = stack.pop()
        order.append(nid)
        for c in sorted(nodes[nid].children):
            stack.append(c)
    records: dict = {}
    for nid in reversed(order):
        nd = nodes[nid]
        child_recs = [(c, records[c]) for c in sorted(nd.children)]
        records[nid] = _scan_node(nd, child_recs, scheme)

    # verdict pass: which forwarded optionals were consumed above
    needed = {nid: False for nid in nodes}
    for nid in order:
        rec = records[nid]
        if rec.case2_child is not None:
            needed[rec.case2_child] = True
        if needed[nid]:
            kind, payload = rec.opt_src
            if kind == "own":
                rec.added.append(payload)
            else:
                needed[payload] = True
    added = []
    bridges = []
    for nid in order:
        rec = records[nid]
        added.extend(rec.added)
        if rec.bridge:
            bridges.append(nid)
    return {"added": added, "bridges": bridges}


# ---------------------------------------------------------------------------
# engine programs. Each vertex sends its parent two frames, the necessary
# edge then the optional one, each (originEdgeId,) + ancestor label, or
# empty for none.

def _frame_tokens(ve, scheme):
    return () if ve is None else (ve.origin,) + scheme.tokens(ve.anc)


def _frame_edge(toks, scheme):
    if not toks:
        return None
    anc, _ = scheme.parse(toks, 1)
    return VirtualEdge(anc, None, toks[0], 0)


class _CoverUpState:
    __slots__ = ("v", "pe", "child_of_edge", "frames", "nframes", "ch", "rec")

    def __init__(self, v, pe, child_of_edge, ch):
        self.v = v
        self.pe = pe
        self.child_of_edge = child_of_edge
        self.frames = {eid: [] for eid in child_of_edge}  # child edge -> [nec, opt]
        self.nframes = 0
        self.ch = ch
        self.rec = None


class CoverUpProgram:
    """Upward pass of the scan over a TreeView.

    Per-vertex inputs: responsible label, incoming candidates (incidence
    plus any extra leaf candidates), t0 flag. A received frame reconstructs
    a candidate as VirtualEdge(anc, desc=None, origin, 0): the descendant
    endpoint is structurally below and never inspected on the way up.
    """

    def __init__(self, view, resp_labels, incoming, t0, scheme, budget):
        self.view = view
        self.labels = resp_labels
        self.incoming = incoming
        self.t0 = t0
        self.scheme = scheme
        self.budget = budget

    def init_state(self, v):
        return _CoverUpState(v, self.view.parent_edge[v],
                             {eid: c for c, eid in self.view.children[v]},
                             sim.Channel(self.budget))

    def _decide(self, st):
        v = st.v
        node = ScanNode(v, self.labels[v],
                        children=list(st.child_of_edge.values()),
                        incoming=self.incoming[v], t0=self.t0[v],
                        root=st.pe < 0)
        child_recs = []
        for eid, (nec, opt) in st.frames.items():
            child_recs.append((st.child_of_edge[eid], ScanRecord(nec=nec, opt=opt)))
        rec = _scan_node(node, child_recs, self.scheme)
        st.rec = rec
        if st.pe >= 0:
            st.ch.send(st.pe, _frame_tokens(rec.nec, self.scheme))
            st.ch.send(st.pe, _frame_tokens(rec.opt, self.scheme))

    def step(self, st, rnd, inbox):
        for eid, toks in st.ch.recv(inbox):
            st.frames[eid].append(_frame_edge(toks, self.scheme))
            st.nframes += 1
        if st.rec is None and st.nframes == 2 * len(st.frames):
            self._decide(st)
        return st.ch.flush(st.rec is not None)

    def output(self, st):
        return st.rec


class _CoverDownState:
    __slots__ = ("v", "pe", "child_edges", "extra")

    def __init__(self, v, pe, child_edges):
        self.v = v
        self.pe = pe
        self.child_edges = child_edges  # [(child, edge id)]
        self.extra = []                 # own optionals the verdict consumed


class CoverDownProgram:
    """Verdict pass: tells each child whether its offered optional was used."""

    def __init__(self, view, records, budget):
        self.view = view
        self.records = records  # per-vertex ScanRecord from the up pass
        self.budget = budget

    def init_state(self, v):
        return _CoverDownState(v, self.view.parent_edge[v],
                               list(self.view.children[v]))

    def _verdicts(self, st, my_need):
        rec = self.records[st.v]
        if my_need:
            kind, payload = rec.opt_src
            if kind == "own":
                st.extra.append(payload)
        outbox = []
        for c, eid in st.child_edges:
            need = rec.case2_child == c
            if my_need and rec.opt_src[0] == "child" and rec.opt_src[1] == c:
                need = True
            outbox.append((eid, (("need",) if need else ("bot",))))
        return outbox

    def step(self, st, rnd, inbox):
        if st.pe < 0:
            return self._verdicts(st, False), HALT
        if inbox:
            verdict = inbox[0][1][0]
            return self._verdicts(st, verdict == "need"), HALT
        return [], IDLE

    def output(self, st):
        rec = self.records[st.v]
        return list(rec.added) + st.extra


def distributed_cover_scan(g, view, resp_labels, incoming, t0, scheme,
                           budget: int = sim.DEFAULT_BUDGET,
                           phase_prefix: str = "cover"):
    """Run the up and down passes on the engine; returns a result dict of
    the same shape as sequential_cover_scan plus "adds_by_vertex" (the
    edges each vertex added) and the Metrics."""
    up = CoverUpProgram(view, resp_labels, incoming, t0, scheme, budget)
    recs, metrics = sim.run(g, up, budget=budget, phase=phase_prefix + "_up")
    down = CoverDownProgram(view, recs, budget)
    adds, m2 = sim.run(g, down, budget=budget, phase=phase_prefix + "_down")
    metrics.merge(m2)
    added = []
    bridges = []
    for v in range(g.n):
        added.extend(adds[v])
        if recs[v] is not None and recs[v].bridge:
            bridges.append(v)
    return {"added": added, "bridges": bridges, "adds_by_vertex": adds,
            "metrics": metrics}
