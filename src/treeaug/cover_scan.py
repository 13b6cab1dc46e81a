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

Both a sequential executor and an engine run are provided; they must
produce identical results. The engine run is the simulator's two tree
waves: a sim.Convergecast for the up pass and a sim.Downcast from the
roots for the verdicts.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import sim
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
# engine passes. Each vertex sends its parent two frames, the necessary
# edge then the optional one, each (originEdgeId,) + ancestor label, or
# empty for none.

def _frame_tokens(ve, scheme):
    return () if ve is None else (ve.origin,) + scheme.tokens(ve.anc)


def _frame_edge(toks, scheme):
    if not toks:
        return None
    anc, _ = scheme.parse(toks, 1)
    return VirtualEdge(anc, None, toks[0], 0)


def cover_up(view, resp_labels, incoming, t0, scheme, budget):
    """Upward pass of the scan over a TreeView, as a sim.Convergecast.

    Per-vertex inputs: responsible label, incoming candidates (incidence
    plus any extra leaf candidates), t0 flag. A received frame reconstructs
    a candidate as VirtualEdge(anc, desc=None, origin, 0): the descendant
    endpoint is structurally below and never inspected on the way up.
    """
    def decide(v, frames):
        kids = [c for c, _ in view.children[v]]
        node = ScanNode(v, resp_labels[v], children=kids,
                        incoming=incoming[v], t0=t0[v],
                        root=view.parent_edge[v] < 0)
        child_recs = [(c, ScanRecord(nec=nec, opt=opt))
                      for c, (nec, opt) in zip(kids, frames.values())]
        rec = _scan_node(node, child_recs, scheme)
        return rec, (_frame_tokens(rec.nec, scheme), _frame_tokens(rec.opt, scheme))

    return sim.Convergecast(view, 2, lambda toks: _frame_edge(toks, scheme),
                            decide, budget)


def cover_down(view, records):
    """Verdict pass, as a sim.Downcast from the view roots: tells each child
    whether its offered optional was used. A vertex outputs the edges it
    added: its up-pass additions, plus its own optional if the verdict
    consumed it."""
    def act(v, verdict):
        rec = records[v]
        my_need = verdict == ("need",)
        added = list(rec.added)
        if my_need and rec.opt_src[0] == "own":
            added.append(rec.opt_src[1])
        outbox = []
        for c, eid in view.children[v]:
            need = rec.case2_child == c or (my_need and rec.opt_src == ("child", c))
            outbox.append((eid, ("need",) if need else ("bot",)))
        return added, outbox

    return sim.Downcast(lambda v: view.parent_edge[v] < 0, act)


def distributed_cover_scan(g, view, resp_labels, incoming, t0, scheme,
                           budget: int = sim.DEFAULT_BUDGET,
                           phase_prefix: str = "cover"):
    """Run the up and down passes on the engine; returns a result dict of
    the same shape as sequential_cover_scan plus "adds_by_vertex" (the
    edges each vertex added) and the Metrics."""
    up = cover_up(view, resp_labels, incoming, t0, scheme, budget)
    recs, metrics = sim.run(g, up, budget=budget, phase=phase_prefix + "_up")
    adds, m2 = sim.run(g, cover_down(view, recs), budget=budget,
                       phase=phase_prefix + "_down")
    metrics.merge(m2)
    added = []
    bridges = []
    for v in range(g.n):
        added.extend(adds[v])
        if recs[v].bridge:
            bridges.append(v)
    return {"added": added, "bridges": bridges, "adds_by_vertex": adds,
            "metrics": metrics}
