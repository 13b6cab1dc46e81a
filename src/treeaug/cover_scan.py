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
  * the label scheme (plain or fragment-split), used only for the depth
    of each node's responsible label and to check that the ancestor
    endpoints it compares lie on one root path; the edges themselves carry
    their ancestor depth (`VirtualEdge.anc_depth`), so the engine run
    decides on depths alone;
  * pre-covered edges (t0 flags) and extra leaf candidates, both used by
    the fast algorithm.

Both a sequential executor and an engine run are provided; they must
produce identical results. The engine run is two sim.Waves: up, each
vertex sends its parent one 4-token (origin, ancestor depth) header for its
necessary and optional edges, and down from the roots, the verdicts.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import sim
from .virtual_graph import VirtualEdge, maximal_covering, maximal_of


@dataclass(slots=True)
class ScanNode:
    ident: object                    # T vertex id, or fragment id on the contracted tree
    label: object                    # label of the responsible vertex (None at a root)
    children: list = field(default_factory=list)   # child idents
    incoming: list = field(default_factory=list)   # VirtualEdges incoming here
    t0: bool = False                 # parent edge already covered
    root: bool = False


@dataclass(slots=True)
class ScanRecord:
    added: list = field(default_factory=list)      # edges this node added (up pass)
    bridge: bool = False
    opt: VirtualEdge | None = None                 # optional forwarded up
    opt_src: tuple | None = None                   # ("child", ident) | ("own", ve)
    nec: VirtualEdge | None = None                 # necessary forwarded up
    case2_child: object = None                     # child whose optional was consumed


def _scan_node(node: ScanNode, child_recs, scheme) -> ScanRecord:
    """Covering rule for one node, children already processed: child_recs
    holds (ident, necessary, optional) for each child, the two edges the
    child forwards."""
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
    for ident, cnec, copt in child_recs:
        # a necessary edge that ends at or below this node cannot cover its
        # edge; on the contracted fragment tree two such may end in
        # different branches of this fragment, where they are incomparable
        if cnec is not None and cnec.anc_depth < mydepth:
            nec = maximal_of(nec, cnec, scheme)
        if copt is not None and copt.anc_depth < mydepth:
            cand = maximal_of(opt, copt, scheme)
            if cand is not opt:
                opt = cand
                opt_src = ("child", ident)
    if own_max is not None:
        cand = maximal_of(opt, own_max, scheme)
        if cand is not opt:
            opt = cand
            opt_src = ("own", own_max)
    if node.t0 or nec is not None:
        rec.nec = nec
        rec.opt = opt
        rec.opt_src = opt_src
        return rec
    if opt is None:
        rec.bridge = True
        return rec
    # the maximal optional becomes necessary and is added here (or at the
    # child that offered it, settled by the verdict pass)
    rec.nec = opt
    kind, payload = opt_src
    if kind == "own":
        rec.added.append(opt)
    else:
        rec.case2_child = payload
    return rec


def sequential_cover_scan(nodes: dict, scheme):
    """Run the scan centrally. nodes maps ident -> ScanNode.

    Returns dict with "added" (list of VirtualEdge), "bridges" (idents)
    and "records" (ident -> ScanRecord).
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
        child_recs = [(c, records[c].nec, records[c].opt)
                      for c in sorted(nd.children)]
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
    return {"added": added, "bridges": bridges, "records": records}


# ---------------------------------------------------------------------------
# engine passes. Each non-root vertex sends its parent one header
# (necOrigin, necDepth, optOrigin, optDepth): the necessary edge and the
# optional one it forwards, each as its origin edge id and the depth of its
# ancestor endpoint, with -1, -1 for none. A vertex that forwards neither
# (a bridge, or a pre-covered edge with no optional) sends just (-1,). The
# header goes unframed when the budget holds its 4 tokens, else as one
# frame. Both up passes that send it, `cover_up` and fast's in-fragment
# scan (for its two kinds of edge), are a `header_wave`.

HEADER_TOKENS = 4
_NONE = (-1, -1)
_EMPTY = (-1,)


class _DepthView:
    """The label scheme as `_scan_node` sees it in the engine run, where a
    child's candidate arrives as a header, (origin, ancestor depth), and is
    parsed into an edge with no ancestor label, while the vertex's own
    candidates keep their labels. Every edge carries its ancestor depth
    (`VirtualEdge.anc_depth`), so the view needs only `depth`, for the
    vertex's own label, and an `is_ancestor` that is always True.

    Deciding on depth alone is exact. Every candidate a vertex compares has
    its ancestor endpoint on the vertex's root path. A child forwards only
    edges whose ancestor endpoint lies above the child, hence on the
    vertex's root path; an own candidate descends from the vertex (an
    incident edge, or an extra injected where its descendant's chain enters
    the fragment), and it is compared only once its ancestor endpoint lies
    above the vertex. Two vertices of one root path at the same depth are
    the same vertex, and of two at different depths the shallower is the
    ancestor. So `maximal_of` needs only depths and origins, and its
    incomparable-ancestor check cannot fire. The edges a vertex adds are
    always its own: held with full labels, or, for fast's extras, as the
    broadcast record of an edge whose owner holds them. So the cover is the
    one `sequential_cover_scan` finds with the full scheme. fast's
    in-fragment scan and its contracted-tree scan decide through this view
    too, for the same reason.
    """

    __slots__ = ("depth",)

    def __init__(self, scheme):
        self.depth = scheme.depth

    @staticmethod
    def is_ancestor(a, d) -> bool:
        return True


def _half(ve):
    return _NONE if ve is None else (ve.origin, ve.anc_depth)


def depth_header(a, b):
    """The header of edges a and b, each a VirtualEdge or None."""
    if a is None and b is None:
        return _EMPTY
    return _half(a) + _half(b)


def parse_depth_header(toks):
    """(a, b) from a header; each VirtualEdge(None, None, origin, 0,
    ancestor depth), or None."""
    if toks == _EMPTY:
        return None, None
    a, da, b, db = toks
    return (None if a < 0 else VirtualEdge(None, None, a, 0, da),
            None if b < 0 else VirtualEdge(None, None, b, 0, db))


def header_wave(view, decide, budget):
    """Leaves-to-root pass over a TreeView, as a sim.Wave, in which every
    non-root vertex sends its parent one depth header.

    `decide(v, recs)` gets its children's (a, b) edge pairs, parsed from
    their headers in `children[v]` order, and returns (output, (a, b)): the
    vertex's output and the two edges, each a VirtualEdge or None, whose
    `depth_header` it sends up. A parsed edge carries its origin and its
    ancestor depth and nothing else, no ancestor label and no descendant:
    the descendant endpoint is structurally below and never inspected on
    the way up.

    Cost on a forest of height h with n vertices: from budget 4 up, one
    message a tree edge, 4 tokens (1 for (-1,)), and at most h rounds;
    below 4, one frame a tree edge, 5 tokens with its length (2 for
    (-1,)), so at most ceil(5/budget) messages an edge and
    h*ceil(5/budget) rounds. When every vertex forwards an edge, as on a
    2-edge-connected graph without pre-covered edges, these are exact.
    """
    def act(v, mail):
        by_edge = dict(mail)
        out, (a, b) = decide(v, [parse_depth_header(by_edge[eid])
                                 for _, eid in view.children[v]])
        return out, view.to_parent(v, depth_header(a, b))

    return sim.Wave(lambda v: len(view.children[v]), act, budget,
                    framed=budget < HEADER_TOKENS)


def cover_up(view, resp_labels, incoming, t0, scheme, budget):
    """Upward pass of the scan: a `header_wave` whose vertices decide by
    `_scan_node` on their responsible label, incoming candidates (incidence
    plus any extra leaf candidates) and t0 flag, send up their necessary and
    optional edges, and output their ScanRecord."""
    dview = _DepthView(scheme)

    def decide(v, recs):
        kids = view.children[v]
        node = ScanNode(v, resp_labels[v], [c for c, _ in kids], incoming[v],
                        t0[v], view.parent_edge[v] < 0)
        rec = _scan_node(node, [(c, nec, opt)
                                for (c, _), (nec, opt) in zip(kids, recs)],
                         dview)
        return rec, (rec.nec, rec.opt)

    return header_wave(view, decide, budget)


def cover_down(view, records):
    """Verdict pass, as a sim.Wave down from the view roots: tells each child
    whether its offered optional was used. A vertex outputs the edges it
    added: its up-pass additions, plus its own optional if the verdict
    consumed it."""
    def act(v, mail):
        rec = records[v]
        my_need = bool(mail) and mail[0][1] == ("need",)
        added = list(rec.added)
        if my_need and rec.opt_src[0] == "own":
            added.append(rec.opt_src[1])
        outbox = []
        for c, eid in view.children[v]:
            need = rec.case2_child == c or (my_need and rec.opt_src == ("child", c))
            outbox.append((eid, ("need",) if need else ("bot",)))
        return added, outbox

    return sim.Wave(lambda v: view.parent_edge[v] >= 0, act)


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
