"""Ancestor-descendant view of non-tree edges.

Every non-tree edge {u, v} of G maps to edges whose endpoints are related
by ancestry: the edge itself if one endpoint is an ancestor of the other,
else the two edges {t, u} and {t, v} with t = lca(u, v), each inheriting
the original weight and edge id. A cover of all tree edges in this view
projects back to an augmentation of G at most twice the size/weight.

A virtual edge carries the depth of its ancestor endpoint as an int, set
once where the edge is made: by `classify_incoming` from the LCA label, by
the covering scan from the header a child sends up, and by fast from a
broadcast record. Every comparison of ancestor endpoints (`maximal_of`,
`maximal_covering`, `edge_covers` and the covering scan) reads that int.
An edge known only by its origin and ancestor depth, as a header or a
record names it, has no ancestor label (`anc` is None).

Label handling is abstracted behind a scheme object so the same machinery
runs on whole-tree labels and on fragment (split) labels. The labels cross
the non-tree edges in one `sim.Wave` that sends first, each as its tokens
alone: a label ends at its last hop (`labels.is_last_hop`), so its frame
needs no length token.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from . import labels as lbl
from . import sim
from .graph import Augmentation


class VirtualGraphError(Exception):
    pass


# slotted rather than frozen, as labels.LcaLabel is, and equal and hashed
# by all five fields, of which anc_depth follows from a full ancestor label;
# nothing assigns to one after it is built
@dataclass(slots=True, unsafe_hash=True)
class VirtualEdge:
    anc: object      # label of the endpoint closer to the root, or None
    desc: object     # label of the deeper endpoint
    origin: int      # G edge id this edge derives from
    weight: int
    anc_depth: int   # depth of the ancestor endpoint


class PlainScheme:
    """Whole-tree labels: anc/desc are LcaLabel values. `lca` is
    `labels.lca_query`: a itself when a is an ancestor of b, else b itself
    when b is an ancestor of a, else a new label."""

    def depth(self, label) -> int:
        return label.depth

    def vertex_of(self, label):
        return label.vertex

    def key(self, label):
        return label.seq

    lca = staticmethod(lbl.lca_query)
    is_ancestor = staticmethod(lbl.is_ancestor)
    parse = staticmethod(lbl.parse_label)

    def tokens(self, label) -> tuple:
        return lbl.hop_tokens(label.seq)


def classify_incoming(self_label, other_label, eid, w, scheme) -> VirtualEdge | None:
    """The virtual edge incoming at the `self` endpoint, if any: None when
    self is the ancestor endpoint, else the edge from the LCA, which is the
    peer itself when the peer is self's ancestor. `scheme.lca` tells these
    apart by identity in one pass over the labels' common prefix."""
    t = scheme.lca(self_label, other_label)
    if t is self_label:
        return None
    return VirtualEdge(t, self_label, eid, w, scheme.depth(t))


def edge_covers(ve: VirtualEdge, v_label, scheme) -> bool:
    """Does ve cover the tree edge between v and its parent?"""
    return (ve.anc_depth < scheme.depth(v_label)
            and scheme.is_ancestor(v_label, ve.desc))


def maximal_of(e1: VirtualEdge | None, e2: VirtualEdge | None, scheme) -> VirtualEdge | None:
    """The edge whose ancestor endpoint is closer to the root; ties by
    lowest origin id. The winner's ancestor endpoint must be an ancestor of
    the loser's, the same vertex on a tie: `scheme.is_ancestor` checks it,
    and incomparable ancestors are a caller bug."""
    if e1 is None:
        return e2
    if e2 is None:
        return e1
    d1, d2 = e1.anc_depth, e2.anc_depth
    if d1 < d2 or (d1 == d2 and e1.origin <= e2.origin):
        hi, lo = e1, e2
    else:
        hi, lo = e2, e1
    if not scheme.is_ancestor(hi.anc, lo.anc):
        raise VirtualGraphError("incomparable ancestor endpoints")
    return hi


def maximal_covering(cands, depth_limit, scheme) -> VirtualEdge | None:
    """Maximal edge among cands (None entries skipped) whose ancestor
    endpoint is strictly above depth_limit."""
    best = None
    for ve in cands:
        if ve is not None and ve.anc_depth < depth_limit:
            best = maximal_of(best, ve, scheme)
    return best


def covered_tree_edges(tree, ve: VirtualEdge, scheme) -> list[int]:
    """Tree edge ids covered by ve: the path from its descendant endpoint up
    to its ancestor endpoint."""
    v = scheme.vertex_of(ve.desc)
    if v is None:
        raise VirtualGraphError("descendant endpoint has no resolved vertex")
    stop = ve.anc_depth
    out = []
    while tree.depth[v] > stop:
        out.append(tree.parent_edge[v])
        v = tree.parent[v]
    return out


def virtual_edges_of(g, tree, all_labels, eid, scheme) -> list[VirtualEdge]:
    u, v, w = g.edges[eid]
    out = []
    ve = classify_incoming(all_labels[u], all_labels[v], eid, w, scheme)
    if ve is not None:
        out.append(ve)
    ve = classify_incoming(all_labels[v], all_labels[u], eid, w, scheme)
    if ve is not None:
        out.append(ve)
    if not out:
        raise VirtualGraphError("edge %d maps to no virtual edge" % eid)
    return out


def build_incidence_sequential(g, tree, all_labels, scheme):
    """incidence[v] = virtual edges with descendant endpoint v, by origin id."""
    incidence: list[list[VirtualEdge]] = [[] for _ in range(g.n)]
    for eid in range(g.m):
        if eid in tree.tree_edges:
            continue
        for ve in virtual_edges_of(g, tree, all_labels, eid, scheme):
            incidence[scheme.vertex_of(ve.desc)].append(ve)
    for lst in incidence:
        lst.sort(key=lambda e: e.origin)
    return incidence


def exchange_distributed(g, tree, send, read, budget: int = sim.DEFAULT_BUDGET,
                         ends=None):
    """A `sim.Wave` that sends first: each vertex v sends `send(v)` on each
    of its non-tree edges and, once all have come in, outputs `read(v,
    peer)`, peer mapping those edge ids to the messages that came over
    them. `send` is called only for vertices with a non-tree edge. Returns
    (read results, Metrics).

    Without `ends`, each message goes as it is, in round 0, and must fit
    the budget. With `ends`, a predicate on tokens, messages delimit
    themselves (see `sim.Channel`): v streams a message of L_v tokens on
    each edge as ceil(L_v/budget) chunks from round 0 on, so the phase
    takes the largest ceil(L_v/budget) over the vertices with a non-tree
    edge in rounds, 0 with none."""
    nt = [[eid for eid, _ in adj if eid not in tree.tree_edges]  # ascending
          for adj in g.adj]
    wave = sim.Wave(lambda v: len(nt[v]),
                    lambda v, mail: (read(v, dict(mail)), []), budget,
                    ends=ends,
                    first=lambda v: zip(nt[v], repeat(send(v))) if nt[v] else ())
    return sim.run(g, wave, budget=budget, phase="exchange")


def build_incidence_distributed(g, tree, all_labels, scheme,
                                budget: int = sim.DEFAULT_BUDGET):
    """build_incidence_sequential's result, by exchanging labels."""
    def read(v, peer):
        me = all_labels[v]
        out = []
        for eid in sorted(peer):
            ve = classify_incoming(me, scheme.parse(peer[eid], 0)[0],
                                   eid, g.weight(eid), scheme)
            if ve is not None:
                out.append(ve)
        return out

    return exchange_distributed(g, tree, lambda v: scheme.tokens(all_labels[v]),
                                read, budget, ends=lbl.is_last_hop)


def project_cover(incidence, virt_edges, scheme=None) -> Augmentation:
    """Map a cover in the virtual view back to G edges from the incidence
    lists: each virtual edge's descendant endpoint v takes the
    minimum-weight origin among its own incoming edges incidence[v] with
    the same ancestor endpoint, ties by lowest edge id."""
    scheme = scheme or PlainScheme()
    cheapest: dict = {}  # v -> {ancestor key: (weight, origin)}, on first use
    chosen = set()
    weight = 0
    for ve in virt_edges:
        v = scheme.vertex_of(ve.desc)
        groups = cheapest.get(v)
        if groups is None:
            groups = cheapest[v] = {}
            for e in incidence[v]:
                key = scheme.key(e.anc)
                cand = (e.weight, e.origin)
                if key not in groups or cand < groups[key]:
                    groups[key] = cand
        best = groups.get(scheme.key(ve.anc))
        if best is None:
            raise VirtualGraphError("virtual edge %r has no origin" % (ve,))
        w, eid = best
        if eid not in chosen:
            chosen.add(eid)
            weight += w
    return Augmentation(frozenset(chosen), weight)


def project_augmentation(g, tree, all_labels, virt_edges, scheme=None) -> Augmentation:
    """project_cover over incidence lists built from G and the labels, for
    callers that do not hold the exchange's."""
    scheme = scheme or PlainScheme()
    incidence = build_incidence_sequential(g, tree, all_labels, scheme)
    return project_cover(incidence, virt_edges, scheme)
