"""Sublinear-round augmentation: the tree is cut into O(sqrt(n)) fragments
of diameter O(sqrt(n)); ancestry queries use a (fragment, local label)
pair plus a globally broadcast directory of the fragment tree, and the
cover is built in three passes (tree-leaf edges, cross-fragment edges,
in-fragment edges). The result is an optimal-within-factor-2 cover of the
ancestor-descendant view, hence a 4-approximate augmentation.

Every broadcast runs over a BFS tree, flooded from the root as an
unframed `sim.Downcast`: a vertex acts on the whole first round of mail
that reaches it, takes the least (sender id, edge id) of it as its
parent, and sends on every edge. The parent endpoint p of each
global edge (a tree edge between two fragments) already holds its local
label, so it announces the edge's directory record itself: ("gr",
childFrag, p) and the label's ("lp", head, pos) hops. The first hop's head
is p's fragment root, the parent fragment's id, and `labels.seq_depth`
reads p's depth from the hops, as every label's receiver does. The
records are the fragment tree: the second pass scans it as a contracted
tree, and ancestry across fragments and the third pass's entry points are
read by walking it upward.

The first two passes share one in-fragment scan, which finds for each
vertex both the maximal leaf-added edge and the maximal incoming edge
covering its parent edge, and one broadcast of both kinds of record.
Neither carries a label: the scan sends one depth-keyed header per tree
edge, as the covering scan does, and a record is ((tag, fragment, origin),
ancestor depth): 3 tokens up, framed, and 2 down, where every record
starts with a tuple token that is not an ("lp", head, pos) hop and so
needs no length token (`split_records`). The tag is "lc" for a leaf-added
edge and "gc" for an incoming one; a fragment whose two maxima are one
edge sends it once, tagged "lg", and receivers file it as both.
A record marks the edges it covers outside its descendant's fragment
only, which `_record_covers` shows is enough. The cover is built from the
full edges the records' owners hold. The third pass is an
in-fragment covering scan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import cover_scan, labels as lbl, sim, virtual_graph as vg
from .graph import NotConnectedError, root_tree
from .unweighted import BridgeDetected


# ---------------------------------------------------------------------------
# fragment decomposition (computed centrally and injected; charged as a
# nominal phase sized like its distributed counterpart, see augment_fast)

def fragment_decompose(tree, target: int | None = None):
    """Greedy bottom-up fragmentation: close a fragment once its residual
    size reaches target (default ceil(sqrt(n))); the tree root absorbs the
    leftover. Returns (frag_of, roots) with fragment id = its root vertex."""
    n = tree.n
    s = target if target is not None else max(1, math.isqrt(n - 1) + 1)
    resid = [1] * n
    is_root = [False] * n
    for v in reversed(tree.order):
        r = 1 + sum(resid[c] for c in tree.children[v])
        if v == tree.root or r >= s:
            is_root[v] = True
            resid[v] = 0
        else:
            resid[v] = r
    frag_of = [-1] * n
    roots = []
    for v in tree.order:
        if is_root[v]:
            frag_of[v] = v
            roots.append(v)
        else:
            frag_of[v] = frag_of[tree.parent[v]]
    return frag_of, roots


# ---------------------------------------------------------------------------
# split labels

@dataclass(frozen=True)
class SplitLabel:
    frag: int
    local: lbl.LcaLabel | None  # None names a fragment only, as a record does


class SplitScheme:
    """Ancestry algebra over (fragment, local label) pairs, backed by the
    broadcast directory of global edges.

    records: (child fragment, parent fragment, local label of the parent
    endpoint of the child's global edge) triples; root_frag is the fragment
    holding the tree root. The records are the fragment tree: a root path
    leaves fragment f for tf_parent[f], entering it at entry_label[f]. The
    LCA of two vertices in different fragments is found by walking both
    root paths up to the fragment-tree LCA fragment F, as the local LCA of
    their entry points into F.
    """

    def __init__(self, records, root_frag: int):
        self.root_frag = root_frag
        self.tf_parent = {}
        self.entry_label = {}
        for child, parent, plabel in records:
            self.tf_parent[child] = parent
            self.entry_label[child] = plabel
        # fragment-tree depth, and full-tree depth of each fragment root
        self.tf_depth = {root_frag: 0}
        self.base_depth = {root_frag: 0}
        for f in self.tf_parent:
            path = []
            while f not in self.tf_depth:
                path.append(f)
                f = self.tf_parent[f]
            for c in reversed(path):
                p = self.tf_parent[c]
                self.tf_depth[c] = self.tf_depth[p] + 1
                self.base_depth[c] = (self.base_depth[p]
                                      + self.entry_label[c].depth + 1)

    def depth(self, sl: SplitLabel) -> int:
        return self.base_depth[sl.frag] + sl.local.depth

    def vertex_of(self, sl: SplitLabel):
        return sl.local.vertex

    def key(self, sl: SplitLabel):
        return (sl.frag, sl.local.seq)

    def _up(self, sl: SplitLabel, tf_depth: int):
        """(fragment, local label) where sl's root path enters its
        fragment-tree ancestor at fragment-tree depth tf_depth."""
        f, x = sl.frag, sl.local
        while self.tf_depth[f] > tf_depth:
            f, x = self.tf_parent[f], self.entry_label[f]
        return f, x

    def lca(self, a: SplitLabel, b: SplitLabel) -> SplitLabel:
        d = min(self.tf_depth[a.frag], self.tf_depth[b.frag])
        fa, x = self._up(a, d)
        fb, y = self._up(b, d)
        while fa != fb:
            fa, x = self.tf_parent[fa], self.entry_label[fa]
            fb, y = self.tf_parent[fb], self.entry_label[fb]
        return SplitLabel(fa, lbl.lca_query(x, y))

    def is_ancestor(self, a: SplitLabel, d: SplitLabel) -> bool:
        f, x = self._up(d, self.tf_depth[a.frag])
        return f == a.frag and lbl.is_ancestor(a.local, x)

    def tokens(self, sl: SplitLabel) -> tuple:
        return (("sf", sl.frag),) + lbl.hop_tokens(sl.local.seq)

    def parse(self, buf, i):
        if buf[i][0] != "sf":
            raise lbl.LabelError("expected fragment tag, got %r" % (buf[i],))
        frag = buf[i][1]
        local, j = lbl.parse_label(buf, i + 1)
        return SplitLabel(frag, local), j


def split_labels_sequential(tree, frag_of):
    """Split labels and their scheme, computed centrally from the local
    labels and the global-edge records."""
    view = lbl.TreeView.of_fragments(tree, frag_of)
    local = lbl.assign_labels_sequential(view)
    records = []
    for v in view.roots:
        if v == tree.root:
            continue
        p = tree.parent[v]
        records.append((v, frag_of[p], local[p]))
    scheme = SplitScheme(records, frag_of[tree.root])
    split = [SplitLabel(frag_of[v], local[v]) for v in range(tree.n)]
    return split, scheme


# ---------------------------------------------------------------------------
# distributed BFS tree (carrier for the coordinator broadcasts)

def build_bfs_tree_distributed(g, root: int, budget: int = sim.DEFAULT_BUDGET):
    """BFS tree from `root` by flooding, as an unframed sim.Downcast over all
    of g's edges; returns (tree, Metrics). The root sends ("d", root, 0) on
    every edge in round 0. A vertex at distance d first gets mail in round
    d, all of it from distance d - 1; it takes as its parent the least
    (sender id, edge id) over that round's mail, `graph.bfs_tree`'s rule,
    sends ("d", v, d) on every edge and halts.

    Cost, for a connected g with m edges: every vertex sends one 1-token
    message on each of its edges, so messages = tokens = 2m. The last
    layer, at distance ecc(root), sends in round ecc(root) to neighbours
    that have halted, so the run takes ecc(root) + 1 rounds, and 0 when
    n = 1. A disconnected g raises NotConnectedError after the run."""
    def act(v, mail):
        if mail is None:
            parent, dist = None, 0
        else:
            parent = min((toks[0][1], eid) for eid, toks in mail)
            dist = mail[0][1][0][2] + 1
        msg = (("d", v, dist),)
        return parent, [(eid, msg) for eid, _ in g.adj[v]]

    prog = sim.Downcast(lambda v: v == root, act)
    outputs, metrics = sim.run(g, prog, budget=budget, phase="bfs")
    tree_ids = [outputs[v][1] for v in range(g.n) if v != root and outputs[v]]
    if len(tree_ids) < g.n - 1:
        raise NotConnectedError("graph is disconnected")
    return root_tree(g, tree_ids, root), metrics


# ---------------------------------------------------------------------------
# in-fragment maximal-edge scan (one run serves the leaf and global passes)

def _fragment_max_scan(view, split_labels, scheme, own_cands, budget):
    """Bottom-up within each fragment, as a sim.Convergecast, for the two
    kinds of candidate at once. own_cands[i](v) lists the vertex's own
    candidates of kind i, with full labels. Every non-root vertex sends its
    local parent one `cover_scan.depth_header` (leafOrigin, leafAncDepth,
    inOrigin, inAncDepth): per kind, the maximal edge covering its parent
    edge, or none. It goes unframed from budget 4 up, else as one frame.
    A vertex outputs its two maximal edges; a fragment root's cover its
    global edge.

    Every candidate a vertex compares has its ancestor endpoint on the
    vertex's root path: a child's edge covers the child's parent edge, and
    an own edge descends from the vertex. So the vertex decides on depths
    through `cover_scan._DepthView`, as `cover_scan.cover_up` does, and a
    received edge is VirtualEdge(ancestor depth, None, origin, 0).

    Cost on fragments of height h_f, with k fragments: from budget 4 up,
    h_f rounds and n - k messages of at most 4 tokens; below 4, one frame
    an edge of at most 5 tokens with its length.
    """
    dview = cover_scan._DepthView(scheme)

    def decide(v, msgs):
        depth = scheme.depth(split_labels[v])
        best = tuple(
            vg.maximal_covering([m[i] for m in msgs.values()] + own(v),
                                depth, dview)
            for i, own in enumerate(own_cands))
        return best, cover_scan.depth_header(*best, dview)

    return sim.Convergecast(view, cover_scan.parse_depth_header, decide,
                            budget, framed=budget < cover_scan.HEADER_TOKENS)


def fragment_max_sequential(view, split_labels, scheme, own_cands):
    """Central shadow of _fragment_max_scan; same recurrence, same ties."""
    best = [None] * view.n
    for v in reversed(view.preorder()):
        best[v] = vg.maximal_covering(
            [best[c] for c, _ in view.children[v]] + own_cands(v),
            scheme.depth(split_labels[v]), scheme)
    return best


# ---------------------------------------------------------------------------
# pass logic shared by the engine driver and the sequential shadow

def leaf_adds(tree, incidence, split, scheme):
    """added[v] = maximal incoming edge at tree leaf v."""
    added = {}
    for v in range(tree.n):
        if tree.children[v]:
            continue
        best = vg.maximal_covering(incidence[v], scheme.depth(split[v]), scheme)
        if best is not None:
            added[v] = best
    return added


def _leaf_cands(added_leaf):
    """own_cands for the leaf pass: the edge vertex v added, if any."""
    return lambda v: [added_leaf[v]] if v in added_leaf else []


def fragment_tree_scan(scheme, split, frag_max, t0, depth_keyed=False):
    """Covering scan on the contracted fragment tree: each fragment is one
    node, responsible for its global edge, with its maximal incoming edge
    as the only candidate. Pure local computation from broadcast data.

    With depth_keyed, frag_max holds the broadcast records, and the scan
    decides through `cover_scan._DepthView`: every candidate a node keeps
    has its ancestor endpoint above the fragment root, so on one root
    path."""
    tf_children = {f: [] for f in (scheme.root_frag, *scheme.tf_parent)}
    for f, p in scheme.tf_parent.items():
        tf_children[p].append(f)
    nodes = {}
    for f, children in tf_children.items():
        nodes[f] = cover_scan.ScanNode(
            f, split[f], children=sorted(children),
            incoming=[frag_max[f]] if f in frag_max else [],
            t0=t0[f], root=(f == scheme.root_frag))
    return cover_scan.sequential_cover_scan(
        nodes, cover_scan._DepthView(scheme) if depth_keyed else scheme)


def local_incoming(incidence, scheme, extras):
    """Per-vertex candidates for the in-fragment pass: own incidence, plus
    broadcast fragment-maximal edges, each injected in every proper
    fragment-tree ancestor of its descendant's fragment, at the vertex where
    the chain from that fragment enters it. An extra is read only for its
    descendant's fragment, `e.desc.frag`."""
    out = [list(cands) for cands in incidence]
    for e in extras:
        f = e.desc.frag
        while f != scheme.root_frag:
            out[scheme.entry_label[f].vertex].append(e)
            f = scheme.tf_parent[f]
    for cands in out:
        cands.sort(key=lambda e: e.origin)
    return out


def _apply_cover(t0, added, covers):
    """Mark t0[v] for each vertex whose parent edge an edge of `added`
    covers, as `covers(e, v)` says. The tree root has no parent edge, and
    no edge covers it."""
    for v, done in enumerate(t0):
        if not done and any(covers(e, v) for e in added):
            t0[v] = True


def _label_covers(split, scheme):
    """covers(e, v) for edges with full labels, by `_record_covers`'s rule:
    `vg.edge_covers` outside the fragment of e's descendant."""
    return lambda e, v: (split[v].frag != e.desc.frag
                         and vg.edge_covers(e, split[v], scheme))


def _record_covers(split, scheme):
    """covers(e, v) for the broadcast records, each VirtualEdge(ancestor
    depth, SplitLabel(descFrag, None), origin, 0) for the maximal edge of
    its kind covering descFrag's global edge: v's parent edge is on e's
    path when v lies outside descFrag, below e's ancestor and above
    descFrag's root, which the directory walk answers from descFrag alone.
    Marking e's path inside descFrag as well would move only t0:

    - Pass 1: there v's own leaf scan has a result, which sets t0[v].
    - Pass 2 selects e, f's record, only if no candidate in f's contracted
      subtree covering f's global edge beats e: the best one would reach f
      as an optional f prefers, or, consumed, as a necessary covering all
      that e covers from f up.
    - Pass 3: below the lowest v0 on e's path under f's root with no t0
      and no covering necessary, each vertex acts as if marked; without a
      v0 nothing moves. v0's optional is e: f's own edges lose by the
      in-fragment scan's maximality, and extras, records of fragments
      below f, by the contracted scan's, ties by origin in both. So v0
      consumes e, the verdicts lead to e's owner, and above v0 the
      necessary e keeps anything from being consumed, as the marks did;
      f's root is a root of pass 3's forest. Headers stay 4 tokens (from
      v0 up e is a necessary, not an optional), verdicts 1 ("need" from v0
      down), `_dedup_cover` keeps e once, and e descends in f, so
      `final_broadcast` stays.
    """
    def covers(e, v):
        sv = split[v]
        return (sv.frag != e.desc.frag and e.anc < scheme.depth(sv)
                and scheme.is_ancestor(sv, e.desc))

    return covers


def _owned_edges(incidence, split, scheme):
    """(fragment, origin) -> the owner's full edge, for each incidence edge
    that covers its descendant fragment's global edge: the edges a record
    can stand for. The key is unique, since the two halves of one non-tree
    edge meet at their LCA, and when both descend in one fragment that
    lies inside it, so neither covers the global edge."""
    owned = {}
    for v, cands in enumerate(incidence):
        f = split[v].frag
        for ve in cands:
            if scheme.depth(ve.anc) < scheme.base_depth[f]:
                owned[(f, ve.origin)] = ve
    return owned


def _dedup_cover(scheme, *parts):
    """The passes' selections in pass order, each by origin, each once."""
    cover = {}
    for part in parts:
        for ve in sorted(part, key=lambda e: e.origin):
            cover.setdefault((scheme.key(ve.anc), scheme.key(ve.desc), ve.origin), ve)
    return list(cover.values())


# ---------------------------------------------------------------------------
# engine driver

def split_records(stream):
    """Cut a broadcast down stream into fast's records, which travel down
    back to back without length tokens: a record starts at each tuple
    token that is not an ("lp", head, pos) hop. The records are a
    directory record, ("gr", childFrag, p) and p's hops; a cover record,
    ((tag, fragment, origin), ancestor depth); and an announcement,
    (("fs", origin),)."""
    starts = [i for i, tok in enumerate(stream)
              if type(tok) is tuple and tok[0] != "lp"]
    return [stream[i:j] for i, j in zip(starts, starts[1:] + [len(stream)])]


def fast_cover_distributed(g, tree, budget: int = sim.DEFAULT_BUDGET):
    """All passes on the engine. Returns a dict with the virtual cover,
    bridges, labels, the incidence lists, the broadcast records by
    fragment, "lc" and "lg" in "leaf_max" and "gc" and "lg" in "frag_max"
    (each VirtualEdge(ancestor depth, SplitLabel(fragment, None), origin,
    0)), and Metrics."""
    frag_of, frag_roots = fragment_decompose(tree)
    view = lbl.TreeView.of_fragments(tree, frag_of)
    metrics = sim.Metrics([])
    n = g.n
    s = max(1, math.isqrt(n - 1) + 1)

    bfs, m = build_bfs_tree_distributed(g, tree.root, budget=budget)
    metrics.merge(m)
    # the injected decomposition stands in for a convergecast along the BFS
    # tree plus a sqrt(n)-deep local pass; charge it accordingly
    metrics.phases.append(sim.PhaseMetrics(
        "fragmentation", rounds=metrics.phase("bfs").rounds + s, nominal=True))

    local_labels, m = lbl.assign_labels_distributed(
        g, view, budget=budget, phase_prefix="labels_local")
    metrics.merge(m)

    # the parent endpoint p of each global edge announces its directory
    # record, ("gr", childFrag, p) and p's hops (see the module docstring)
    msgs = []
    for v in frag_roots:
        if v == tree.root:
            continue
        p = tree.parent[v]
        msgs.append((p, (("gr", v, p),) + lbl.hop_tokens(local_labels[p].seq)))
    delivered, m = sim.broadcast_upcast(g, bfs, msgs, split_records,
                                        budget=budget,
                                        phase="labels_global_bcast")
    metrics.merge(m)
    records = []
    for msg in delivered:
        _, child, p = msg[0]
        seq, _ = lbl.parse_hops(msg, 1)
        records.append((child, seq[0][0],
                        lbl.LcaLabel(p, lbl.seq_depth(seq), seq)))
    scheme = SplitScheme(records, frag_of[tree.root])
    split = [SplitLabel(frag_of[v], local_labels[v]) for v in range(n)]

    incidence, m = vg.build_incidence_distributed(g, tree, split, scheme,
                                                  budget=budget)
    metrics.merge(m)

    # one in-fragment scan serves passes 1 and 2: the maximal leaf-added
    # edge and the maximal incoming edge covering each vertex's parent edge
    added_leaf = leaf_adds(tree, incidence, split, scheme)
    scan = _fragment_max_scan(view, split, scheme,
                              (_leaf_cands(added_leaf), lambda v: incidence[v]),
                              budget)
    res, m = sim.run(g, scan, budget=budget, phase="global_cover")
    metrics.merge(m)
    # one broadcast serves passes 1 and 2: each fragment root announces its
    # maximal leaf-added edge ("lc") and its maximal incoming edge ("gc"),
    # each as ((tag, fragment, origin), ancestor depth), or one "lg" record
    # when the two are one edge. Pass 1 marks v's parent edge where v's own
    # leaf scan found an edge, the records mark the others
    dview = cover_scan._DepthView(scheme)
    msgs = []
    for v in frag_roots:
        if v == tree.root:
            continue
        leaf, inc = res[v]
        if leaf is not None and inc is not None and leaf.origin == inc.origin:
            recs = (("lg", leaf),)  # one virtual edge, see _owned_edges
        else:
            recs = (("lc", leaf), ("gc", inc))
        msgs += [(v, ((tag, v, ve.origin), dview.depth(ve.anc)))
                 for tag, ve in recs if ve is not None]
    t0 = [v != tree.root and leaf is not None for v, (leaf, _) in enumerate(res)]
    del res
    bc, m = sim.broadcast_upcast(g, bfs, msgs, split_records, budget=budget,
                                 phase="cover_bcast")
    metrics.merge(m)
    leaf_max, frag_max = {}, {}
    for (tag, f, origin), depth in bc:
        ve = vg.VirtualEdge(depth, SplitLabel(f, None), origin, 0)
        if tag != "gc":
            leaf_max[f] = ve
        if tag != "lc":
            frag_max[f] = ve

    # pass 1: coverage by the leaf-added edges; pass 2: the contracted-tree
    # scan over the fragments' maximal incoming edges, at every vertex
    covers = _record_covers(split, scheme)
    _apply_cover(t0, leaf_max.values(), covers)
    tf_res = fragment_tree_scan(scheme, split, frag_max, t0, depth_keyed=True)
    added_global = tf_res["added"]
    _apply_cover(t0, added_global, covers)

    # pass 3: in-fragment covering scan with the fragment-maximal edges as
    # extra leaf candidates
    extras = sorted(frag_max.values(), key=lambda e: e.origin)
    incoming = local_incoming(incidence, scheme, extras)
    res3 = cover_scan.distributed_cover_scan(
        g, view, split, incoming, t0, scheme,
        budget=budget, phase_prefix="local_cover")
    metrics.merge(res3["metrics"])

    # owners of cross-fragment selections announce them
    msgs = []
    for v in range(n):
        for ve in res3["adds_by_vertex"][v]:
            if ve.desc.frag != split[v].frag:
                msgs.append((v, (("fs", ve.origin),)))
    fin, m = sim.broadcast_upcast(g, bfs, msgs, split_records, budget=budget,
                                  phase="final_broadcast")
    metrics.merge(m)

    # a selected record stands for its owner's full edge
    owned = _owned_edges(incidence, split, scheme)

    def full(ve):
        return ve if ve.desc.local is not None else owned[(ve.desc.frag, ve.origin)]

    cover = _dedup_cover(scheme, added_leaf.values(), map(full, added_global),
                         map(full, res3["added"]))
    bridges = sorted(set(tf_res["bridges"]) | set(res3["bridges"]))
    return {
        "cover": cover, "bridges": bridges,
        "leaf_max": leaf_max, "frag_max": frag_max,
        "frag_of": frag_of, "frag_roots": frag_roots,
        "labels": split, "scheme": scheme, "incidence": incidence, "t0": t0,
        "final_announced": sorted(t[0][1] for t in fin),
        "metrics": metrics,
    }


def sequential_fast_cover(g, tree):
    """Central shadow of fast_cover_distributed: same passes, same ties."""
    frag_of, frag_roots = fragment_decompose(tree)
    view = lbl.TreeView.of_fragments(tree, frag_of)
    split, scheme = split_labels_sequential(tree, frag_of)
    incidence = vg.build_incidence_sequential(g, tree, split, scheme)

    added_leaf = leaf_adds(tree, incidence, split, scheme)
    res1 = fragment_max_sequential(view, split, scheme, _leaf_cands(added_leaf))
    bcast1 = [res1[v] for v in frag_roots
              if v != tree.root and res1[v] is not None]
    covers = _label_covers(split, scheme)
    t0 = [v != tree.root and res1[v] is not None for v in range(g.n)]
    _apply_cover(t0, bcast1, covers)

    res2 = fragment_max_sequential(view, split, scheme,
                                   lambda v: incidence[v])
    frag_max = {v: res2[v] for v in frag_roots
                if v != tree.root and res2[v] is not None}
    tf_res = fragment_tree_scan(scheme, split, frag_max, t0)
    added_global = tf_res["added"]
    _apply_cover(t0, added_global, covers)

    extras = sorted(frag_max.values(), key=lambda e: e.origin)
    incoming = local_incoming(incidence, scheme, extras)
    nodes = {}
    for v in range(g.n):
        nodes[v] = cover_scan.ScanNode(
            v, split[v],
            children=[c for c, _ in view.children[v]],
            incoming=incoming[v], t0=t0[v],
            root=view.parent_edge[v] < 0)
    res3 = cover_scan.sequential_cover_scan(nodes, scheme)

    cover = _dedup_cover(scheme, added_leaf.values(), added_global,
                         res3["added"])
    bridges = sorted(set(tf_res["bridges"]) | set(res3["bridges"]))
    return {"cover": cover, "bridges": bridges, "labels": split,
            "scheme": scheme, "t0": t0, "frag_of": frag_of,
            "frag_roots": frag_roots}


@sim.collector_paused()
def augment_fast(g, tree, budget: int = sim.DEFAULT_BUDGET):
    """4-approximate augmentation with O(D + sqrt(n)) style round count.

    Returns (Augmentation, virtual cover, Metrics)."""
    res = fast_cover_distributed(g, tree, budget=budget)
    if res["bridges"]:
        raise BridgeDetected(res["bridges"])
    aug = vg.project_cover(res["incidence"], res["cover"], res["scheme"])
    aug.meta["virtual_cover_size"] = len(res["cover"])
    aug.meta["fragments"] = len(res["frag_roots"])
    return aug, res["cover"], res["metrics"]
