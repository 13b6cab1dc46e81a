"""Sublinear-round augmentation: the tree is cut into O(sqrt(n)) fragments
of diameter O(sqrt(n)); ancestry queries use a (fragment, local label)
pair plus a globally broadcast directory of the fragment tree, and the
cover is built in three passes (tree-leaf edges, cross-fragment edges,
in-fragment edges). The result is an optimal-within-factor-2 cover of the
ancestor-descendant view, hence a 4-approximate augmentation.

Every broadcast runs over a BFS tree. The parent endpoint of each global
edge (a tree edge between two fragments) already holds its local label, so
it announces the edge's directory record itself. The first two passes
share one in-fragment scan, which finds for each vertex both the maximal
leaf-added edge and the maximal incoming edge covering its parent edge,
and one broadcast of both kinds of record, split by tag on delivery: a
relay keeps the root's chunks, not copies, so holding both kinds costs
little. The third pass is an in-fragment covering scan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import cover_scan, labels as lbl, sim, virtual_graph as vg
from .graph import root_tree
from .sim import HALT, IDLE
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
    local: lbl.LcaLabel


class SplitScheme:
    """Ancestry algebra over (fragment, local label) pairs, backed by the
    broadcast directory of global edges.

    records: (child fragment, parent fragment, local label of the parent
    endpoint of the child's global edge) triples; root_frag is the fragment
    holding the tree root. The LCA of two vertices in different fragments
    is found inside the fragment-tree LCA fragment F as the local LCA of
    the two entry points of their root paths into F.
    """

    def __init__(self, records, root_frag: int):
        self.root_frag = root_frag
        self.tf_parent = {}
        self.entry_label = {}
        frags = {root_frag}
        for child, parent, plabel in records:
            self.tf_parent[child] = parent
            self.entry_label[child] = plabel
            frags.add(child)
            frags.add(parent)
        self.frags = sorted(frags)
        idx = {f: i for i, f in enumerate(self.frags)}
        # heavy-path labels on the fragment tree itself
        k = len(self.frags)
        pv = [-1] * k
        pe = [-1] * k
        children: list[list[tuple[int, int]]] = [[] for _ in range(k)]
        for child, parent in self.tf_parent.items():
            ci, pi = idx[child], idx[parent]
            pv[ci] = pi
            pe[ci] = ci  # edge ids are unused on this synthetic view
            children[pi].append((ci, ci))
        for c in children:
            c.sort()
        view = lbl.TreeView(k, pv, pe, children, [idx[root_frag]])
        tf_labels = lbl.assign_labels_sequential(view)
        self.tf_label = {f: tf_labels[idx[f]] for f in self.frags}
        self._frag_by_key = {lab.seq: f for f, lab in self.tf_label.items()}
        # depth in the full tree of each fragment root
        self.base_depth = {}
        for f in sorted(self.frags, key=lambda f: self.tf_label[f].depth):
            if f == root_frag:
                self.base_depth[f] = 0
            else:
                p = self.tf_parent[f]
                self.base_depth[f] = (self.base_depth[p]
                                      + self.entry_label[f].depth + 1)
        self._entry_cache = {}

    def depth(self, sl: SplitLabel) -> int:
        return self.base_depth[sl.frag] + sl.local.depth

    def vertex_of(self, sl: SplitLabel):
        return sl.local.vertex

    def key(self, sl: SplitLabel):
        return (sl.frag, sl.local.seq)

    def _entry_into(self, anc_frag: int, desc_frag: int) -> lbl.LcaLabel:
        """Local label (in anc_frag) of the parent endpoint of the global
        edge through which desc_frag's chain enters anc_frag."""
        key = (anc_frag, desc_frag)
        hit = self._entry_cache.get(key)
        if hit is not None:
            return hit
        f = desc_frag
        while self.tf_parent[f] != anc_frag:
            f = self.tf_parent[f]
        out = self.entry_label[f]
        self._entry_cache[key] = out
        return out

    def lca(self, a: SplitLabel, b: SplitLabel) -> SplitLabel:
        if a.frag == b.frag:
            return SplitLabel(a.frag, lbl.lca_query(a.local, b.local))
        gl = lbl.lca_query(self.tf_label[a.frag], self.tf_label[b.frag])
        f = self._frag_by_key[gl.seq]
        x = a.local if f == a.frag else self._entry_into(f, a.frag)
        y = b.local if f == b.frag else self._entry_into(f, b.frag)
        return SplitLabel(f, lbl.lca_query(x, y))

    def entry_point(self, frag: int, desc_frag: int):
        """Local label (in `frag`) of the deepest vertex of `frag` that is
        an ancestor of all of desc_frag; None unless frag is a proper
        fragment-tree ancestor of desc_frag."""
        if frag == desc_frag:
            return None
        ta, td = self.tf_label[frag], self.tf_label[desc_frag]
        if not lbl.is_ancestor(ta, td):
            return None
        return self._entry_into(frag, desc_frag)

    def is_ancestor(self, a: SplitLabel, d: SplitLabel) -> bool:
        t = self.lca(a, d)
        return t.frag == a.frag and t.local.seq == a.local.seq

    def tokens(self, sl: SplitLabel) -> tuple:
        return (("sf", sl.frag),) + lbl.label_tokens(sl.local)

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

class _BfsState:
    __slots__ = ("v", "dist", "parent", "fired")

    def __init__(self, v, dist):
        self.v = v
        self.dist = dist
        self.parent = (-1, -1)  # (parent vertex, tree edge id)
        self.fired = False


class _BfsProgram:
    def __init__(self, g, root):
        self.g = g
        self.root = root

    def init_state(self, v):
        return _BfsState(v, 0 if v == self.root else None)

    def step(self, st, rnd, inbox):
        if st.dist is None and inbox:
            best = None
            for eid, payload in inbox:
                u = payload[0][1]
                if best is None or (u, eid) < best:
                    best = (u, eid)
            st.dist = rnd  # first delivery round equals the BFS distance
            st.parent = best
        if st.dist is not None and not st.fired:
            st.fired = True
            return ([(eid, (("d", st.v, st.dist),))
                     for eid, _ in self.g.adj[st.v]], HALT)
        return [], IDLE

    def output(self, st):
        return st.parent


def build_bfs_tree_distributed(g, root: int, budget: int = sim.DEFAULT_BUDGET):
    prog = _BfsProgram(g, root)
    outputs, metrics = sim.run(g, prog, budget=budget, phase="bfs")
    tree_ids = [outputs[v][1] for v in range(g.n) if v != root]
    return root_tree(g, tree_ids, root), metrics


# ---------------------------------------------------------------------------
# in-fragment maximal-edge scan (one run serves the leaf and global passes)

def _edge_frame(ve, scheme):
    """(originEdgeId,) + ancestor label + descendant label; empty for none."""
    if ve is None:
        return ()
    return (ve.origin,) + scheme.tokens(ve.anc) + scheme.tokens(ve.desc)


def _parse_edge(toks, i, origin, scheme):
    """The edge whose ancestor and descendant labels start at toks[i]."""
    anc, i = scheme.parse(toks, i)
    desc, _ = scheme.parse(toks, i)
    return vg.VirtualEdge(anc, desc, origin, 0)


def _fragment_max_scan(view, split_labels, scheme, own_cands, budget):
    """Bottom-up within each fragment, as a sim.Convergecast, for several
    kinds of candidate at once: every non-root vertex sends its local parent
    one frame per kind, in kind order, each the maximal edge of that kind
    covering its parent edge, or none. A fragment root's result holds, per
    kind, the maximal edge covering its global edge. own_cands[i](v) lists
    the vertex's own contributions of kind i."""
    def parse(toks):
        return _parse_edge(toks, 1, toks[0], scheme) if toks else None

    def decide(v, frames):
        depth = scheme.depth(split_labels[v])
        best = tuple(
            vg.maximal_covering([f[i] for f in frames.values()] + own(v),
                                depth, scheme)
            for i, own in enumerate(own_cands))
        return best, [_edge_frame(e, scheme) for e in best]

    return sim.Convergecast(view, len(own_cands), parse, decide, budget)


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


def _coverage_after_leaf_pass(tree, split, scheme, scan_results, bcast):
    """t0[v]: v's local parent edge (or global edge for a fragment root) is
    covered by a leaf-added edge; derived from the in-fragment scan result
    plus the broadcast per-fragment maximal edges."""
    t0 = [False] * tree.n
    for v in range(tree.n):
        if v == tree.root:
            continue
        if scan_results[v] is not None:
            t0[v] = True
        else:
            lab = split[v]
            t0[v] = any(vg.edge_covers(e, lab, scheme) for e in bcast)
    return t0


def fragment_tree_scan(tree, frag_roots, frag_of, split, scheme, frag_max, t0):
    """Covering scan on the contracted fragment tree: each fragment is one
    node, responsible for its global edge, with its maximal incoming edge
    as the only candidate. Pure local computation from broadcast data."""
    tf_children: dict[int, list] = {f: [] for f in frag_roots}
    for f in frag_roots:
        if f != tree.root:
            tf_children[frag_of[tree.parent[f]]].append(f)
    nodes = {}
    for f in frag_roots:
        nodes[f] = cover_scan.ScanNode(
            f, split[f], children=sorted(tf_children[f]),
            incoming=[frag_max[f]] if f in frag_max else [],
            t0=t0[f], root=(f == tree.root))
    return cover_scan.sequential_cover_scan(nodes, scheme)


def local_incoming(view, incidence, split, scheme, extras):
    """Per-vertex candidates for the in-fragment pass: own incidence, plus
    broadcast fragment-maximal edges, each injected at the vertex where the
    chain from its descendant's fragment enters this fragment."""
    out = []
    for v in range(view.n):
        cands = list(incidence[v])
        lab = split[v]
        for e in extras:
            ep = scheme.entry_point(lab.frag, e.desc.frag)
            if ep is not None and ep.seq == lab.local.seq:
                cands.append(e)
        cands.sort(key=lambda e: e.origin)
        out.append(cands)
    return out


def _apply_cover(t0, added, split, scheme, tree):
    for v in range(tree.n):
        if v == tree.root or t0[v]:
            continue
        lab = split[v]
        if any(vg.edge_covers(e, lab, scheme) for e in added):
            t0[v] = True


def _dedup_cover(scheme, *parts):
    """The passes' selections in pass order, each by origin, each once."""
    cover = {}
    for part in parts:
        for ve in sorted(part, key=lambda e: e.origin):
            cover.setdefault((scheme.key(ve.anc), scheme.key(ve.desc), ve.origin), ve)
    return list(cover.values())


# ---------------------------------------------------------------------------
# engine driver

def fast_cover_distributed(g, tree, budget: int = sim.DEFAULT_BUDGET):
    """All passes on the engine. Returns a dict with the virtual cover,
    bridges, labels, the broadcast fragment-maximal edges and Metrics."""
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

    # the parent endpoint of each global edge announces it with its own
    # local label
    msgs = []
    for v in frag_roots:
        if v == tree.root:
            continue
        p = tree.parent[v]
        msgs.append((p, (("gr", v, frag_of[p]),)
                     + lbl.label_tokens(local_labels[p])))
    delivered, m = sim.broadcast_upcast(g, bfs, msgs, budget=budget,
                                        phase="labels_global_bcast")
    metrics.merge(m)
    records = []
    for msg in delivered:
        plabel, _ = lbl.parse_label(msg, 1)
        records.append((msg[0][1], msg[0][2], plabel))
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
    # maximal leaf-added edge ("lc") and its maximal incoming edge ("gc");
    # building those records now frees the other vertices' results first
    msgs = [(v, ((tag, v, ve.origin),) + scheme.tokens(ve.anc)
             + scheme.tokens(ve.desc))
            for v in frag_roots if v != tree.root
            for tag, ve in zip(("lc", "gc"), res[v]) if ve is not None]
    leaf_max = [r[0] for r in res]
    del res
    bc, m = sim.broadcast_upcast(g, bfs, msgs, budget=budget, phase="cover_bcast")
    metrics.merge(m)
    tagged = [(msg[0], _parse_edge(msg, 1, msg[0][2], scheme)) for msg in bc]
    bcast1 = [ve for tag, ve in tagged if tag[0] == "lc"]
    frag_max = {tag[1]: ve for tag, ve in tagged if tag[0] == "gc"}

    # pass 1: coverage by the leaf-added edges; pass 2: the contracted-tree
    # scan over the fragments' maximal incoming edges, at every vertex
    t0 = _coverage_after_leaf_pass(tree, split, scheme, leaf_max, bcast1)
    tf_res = fragment_tree_scan(tree, frag_roots, frag_of, split, scheme,
                                frag_max, t0)
    added_global = tf_res["added"]
    _apply_cover(t0, added_global, split, scheme, tree)

    # pass 3: in-fragment covering scan with the fragment-maximal edges as
    # extra leaf candidates
    extras = sorted(frag_max.values(), key=lambda e: e.origin)
    incoming = local_incoming(view, incidence, split, scheme, extras)
    res3 = cover_scan.distributed_cover_scan(
        g, view, split, incoming, t0, scheme,
        budget=budget, phase_prefix="local_cover")
    metrics.merge(res3["metrics"])

    # owners of cross-fragment selections announce them
    msgs = []
    for v in range(n):
        for ve in res3["adds_by_vertex"][v]:
            dv = scheme.vertex_of(ve.desc)
            if dv is None or frag_of[dv] != frag_of[v]:
                msgs.append((v, (("fs", ve.origin),)))
    fin, m = sim.broadcast_upcast(g, bfs, msgs, budget=budget,
                                  phase="final_broadcast")
    metrics.merge(m)

    cover = _dedup_cover(scheme, added_leaf.values(), added_global,
                         res3["added"])
    bridges = sorted(set(tf_res["bridges"]) | set(res3["bridges"]))
    return {
        "cover": cover, "bridges": bridges, "frag_max": frag_max,
        "frag_of": frag_of, "frag_roots": frag_roots,
        "labels": split, "scheme": scheme,
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
    t0 = _coverage_after_leaf_pass(tree, split, scheme, res1, bcast1)

    res2 = fragment_max_sequential(view, split, scheme,
                                   lambda v: incidence[v])
    frag_max = {v: res2[v] for v in frag_roots
                if v != tree.root and res2[v] is not None}
    tf_res = fragment_tree_scan(tree, frag_roots, frag_of, split, scheme,
                                frag_max, t0)
    added_global = tf_res["added"]
    _apply_cover(t0, added_global, split, scheme, tree)

    extras = sorted(frag_max.values(), key=lambda e: e.origin)
    incoming = local_incoming(view, incidence, split, scheme, extras)
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
            "scheme": scheme, "frag_of": frag_of, "frag_roots": frag_roots}


def augment_fast(g, tree, budget: int = sim.DEFAULT_BUDGET):
    """4-approximate augmentation with O(D + sqrt(n)) style round count.

    Returns (Augmentation, virtual cover, Metrics)."""
    res = fast_cover_distributed(g, tree, budget=budget)
    if res["bridges"]:
        raise BridgeDetected(res["bridges"])
    aug = vg.project_augmentation(g, tree, res["labels"], res["cover"],
                                  res["scheme"])
    aug.meta["virtual_cover_size"] = len(res["cover"])
    aug.meta["fragments"] = len(res["frag_roots"])
    return aug, res["cover"], res["metrics"]
