import random

import pytest
from hypothesis import given, settings, strategies as st

from treeaug import apps, cover_scan, generators, labels as lbl, sim, unweighted
from treeaug import virtual_graph as vg
from treeaug.fast import build_bfs_tree_distributed
from treeaug.graph import Multigraph, covers_ref, find_bridges, root_tree
from treeaug.labels import TreeView, assign_labels_sequential
from treeaug.oracle import opt_virtual_cover
from treeaug.virtual_graph import PlainScheme, covered_tree_edges


def instance(seed, nmax=14, allow_bridges=False):
    rng = random.Random(seed)
    if allow_bridges and rng.random() < 0.4:
        from treeaug.graph import Multigraph, bfs_tree
        n = rng.randint(3, nmax)
        g = Multigraph(n)
        for v in range(1, n):
            g.add_edge(v, rng.randrange(v), 1)
        for _ in range(rng.randint(0, n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                g.add_edge(u, v, 1)
        return g, bfs_tree(g, 0)
    return generators.gen_random_2ec(rng.randint(3, nmax),
                                     rng.randint(0, nmax), seed)


def _key(ve, scheme):
    return (ve.origin, scheme.key(ve.anc), scheme.key(ve.desc))


def test_distributed_equals_sequential():
    # at every budget from 1 to 7 (the up pass's header is unframed from 4
    # up and one frame below) the engine's depth-only decisions give the
    # full-label cover and bridges, and verify's verdict is the sequential
    # scan's on its BFS tree
    scheme = PlainScheme()
    for seed in range(120):
        g, tree = instance(seed, allow_bridges=True)
        want = unweighted.sequential_virtual_optimal(g, tree)
        want_added = sorted(_key(ve, scheme) for ve in want["added"])
        view = TreeView.of_tree(tree)
        labels = assign_labels_sequential(view)
        inc = vg.build_incidence_sequential(g, tree, labels, scheme)
        for budget in range(1, 8):
            got = cover_scan.distributed_cover_scan(
                g, view, labels, inc, [False] * g.n, scheme, budget=budget)
            assert got["metrics"].max_tokens_edge_round <= budget
            assert sorted(got["bridges"]) == sorted(want["bridges"]), (seed, budget)
            assert (sorted(_key(ve, scheme) for ve in got["added"])
                    == want_added), (seed, budget)
            verdict, bridges, _ = apps.verify_2ec_distributed(g, budget=budget)
            bfs, _ = build_bfs_tree_distributed(g, 0, budget=budget)
            want_bridges = sorted(
                unweighted.sequential_virtual_optimal(g, bfs)["bridges"])
            assert (verdict, bridges) == (not want_bridges, want_bridges), (
                seed, budget)


def test_bridges_match_reference():
    for seed in range(80):
        g, tree = instance(seed, allow_bridges=True)
        res = unweighted.sequential_virtual_optimal(g, tree)
        real = find_bridges(g)
        # a scan bridge is a vertex whose parent edge is a real bridge
        got = {tree.parent_edge[v] for v in res["bridges"]}
        assert got == {e for e in real if e in tree.tree_edges}
        # tree edges are the only possible bridges once the tree spans g
        assert all(e in tree.tree_edges for e in real)


def test_cover_is_optimal_in_virtual_view():
    scheme = PlainScheme()
    for seed in range(100):
        g, tree = instance(seed, nmax=11)
        res = unweighted.sequential_virtual_optimal(g, tree)
        if res["bridges"]:
            continue
        covered = set()
        for ve in res["added"]:
            covered.update(covered_tree_edges(tree, ve, scheme))
        assert covered == set(tree.tree_edges), seed
        ves = sorted({ve for lst in res["incidence"] for ve in lst},
                     key=lambda e: (e.origin, scheme.key(e.anc)))
        if len(ves) > 20:
            continue
        val, _ = opt_virtual_cover(
            tree, ves, lambda ve: covered_tree_edges(tree, ve, scheme),
            weighted=False)
        assert len(res["added"]) == val, seed


def test_t0_flags_skip_precovered_edges():
    scheme = PlainScheme()
    for seed in range(60):
        g, tree = instance(seed, nmax=12)
        labels = assign_labels_sequential(TreeView.of_tree(tree))
        inc = vg.build_incidence_sequential(g, tree, labels, scheme)
        rng = random.Random(seed + 999)
        t0 = [rng.random() < 0.3 for _ in range(g.n)]
        t0[tree.root] = False
        nodes = {}
        for v in range(g.n):
            nodes[v] = cover_scan.ScanNode(
                v, labels[v], children=list(tree.children[v]),
                incoming=inc[v], t0=t0[v], root=(v == tree.root))
        res = cover_scan.sequential_cover_scan(nodes, scheme)
        if res["bridges"]:
            continue
        covered = set()
        for ve in res["added"]:
            covered.update(covered_tree_edges(tree, ve, scheme))
        need = {tree.parent_edge[v] for v in range(g.n)
                if v != tree.root and not t0[v]}
        assert need <= covered, seed
        # distributed run with the same flags agrees
        got = cover_scan.distributed_cover_scan(
            g, TreeView.of_tree(tree), labels, inc, t0, scheme)
        key = lambda ve: (ve.origin, scheme.key(ve.anc), scheme.key(ve.desc))
        assert sorted(got["added"], key=key) == sorted(res["added"], key=key)


def test_round_and_budget_bounds():
    for n in (16, 64, 256):
        g, tree = generators.gen_cycle(n)
        res = unweighted.cover_virtual_optimal(g, tree)
        m = res["metrics"]
        h = tree.height
        assert m.max_tokens_edge_round <= 4
        up = m.phase("cover_up").rounds
        down = m.phase("cover_down").rounds
        # frames are constant size here, so both passes are O(h)
        assert up <= 4 * h + 8 and down <= h + 2, (n, up, down)


def _star_with_chords(n):
    # a star tree whose leaves are joined in a cycle: every leaf's incoming
    # edges reach the root, so every leaf forwards a necessary edge
    g = Multigraph(n)
    tree_ids = [g.add_edge(0, v, 1) for v in range(1, n)]
    for v in range(1, n):
        g.add_edge(v, v % (n - 1) + 1, 1)
    return g, root_tree(g, tree_ids, 0)


@pytest.mark.parametrize("budget", range(1, 8))
@pytest.mark.parametrize("shape", ("path", "star"))
def test_cover_up_sends_one_header_an_edge(shape, budget):
    # one (necOrigin, necDepth, optOrigin, optDepth) header a tree edge:
    # unframed from budget 4 up, so h rounds, n - 1 messages and 4(n - 1)
    # tokens; below 4 one 5-token frame, ceil(5/b) messages an edge, and a
    # vertex decides once its children's frames are whole
    g, tree = generators.gen_cycle(65) if shape == "path" else _star_with_chords(65)
    m = unweighted.cover_virtual_optimal(g, tree, budget=budget)["metrics"]
    up = m.phase("cover_up")
    c = 1 if budget >= 4 else -(-5 // budget)
    assert (up.rounds, up.messages, up.tokens) == (
        tree.height * c, (g.n - 1) * c, (g.n - 1) * (4 if budget >= 4 else 5))
    assert m.max_tokens_edge_round <= budget


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       picks=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 5),
                                st.booleans()),
                      min_size=1, max_size=8))
def test_depth_only_decision_equals_full_label_maximal_of(seed, picks):
    # candidates whose ancestor endpoints lie on one root path, as every
    # candidate a scan vertex compares does: folding them with maximal_of
    # picks the same candidate under the full labels as under the engine's
    # depth-only view, whether a candidate carries its label (an own edge)
    # or only its ancestor depth (a child's header)
    rng = random.Random(seed)
    g, tree = generators.gen_random_2ec(rng.randint(3, 30), rng.randint(0, 20), seed)
    labels = assign_labels_sequential(TreeView.of_tree(tree))
    v = rng.randrange(g.n)
    path = [v]
    while tree.parent[path[-1]] >= 0:
        path.append(tree.parent[path[-1]])
    scheme = PlainScheme()
    dview = cover_scan._DepthView(scheme)
    full, depth_only = [], []
    for i, origin, as_depth in picks:
        anc = labels[path[i % len(path)]]
        full.append(vg.VirtualEdge(anc, labels[v], origin, 0, anc.depth))
        depth_only.append(vg.VirtualEdge(None if as_depth else anc,
                                         None, origin, 0, anc.depth))

    def index(cands, best):
        return next((i for i, ve in enumerate(cands) if ve is best), None)

    def fold(cands, sch):
        best = None
        for ve in cands:
            best = vg.maximal_of(best, ve, sch)
        return index(cands, best)

    assert fold(full, scheme) == fold(depth_only, dview)
    # an own candidate counts only once its ancestor lies above the vertex
    limit = labels[v].depth
    assert (index(full, vg.maximal_covering(full, limit, scheme))
            == index(depth_only, vg.maximal_covering(depth_only, limit, dview)))
