import random

import pytest
from hypothesis import given, settings, strategies as st

from treeaug import generators
from treeaug.graph import (GraphError, Multigraph, NotConnectedError,
                           augmentation_covers, bfs_tree, build_multigraph,
                           covers_ref, diameter, eccentricity, find_bridges,
                           format_instance, is_connected,
                           is_two_edge_connected, mst_tree, parse_instance,
                           root_tree, tree_path_edges)


def bridges_by_removal(g):
    """Remove-one-edge reference for bridge finding."""
    out = set()
    for eid in range(g.m):
        h = Multigraph(g.n)
        for e2, (u, v, w) in enumerate(g.edges):
            if e2 != eid:
                h.add_edge(u, v, w)
        if is_connected(g) and not is_connected(h):
            out.add(eid)
    return out


def random_connected(rng, n, m_extra, parallel=True):
    g = Multigraph(n)
    perm = list(range(n))
    rng.shuffle(perm)
    for i in range(1, n):
        g.add_edge(perm[i], perm[rng.randrange(i)], rng.randint(1, 9))
    for _ in range(m_extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        if not parallel and any(o == v for _, o in g.adj[u]):
            continue
        g.add_edge(u, v, rng.randint(1, 9))
    return g


def test_bridges_match_removal_oracle():
    for seed in range(60):
        rng = random.Random(seed)
        g = random_connected(rng, rng.randint(2, 12), rng.randint(0, 8))
        assert find_bridges(g) == bridges_by_removal(g), seed


def test_parallel_edges_are_not_bridges():
    g = Multigraph(2)
    g.add_edge(0, 1, 1)
    g.add_edge(0, 1, 1)
    assert find_bridges(g) == set()
    assert is_two_edge_connected(g)


def test_self_loops_rejected():
    g = Multigraph(2)
    with pytest.raises(GraphError):
        g.add_edge(1, 1, 1)


def test_negative_weights_rejected_zero_allowed():
    g = Multigraph(2)
    with pytest.raises(GraphError):
        g.add_edge(0, 1, -1)
    assert g.m == 0
    assert g.add_edge(0, 1, 0) == 0  # recost_for_h makes reuse free this way


def test_rooted_tree_structure():
    for seed in range(40):
        rng = random.Random(100 + seed)
        g, tree = generators.gen_random_2ec(rng.randint(3, 30),
                                            rng.randint(0, 10), seed)
        assert tree.root == 0
        assert tree.depth[0] == 0
        for v in range(1, g.n):
            p = tree.parent[v]
            assert tree.depth[v] == tree.depth[p] + 1
            u, w, _ = g.edges[tree.parent_edge[v]]
            assert {u, w} == {v, p}
            assert v in tree.children[p]
        # BFS order: parents precede children
        pos = {v: i for i, v in enumerate(tree.order)}
        for v in range(1, g.n):
            assert pos[tree.parent[v]] < pos[v]


@pytest.mark.parametrize("eid", (-1, 1))
def test_root_tree_rejects_an_edge_id_outside_the_graph(eid):
    # -1 would silently name the last edge, and be taken for the root's
    # "no parent edge" sentinel; an id past the last edge is no edge either
    g = build_multigraph(2, [(0, 1, 1)])
    with pytest.raises(GraphError, match="tree edge id %d " % eid):
        root_tree(g, [eid], 0)


def test_augmentation_covers_rejects_an_edge_id_outside_the_graph():
    # on the 5-cycle, -1 would silently name non-tree edge 4 and report a
    # cover; m would be a bare IndexError
    g, tree = generators.gen_cycle(5)
    for eid in (-1, g.m):
        with pytest.raises(GraphError, match="edge id %d " % eid):
            augmentation_covers(g, tree, [eid])


def test_bfs_tree_layers_and_parent_rule():
    for seed in range(30):
        rng = random.Random(seed)
        g = random_connected(rng, rng.randint(2, 20), rng.randint(0, 15))
        t = bfs_tree(g, 0)
        # depths are true BFS distances
        dist = [-1] * g.n
        dist[0] = 0
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for _, u in g.adj[v]:
                    if dist[u] < 0:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        for v in range(g.n):
            assert t.depth[v] == dist[v]
        # parent = lowest-id neighbor one layer up, ties lowest edge id
        for v in range(1, g.n):
            cands = sorted((u, eid) for eid, u in g.adj[v] if dist[u] == dist[v] - 1)
            assert (t.parent[v], t.parent_edge[v]) == cands[0]


def test_mst_is_minimum():
    import itertools
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(3, 7)
        g = random_connected(rng, n, rng.randint(1, 4))
        t = mst_tree(g, 0)
        w = sum(g.weight(e) for e in t.tree_edges)
        best = min(sum(g.weight(e) for e in sub)
                   for sub in itertools.combinations(range(g.m), n - 1)
                   if len({e for e in sub}) == n - 1
                   and is_connected_sub(g, sub))
        assert w == best, seed


def is_connected_sub(g, edge_ids):
    h = Multigraph(g.n)
    for e in edge_ids:
        u, v, w = g.edges[e]
        h.add_edge(u, v, w)
    return is_connected(h)


def test_cover_reference_matches_path():
    for seed in range(30):
        rng = random.Random(seed)
        g, tree = generators.gen_random_2ec(rng.randint(3, 15),
                                            rng.randint(1, 8), seed)
        for eid in range(g.m):
            if eid in tree.tree_edges:
                continue
            u, v, _ = g.edges[eid]
            path = set(tree_path_edges(tree, u, v))
            for te in tree.tree_edges:
                assert covers_ref(g, tree, eid, te) == (te in path)


def test_augmentation_covers_matches_bridge_check():
    # T plus the augmentation has no bridge iff covers_ref finds every tree
    # edge on some augmentation edge's fundamental cycle. An augmentation
    # may leave edges uncovered, repeat an edge, or hold a tree edge, which
    # counts as covering itself
    seen = set()
    for seed in range(40):
        rng = random.Random(seed)
        g, tree = generators.gen_random_2ec(rng.randint(3, 14),
                                            rng.randint(1, 8), seed)
        nontree = [e for e in range(g.m) if e not in tree.tree_edges]
        for _ in range(6):
            sub = [e for e in nontree if rng.random() < 0.6]
            te = rng.choice(sorted(tree.tree_edges))
            want = all(any(covers_ref(g, tree, e, t) for e in sub)
                       for t in tree.tree_edges)
            want_te = all(t == te or any(covers_ref(g, tree, e, t) for e in sub)
                          for t in tree.tree_edges)
            assert augmentation_covers(g, tree, sub) == want, seed
            assert augmentation_covers(g, tree, sub + sub) == want, seed
            assert augmentation_covers(g, tree, sub + [te]) == want_te, seed
            seen.add(want)
    assert seen == {False, True}
    g, tree = generators.gen_cycle(5)
    assert not augmentation_covers(g, tree, [])
    assert augmentation_covers(g, tree, sorted(tree.tree_edges))


def test_instance_round_trip():
    for seed in range(20):
        rng = random.Random(seed)
        g, tree = generators.gen_random_2ec(rng.randint(3, 20),
                                            rng.randint(0, 10), seed,
                                            wmin=1, wmax=50)
        text = format_instance(g, tree)
        g2, tree2 = parse_instance(text)
        assert g2.n == g.n and g2.edges == g.edges
        assert tree2.tree_edges == tree.tree_edges
        assert tree2.root == 0
        assert format_instance(g2, tree2) == text


def test_instance_comments_and_missing_tree():
    g, _ = parse_instance("# hello\n2 1\n0 1 7  # weight seven\n")
    assert g.n == 2 and g.edges == [(0, 1, 7)]
    _, tree = parse_instance("2 1\n0 1 7\n")
    assert tree is None


def test_single_vertex_keeps_its_empty_tree():
    g = Multigraph(1)
    text = format_instance(g, root_tree(g, [], 0))
    assert text == "1 0\n"
    g2, tree = parse_instance(text)
    assert g2.n == 1 and g2.m == 0
    assert tree is not None
    assert (tree.root, tree.height, tree.parent, sorted(tree.tree_edges)) == (
        0, 0, [-1], [])


def test_non_integer_field_names_its_line():
    for text, bad in (("2 1\n1 x 1 t\n", "'1 x 1 t'"), ("2 y\n0 1 1 t\n", "'2 y'"),
                      ("2 1\n0 1 1.5\n", "'0 1 1.5'")):
        with pytest.raises(GraphError, match=bad):
            parse_instance(text)


def test_diameter_and_eccentricity():
    g, _ = generators.gen_cycle(8)
    assert diameter(g) == 4
    assert eccentricity(g, 0) == 4


@st.composite
def connected_multigraphs(draw):
    """Random spanning tree plus extra edges, many of them parallel copies."""
    n = draw(st.integers(min_value=1, max_value=16))
    g = Multigraph(n)
    for v in range(1, n):
        g.add_edge(v, draw(st.integers(min_value=0, max_value=v - 1)))
    if n > 1:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for u, v in draw(st.lists(pair.filter(lambda p: p[0] != p[1]), max_size=12)):
            g.add_edge(u, v)
        for i in draw(st.lists(st.integers(0, g.m - 1), max_size=6)):
            u, v, _ = g.edges[i]
            g.add_edge(u, v)
    return g


@settings(max_examples=200, deadline=None)
@given(connected_multigraphs())
def test_property_diameter_is_max_eccentricity(g):
    assert diameter(g) == max(eccentricity(g, v) for v in range(g.n))


def test_diameter_of_single_vertex_is_zero():
    assert diameter(Multigraph(1)) == 0


def test_diameter_of_disconnected_multigraph_raises():
    g = Multigraph(5)
    g.add_edge(0, 1)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(3, 4)
    g.add_edge(4, 3)
    with pytest.raises(NotConnectedError):
        diameter(g)
    h = Multigraph(3)
    h.add_edge(0, 1)
    h.add_edge(1, 0)
    with pytest.raises(NotConnectedError):
        diameter(h)
