import random

import pytest

from treeaug import apps, generators, oracle
from treeaug.graph import (GraphError, Multigraph, bfs_tree, build_multigraph,
                           find_bridges, is_two_edge_connected, mst_tree,
                           subgraph_two_edge_connected)


def two_ec_instance(seed, nmax=30, wmax=20):
    rng = random.Random(seed)
    return generators.gen_random_2ec(rng.randint(3, nmax),
                                     rng.randint(0, nmax), seed,
                                     wmin=1, wmax=wmax)


def test_unweighted_subgraph_valid_and_small():
    for seed in range(80):
        g, _ = two_ec_instance(seed)
        edges, tree, aug, m = apps.two_ecss_unweighted(g)
        assert subgraph_two_edge_connected(g, edges), seed
        assert len(edges) <= 2 * (g.n - 1), seed
        assert tree.tree_edges <= edges
        assert m.max_tokens_edge_round <= 4


def test_unweighted_subgraph_two_approx_small():
    for seed in range(40):
        rng = random.Random(seed)
        g, _ = generators.gen_random_2ec(rng.randint(3, 6),
                                         rng.randint(0, 3), seed)
        if g.m > 12:
            continue
        edges, _, _, _ = apps.two_ecss_unweighted(g)
        opt = oracle.min_two_ecss_size(g)
        assert len(edges) <= 2 * opt, seed


def test_weighted_subgraph_valid_and_three_approx():
    for seed in range(40):
        g, _ = two_ec_instance(seed, nmax=12, wmax=9)
        edges, tree, aug, value, m = apps.two_ecss_weighted(g)
        assert subgraph_two_edge_connected(g, edges), seed
        assert value == sum(g.weight(e) for e in edges)
        # MST anchors the construction
        t2 = mst_tree(g, 0)
        assert (sum(g.weight(e) for e in tree.tree_edges)
                == sum(g.weight(e) for e in t2.tree_edges))
        if g.m <= 12:
            opt = oracle.min_two_ecss_weight(g)
            assert value <= 3 * opt, seed


def test_reinforcement_buys_only_new_edges():
    for seed in range(60):
        g, tree = two_ec_instance(seed, nmax=16, wmax=9)
        rng = random.Random(seed + 31)
        # H = the tree plus a few extra edges, always connected spanning
        h = set(tree.tree_edges)
        for e in range(g.m):
            if e not in h and rng.random() < 0.3:
                h.add(e)
        aug, htree, m = apps.augment_1_to_2(g, h)
        assert not (set(aug.edge_ids) & h)
        assert aug.weight == sum(g.weight(e) for e in aug.edge_ids)
        combined = h | set(aug.edge_ids)
        assert subgraph_two_edge_connected(g, combined), seed
        # reuse is free, so the buy is never beaten by a cheaper new-edge set
        if g.n <= 9 and g.m <= 16:
            g0, t0 = apps.recost_for_h(g, h)
            opt = oracle.opt_augmentation(g0, t0, weighted=True)
            assert aug.weight <= 2 * opt.weight, seed


def test_reinforcement_rejects_disconnected_h():
    g, tree = two_ec_instance(5, nmax=10)
    h = set(tree.tree_edges)
    h.discard(next(iter(h)))
    with pytest.raises(GraphError):
        apps.augment_1_to_2(g, h)


def _bridge_finder_instances():
    # a lone vertex, a single edge and two parallel edges, then 150 seeded
    # graphs, half of them with bridges
    yield "n=1", Multigraph(1)
    yield "edge", build_multigraph(2, [(0, 1)])
    yield "parallel", build_multigraph(2, [(0, 1), (1, 0)])
    for seed in range(150):
        rng = random.Random(seed)
        if rng.random() < 0.5:
            g, _ = two_ec_instance(seed, nmax=20)
        else:
            n = rng.randint(3, 20)
            g = Multigraph(n)
            for v in range(1, n):
                g.add_edge(v, rng.randrange(v), 1)
            for _ in range(rng.randint(0, n // 2)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    g.add_edge(u, v, 1)
        yield seed, g


def test_verify_agrees_with_bridge_finder():
    for name, g in _bridge_finder_instances():
        verdict, bridge_vertices, m = apps.verify_2ec_distributed(g)
        assert verdict == is_two_edge_connected(g), name
        tree = bfs_tree(g, 0)
        want = {tree.parent_edge[v] for v in bridge_vertices}
        assert want == find_bridges(g), name
        assert m.max_tokens_edge_round <= 4


def test_verify_rejects_disconnected():
    g = Multigraph(4)
    g.add_edge(0, 1, 1)
    with pytest.raises(GraphError):
        apps.verify_2ec_distributed(g)


def test_round_count_scales_with_diameter():
    from treeaug.graph import diameter
    for seed in (0, 1, 2):
        g, _ = generators.gen_random_2ec(400, 200, seed)
        edges, tree, _, m = apps.two_ecss_unweighted(g)
        d = diameter(g)
        assert m.rounds <= 8 * max(d, 1) * 16  # loose sanity ceiling here


def _wave_instance(shape):
    # (graph, BFS tree height): the 33-cycle; a hub joined to 32 leaves,
    # every edge a bridge, and the same star with a rim cycle on the leaves
    # (both h = 1); a 16-cycle and a 17-cycle joined by the bridge {0, 16}
    if shape == "cycle":
        return generators.gen_cycle(33)[0], 16
    g = Multigraph(33)
    if shape == "bridged":
        for lo, size in ((0, 16), (16, 17)):
            for i in range(size):
                g.add_edge(lo + i, lo + (i + 1) % size, 1)
        g.add_edge(0, 16, 1)
        return g, 9
    for v in range(1, 33):
        g.add_edge(0, v, 1)
        if shape == "wheel":
            g.add_edge(v, v % 32 + 1, 1)
    return g, 1


@pytest.mark.parametrize("budget", range(1, 8))
@pytest.mark.parametrize("shape", ("cycle", "star", "wheel", "bridged"))
def test_verify_waves_cost_h_rounds_and_one_token_an_edge(shape, budget):
    # each of the four waves sends one one-token message up or down every
    # BFS tree edge, unframed at every budget; the exchange sends one
    # ("vp", pre) token, unframed, each way over each of the k non-tree
    # edges, in one round at every budget
    g, h = _wave_instance(shape)
    tree = bfs_tree(g, 0)
    assert tree.height == h
    verdict, bridges, m = apps.verify_2ec_distributed(g, budget=budget)
    assert verdict == (shape in ("cycle", "wheel"))
    assert {tree.parent_edge[v] for v in bridges} == find_bridges(g)
    assert [p.phase for p in m.phases] == [
        "bfs", "verify_sizes", "verify_preorder", "exchange",
        "verify_bridges", "verify_verdict"]
    for phase in ("verify_sizes", "verify_preorder", "verify_bridges",
                  "verify_verdict"):
        p = m.phase(phase)
        assert (p.rounds, p.messages, p.tokens) == (h, g.n - 1, g.n - 1), phase
    k = g.m - g.n + 1
    p = m.phase("exchange")
    assert (p.rounds, p.messages, p.tokens) == (1 if k else 0, 2 * k, 2 * k)
