import itertools
import random

import pytest

from treeaug import generators, oracle
from treeaug.graph import (Multigraph, augmentation_covers, bfs_tree,
                           subgraph_two_edge_connected, tree_path_edges)
from treeaug.labels import TreeView, assign_labels_sequential
from treeaug.virtual_graph import (PlainScheme, build_incidence_sequential,
                                   covered_tree_edges)


def brute_force_aug(g, tree, weighted):
    """Plain subset enumeration, independent of the branch and bound."""
    nontree = [e for e in range(g.m) if e not in tree.tree_edges]
    best = None
    for r in range(len(nontree) + 1):
        for sub in itertools.combinations(nontree, r):
            if not augmentation_covers(g, tree, sub):
                continue
            val = sum(g.weight(e) for e in sub) if weighted else len(sub)
            if best is None or val < best:
                best = val
        if best is not None and not weighted:
            break  # cardinality: first feasible size is optimal
    return best


def test_opt_augmentation_matches_enumeration():
    for seed in range(80):
        rng = random.Random(seed)
        g, tree = generators.gen_random_2ec(rng.randint(3, 9),
                                            rng.randint(1, 5), seed,
                                            wmin=1, wmax=9)
        for weighted in (False, True):
            aug = oracle.opt_augmentation(g, tree, weighted=weighted)
            want = brute_force_aug(g, tree, weighted)
            assert aug.weight == want, (seed, weighted)
            got = (sum(g.weight(e) for e in aug.edge_ids) if weighted
                   else len(aug.edge_ids))
            assert got == aug.weight
            assert augmentation_covers(g, tree, aug.edge_ids)


def test_opt_virtual_cover_matches_enumeration():
    scheme = PlainScheme()
    for seed in range(50):
        rng = random.Random(seed)
        g, tree = generators.gen_random_2ec(rng.randint(3, 9),
                                            rng.randint(1, 4), seed,
                                            wmin=1, wmax=9)
        labels = assign_labels_sequential(TreeView.of_tree(tree))
        inc = build_incidence_sequential(g, tree, labels, scheme)
        ves = sorted({ve for lst in inc for ve in lst},
                     key=lambda e: (e.origin, scheme.key(e.anc)))
        if len(ves) > 16:
            continue
        cov = lambda ve: covered_tree_edges(tree, ve, scheme)
        for weighted in (False, True):
            val, chosen = oracle.opt_virtual_cover(tree, ves, cov, weighted)
            covered = set()
            for ve in chosen:
                covered.update(cov(ve))
            assert covered == set(tree.tree_edges)
            best = None
            for r in range(len(ves) + 1):
                for sub in itertools.combinations(range(len(ves)), r):
                    got = set()
                    for i in sub:
                        got.update(cov(ves[i]))
                    if got != set(tree.tree_edges):
                        continue
                    v = (sum(ves[i].weight for i in sub) if weighted
                         else len(sub))
                    if best is None or v < best:
                        best = v
                if best is not None and not weighted:
                    break
            assert val == best, (seed, weighted)


def test_enumerate_covers_small():
    g, tree = generators.gen_cycle(4)
    te = sorted(tree.tree_edges)
    bit = {e: i for i, e in enumerate(te)}
    full = (1 << len(te)) - 1
    masks = [sum(1 << bit[t] for t in tree_path_edges(tree, u, v))
             for u, v, _ in [g.edges[e] for e in range(g.m)
                             if e not in tree.tree_edges]]
    subs = oracle.enumerate_covers(tree, masks, full)
    for sub in range(1 << len(masks)):
        m = 0
        for i in range(len(masks)):
            if sub >> i & 1:
                m |= masks[i]
        assert (sub in subs) == (m == full)


def test_size_guards():
    g, tree = generators.gen_cycle(20)
    with pytest.raises(oracle.OracleSizeError):
        oracle.opt_augmentation(g, tree)
    with pytest.raises(oracle.OracleSizeError):
        oracle.min_two_ecss_size(g)
    with pytest.raises(oracle.OracleSizeError):
        oracle.enumerate_covers(tree, [0] * 25)


def test_infeasible_detected():
    # a path has a bridge that no non-tree edge covers
    g = Multigraph(3)
    g.add_edge(0, 1, 1)
    g.add_edge(1, 2, 1)
    tree = bfs_tree(g, 0)
    with pytest.raises(oracle.InfeasibleError):
        oracle.opt_augmentation(g, tree)
    with pytest.raises(oracle.InfeasibleError):
        oracle.min_two_ecss_size(g)


def test_single_vertex_needs_no_edges():
    # one vertex is 2-edge-connected with no edges, as graph and verify say
    g = Multigraph(1)
    assert oracle.min_two_ecss_size(g) == 0
    assert oracle.min_two_ecss_weight(g) == 0


def test_min_two_ecss_matches_exhaustive():
    for seed in range(25):
        rng = random.Random(seed)
        g, _ = generators.gen_random_2ec(rng.randint(3, 6),
                                         rng.randint(1, 3), seed,
                                         wmin=1, wmax=9)
        if g.m > 12:
            continue
        size = oracle.min_two_ecss_size(g)
        wopt = oracle.min_two_ecss_weight(g)
        best_k = None
        best_w = None
        for r in range(1, g.m + 1):
            for sub in itertools.combinations(range(g.m), r):
                if subgraph_two_edge_connected(g, sub):
                    if best_k is None:
                        best_k = r
                    w = sum(g.weight(e) for e in sub)
                    if best_w is None or w < best_w:
                        best_w = w
        assert size == best_k and wopt == best_w, seed
