"""Instance generators: cycles, chorded-path families, set-disjointness
gadgets, and seeded random 2-edge-connected multigraphs.

All generators return (Multigraph, RootedTree) with the tree rooted at
vertex 0, matching the instance file convention.
"""
from __future__ import annotations

import random

from .graph import Multigraph, root_tree


def gen_cycle(n: int):
    """Cycle on n vertices; tree is the Hamiltonian path 0..n-1 (height n-1)."""
    if n < 2:
        raise ValueError("cycle needs n >= 2")
    g = Multigraph(n)
    tree_ids = []
    for v in range(n - 1):
        tree_ids.append(g.add_edge(v, v + 1, 1))
    g.add_edge(0, n - 1, 1)
    return g, root_tree(g, tree_ids, 0)


def gen_lb_path(k: int, long_edge: bool = False, weighted: bool = False,
                alpha: int = 2):
    """Path v0..v2k (tree) plus chords {v_{2i}, v_{2i+2}}; with long_edge
    also {v0, v_{2k}}. Weighted form: chords cost alpha+1, long edge 1."""
    if k < 1:
        raise ValueError("k >= 1 required")
    n = 2 * k + 1
    g = Multigraph(n)
    tree_ids = []
    for v in range(n - 1):
        tree_ids.append(g.add_edge(v, v + 1, 1))
    chord_w = alpha + 1 if weighted else 1
    for i in range(k):
        g.add_edge(2 * i, 2 * i + 2, chord_w)
    if long_edge:
        g.add_edge(0, n - 1, 1)
    return g, root_tree(g, tree_ids, 0)


def gen_lb_disjointness(k: int, d: int, p: int, a_bits, b_bits,
                        alpha: int = 2, weighted: bool = True,
                        simple: bool = False):
    """Disjointness gadget: k column paths of length d**p glued to a d-ary
    tree of depth p. Expensive rungs cost x = alpha*k + 1; the two end rungs
    of column i are cheap (cost 1) iff a_bits[i] resp. b_bits[i] is 0.
    The minimum augmentation costs k iff no column has both end rungs
    expensive, i.e. iff a and b are disjoint as bit vectors.

    simple=True rewrites every parallel pair by subdividing its weight-0
    tree copy with a fresh vertex, leaving a simple graph.
    """
    if k < 1 or d < 2 or p < 1:
        raise ValueError("need k >= 1, d >= 2, p >= 1")
    if len(a_bits) != k or len(b_bits) != k:
        raise ValueError("a_bits/b_bits must have length k")
    L = d ** p
    n_internal = (L - 1) // (d - 1)
    s_cnt = n_internal + L
    x = alpha * k + 1 if weighted else 1
    cheap = 1

    # global ids: u_0 (leftmost leaf of the arity tree) must be vertex 0
    heap_of_leaf = lambda j: n_internal + j
    gid = {}
    gid[heap_of_leaf(0)] = 0
    nxt = 1
    for h in range(s_cnt):
        if h not in gid:
            gid[h] = nxt
            nxt += 1
    def col(i, j):
        return s_cnt + i * L + j

    n = s_cnt + k * L
    pairs = []    # (u, v, other_weight): weight-0 tree copy + parallel copy
    singles = []  # (u, v, w): plain non-tree edge
    for h in range(n_internal):
        for c in range(1, d + 1):
            pairs.append((gid[h], gid[h * d + c], 0 if weighted else 1))
    for i in range(k):
        for j in range(L - 1):
            pairs.append((col(i, j), col(i, j + 1), 0 if weighted else 1))
        pairs.append((0, col(i, 0), (x if a_bits[i] else cheap) if weighted else 1))
        for j in range(1, L - 1):
            singles.append((gid[heap_of_leaf(j)], col(i, j), x if weighted else 1))
        singles.append((gid[heap_of_leaf(L - 1)], col(i, L - 1),
                        (x if b_bits[i] else cheap) if weighted else 1))

    if not simple:
        g = Multigraph(n)
        tree_ids = []
        for u, v, ow in pairs:
            tree_ids.append(g.add_edge(u, v, 0 if weighted else 1))
            g.add_edge(u, v, ow)
        for u, v, w in singles:
            g.add_edge(u, v, w)
        return g, root_tree(g, tree_ids, 0)

    g = Multigraph(n + len(pairs))
    tree_ids = []
    mid = n
    for u, v, ow in pairs:
        w0 = 0 if weighted else 1
        tree_ids.append(g.add_edge(u, mid, w0))
        tree_ids.append(g.add_edge(mid, v, w0))
        g.add_edge(u, v, ow)
        mid += 1
    for u, v, w in singles:
        g.add_edge(u, v, w)
    return g, root_tree(g, tree_ids, 0)


def gen_random_2ec(n: int, extra: int, seed: int, wmin: int = 1, wmax: int = 1):
    """Random Hamiltonian cycle plus `extra` random chords, weights uniform
    in [wmin, wmax]; spanning tree picked over a shuffled edge order."""
    if n < 3:
        raise ValueError("n >= 3 required")
    if not 0 <= wmin <= wmax:
        raise ValueError("need 0 <= wmin <= wmax (got %d, %d)" % (wmin, wmax))
    rng = random.Random(seed)
    perm = list(range(1, n))
    rng.shuffle(perm)
    perm = [0] + perm
    g = Multigraph(n)
    for i in range(n):
        g.add_edge(perm[i], perm[(i + 1) % n], rng.randint(wmin, wmax))
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        g.add_edge(u, v, rng.randint(wmin, wmax))

    order = list(range(g.m))
    rng.shuffle(order)
    parent = list(range(n))

    def find(y):
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        return y

    tree_ids = []
    for eid in order:
        u, v, _ = g.edges[eid]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree_ids.append(eid)
    return g, root_tree(g, tree_ids, 0)
