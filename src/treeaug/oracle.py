"""Exact reference solvers, deliberately independent of the distributed code.

Branch and bound over covering candidates with an admissible lower bound
from disjoint uncovered root-paths. Guarded to small instances; exceeding
the guards raises instead of silently degrading.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import Augmentation, tree_path_edges


class OracleError(Exception):
    pass


class OracleSizeError(OracleError):
    pass


class InfeasibleError(OracleError):
    pass


MAX_N = 16
MAX_CANDIDATES = 24


@dataclass
class OracleResult:
    value: int            # optimal weight (or cardinality when all weights 1)
    chosen: tuple         # candidate ids in the optimum found
    nodes_explored: int


def _solve_cover(masks, weights, full_mask, deep_order, halve_lb: bool):
    """Minimum-weight set of candidates whose masks union to full_mask.

    deep_order: tree-edge bit indices, deepest child first; the branching
    element is the deepest uncovered bit. halve_lb: a candidate can cover
    two disjoint root-paths (true for G edges, false in the virtual view).
    """
    ncand = len(masks)
    by_bit: list[list[int]] = [[] for _ in range(full_mask.bit_length())]
    for ci in range(ncand):
        m = masks[ci]
        while m:
            b = (m & -m).bit_length() - 1
            by_bit[b].append(ci)
            m &= m - 1
    for b in range(full_mask.bit_length()):
        if full_mask >> b & 1 and not by_bit[b]:
            raise InfeasibleError("tree edge bit %d has no covering edge" % b)
        by_bit[b].sort(key=lambda ci: (weights[ci], ci))
    min_cover_w = [min((weights[ci] for ci in by_bit[b]), default=0)
                   for b in range(full_mask.bit_length())]

    # lower bound: uncovered bits with pairwise disjoint candidate sets,
    # picked greedily deepest first, each needing its own cheapest cover
    best = {"w": None, "sol": None}
    nodes = [0]
    cand_sets = [frozenset(by_bit[b]) for b in range(full_mask.bit_length())]

    def lower_bound(uncovered):
        total = 0
        used: set = set()
        m = uncovered
        for b in deep_order:
            if not (m >> b & 1):
                continue
            if cand_sets[b] & used:
                continue
            used |= cand_sets[b]
            total += min_cover_w[b]
        if halve_lb:
            return (total + 1) // 2
        return total

    def dfs(uncovered, cost, chosen):
        nodes[0] += 1
        if uncovered == 0:
            if best["w"] is None or cost < best["w"]:
                best["w"] = cost
                best["sol"] = tuple(chosen)
            return
        if best["w"] is not None and cost + lower_bound(uncovered) >= best["w"]:
            return
        b = next(bb for bb in deep_order if uncovered >> bb & 1)
        for ci in by_bit[b]:
            chosen.append(ci)
            dfs(uncovered & ~masks[ci], cost + weights[ci], chosen)
            chosen.pop()

    dfs(full_mask, 0, [])
    return OracleResult(best["w"], best["sol"], nodes[0])


def _tree_bits(tree):
    te = sorted(tree.tree_edges)
    bit_of = {eid: i for i, eid in enumerate(te)}
    # deepest child vertex first; each tree edge is identified by its child
    child_of = {}
    for v in range(tree.n):
        if tree.parent_edge[v] >= 0:
            child_of[tree.parent_edge[v]] = v
    deep_order = sorted(range(len(te)),
                        key=lambda i: (-tree.depth[child_of[te[i]]], te[i]))
    return te, bit_of, deep_order


def opt_augmentation(g, tree, weighted: bool = True) -> Augmentation:
    """Exact minimum augmentation of tree within g (non-tree edges only)."""
    if g.n > MAX_N:
        raise OracleSizeError("n=%d exceeds oracle guard %d" % (g.n, MAX_N))
    nontree = [eid for eid in range(g.m) if eid not in tree.tree_edges]
    if len(nontree) > MAX_CANDIDATES:
        raise OracleSizeError("%d candidates exceed oracle guard %d"
                              % (len(nontree), MAX_CANDIDATES))
    te, bit_of, deep_order = _tree_bits(tree)
    masks, weights = [], []
    for eid in nontree:
        u, v, w = g.edges[eid]
        m = 0
        for t in tree_path_edges(tree, u, v):
            m |= 1 << bit_of[t]
        masks.append(m)
        weights.append(w if weighted else 1)
    full = (1 << len(te)) - 1
    res = _solve_cover(masks, weights, full, deep_order, halve_lb=True)
    chosen = frozenset(nontree[ci] for ci in res.chosen)
    return Augmentation(chosen, res.value,
                        meta={"nodes_explored": res.nodes_explored})


def opt_virtual_cover(tree, virt_edges, covered_of, weighted: bool = True):
    """Exact minimum cover of all tree edges by the given virtual edges.

    covered_of(ve) yields the tree edge ids ve covers. Returns (value,
    chosen virtual edges). Cardinality when weighted is False.
    """
    if tree.n > MAX_N:
        raise OracleSizeError("n=%d exceeds oracle guard %d" % (tree.n, MAX_N))
    ves = sorted(virt_edges, key=lambda e: e.origin)  # stable on caller order
    if len(ves) > MAX_CANDIDATES:
        raise OracleSizeError("%d candidates exceed oracle guard %d"
                              % (len(ves), MAX_CANDIDATES))
    te, bit_of, deep_order = _tree_bits(tree)
    masks = []
    weights = []
    for ve in ves:
        m = 0
        for t in covered_of(ve):
            m |= 1 << bit_of[t]
        masks.append(m)
        weights.append(ve.weight if weighted else 1)
    full = (1 << len(te)) - 1
    res = _solve_cover(masks, weights, full, deep_order, halve_lb=False)
    return res.value, [ves[ci] for ci in res.chosen]


def enumerate_covers(tree, masks, full_mask=None):
    """All index subsets whose masks cover every tree edge; exponential,
    callers must keep len(masks) small."""
    if full_mask is None:
        full_mask = (1 << (tree.n - 1)) - 1
    k = len(masks)
    if k > 20:
        raise OracleSizeError("%d candidates is too many to enumerate" % k)
    out = []
    for sub in range(1 << k):
        m = 0
        s = sub
        while s:
            i = (s & -s).bit_length() - 1
            m |= masks[i]
            s &= s - 1
        if m & full_mask == full_mask:
            out.append(sub)
    return out


def min_two_ecss_size(g, max_m: int = 18) -> int:
    """Exact minimum edge count of a 2-edge-connected spanning subgraph."""
    from itertools import combinations

    from .graph import subgraph_two_edge_connected

    if g.m > max_m:
        raise OracleSizeError("m=%d exceeds guard %d" % (g.m, max_m))
    if g.n > MAX_N:
        raise OracleSizeError("n=%d exceeds oracle guard %d" % (g.n, MAX_N))
    all_edges = list(range(g.m))
    # n >= 2 vertices need at least n edges; a single vertex needs none
    for k in range(g.n if g.n > 1 else 0, g.m + 1):
        for sub in combinations(all_edges, k):
            if subgraph_two_edge_connected(g, sub):
                return k
    raise InfeasibleError("graph has no 2-edge-connected spanning subgraph")


def min_two_ecss_weight(g, max_m: int = 18) -> int:
    """Exact minimum total weight of a 2-edge-connected spanning subgraph."""
    from itertools import combinations

    from .graph import subgraph_two_edge_connected

    if g.m > max_m:
        raise OracleSizeError("m=%d exceeds guard %d" % (g.m, max_m))
    if g.n > MAX_N:
        raise OracleSizeError("n=%d exceeds oracle guard %d" % (g.n, MAX_N))
    all_edges = list(range(g.m))
    best = None
    # n >= 2 vertices need at least n edges; a single vertex needs none
    for k in range(g.n if g.n > 1 else 0, g.m + 1):
        for sub in combinations(all_edges, k):
            w = sum(g.weight(e) for e in sub)
            if (best is None or w < best) and subgraph_two_edge_connected(g, sub):
                best = w
    if best is None:
        raise InfeasibleError("graph has no 2-edge-connected spanning subgraph")
    return best
