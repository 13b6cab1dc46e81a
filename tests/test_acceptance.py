"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Each test prints "PASS criterion-NN <detail>" (or FAIL with the first
violation) before asserting, so a plain pytest -v run doubles as the
acceptance report. Heavy shared runs are cached at module level.
"""
import itertools
import math
import random
import time
from pathlib import Path

from treeaug import apps, cli, fast, generators, oracle, sim, unweighted, weighted
from treeaug.graph import (Multigraph, augmentation_covers, bfs_tree, diameter,
                           eccentricity, find_bridges, is_two_edge_connected,
                           root_tree, subgraph_two_edge_connected)
from treeaug.labels import TreeView, assign_labels_sequential, lca_query
from treeaug.virtual_graph import (PlainScheme, build_incidence_sequential,
                                   covered_tree_edges)

# every Metrics object produced anywhere in this suite lands here; the
# fidelity criterion checks the per-edge-per-round token peak over all of it
_ALL_METRICS = []


def _report(name, ok, detail=""):
    print("%s %s %s" % ("PASS" if ok else "FAIL", name, detail))
    assert ok, "%s %s" % (name, detail)


def _watch(metrics):
    _ALL_METRICS.append(metrics)
    return metrics


# ---------------------------------------------------------------------------
# shared corpus: 200 seeded random 2-edge-connected multigraphs, n <= 12,
# in matched unweighted / weighted (1..100) forms

_corpus_cache = None


def corpus():
    global _corpus_cache
    if _corpus_cache is None:
        out = []
        for seed in range(200):
            rng = random.Random(9000 + seed)
            n = rng.randint(4, 12)
            extra = rng.randint(0, 6)
            gw, tree = generators.gen_random_2ec(n, extra, 9000 + seed,
                                                 wmin=1, wmax=100)
            g1 = Multigraph(gw.n)
            for u, v, _ in gw.edges:
                g1.add_edge(u, v, 1)
            t1 = root_tree(g1, sorted(tree.tree_edges), 0)
            out.append((g1, gw, t1, tree))
        _corpus_cache = out
    return _corpus_cache


def _virtual_optimum(g, tree, weighted_flag):
    scheme = PlainScheme()
    labels = assign_labels_sequential(TreeView.of_tree(tree))
    inc = build_incidence_sequential(g, tree, labels, scheme)
    ves = sorted({ve for lst in inc for ve in lst},
                 key=lambda e: (e.origin, scheme.key(e.anc)))
    val, chosen = oracle.opt_virtual_cover(
        tree, ves, lambda ve: covered_tree_edges(tree, ve, scheme),
        weighted=weighted_flag)
    return val, ves, scheme


_runs_cache = {}


def unweighted_runs():
    if "u" not in _runs_cache:
        out = []
        for g1, _, t1, _ in corpus():
            aug, cover, m = unweighted.augment_unweighted(g1, t1)
            _watch(m)
            out.append((g1, t1, aug, cover))
        _runs_cache["u"] = out
    return _runs_cache["u"]


def weighted_runs():
    if "w" not in _runs_cache:
        out = []
        for _, gw, _, tw in corpus():
            aug, added, costs, m = weighted.augment_weighted(gw, tw)
            _watch(m)
            out.append((gw, tw, aug, added, costs))
        _runs_cache["w"] = out
    return _runs_cache["w"]


# ---------------------------------------------------------------------------

def test_criterion_01_unweighted_virtual_optimality():
    t0 = time.time()
    for g1, t1, aug, cover in unweighted_runs():
        val, _, _ = _virtual_optimum(g1, t1, False)
        if len(cover) != val:
            _report("criterion-01", False,
                    "cover size %d != optimum %d" % (len(cover), val))
    _report("criterion-01", True,
            "200/200 unweighted covers exactly optimal in the virtual view "
            "(%.1fs)" % (time.time() - t0))


def test_criterion_02_weighted_virtual_optimality():
    t0 = time.time()
    for gw, tw, aug, added, costs in weighted_runs():
        val, _, _ = _virtual_optimum(gw, tw, True)
        got = sum(e.weight for e, _, _ in added)
        if got != val:
            _report("criterion-02", False,
                    "cover weight %d != optimum %d" % (got, val))
    _report("criterion-02", True,
            "200/200 weighted covers exactly optimal in the virtual view "
            "(%.1fs)" % (time.time() - t0))


def test_criterion_03_approximation_bounds():
    t0 = time.time()
    worst = 0.0
    for g1, t1, aug, cover in unweighted_runs():
        opt = oracle.opt_augmentation(g1, t1, weighted=False).weight
        if len(aug.edge_ids) > 2 * opt:
            _report("criterion-03", False, "unweighted ratio > 2")
        worst = max(worst, len(aug.edge_ids) / opt)
    for gw, tw, aug, _, _ in weighted_runs():
        opt = oracle.opt_augmentation(gw, tw, weighted=True).weight
        if aug.weight > 2 * opt:
            _report("criterion-03", False, "weighted ratio > 2")
    for g1, _, t1, _ in corpus():
        faug, fcover, m = fast.augment_fast(g1, t1)
        _watch(m)
        opt = oracle.opt_augmentation(g1, t1, weighted=False).weight
        vopt, _, _ = _virtual_optimum(g1, t1, False)
        if len(faug.edge_ids) > 4 * opt:
            _report("criterion-03", False, "fast ratio > 4")
        if len(fcover) > 2 * vopt:
            _report("criterion-03", False, "fast virtual cover > 2x optimum")
    _report("criterion-03", True,
            "0 violations of 2x/2x/4x bounds on 600 runs, worst unweighted "
            "ratio %.3f (%.1fs)" % (worst, time.time() - t0))


def test_criterion_04_chorded_path_family():
    t0 = time.time()
    for k in (2, 4, 8):
        g1, t1 = generators.gen_lb_path(k)
        aug, _, m = unweighted.augment_unweighted(g1, t1)
        _watch(m)
        if len(aug.edge_ids) != k:
            _report("criterion-04", False,
                    "k=%d chord family: %d edges" % (k, len(aug.edge_ids)))
        g2, t2 = generators.gen_lb_path(k, long_edge=True)
        aug2, _, m = unweighted.augment_unweighted(g2, t2)
        _watch(m)
        if len(aug2.edge_ids) != 1:
            _report("criterion-04", False,
                    "k=%d long-edge family: %d edges" % (k, len(aug2.edge_ids)))
        g3, t3 = generators.gen_lb_path(k, long_edge=True, weighted=True,
                                        alpha=2)
        aug3, _, _, m = weighted.augment_weighted(g3, t3)
        _watch(m)
        if aug3.weight != 1:
            _report("criterion-04", False,
                    "k=%d weighted family: weight %d" % (k, aug3.weight))
    _report("criterion-04", True,
            "k in {2,4,8}: exactly k / 1 / weight 1 (%.1fs)" % (time.time() - t0))


def test_criterion_05_disjointness_gadget():
    t0 = time.time()
    k, d, p, alpha = 2, 2, 1, 2
    checked = 0
    for bits in itertools.product((0, 1), repeat=2 * k):
        a, b = list(bits[:k]), list(bits[k:])
        disjoint = all(not (a[i] and b[i]) for i in range(k))
        for simple in (False, True):
            g, tree = generators.gen_lb_disjointness(k, d, p, a, b,
                                                     alpha=alpha,
                                                     simple=simple)
            aug, _, _, m = weighted.augment_weighted(g, tree)
            _watch(m)
            cheap = aug.weight <= 2 * k
            if cheap != disjoint:
                _report("criterion-05", False,
                        "a=%s b=%s simple=%s: weight %d"
                        % (a, b, simple, aug.weight))
            checked += 1
    _report("criterion-05", True,
            "%d gadget runs separate disjoint from intersecting inputs "
            "(%.1fs)" % (checked, time.time() - t0))


def test_criterion_06_linear_height_round_scaling():
    t0 = time.time()
    pts = []
    for n in (64, 256, 1024, 4096):
        g, tree = generators.gen_cycle(n)
        h = tree.height
        _, _, m = unweighted.augment_unweighted(g, tree)
        _watch(m)
        if m.rounds > 8 * h + 16:
            _report("criterion-06", False,
                    "tap n=%d: %d rounds > 8h+16" % (n, m.rounds))
        pts.append((h, m.rounds))
        res = weighted.weighted_cover_distributed(g, tree)
        _watch(res["metrics"])
        if res["metrics"].rounds > 8 * h + 16:
            _report("criterion-06", False,
                    "wtap n=%d: %d rounds > 8h+16" % (n, res["metrics"].rounds))
        pts.append((h, res["metrics"].rounds))
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    slope = (sum((x - xbar) * (y - ybar) for x, y in pts)
             / sum((x - xbar) ** 2 for x in xs))
    if slope < 0.5:
        _report("criterion-06", False, "slope %.3f < 0.5" % slope)
    _report("criterion-06", True,
            "rounds <= 8h+16 on all 8 cycle runs, slope %.2f (%.1fs)"
            % (slope, time.time() - t0))


def test_criterion_07_fast_round_scaling():
    t0 = time.time()
    details = []
    for p in (8, 10, 12):
        g, tree = generators.gen_lb_disjointness(2, 2, p, [1, 0], [0, 1],
                                                 weighted=False)
        n = g.n
        rt = math.isqrt(n)
        dd = diameter(g) if n <= 4096 else 2 * eccentricity(g, 0)
        if tree.height < 4 * rt:
            _report("criterion-07", False,
                    "n=%d: height %d below 4*sqrt(n)" % (n, tree.height))
        res = fast.fast_cover_distributed(g, tree)
        _watch(res["metrics"])
        fr = res["metrics"].rounds
        _, _, m_plain = unweighted.augment_unweighted(g, tree)
        _watch(m_plain)
        if fr > 20 * (dd + rt):
            _report("criterion-07", False,
                    "n=%d: %d rounds > 20(D+sqrt n)=%d" % (n, fr, 20 * (dd + rt)))
        if fr >= m_plain.rounds:
            _report("criterion-07", False,
                    "n=%d: fast %d not below plain %d" % (n, fr, m_plain.rounds))
        frags = len(res["frag_roots"])
        bcast_items = (frags, len(res["frag_max"]),
                       len(res["final_announced"]))
        if any(c > 4 * rt for c in bcast_items):
            _report("criterion-07", False,
                    "n=%d: broadcast volume %s exceeds 4*sqrt(n)=%d"
                    % (n, bcast_items, 4 * rt))
        details.append("n=%d fast=%d plain=%d limit=%d frags=%d"
                       % (n, fr, m_plain.rounds, 20 * (dd + rt), frags))
    _report("criterion-07", True,
            "; ".join(details) + " (%.1fs)" % (time.time() - t0))


def test_criterion_08_pipelined_upward_phase():
    t0 = time.time()
    trees = []
    for n in (64, 256, 1024):
        trees.append(generators.gen_cycle(n))
    for seed in range(8):
        rng = random.Random(seed)
        n = rng.randint(32, 1024)
        trees.append(generators.gen_random_2ec(n, rng.randint(0, n // 4),
                                               seed, wmin=1, wmax=50))
    for k in (2, 8):
        trees.append(generators.gen_lb_path(k, long_edge=True, weighted=True))
    worst = 0.0
    for g, tree in trees:
        res = weighted.weighted_cover_distributed(g, tree)
        _watch(res["metrics"])
        h = max(tree.height, 1)
        up = res["metrics"].phase("weighted_up").rounds
        if up > 2 * h + 4:
            _report("criterion-08", False,
                    "n=%d h=%d: up phase %d rounds > 2h+4" % (g.n, h, up))
        worst = max(worst, up / (2 * h + 4))
    _report("criterion-08", True,
            "upward phase <= 2h+4 on %d trees, tightest at %.0f%% of the "
            "bound (%.1fs)" % (len(trees), 100 * worst, time.time() - t0))


def test_criterion_09_cost_decomposition():
    t0 = time.time()
    scheme = PlainScheme()
    enum_checked = 0
    for gw, tw, aug, added, costs in weighted_runs():
        cover_w = sum(e.weight for e, _, _ in added)
        if cover_w != sum(costs.values()):
            _report("criterion-09", False,
                    "cover weight %d != cost sum %d"
                    % (cover_w, sum(costs.values())))
        lower = sum(costs.values())
        val, ves, _ = _virtual_optimum(gw, tw, True)
        if len(ves) > 14:
            continue
        te = sorted(tw.tree_edges)
        bit = {e: i for i, e in enumerate(te)}
        masks = [sum(1 << bit[t] for t in covered_tree_edges(tw, ve, scheme))
                 for ve in ves]
        for sub in oracle.enumerate_covers(tw, masks, (1 << len(te)) - 1):
            w = sum(ves[i].weight for i in range(len(ves)) if sub >> i & 1)
            if w < lower:
                _report("criterion-09", False,
                        "a virtual cover of weight %d beats the cost sum %d"
                        % (w, lower))
        enum_checked += 1
    _report("criterion-09", True,
            "cost sums match on 200 runs; every enumerated virtual cover on "
            "%d instances pays at least the sum (%.1fs)"
            % (enum_checked, time.time() - t0))


def test_criterion_10_lca_labels():
    t0 = time.time()

    def true_lca(tree, a, b):
        anc = set()
        x = a
        while x >= 0:
            anc.add(x)
            x = tree.parent[x]
        x = b
        while x not in anc:
            x = tree.parent[x]
        return x

    for seed in range(50):
        rng = random.Random(400 + seed)
        n = rng.randint(3, 256)
        g, tree = generators.gen_random_2ec(n, rng.randint(0, n // 2),
                                            400 + seed)
        labels = assign_labels_sequential(TreeView.of_tree(tree))
        for a in range(n):
            la = labels[a]
            for b in range(n):
                want = true_lca(tree, a, b)
                got = lca_query(la, labels[b])
                if (got.depth != tree.depth[want]
                        or got.seq != labels[want].seq):
                    _report("criterion-10", False,
                            "plain lca wrong at seed %d (%d,%d)" % (seed, a, b))
    for seed in range(12):
        rng = random.Random(700 + seed)
        n = rng.randint(3, 300)
        g, tree = generators.gen_random_2ec(n, rng.randint(0, n // 2),
                                            700 + seed)
        frag_of, _ = fast.fragment_decompose(tree, rng.choice([None, 3, 6]))
        split, scheme = fast.split_labels_sequential(tree, frag_of)
        for a in range(n):
            sa = split[a]
            for b in range(n):
                want = true_lca(tree, a, b)
                got = scheme.lca(sa, split[b])
                if (scheme.depth(got) != tree.depth[want]
                        or scheme.key(got) != scheme.key(split[want])):
                    _report("criterion-10", False,
                            "split lca wrong at seed %d (%d,%d)" % (seed, a, b))
    _report("criterion-10", True,
            "all-pairs queries match the parent walk on 50 plain and 12 "
            "fragmented trees (%.1fs)" % (time.time() - t0))


def test_criterion_11_applications():
    t0 = time.time()
    for seed, n, extra in ((0, 200, 120), (1, 500, 300), (2, 1000, 600),
                           (3, 1000, 100), (4, 400, 40)):
        g, _ = generators.gen_random_2ec(n, extra, seed)
        edges, tree, aug, m = apps.two_ecss_unweighted(g)
        _watch(m)
        if not subgraph_two_edge_connected(g, edges):
            _report("criterion-11", False, "n=%d: subgraph not 2ec" % n)
        if len(edges) > 2 * (n - 1):
            _report("criterion-11", False,
                    "n=%d: %d edges > 2(n-1)" % (n, len(edges)))
        d = diameter(g)
        if m.rounds > 8 * d:
            _report("criterion-11", False,
                    "n=%d: %d rounds > 8D=%d" % (n, m.rounds, 8 * d))
    for seed in range(30):
        rng = random.Random(seed)
        g, _ = generators.gen_random_2ec(rng.randint(3, 6),
                                         rng.randint(0, 3), seed)
        if g.m > 12:
            continue
        edges, _, _, m = apps.two_ecss_unweighted(g)
        _watch(m)
        if len(edges) > 2 * oracle.min_two_ecss_size(g):
            _report("criterion-11", False, "small-instance ratio > 2")
    agreed = 0
    for seed in range(500):
        rng = random.Random(5000 + seed)
        if rng.random() < 0.5:
            g, _ = generators.gen_random_2ec(rng.randint(3, 16),
                                             rng.randint(0, 8), 5000 + seed)
        else:
            n = rng.randint(3, 16)
            g = Multigraph(n)
            for v in range(1, n):
                g.add_edge(v, rng.randrange(v), 1)
            for _ in range(rng.randint(0, n // 2)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    g.add_edge(u, v, 1)
        verdict, bridges, m = apps.verify_2ec_distributed(g)
        _watch(m)
        if verdict != is_two_edge_connected(g):
            _report("criterion-11", False, "verify wrong at seed %d" % seed)
        tree = bfs_tree(g, 0)
        if {tree.parent_edge[v] for v in bridges} != find_bridges(g):
            _report("criterion-11", False,
                    "verify's bridges wrong at seed %d" % seed)
        agreed += 1
    _report("criterion-11", True,
            "subgraphs valid within 2(n-1) edges and 8D rounds; %d/500 "
            "verification verdicts unanimous and correct, bridge lists "
            "equal to the bridge finder's (%.1fs)"
            % (agreed, time.time() - t0))


def test_criterion_12_congest_fidelity(tmp_path):
    t0 = time.time()
    budget = sim.DEFAULT_BUDGET
    peak = max((m.max_tokens_edge_round for m in _ALL_METRICS), default=0)
    if peak > budget:
        _report("criterion-12", False,
                "token peak %d exceeds budget %d" % (peak, budget))
    inst = str(tmp_path / "inst.txt")
    assert cli.main(["gen", "random", "--n", "24", "--extra", "12",
                     "--seed", "11", "--wmin", "1", "--wmax", "30",
                     "-o", inst]) == 0
    snaps = []
    for i in range(2):
        csv = str(tmp_path / ("run%d.csv" % i))
        tr = str(tmp_path / ("run%d.log" % i))
        for algo in ("tap", "wtap", "fast"):
            assert cli.main(["run", inst, "--algo", algo, "--csv", csv,
                             "--transcript", tr + algo]) == 0
        snaps.append((Path(csv).read_bytes(),)
                     + tuple(Path(tr + a).read_bytes()
                             for a in ("tap", "wtap", "fast")))
    if snaps[0] != snaps[1]:
        _report("criterion-12", False, "repeated runs differ")
    _report("criterion-12", True,
            "token peak %d within budget %d over %d tracked runs; repeated "
            "CSV and transcripts byte-identical (%.1fs)"
            % (peak, budget, len(_ALL_METRICS), time.time() - t0))
