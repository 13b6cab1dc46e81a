import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from treeaug import apps, generators, oracle, sim, weighted
from treeaug.graph import Multigraph, augmentation_covers, bfs_tree, root_tree
from treeaug.labels import TreeView, assign_labels_sequential
from treeaug.unweighted import BridgeDetected
from treeaug.virtual_graph import (PlainScheme, VirtualEdge,
                                   build_incidence_sequential,
                                   covered_tree_edges)
from treeaug.weighted import (INF, WeightedUpProgram,
                              _own_steps, _own_table, _WeightedUpState, augment_weighted,
                              sequential_weighted_cover,
                              weighted_cover_distributed)


def instance(seed, nmax=12, wmax=20):
    rng = random.Random(seed)
    return generators.gen_random_2ec(rng.randint(3, nmax),
                                     rng.randint(0, nmax), seed,
                                     wmin=1, wmax=wmax)


def assert_distributed_equals_sequential(g, tree, budget=4, what=None):
    want = sequential_weighted_cover(g, tree)
    got = weighted_cover_distributed(g, tree, budget=budget)
    assert got["costs"] == want["costs"], what
    assert sorted(got["bridges"]) == sorted(want["bridges"]), what
    # the two halves of one non-tree edge share an origin and may share a
    # top depth, so the descendant endpoint's label tells them apart
    scheme = PlainScheme()
    key = lambda r: (r[0].origin, scheme.key(r[0].desc), r[1])
    assert sorted(got["added"], key=key) == sorted(want["added"], key=key), what
    return got


def test_distributed_equals_sequential():
    for seed in range(120):
        g, tree = instance(seed)
        assert_distributed_equals_sequential(g, tree, what=seed)


def spider(legs, seed):
    """The tree is a path of 12 edges from the root to a hub, with one
    path (leg) per entry of `legs`, of that many vertices, hanging from the
    hub; each leg's end is joined to the root and random weighted chords
    are added."""
    rng = random.Random(seed)
    stem = 12
    g = Multigraph(1 + stem + sum(legs))
    tree_ids = [g.add_edge(v, v + 1, rng.randint(1, 9)) for v in range(stem)]
    v = stem + 1
    for length in legs:
        prev = stem
        for _ in range(length):
            tree_ids.append(g.add_edge(prev, v, rng.randint(1, 9)))
            prev, v = v, v + 1
        g.add_edge(prev, 0, rng.randint(1, 30))
    for _ in range(g.n // 2):
        a, b = rng.sample(range(g.n), 2)
        g.add_edge(a, b, rng.randint(1, 30))
    return g, root_tree(g, tree_ids, 0)


@pytest.mark.parametrize("budget", (3, 4, 7))
def test_distributed_equals_sequential_on_uneven_trees(budget):
    # children whose subtrees differ in height report a depth in different
    # rounds, so a vertex holds it pending until the last one does; a
    # spider's hub, at depth 12, has legs of different lengths
    for seed in range(40):
        g, _ = instance(seed, nmax=40)
        assert_distributed_equals_sequential(g, bfs_tree(g, seed % g.n), budget,
                                             ("bfs", seed))
    for seed, legs in enumerate(([1, 5, 12], [30, 3, 3, 17], [2, 9],
                                 [40, 1, 1, 1, 25, 7], [6, 6, 13], [1, 1, 20])):
        g, tree = spider(legs, seed)
        assert_distributed_equals_sequential(g, tree, budget, legs)


def test_upward_state_is_linear_on_a_path():
    # the upward phase keeps no per-depth table: on the 1024-cycle's path
    # tree, all output states together hold at most 4 entries a vertex in
    # their lists, dicts and arrays (per-depth tables would hold ~n^2/2 each)
    g, tree = generators.gen_cycle(1024)
    view = TreeView.of_tree(tree)
    labels = assign_labels_sequential(view)
    scheme = PlainScheme()
    incidence = build_incidence_sequential(g, tree, labels, scheme)
    states, _ = sim.run(g, WeightedUpProgram(view, incidence, labels, scheme))
    entries = 0
    for state in states:
        for slot in type(state).__slots__:
            value = getattr(state, slot)
            if isinstance(value, (list, dict, array)):
                entries += len(value)
    assert entries <= 4 * g.n, entries


@settings(max_examples=200, deadline=None)
@given(depth=st.integers(0, 12),
       edges=st.lists(st.tuples(st.integers(0, 14), st.integers(1, 6),
                                st.integers(0, 5)), max_size=10))
def test_own_edge_breakpoints_match_the_own_table(depth, edges):
    # a leaf's state holds only the own-edge breakpoints; both its lookup
    # and the pointer that settles depths deepest first, as the leaf steps,
    # give _own_table's cheapest own edge, ties and all, at every depth.
    # Edges reaching no ancestor below `depth` never count
    incoming = [VirtualEdge(type("Label", (), {"depth": a})(), None, origin, w, a)
                for a, w, origin in edges]
    scheme = PlainScheme()
    best_w, best_edge = _own_table(incoming, depth, scheme)
    starts, own = _own_steps(incoming, depth, scheme)
    leaf = _WeightedUpState(0, depth, -1, starts, own, [])
    step = WeightedUpProgram(None, None, None, scheme).step
    sent = []
    status = sim.HALT
    for rnd in range(depth):
        out, status = step(leaf, rnd, None)
        sent += [w for _, (w,) in out]
        if status == sim.HALT:
            break
    assert (leaf.j, status) == (-1, sim.HALT)
    if depth:
        # the leaf sends every depth's weight but d - 1's, altered by min_v
        settled = [leaf.min_v] + [w if w >= INF else w + leaf.min_v for w in sent]
        assert settled == best_w[::-1]
    for j in range(depth):
        assert leaf.own_edge(j) is best_edge[j]
        assert leaf.src_at(j) == -1


def test_cover_weight_equals_cost_sum():
    for seed in range(100):
        g, tree = instance(seed)
        res = weighted_cover_distributed(g, tree)
        if res["bridges"]:
            continue
        cover_w = sum(e.weight for e, _, _ in res["added"])
        assert cover_w == sum(res["costs"].values()), seed


def test_cover_paths_partition_covered_edges():
    scheme = PlainScheme()
    for seed in range(80):
        g, tree = instance(seed)
        res = sequential_weighted_cover(g, tree)
        if res["bridges"]:
            continue
        seen = []
        for ve, top, _ in res["added"]:
            # each record pays for the path from its descendant endpoint
            # up to the chain's top ancestor, at depth top
            v = scheme.vertex_of(ve.desc)
            while tree.depth[v] > top:
                seen.append(tree.parent_edge[v])
                v = tree.parent[v]
        assert sorted(seen) == sorted(tree.tree_edges), seed


def test_cover_is_optimal_in_virtual_view():
    scheme = PlainScheme()
    for seed in range(80):
        g, tree = instance(seed, nmax=10, wmax=9)
        res = sequential_weighted_cover(g, tree)
        if res["bridges"]:
            continue
        ves = sorted({ve for lst in res["incidence"] for ve in lst},
                     key=lambda e: (e.origin, scheme.key(e.anc)))
        if len(ves) > 20:
            continue
        val, _ = oracle.opt_virtual_cover(
            tree, ves, lambda ve: covered_tree_edges(tree, ve, scheme),
            weighted=True)
        cover_w = sum(e.weight for e, _, _ in res["added"])
        assert cover_w == val, seed


def test_augmentation_valid_and_two_approx():
    for seed in range(100):
        g, tree = instance(seed, nmax=11, wmax=15)
        aug, added, costs, m = augment_weighted(g, tree)
        assert augmentation_covers(g, tree, aug.edge_ids), seed
        assert m.max_tokens_edge_round <= 4
        opt = oracle.opt_augmentation(g, tree, weighted=True)
        assert aug.weight <= 2 * opt.weight, seed
        assert aug.weight <= sum(e.weight for e, _, _ in added)


def test_every_virtual_cover_pays_at_least_the_cost_sum():
    scheme = PlainScheme()
    for seed in range(50):
        g, tree = instance(seed, nmax=9, wmax=9)
        res = sequential_weighted_cover(g, tree)
        if res["bridges"]:
            continue
        lower = sum(res["costs"].values())
        ves = sorted({ve for lst in res["incidence"] for ve in lst},
                     key=lambda e: (e.origin, scheme.key(e.anc)))
        if len(ves) > 14:
            continue
        te = sorted(tree.tree_edges)
        bit = {e: i for i, e in enumerate(te)}
        masks = [sum(1 << bit[t] for t in covered_tree_edges(tree, ve, scheme))
                 for ve in ves]
        for sub in oracle.enumerate_covers(tree, masks, (1 << len(te)) - 1):
            w = sum(ves[i].weight for i in range(len(ves)) if sub >> i & 1)
            assert w >= lower, seed


def test_upward_phase_is_pipelined():
    # one weight per tree edge per round: up phase finishes within 2h + 4
    for n in (32, 128, 512):
        g, tree = generators.gen_cycle(n)
        rng = random.Random(n)
        g2 = type(g)(g.n)
        for u, v, _ in g.edges:
            g2.add_edge(u, v, rng.randint(1, 50))
        res = weighted_cover_distributed(g2, tree)
        h = tree.height
        up = res["metrics"].phase("weighted_up").rounds
        assert up <= 2 * h + 4, (n, up, h)


@pytest.mark.parametrize("budget", range(1, 8))
def test_upward_stream_is_one_token_a_message_pinned(budget):
    # each message is one altered weight, its depth implied by its place in
    # the sender's stream, so tokens equal messages at every budget. On the
    # 64-cycle's path tree a vertex at depth d >= 2 sends d - 1 weights,
    # 1953 in all, the last in round 2h - 3 = 123; the spider's hub, at
    # depth 12 with legs of 5, 1, 9 and 3 vertices, waits on its slowest leg
    for g, tree, want in ((*generators.gen_cycle(64), (123, 1953)),
                          (*spider([5, 1, 9, 3], 2), (39, 331))):
        up = weighted_cover_distributed(g, tree, budget)["metrics"].phase("weighted_up")
        assert (up.rounds, up.messages, up.tokens) == (*want, want[1])
        assert up.max_tokens_edge_round == 1


@pytest.mark.parametrize("algo", ["wtap", "ecss-w", "aug12"])
def test_weighted_algorithms_keep_their_bounds_at_budget_1(algo):
    # at one token an edge and round, the upward phase stays within 2h + 4
    # rounds and the whole run within 8h + 16, h the height of the tree the
    # augmentation runs on
    for g, tree in (generators.gen_cycle(256),
                    generators.gen_lb_path(8, long_edge=True, weighted=True)):
        if algo == "wtap":
            t, m = tree, augment_weighted(g, tree, budget=1)[3]
        elif algo == "ecss-w":
            _, t, _, _, m = apps.two_ecss_weighted(g, budget=1)
        else:
            _, t, m = apps.augment_1_to_2(g, tree.tree_edges, budget=1)
        h = t.height
        assert m.phase("weighted_up").rounds <= 2 * h + 4, (algo, g.n)
        assert m.rounds <= 8 * h + 16, (algo, g.n)
        assert m.max_tokens_edge_round == 1, (algo, g.n)


def _upward_states():
    """The upward program and fresh states on a tree with a one-child
    vertex and a two-child vertex: the path 0-1-2 with leaves 3 and 4 below
    vertex 2, and chords from both leaves to the root."""
    g = Multigraph(5)
    tree_ids = [g.add_edge(0, 1, 1), g.add_edge(1, 2, 1), g.add_edge(2, 3, 1),
                g.add_edge(2, 4, 1)]
    g.add_edge(3, 0, 5)
    g.add_edge(4, 0, 7)
    tree = root_tree(g, tree_ids, 0)
    view = TreeView.of_tree(tree)
    labels = assign_labels_sequential(view)
    scheme = PlainScheme()
    prog = WeightedUpProgram(view, build_incidence_sequential(g, tree, labels, scheme),
                             labels, scheme)
    return prog, [prog.init_state(v) for v in range(g.n)]


def test_upward_stream_out_of_order_raises():
    # vertex 1 (depth 1, one child) takes one weight, for depth 0; vertex 2
    # (depth 2, children 3 and 4 on edges 2 and 3) takes two from each child
    prog, st = _upward_states()
    prog.step(st[1], 0, [(1, (0,))])
    with pytest.raises(sim.SimError, match="past depth 0"):
        prog.step(st[1], 1, [(1, (0,))])
    prog.step(st[2], 0, [(2, (0,)), (3, (2,))])
    prog.step(st[2], 1, [(2, (0,))])
    with pytest.raises(sim.SimError, match="past depth 0"):
        prog.step(st[2], 2, [(2, (0,))])

    # streams that stop short leave a depth unsettled
    prog, st = _upward_states()
    with pytest.raises(sim.SimError, match="stopped short"):
        prog.output(st[1])
    prog.step(st[2], 0, [(2, (0,)), (3, (2,))])
    prog.step(st[2], 1, [(2, (0,))])
    with pytest.raises(sim.SimError, match="no weight for depth 0"):
        prog.output(st[2])
    prog.step(st[2], 2, [(3, (0,))])
    assert prog.output(st[2]) is st[2]


@pytest.mark.parametrize("children", [[(8, 5)], [(8, 5), (9, 6)]],
                         ids=["one-child", "several-children"])
def test_a_negative_altered_weight_raises(children):
    # vertex 7 at depth 3, with no own edge, settles depth 2 from weight 4,
    # so min_v = 4; a weight of 3 for depth 1 would go up altered as -1
    step = WeightedUpProgram(None, None, None, PlainScheme()).step
    st = _WeightedUpState(7, 3, 0, [], [], children)
    assert step(st, 0, [(eid, (4,)) for _, eid in children]) == ([], sim.IDLE)
    assert st.min_v == 4
    with pytest.raises(sim.SimError, match="negative altered weight at vertex 7"):
        step(st, 1, [(eid, (3,)) for _, eid in children])


class _OneWeightTooMany(WeightedUpProgram):
    """The upward program whose leaf 3 sends one weight after its last."""

    def step(self, st, rnd, inbox):
        if st.v != 3:
            return super().step(st, rnd, inbox)
        if st.j < 0:
            return [(st.pe, (0,))], sim.HALT
        out, _ = super().step(st, rnd, inbox)
        return out, sim.ACTIVE


def test_a_weight_after_the_last_one_raises_in_a_run():
    # path 0-1-2-3 with the chord {0, 3}: leaf 3 sends vertex 2 the weights
    # for depths 1 and 0, then one more. Vertex 2 has settled depth 0 but
    # has not halted, so the extra weight reaches its step, which raises
    g = Multigraph(4)
    tree_ids = [g.add_edge(u, u + 1, 1) for u in range(3)]
    g.add_edge(0, 3, 1)
    tree = root_tree(g, tree_ids, 0)
    view = TreeView.of_tree(tree)
    labels = assign_labels_sequential(view)
    scheme = PlainScheme()
    incidence = build_incidence_sequential(g, tree, labels, scheme)
    sim.run(g, WeightedUpProgram(view, incidence, labels, scheme))
    with pytest.raises(sim.SimError, match="vertex 2 got a weight past depth 0"):
        sim.run(g, _OneWeightTooMany(view, incidence, labels, scheme))


def test_no_ancestor_directory_phase():
    g, tree = instance(5)
    phases = [p.phase for p in weighted_cover_distributed(g, tree)["metrics"].phases]
    assert "ancestors" not in phases


def test_only_upward_phase_is_superlinear():
    # every phase but the pipelined upward one sends O(n) messages
    for n in (64, 256):
        g, tree = generators.gen_cycle(n)
        m = weighted_cover_distributed(g, tree)["metrics"]
        assert m.messages - m.phase("weighted_up").messages <= 3 * n, n


@pytest.mark.parametrize("budget", range(1, 8))
def test_disseminate_ancestors_lists_labels_by_depth(budget):
    for seed in range(30):
        g, tree = instance(seed, nmax=16)
        labels = assign_labels_sequential(TreeView.of_tree(tree))
        dirs, m = weighted.disseminate_ancestors(g, tree, labels, budget=budget)
        assert m.max_tokens_edge_round <= budget
        for v in range(g.n):
            chain = []
            u = tree.parent[v]
            while u >= 0:
                chain.append(u)
                u = tree.parent[u]
            assert dirs[v] == [labels[u] for u in reversed(chain)], (seed, v)


def test_bridge_detected():
    from treeaug.graph import Multigraph, bfs_tree
    g = Multigraph(4)
    g.add_edge(0, 1, 5)
    g.add_edge(1, 2, 1)
    g.add_edge(2, 3, 1)
    g.add_edge(1, 3, 2)
    tree = bfs_tree(g, 0)
    with pytest.raises(BridgeDetected):
        augment_weighted(g, tree)


def test_bridge_on_a_path_is_reported_through_one_child_vertices():
    # the tree is the path 0-1-2-3-4 and the chord {4, 2} covers only the
    # two deepest tree edges, so nothing covers depths 0 and 1: vertices 3
    # and 2, one child each, pass INF up, and the tree edges above
    # vertices 1 and 2 are bridges
    g = Multigraph(5)
    tree_ids = [g.add_edge(v, v + 1, 1) for v in range(4)]
    g.add_edge(4, 2, 3)
    tree = root_tree(g, tree_ids, 0)
    assert_distributed_equals_sequential(g, tree)
    assert sorted(weighted_cover_distributed(g, tree)["bridges"]) == [1, 2]


def test_budget_1_equals_the_shadow_at_one_token_an_edge():
    # the label phases stream their frames one token a round, and both
    # weighted phases send one-token messages
    for seed in range(20):
        got = assert_distributed_equals_sequential(*instance(seed), budget=1,
                                                   what=seed)
        assert got["metrics"].max_tokens_edge_round == 1, seed
