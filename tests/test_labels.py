import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from treeaug import generators, labels as lbl, sim
from treeaug.graph import bfs_tree
from treeaug.labels import (LabelError, TreeView, assign_labels_distributed,
                            assign_labels_sequential, hop_tokens, is_ancestor,
                            lca_query, parse_label)


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


def random_tree_instance(seed, nmax=40):
    rng = random.Random(seed)
    n = rng.randint(3, nmax)
    return generators.gen_random_2ec(n, rng.randint(0, n), seed)


def test_sequential_labels_match_tree_facts():
    for seed in range(60):
        g, tree = random_tree_instance(seed)
        view = TreeView.of_tree(tree)
        labels = assign_labels_sequential(view)
        for v in range(g.n):
            assert labels[v].vertex == v
            assert labels[v].depth == tree.depth[v]
        rng = random.Random(seed * 7919)
        for _ in range(100):
            a, b = rng.randrange(g.n), rng.randrange(g.n)
            t = true_lca(tree, a, b)
            got = lca_query(labels[a], labels[b])
            assert got.depth == tree.depth[t]
            assert got.seq == labels[t].seq
            if got.vertex is not None:
                assert got.vertex == t
            assert is_ancestor(labels[a], labels[b]) == tree.is_ancestor(a, b)


def test_label_size_logarithmic():
    # light-edge hops halve the subtree size, so seq length <= log2(n)+1
    for seed in range(40):
        g, tree = random_tree_instance(seed, nmax=200)
        labels = assign_labels_sequential(TreeView.of_tree(tree))
        limit = int(math.log2(g.n)) + 1
        for v in range(g.n):
            assert len(labels[v].seq) <= limit


def test_distributed_labels_equal_sequential():
    for seed in range(30):
        g, tree = random_tree_instance(seed)
        view = TreeView.of_tree(tree)
        want = assign_labels_sequential(view)
        got, m = assign_labels_distributed(g, view)
        assert got == want
        assert m.max_tokens_edge_round <= 4


def test_distributed_label_round_bound():
    # sizes up + labels streamed down: <= 8(h+1) rounds on bounded-width labels
    for n in (8, 32, 128, 512):
        g, tree = generators.gen_cycle(n)
        view = TreeView.of_tree(tree)
        labels, m = assign_labels_distributed(g, view)
        h = tree.height
        assert m.rounds <= 8 * (h + 1), (n, m.rounds, h)


@pytest.mark.parametrize("budget", (1, 4))
def test_labeling_runs_on_the_two_tree_waves(monkeypatch, budget):
    # sizes go up as an unframed sim.Wave, one ("sz", size) token per view
    # edge; labels go down a self-delimiting sim.Wave that relays
    # cut-through: a label of L hops crosses its edge as L tokens in
    # ceil(L/b) messages and is whole at its vertex v in round
    # depth(v) - 1 + ceil(L/b), the phase's length
    assert not [name for name, obj in vars(lbl).items()
                if isinstance(obj, type) and hasattr(obj, "init_state")]
    real_run = sim.run
    runs = []

    def recording_run(g, program, *args, **kwargs):
        runs.append((kwargs["phase"], type(program)))
        return real_run(g, program, *args, **kwargs)

    monkeypatch.setattr(sim, "run", recording_run)
    from treeaug.fast import fragment_decompose
    for seed in range(10):
        g, tree = random_tree_instance(seed)
        frag_of, _ = fragment_decompose(tree, 3)
        for view in (TreeView.of_tree(tree), TreeView.of_fragments(tree, frag_of)):
            runs.clear()
            got, m = assign_labels_distributed(g, view, budget=budget,
                                               phase_prefix="x")
            assert got == assign_labels_sequential(view)
            assert runs == [("x_sizes", sim.Wave), ("x_assign", sim.Wave)]
            kids = [v for v in range(g.n) if view.parent_edge[v] >= 0]
            sizes, assign = m.phases
            height = max(label.depth for label in got)
            assert (sizes.rounds, sizes.messages, sizes.tokens) == (
                height, len(kids), len(kids))
            frames = [len(hop_tokens(got[v].seq)) for v in kids]
            assert assign.messages == sum(-(-f // budget) for f in frames)
            assert assign.tokens == sum(frames)
            assert assign.rounds == max(
                (got[v].depth - 1 + -(-f // budget) for v, f in zip(kids, frames)),
                default=0)


def test_fragment_view_labels_are_local():
    for seed in range(30):
        g, tree = random_tree_instance(seed)
        rng = random.Random(seed)
        frag_of = [0] * g.n
        from treeaug.fast import fragment_decompose
        frag_of, roots = fragment_decompose(tree, rng.choice([2, 3, None]))
        view = TreeView.of_fragments(tree, frag_of)
        labels = assign_labels_sequential(view)
        for r in roots:
            assert labels[r].depth == 0 and labels[r].seq == ((r, 0),)
        for v in range(g.n):
            p = tree.parent[v]
            if p >= 0 and frag_of[p] == frag_of[v]:
                assert labels[v].depth == labels[p].depth + 1


def test_wire_round_trip():
    for seed in range(30):
        g, tree = random_tree_instance(seed)
        labels = assign_labels_sequential(TreeView.of_tree(tree))
        for v in range(g.n):
            toks = list(hop_tokens(labels[v].seq))
            assert len(toks) == len(labels[v].seq)
            back, i = parse_label(toks + [("sz", 1)], 0)
            assert i == len(toks)
            assert back == labels[v]


def test_parsed_label_is_the_sequential_label():
    # the hops alone name the vertex: a label off the wire, whose vertex is
    # unknown, equals and hashes like the one assigned to it
    for seed in range(20):
        g, tree = random_tree_instance(seed)
        labels = assign_labels_sequential(TreeView.of_tree(tree))
        for v in range(g.n):
            back, _ = parse_label(hop_tokens(labels[v].seq), 0)
            assert back.vertex is None and labels[v].vertex == v
            assert back.depth == labels[v].depth
            assert back == labels[v] and hash(back) == hash(labels[v])
            assert {back: v}[labels[v]] == v


def test_parse_label_needs_a_hop():
    for buf in ((), (("sz", 3),), (("sf", 0), ("lp", 0, 0))):
        with pytest.raises(LabelError):
            parse_label(buf, 0)


def test_cross_tree_query_rejected():
    a = lbl.LcaLabel(1, 0, ((1, 0),))
    b = lbl.LcaLabel(2, 0, ((2, 0),))
    with pytest.raises(LabelError):
        lca_query(a, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_lca_is_common_ancestor(seed):
    g, tree = random_tree_instance(seed, nmax=30)
    labels = assign_labels_sequential(TreeView.of_tree(tree))
    rng = random.Random(seed + 1)
    a, b = rng.randrange(g.n), rng.randrange(g.n)
    t = lca_query(labels[a], labels[b])
    # t is an ancestor of both and deeper than any other common ancestor
    assert is_ancestor(t, labels[a]) and is_ancestor(t, labels[b])
    tv = true_lca(tree, a, b)
    assert t.depth == tree.depth[tv]
    assert t.depth < labels[a].depth or t.seq == labels[a].seq
