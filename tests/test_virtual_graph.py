import random

import pytest

from treeaug import (fast, generators, labels as lbl, unweighted,
                     virtual_graph as vg, weighted)
from treeaug.graph import covers_ref, tree_path_edges
from treeaug.labels import TreeView, assign_labels_sequential
from treeaug.virtual_graph import (PlainScheme, VirtualGraphError,
                                   build_incidence_distributed,
                                   build_incidence_sequential,
                                   covered_tree_edges, edge_covers,
                                   maximal_of, project_augmentation,
                                   project_cover, virtual_edges_of)


def setup(seed, nmax=20):
    rng = random.Random(seed)
    g, tree = generators.gen_random_2ec(rng.randint(3, nmax),
                                        rng.randint(1, nmax), seed,
                                        wmin=1, wmax=9)
    labels = assign_labels_sequential(TreeView.of_tree(tree))
    return g, tree, labels, PlainScheme()


def test_virtual_edges_cover_exactly_their_origin_cycle():
    for seed in range(60):
        g, tree, labels, scheme = setup(seed)
        for eid in range(g.m):
            if eid in tree.tree_edges:
                continue
            u, v, w = g.edges[eid]
            ves = virtual_edges_of(g, tree, labels, eid, scheme)
            covered = set()
            for ve in ves:
                assert ve.origin == eid and ve.weight == w
                covered.update(covered_tree_edges(tree, ve, scheme))
            assert covered == set(tree_path_edges(tree, u, v))
            # one edge if the endpoints are related, else two at the lca
            related = tree.is_ancestor(u, v) or tree.is_ancestor(v, u)
            assert len(ves) == (1 if related else 2)


def test_edge_covers_matches_reference():
    for seed in range(40):
        g, tree, labels, scheme = setup(seed)
        for eid in range(g.m):
            if eid in tree.tree_edges:
                continue
            for ve in virtual_edges_of(g, tree, labels, eid, scheme):
                for x in range(g.n):
                    if x == tree.root:
                        continue
                    assert (edge_covers(ve, labels[x], scheme)
                            == (tree.parent_edge[x]
                                in covered_tree_edges(tree, ve, scheme)))


def test_maximal_prefers_higher_ancestor_then_lower_origin():
    for seed in range(40):
        g, tree, labels, scheme = setup(seed)
        for x in range(g.n):
            if x == tree.root:
                continue
            cands = []
            for eid in range(g.m):
                if eid in tree.tree_edges:
                    continue
                for ve in virtual_edges_of(g, tree, labels, eid, scheme):
                    if edge_covers(ve, labels[x], scheme):
                        cands.append(ve)
            best = None
            for ve in cands:
                best = maximal_of(best, ve, scheme)
            if cands:
                top = min(scheme.depth(ve.anc) for ve in cands)
                want = min(ve.origin for ve in cands
                           if scheme.depth(ve.anc) == top)
                assert scheme.depth(best.anc) == top
                assert best.origin == want


def test_incomparable_ancestors_rejected():
    g, tree, labels, scheme = setup(3)
    # two siblings' labels are incomparable
    sibs = None
    for v in range(g.n):
        if len(tree.children[v]) >= 2:
            sibs = tree.children[v][:2]
            break
    if sibs is None:
        return
    a = vg.VirtualEdge(labels[sibs[0]], labels[sibs[0]], 0, 1)
    b = vg.VirtualEdge(labels[sibs[1]], labels[sibs[1]], 1, 1)
    with pytest.raises(VirtualGraphError):
        maximal_of(a, b, scheme)


def test_incidence_distributed_equals_sequential():
    for seed in range(30):
        g, tree, labels, scheme = setup(seed)
        want = build_incidence_sequential(g, tree, labels, scheme)
        got, m = build_incidence_distributed(g, tree, labels, scheme)
        assert got == want
        assert m.max_tokens_edge_round <= 4


@pytest.mark.parametrize("algo", ("tap", "fast"))
def test_exchange_cost_is_one_frame_per_non_tree_edge_end(algo):
    # every vertex v sends its label, L_v tokens, as one frame over each of
    # its nt(v) non-tree edges: the label alone, which ends at its last hop,
    # in ceil(L_v / b) messages
    run = (unweighted.cover_virtual_optimal if algo == "tap"
           else fast.fast_cover_distributed)
    for seed in range(40 if algo == "tap" else 30):
        g, tree, _, _ = setup(seed, nmax=40)
        for budget in range(1, 8):
            res = run(g, tree, budget=budget)
            scheme = res.get("scheme", PlainScheme())
            messages = tokens = 0
            for v in range(g.n):
                nt = sum(eid not in tree.tree_edges for eid, _ in g.adj[v])
                frame = len(scheme.tokens(res["labels"][v]))
                messages += nt * -(-frame // budget)
                tokens += nt * frame
            ex = res["metrics"].phase("exchange")
            assert (ex.messages, ex.tokens) == (messages, tokens), (seed, budget)


def test_projection_covers_and_picks_cheapest_parallel():
    for seed in range(40):
        g, tree, labels, scheme = setup(seed)
        inc = build_incidence_sequential(g, tree, labels, scheme)
        ves = [ve for lst in inc for ve in lst]
        if not ves:
            continue
        aug = project_augmentation(g, tree, labels, ves, scheme)
        # choosing all virtual edges must cover everything coverable
        covered = set()
        for eid in aug.edge_ids:
            u, v, _ = g.edges[eid]
            covered.update(tree_path_edges(tree, u, v))
        want = set()
        for ve in ves:
            want.update(covered_tree_edges(tree, ve, scheme))
        assert covered == want
        # per (anc, desc) pair the cheapest origin is selected
        for ve in ves:
            key = (scheme.key(ve.anc), scheme.key(ve.desc))
            group = [o for o in ves
                     if (scheme.key(o.anc), scheme.key(o.desc)) == key]
            wmin = min(o.weight for o in group)
            chosen = [o for o in group if o.origin in aug.edge_ids]
            if chosen:
                assert min(o.weight for o in chosen) == wmin


@pytest.mark.parametrize("algo", ("tap", "wtap", "fast"))
def test_projection_from_incidence_matches_project_augmentation(algo):
    # the exchange's incidence lists give the same projection as incidence
    # lists rebuilt from G; parallel copies of edges, some of them against
    # tree edges, make the cheapest-origin choice and its ties matter
    for seed in range(30):
        rng = random.Random(seed)
        g, tree = generators.gen_random_2ec(rng.randint(3, 30),
                                            rng.randint(0, 20), seed,
                                            wmin=1, wmax=5)
        for _ in range(rng.randint(0, 6)):
            u, v, _ = g.edges[rng.randrange(g.m)]
            g.add_edge(u, v, rng.randint(1, 5))
        scheme = None
        if algo == "tap":
            res = unweighted.cover_virtual_optimal(g, tree)
            ves = res["added"]
        elif algo == "wtap":
            res = weighted.weighted_cover_distributed(g, tree)
            ves = [ve for ve, _, _ in res["added"]]
        else:
            res = fast.fast_cover_distributed(g, tree)
            ves, scheme = res["cover"], res["scheme"]
        if res["bridges"]:
            continue
        assert (project_cover(res["incidence"], ves, scheme)
                == project_augmentation(g, tree, res["labels"], ves, scheme)), seed
