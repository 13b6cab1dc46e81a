"""Every algorithm's outputs and per-phase counts on the fingerprint
corpus equal the checked-in ones; see tests/fingerprints.py."""
import copy
from collections import Counter

import fingerprints
from treeaug import apps, fast, sim
from treeaug.fast import fragment_decompose
from treeaug.graph import bfs_tree, eccentricity, mst_tree
from treeaug.labels import TreeView, assign_labels_sequential


def test_fingerprint_corpus_is_unchanged():
    want = fingerprints.load()
    got = fingerprints.compute()
    assert got.keys() == want.keys()
    moved = [k for k in want if got[k] != want[k]]
    assert not moved, "\n".join(fingerprints.diff(want, got))


def test_bfs_entries_cost_their_derived_counts():
    # the engine BFS floods every edge once (fast.build_bfs_tree_distributed):
    # ecc(root) + 1 rounds, 0 when n = 1, and 2m one-token messages. fast
    # roots it at its tree's root, ecss, ecss-w and verify at vertex 0
    graphs = {name: (g, tree.root) for name, g, tree in fingerprints.instances()}
    algos = set()
    for key, e in fingerprints.load().items():
        if "bfs" not in e["phases"]:
            continue
        name, _, algo = key.split("|")
        g, root = graphs[name]
        root = root if algo == "fast" else 0
        rounds = eccentricity(g, root) + 1 if g.n > 1 else 0
        assert e["phases"]["bfs"] == [rounds, 2 * g.m, 2 * g.m], key
        algos.add(algo)
    assert algos == {"fast", "ecss", "ecss-w", "verify"}


# the one-token sim.Wave phases, each over the tree view of its algorithm
UNFRAMED_WAVES = ("label_sizes", "cover_down", "verify_sizes",
                  "verify_preorder", "verify_bridges", "verify_verdict",
                  "labels_local_sizes", "local_cover_down")
# the label waves: self-delimiting, relayed cut-through
LABEL_WAVES = ("label_assign", "labels_local_assign")


def _algo_tree(algo, g, tree):
    """The spanning tree an algorithm runs on: tap, wtap and fast take the
    instance's, the others build their own."""
    if algo in ("ecss", "verify"):
        return bfs_tree(g, 0)
    if algo == "ecss-w":
        return mst_tree(g, 0)
    if algo == "aug12":
        return apps.recost_for_h(g, tree.tree_edges)[1]
    return tree


def _wave_view(algo, g, tree):
    """The forest an algorithm's waves run over: fast's local phases run in
    its fragments; the others run on their algorithm's spanning tree."""
    tree = _algo_tree(algo, g, tree)
    if algo == "fast":
        return TreeView.of_fragments(tree, fragment_decompose(tree)[0])
    return TreeView.of_tree(tree)


def test_wave_entries_cost_their_derived_counts():
    # a sim.Wave (sim.py) on a forest of height h with k = n - roots edges:
    # unframed, h rounds and one message an edge, here of one token;
    # weighted_down starts at the depth-1 deciders, so it takes h - 1 rounds
    # and sends nothing to the root's children, and each of its relays,
    # (topDepth,) or ("bot",), is one token. A label wave sends a child v
    # of depth d its label of L hops, L tokens in ceil(L/b) messages, whole
    # at v in round d - 1 + ceil(L/b), so the phase takes the largest of
    # these rounds (sim.Wave's cut-through bound)
    graphs = {name: (g, tree) for name, g, tree in fingerprints.instances()}
    views = {}
    seen = Counter()
    for key, e in fingerprints.load().items():
        name, b, algo = key.split("|")
        b = int(b)
        if (name, algo) not in views:
            view = _wave_view(algo, *graphs[name])
            labels = assign_labels_sequential(view)
            hops = [(labels[v].depth, len(labels[v].seq)) for v in range(view.n)
                    if view.parent_edge[v] >= 0]
            views[name, algo] = (view, max(lab.depth for lab in labels), hops)
        view, h, hops = views[name, algo]
        k = len(hops)
        for phase, cost in e["phases"].items():
            if phase in UNFRAMED_WAVES:
                assert cost == [h, k, k], (key, phase)
            elif phase == "weighted_down":
                root_kids = len(view.children[view.roots[0]])
                assert cost == [max(h - 1, 0), k - root_kids, k - root_kids], key
            elif phase in LABEL_WAVES:
                assert cost == [
                    max((d - 1 + -(-L // b) for d, L in hops), default=0),
                    sum(-(-L // b) for _, L in hops),
                    sum(L for _, L in hops)], (key, phase)
            else:
                continue
            seen[phase] += 1
    assert seen.keys() == {*UNFRAMED_WAVES, "weighted_down", *LABEL_WAVES}


def _exchange_lengths(algo, g, tree):
    """(nt(v), L_v) for every vertex v: its non-tree edges on the
    algorithm's tree, and the tokens of what it sends on each. A label goes
    as its hops; fast's split label adds its ("sf", fragment) token; verify
    sends one preorder number."""
    if algo == "verify":
        lengths = [1] * g.n
    else:
        labels = assign_labels_sequential(_wave_view(algo, g, tree))
        lengths = [len(lab.seq) + (algo == "fast") for lab in labels]
    tree_edges = _algo_tree(algo, g, tree).tree_edges
    return [(sum(eid not in tree_edges for eid, _ in g.adj[v]), lengths[v])
            for v in range(g.n)]


def test_exchange_entries_cost_their_derived_counts():
    # virtual_graph.exchange_distributed: each vertex v streams its L_v
    # tokens, with no length token, on each of its nt(v) non-tree edges,
    # c(v) = ceil(L_v/b) messages, all from round 0 on (verify's one token
    # unframed), and acts once its neighbours' messages are in; the run
    # lasts as long as the longest stream, 0 rounds when there is no
    # non-tree edge
    graphs = {name: (g, tree) for name, g, tree in fingerprints.instances()}
    sends = {}
    algos = set()
    for key, e in fingerprints.load().items():
        if "exchange" not in e["phases"]:
            continue
        name, b, algo = key.split("|")
        b = int(b)
        if (name, algo) not in sends:
            sends[name, algo] = _exchange_lengths(algo, *graphs[name])
        per_vertex = [(nt, L, -(-L // b)) for nt, L in sends[name, algo]]
        assert e["phases"]["exchange"] == [
            max((c for nt, _, c in per_vertex if nt), default=0),
            sum(nt * c for nt, _, c in per_vertex),
            sum(nt * L for nt, L, _ in per_vertex)], key
        algos.add(algo)
    assert algos == set(fingerprints.ALGOS)


def test_weighted_up_entries_cost_their_derived_counts():
    # weighted.WeightedUpProgram: a non-root vertex sends its parent one
    # 1-token weight for each of the parent's ancestors, depth(parent(v))
    # messages, within criterion 08's 2h + 4 rounds
    graphs = {name: (g, tree) for name, g, tree in fingerprints.instances()}
    algos = set()
    for key, e in fingerprints.load().items():
        if "weighted_up" not in e["phases"]:
            continue
        name, _, algo = key.split("|")
        tree = _algo_tree(algo, *graphs[name])
        sent = sum(tree.depth[v] - 1 for v in range(tree.n) if v != tree.root)
        rounds, messages, tokens = e["phases"]["weighted_up"]
        assert (messages, tokens) == (sent, sent), key
        assert rounds <= 2 * tree.height + 4, key
        algos.add(algo)
    assert algos == {"wtap", "ecss-w", "aug12"}


BROADCASTS = ("labels_global_bcast", "cover_bcast", "final_broadcast")


def test_broadcast_entries_cost_their_derived_counts(monkeypatch):
    # sim.broadcast_upcast over fast's BFS tree of height h, n vertices, at
    # budget b: k messages go up store-and-forward, message i from source
    # s_i as one frame of len_i + 1 tokens on each edge of s_i's root path,
    # and come down as one stream of T = sum(len_i) tokens, ceil(T/b)
    # chunks on each of the n - 1 tree edges. So tokens are exactly
    # sum((len_i + 1) * depth(s_i)) + (n - 1) * T, the down messages exactly
    # (n - 1) * ceil(T/b), and rounds at most t_k + ceil(T/b) + h - 1, t_k
    # the round in which the root holds all k. T is read off the delivered
    # records; the up messages and t_k off a rerun's transcript
    real = sim.broadcast_upcast
    runs = []

    def recording(g, tree, sources, split, budget, phase):
        lines, sink = [], sim.TRANSCRIPT_SINK
        sim.TRANSCRIPT_SINK = lines
        try:
            delivered, m = real(g, tree, sources, split, budget=budget,
                                phase=phase)
        finally:
            sim.TRANSCRIPT_SINK = sink
        runs.append((phase, tree, sources, delivered, lines))
        return delivered, m

    monkeypatch.setattr(sim, "broadcast_upcast", recording)
    graphs = {name: (g, tree) for name, g, tree in fingerprints.instances()}
    corpus = fingerprints.load()
    seen = Counter()
    for name, (g, tree) in graphs.items():
        for b in fingerprints.BUDGETS:
            key = "%s|%d|fast" % (name, b)
            runs.clear()
            fast.fast_cover_distributed(g, tree, budget=b)
            assert [r[0] for r in runs] == list(BROADCASTS), key
            for phase, bfs, sources, delivered, lines in runs:
                cost = corpus[key]["phases"][phase]
                if not sources:
                    assert cost == [0, 0, 0], (key, phase)
                    continue
                T = sum(map(len, delivered))
                c = -(-T // b)
                up = [line.split(",")[:4] for line in lines[1:]]
                up = [(int(r), int(dst)) for r, _, dst, eid in up
                      if int(eid) != bfs.parent_edge[int(dst)]]
                t_k = max((r + 1 for r, dst in up if dst == bfs.root), default=0)
                assert cost[1] - len(up) == (g.n - 1) * c, (key, phase)
                assert cost[2] == (sum((len(msg) + 1) * bfs.depth[v]
                                       for v, msg in sources)
                                   + (g.n - 1) * T), (key, phase)
                assert cost[0] <= t_k + c + bfs.height - 1, (key, phase)
                seen[phase] += 1
    assert seen.keys() == set(BROADCASTS)


def test_diff_counts_rises_and_falls_and_names_moved_outputs():
    old = {k: v for k, v in fingerprints.load().items()
           if k.startswith("cycle-12|") and k.endswith("|fast")}
    new = copy.deepcopy(old)
    new["cycle-12|4|fast"]["phases"]["cover_bcast"][0] += 2
    new["cycle-12|5|fast"]["phases"]["cover_bcast"][0] += 1
    new["cycle-12|6|fast"]["phases"]["cover_bcast"][0] -= 1
    new["cycle-12|6|fast"]["phases"]["cover_bcast"][2] -= 3
    new["cycle-12|7|fast"]["out"] = -1
    rounds = old["cycle-12|4|fast"]["phases"]["cover_bcast"][0]
    assert fingerprints.diff(old, new) == [
        "entries: 7 -> 7, 0 added, 0 removed, 4 moved",
        "cover_bcast rounds: 2 rose, 1 fell; largest rise +2 "
        "(cycle-12|4|fast: %d -> %d)" % (rounds, rounds + 2),
        "cover_bcast tokens: 0 rose, 1 fell",
        "cycle-12|7|fast out: %r -> -1" % old["cycle-12|7|fast"]["out"],
    ]
    assert fingerprints.diff(old, old) == [
        "entries: 7 -> 7, 0 added, 0 removed, 0 moved",
        "no output, digest or phase moved",
    ]
