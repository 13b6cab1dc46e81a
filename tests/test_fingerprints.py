"""Every algorithm's outputs and per-phase counts on the fingerprint
corpus equal the checked-in ones; see tests/fingerprints.py."""
import copy

import fingerprints
from treeaug.graph import eccentricity


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
