"""Every algorithm's outputs and per-phase counts on the fingerprint
corpus equal the checked-in ones; see tests/fingerprints.py."""
import copy

import fingerprints


def test_fingerprint_corpus_is_unchanged():
    want = fingerprints.load()
    got = fingerprints.compute()
    assert got.keys() == want.keys()
    moved = [k for k in want if got[k] != want[k]]
    assert not moved, "\n".join(fingerprints.diff(want, got))


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
