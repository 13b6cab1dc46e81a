"""Every algorithm's outputs and per-phase counts on the fingerprint
corpus equal the checked-in ones; see tests/fingerprints.py."""
import fingerprints


def test_fingerprint_corpus_is_unchanged():
    want = fingerprints.load()
    got = fingerprints.compute()
    assert got.keys() == want.keys()
    moved = [k for k in want if got[k] != want[k]]
    assert not moved, "%d entries moved, first %s: %r != %r" % (
        len(moved), moved[0], got[moved[0]], want[moved[0]])
