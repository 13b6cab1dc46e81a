"""Fingerprint corpus: what every `treeaug run` algorithm computes and
costs on a fixed set of small instances, at budgets 1-7.

Each entry is keyed "instance|budget|algorithm" and holds the run's value
or verdict ("out"), a digest of its edge set and bridge list, and the
rounds, messages and tokens of every phase and of the total. Every
algorithm runs at every budget.
`tests/test_fingerprints.py` recomputes the corpus and compares it with
`tests/fingerprints.json`; a change that moves a count or an output
rewrites the file with

    PYTHONPATH=src python tests/fingerprints.py

and says which phases moved. With `--diff` the script rewrites nothing and
prints how the recomputed corpus differs from the file: per (phase, count)
how many entries rose and fell and the largest rise, and every moved output
or digest. It then exits 1 if any entry was added, removed or moved, and 0
if none was, so

    PYTHONPATH=src python tests/fingerprints.py --diff

checks the corpus without pytest.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import random
import sys
from collections import Counter

from treeaug import apps, fast, generators, unweighted, virtual_graph as vg
from treeaug import weighted
from treeaug.graph import Multigraph, bfs_tree, root_tree
from treeaug.unweighted import BridgeDetected

PATH = pathlib.Path(__file__).resolve().parent / "fingerprints.json"
BUDGETS = range(1, 8)
ALGOS = ("tap", "wtap", "fast", "ecss", "ecss-w", "aug12", "verify")


def _graph(n, edges, tree_ids):
    g = Multigraph(n)
    for u, v, w in edges:
        g.add_edge(u, v, w)
    return g, root_tree(g, tree_ids, 0)


def _bridged(seed):
    """A random tree plus a few chords, so some tree edges are bridges."""
    rng = random.Random(seed)
    n = rng.randint(5, 16)
    g = Multigraph(n)
    for v in range(1, n):
        g.add_edge(v, rng.randrange(v), rng.randint(1, 5))
    for _ in range(rng.randint(1, n // 2)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v, rng.randint(1, 5))
    return g, bfs_tree(g, 0)


def _fragment_case():
    # four fragments {0}, {1..5}, {6..9}, {10..13} whose maximal incoming
    # edges end at equal depth in fragment 1's two branches
    tree = [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (3, 6), (6, 7), (7, 8),
            (8, 9), (5, 10), (10, 11), (11, 12), (12, 13)]
    chords = [(9, 6), (7, 3), (13, 10), (11, 5), (3, 5), (0, 2)]
    return _graph(14, [(u, v, 1) for u, v in tree + chords], range(len(tree)))


def _parallel_against_order():
    # parallel edges whose ids run against their endpoints' order
    edges = [(2, 3, 2), (1, 2, 1), (0, 1, 3), (3, 0, 1), (2, 1, 2), (1, 0, 1),
             (3, 2, 4), (0, 2, 2)]
    return _graph(4, edges, [2, 1, 0])


def instances():
    """(name, multigraph, rooted tree) for every corpus instance."""
    out = [
        ("single", *_graph(1, [], [])),
        ("one-edge", *_graph(2, [(0, 1, 1)], [0])),
        ("two-parallel", *_graph(2, [(0, 1, 1), (1, 0, 2)], [0])),
        ("parallel-against-order", *_parallel_against_order()),
        ("fragments-14", *_fragment_case()),
        ("cycle-3", *generators.gen_cycle(3)),
        ("cycle-12", *generators.gen_cycle(12)),
        ("lb-path-4", *generators.gen_lb_path(4, long_edge=True, weighted=True)),
    ]
    for p in (3, 4, 5):
        out.append(("lb-disj-%d" % p, *generators.gen_lb_disjointness(
            2, 2, p, [1, 0], [0, 1], weighted=False)))
    out.append(("lb-disj-4-w", *generators.gen_lb_disjointness(
        2, 2, 4, [1, 1], [1, 0], weighted=True)))
    for seed in range(4):
        out.append(("bridged-%d" % seed, *_bridged(seed)))
    for seed in range(16):
        rng = random.Random(1000 + seed)
        n = rng.randint(3, 40)
        out.append(("random-%d" % seed, *generators.gen_random_2ec(
            n, rng.randint(0, n), seed, wmin=1, wmax=9)))
    return out


def _digest(edges, bridges) -> str:
    text = repr((sorted(edges), sorted(bridges)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run(algo, g, tree, b):
    """(out, edge ids, bridges, Metrics or None) of one run."""
    if algo in ("tap", "wtap", "fast"):
        scheme = None
        if algo == "tap":
            res = unweighted.cover_virtual_optimal(g, tree, budget=b)
            ves = res["added"]
        elif algo == "wtap":
            res = weighted.weighted_cover_distributed(g, tree, budget=b)
            ves = [e for e, _, _ in res["added"]]
        else:
            res = fast.fast_cover_distributed(g, tree, budget=b)
            ves, scheme = res["cover"], res["scheme"]
        if res["bridges"]:
            return None, (), res["bridges"], res["metrics"]
        aug = vg.project_augmentation(g, tree, res["labels"], ves, scheme)
        out = aug.weight if algo == "wtap" else len(aug.edge_ids)
        return out, aug.edge_ids, [], res["metrics"]
    try:
        if algo == "ecss":
            edges, _, _, m = apps.two_ecss_unweighted(g, budget=b)
            return len(edges), edges, [], m
        if algo == "ecss-w":
            edges, _, _, value, m = apps.two_ecss_weighted(g, budget=b)
            return value, edges, [], m
        if algo == "aug12":
            out, _, m = apps.augment_1_to_2(g, tree.tree_edges, budget=b)
            return out.weight, out.edge_ids, [], m
    except BridgeDetected as e:
        return None, (), e.vertices, None
    verdict, bridges, m = apps.verify_2ec_distributed(g, budget=b)
    return verdict, (), bridges, m


def entry(algo, g, tree, b) -> dict:
    out, edges, bridges, m = _run(algo, g, tree, b)
    phases = {}
    if m is not None:
        for p in m.phases:
            phases[p.phase] = [p.rounds, p.messages, p.tokens]
        phases["total"] = [m.rounds, m.messages, m.tokens]
    return {"out": out, "digest": _digest(edges, bridges), "phases": phases}


def compute() -> dict:
    corpus = {}
    for name, g, tree in instances():
        for b in BUDGETS:
            for algo in ALGOS:
                corpus["%s|%d|%s" % (name, b, algo)] = entry(algo, g, tree, b)
    return corpus


def dumps(corpus) -> str:
    """One entry a line, so a diff shows each moved entry."""
    body = ",\n".join("%s: %s" % (json.dumps(k), json.dumps(v, sort_keys=True,
                                                     separators=(",", ":")))
                      for k, v in corpus.items())
    return "{\n" + body + "\n}\n"


def load() -> dict:
    return json.loads(PATH.read_text())


COUNTS = ("rounds", "messages", "tokens")


def diff(old, new) -> list[str]:
    """Report lines on how corpus `new` differs from corpus `old`: the
    entries added, removed or moved; for each (phase, count) that moved, how
    many entries rose and fell and the largest rise; and each moved output
    or digest, or a phase present on one side only."""
    shared = [k for k in old if k in new]
    lines = ["entries: %d -> %d, %d added, %d removed, %d moved" % (
        len(old), len(new), len(new.keys() - old.keys()),
        len(old.keys() - new.keys()), sum(old[k] != new[k] for k in shared))]
    rose, fell, top = Counter(), Counter(), {}
    moved = []
    for k in shared:
        a, b = old[k], new[k]
        for field in ("out", "digest"):
            if a[field] != b[field]:
                moved.append("%s %s: %r -> %r" % (k, field, a[field], b[field]))
        for phase in sorted(a["phases"].keys() ^ b["phases"].keys()):
            moved.append("%s phase %s: only %s" % (
                k, phase, "before" if phase in a["phases"] else "after"))
        for phase in a["phases"].keys() & b["phases"].keys():
            for name, x, y in zip(COUNTS, a["phases"][phase], b["phases"][phase]):
                key = (phase, name)
                if y > x:
                    rose[key] += 1
                    if key not in top or y - x > top[key][0]:
                        top[key] = (y - x, k, x, y)
                elif y < x:
                    fell[key] += 1
    for key in sorted(rose.keys() | fell.keys()):
        line = "%s %s: %d rose, %d fell" % (*key, rose[key], fell[key])
        if key in top:
            line += "; largest rise +%d (%s: %d -> %d)" % top[key]
        lines.append(line)
    return lines + (moved or ["no output, digest or phase moved"])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--diff", action="store_true",
                        help="print how the recomputed corpus differs from "
                             "the file, and rewrite nothing")
    args = parser.parse_args()
    corpus = compute()
    if args.diff:
        old = load()
        print("\n".join(diff(old, corpus)))
        sys.exit(0 if old == corpus else 1)
    else:
        PATH.write_text(dumps(corpus))
        print("wrote %s: %d entries" % (PATH, len(corpus)))
