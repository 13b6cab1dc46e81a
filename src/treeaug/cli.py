"""Command line front end.

    treeaug gen <family> [options] -o instance.txt
    treeaug run --algo <name> instance.txt [--budget B] [--max-rounds R]
                [--oracle] [--csv results.csv] [--metrics metrics.csv]
                [--transcript log.txt]
    treeaug oracle instance.txt [--problem tap|wtap|ecss|ecss-w|aug12]

Instance files are "n m" followed by one "u v w [t]" line per edge, 't'
marking spanning-tree edges; the tree is rooted at vertex 0.

Exit codes: 0 success, 2 the produced solution failed its validity check
(or the input broke the 2-edge-connectivity promise), 3 a token-budget or
round-limit violation, 1 anything else (bad usage, a generator size the
family does not allow, an instance file that cannot be read or parsed, a
budget or a round limit below 1, oracle size guard).
"""
from __future__ import annotations

import argparse
import os
import sys

from . import apps, fast, generators, oracle, sim, unweighted, weighted
from .graph import GraphError, augmentation_covers, diameter, eccentricity, \
    is_two_edge_connected, read_instance, subgraph_two_edge_connected, \
    write_instance
from .oracle import OracleError, OracleSizeError
from .unweighted import BridgeDetected

CSV_HEADER = ("instance,n,m,h,D,algorithm,rounds,messages,tokens,"
              "aug_value,opt_value,ratio,valid")


def _bits(s: str):
    if not s or any(c not in "01" for c in s):
        raise argparse.ArgumentTypeError("expected a 0/1 string")
    return [int(c) for c in s]


def _add_gen(sub):
    p = sub.add_parser("gen", help="write a generated instance file")
    fam = p.add_subparsers(dest="family", required=True)

    c = fam.add_parser("cycle", help="n-cycle with a path tree")
    c.add_argument("--n", type=int, required=True)

    lp = fam.add_parser("lb-path", help="path tree with length-2 chords")
    lp.add_argument("--k", type=int, required=True)
    lp.add_argument("--long-edge", action="store_true")
    lp.add_argument("--weighted", action="store_true")
    lp.add_argument("--alpha", type=int, default=2)

    ld = fam.add_parser("lb-disj", help="set-disjointness gadget")
    ld.add_argument("--k", type=int, required=True)
    ld.add_argument("--d", type=int, default=2)
    ld.add_argument("--p", type=int, required=True)
    ld.add_argument("--a", type=_bits, required=True, metavar="BITS")
    ld.add_argument("--b", type=_bits, required=True, metavar="BITS")
    ld.add_argument("--alpha", type=int, default=2)
    ld.add_argument("--unweighted", action="store_true")
    ld.add_argument("--simple", action="store_true")

    r = fam.add_parser("random", help="random 2-edge-connected multigraph")
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--extra", type=int, required=True)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--wmin", type=int, default=1)
    r.add_argument("--wmax", type=int, default=1)

    for q in (c, lp, ld, r):
        q.add_argument("-o", "--out", required=True)


def _gen(args) -> int:
    try:
        g, tree = _generate(args)
    except ValueError as e:  # a size the family does not allow
        print("error: %s" % e, file=sys.stderr)
        return 1
    write_instance(args.out, g, tree)
    print("wrote %s: n=%d m=%d" % (args.out, g.n, g.m))
    return 0


def _generate(args):
    if args.family == "cycle":
        return generators.gen_cycle(args.n)
    if args.family == "lb-path":
        return generators.gen_lb_path(args.k, long_edge=args.long_edge,
                                      weighted=args.weighted, alpha=args.alpha)
    if args.family == "lb-disj":
        return generators.gen_lb_disjointness(
            args.k, args.d, args.p, args.a, args.b, alpha=args.alpha,
            weighted=not args.unweighted, simple=args.simple)
    return generators.gen_random_2ec(args.n, args.extra, args.seed,
                                     wmin=args.wmin, wmax=args.wmax)


def _need_tree(tree):
    if tree is None:
        raise GraphError("instance has no spanning tree marks")
    return tree


def _graph_diameter(g) -> int:
    # the bit-parallel exact diameter is cheap up to n = 4096; beyond that
    # the doubled root eccentricity is reported (an upper bound within
    # factor 2)
    if g.n <= 4096:
        return diameter(g)
    return 2 * eccentricity(g, 0)


ALGOS = ("tap", "wtap", "fast", "ecss", "ecss-w", "aug12", "verify")


def _run_algo(args, g, tree):
    """Returns (metrics, aug_value, valid, extra_note)."""
    algo = args.algo
    b = args.budget
    if algo == "tap":
        aug, _, m = unweighted.augment_unweighted(g, _need_tree(tree), budget=b)
        return m, len(aug.edge_ids), augmentation_covers(g, tree, aug.edge_ids), ""
    if algo == "wtap":
        aug, _, _, m = weighted.augment_weighted(g, _need_tree(tree), budget=b)
        return m, aug.weight, augmentation_covers(g, tree, aug.edge_ids), ""
    if algo == "fast":
        aug, _, m = fast.augment_fast(g, _need_tree(tree), budget=b)
        return (m, len(aug.edge_ids), augmentation_covers(g, tree, aug.edge_ids),
                "fragments=%d" % aug.meta["fragments"])
    if algo == "ecss":
        edges, _, _, m = apps.two_ecss_unweighted(g, budget=b)
        return m, len(edges), subgraph_two_edge_connected(g, edges), ""
    if algo == "ecss-w":
        edges, _, _, value, m = apps.two_ecss_weighted(g, budget=b)
        return m, value, subgraph_two_edge_connected(g, edges), ""
    if algo == "aug12":
        t = _need_tree(tree)
        out, _, m = apps.augment_1_to_2(g, t.tree_edges, budget=b)
        ok = subgraph_two_edge_connected(
            g, set(t.tree_edges) | set(out.edge_ids))
        return m, out.weight, ok, "new_edges=%d" % len(out.edge_ids)
    if algo == "verify":
        verdict, bridges, m = apps.verify_2ec_distributed(g, budget=b)
        ok = verdict == is_two_edge_connected(g)
        return m, len(bridges), ok, "verdict=%s" % verdict
    raise GraphError("unknown algorithm %s" % algo)


def _optimum(problem, g, tree):
    """(optimal value, edge ids of an optimal augmentation) for one of the
    oracle's problems; the edge ids are None for the subgraph problems."""
    if problem == "ecss":
        return oracle.min_two_ecss_size(g), None
    if problem == "ecss-w":
        return oracle.min_two_ecss_weight(g), None
    if problem == "tap":
        aug = oracle.opt_augmentation(g, _need_tree(tree), weighted=False)
        return len(aug.edge_ids), aug.edge_ids
    if problem == "wtap":
        aug = oracle.opt_augmentation(g, _need_tree(tree), weighted=True)
    else:
        g0, t0 = apps.recost_for_h(g, _need_tree(tree).tree_edges)
        aug = oracle.opt_augmentation(g0, t0, weighted=True)
    return aug.weight, aug.edge_ids


class _TranscriptFile:
    """Transcript sink that writes each line to the file as it comes, so the
    log is never held in memory. The file reads as the lines joined with
    newlines plus a final newline; a log with no lines is one newline."""

    __slots__ = ("f", "empty")

    def __init__(self, path):
        self.f = open(path, "w")
        self.empty = True

    def append(self, line):  # sim.run's phase line, before any extend
        self.f.write(line + "\n")
        self.empty = False

    def extend(self, lines):  # one round's lines, a list and never empty
        self.f.write("\n".join(lines))
        self.f.write("\n")

    def close(self):
        with self.f:
            if self.empty:
                self.f.write("\n")


@sim.collector_paused()
def _run(args) -> int:
    if args.budget < 1:
        print("error: --budget must be at least 1 (got %d)" % args.budget,
              file=sys.stderr)
        return 1
    if args.max_rounds is not None and args.max_rounds < 1:
        print("error: --max-rounds must be at least 1 (got %d)"
              % args.max_rounds, file=sys.stderr)
        return 1
    g, tree = read_instance(args.instance)
    # opened before the run, so an unusable path fails before any work
    transcript = _TranscriptFile(args.transcript) if args.transcript else None
    max_rounds = sim.DEFAULT_MAX_ROUNDS
    if args.max_rounds is not None:
        sim.DEFAULT_MAX_ROUNDS = args.max_rounds
    if transcript is not None:
        sim.TRANSCRIPT_SINK = transcript
    try:
        metrics, aug_value, valid, note = _run_algo(args, g, tree)
    except BridgeDetected as e:
        print("input is not 2-edge-connected: bridge at %s" % e.vertices)
        return 2
    except (sim.BudgetExceeded, sim.RoundLimitExceeded) as e:
        print("resource violation: %s" % e)
        return 3
    finally:
        sim.DEFAULT_MAX_ROUNDS = max_rounds
        sim.TRANSCRIPT_SINK = None
        if transcript is not None:
            transcript.close()

    opt = None
    if args.oracle and args.algo != "verify":
        try:
            opt, _ = _optimum("tap" if args.algo == "fast" else args.algo,
                              g, tree)
        except OracleSizeError as e:
            print("oracle skipped: %s" % e)
    ratio = ""
    if opt:
        ratio = "%.4f" % (aug_value / opt)

    print("algo=%s rounds=%d messages=%d tokens=%d value=%s valid=%s %s"
          % (args.algo, metrics.rounds, metrics.messages, metrics.tokens,
             aug_value, valid, note))
    if opt is not None:
        print("optimum=%s ratio=%s" % (opt, ratio))
    if args.metrics:
        with open(args.metrics, "w") as f:
            f.write(metrics.to_csv())
    if args.csv:
        h = tree.height if tree is not None else ""
        d = _graph_diameter(g)
        new = not os.path.exists(args.csv)
        with open(args.csv, "a") as f:
            if new:
                f.write(CSV_HEADER + "\n")
            f.write("%s,%d,%d,%s,%d,%s,%d,%d,%d,%s,%s,%s,%d\n"
                    % (os.path.basename(args.instance), g.n, g.m, h, d,
                       args.algo, metrics.rounds, metrics.messages,
                       metrics.tokens, aug_value,
                       "" if opt is None else opt, ratio, int(valid)))
    return 0 if valid else 2


def _oracle(args) -> int:
    g, tree = read_instance(args.instance)
    try:
        opt, edge_ids = _optimum(args.problem, g, tree)
    except OracleError as e:
        print("oracle error: %s" % e)
        return 1
    if edge_ids is None:
        print("optimum=%d" % opt)
    else:
        print("optimum=%d edges=%s" % (opt, sorted(edge_ids)))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="treeaug", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    _add_gen(sub)

    r = sub.add_parser("run", help="run an algorithm on an instance")
    r.add_argument("instance")
    r.add_argument("--algo", choices=ALGOS, required=True)
    r.add_argument("--budget", type=int, default=sim.DEFAULT_BUDGET)
    r.add_argument("--max-rounds", type=int, default=None)
    r.add_argument("--oracle", action="store_true",
                   help="also compute the exact optimum (small instances)")
    r.add_argument("--csv", help="append one experiment row to this file")
    r.add_argument("--metrics", help="write the per-phase metrics CSV here")
    r.add_argument("--transcript", help="write the full message log here")

    o = sub.add_parser("oracle", help="exact optimum for an instance")
    o.add_argument("instance")
    o.add_argument("--problem", choices=("tap", "wtap", "ecss", "ecss-w", "aug12"),
                   default="tap")

    args = ap.parse_args(argv)
    try:
        if args.cmd == "gen":
            return _gen(args)
        if args.cmd == "run":
            return _run(args)
        return _oracle(args)
    except (GraphError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
