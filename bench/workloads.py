"""The benchmark's workloads: the instances a seed gives, the calls one
pass makes on an instance, and the checks each call's output must pass.

A call's output is judged outside its timed region. Once per run the
first output of each (instance, call) is also compared with the
algorithm's sequential shadow.
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field


@dataclass
class Instance:
    name: str
    g: object
    tree: object
    path: str | None = None   # instance file, for the command-line workload
    diameter: int | None = None


@dataclass
class Outcome:
    """What one call produced, reduced to the numbers the benchmark keeps."""
    label: str
    rounds: int = 0
    messages: int = 0
    tokens: int = 0
    value: int = 0
    bound_ratio: float | None = None
    phases: list = field(default_factory=list)   # (phase, rounds, messages)
    fingerprint: tuple = ()
    transcript_bytes: int = 0
    problems: list = field(default_factory=list)


@dataclass
class Call:
    label: str
    fn: object              # the timed call
    judge: object           # result -> Outcome
    crosscheck: object      # (result, Outcome) -> problems; once per run
    before: object = None   # untimed preparation


def _library_outcome(label, metrics, value, bound, problems):
    ratio = metrics.rounds / bound if bound else None
    return Outcome(
        label, metrics.rounds, metrics.messages, metrics.tokens, value, ratio,
        [(p.phase, p.rounds, p.messages) for p in metrics.phases],
        (metrics.rounds, metrics.messages, metrics.tokens, value),
        problems=problems)


def tree_bound(inst):
    """Paper bound for tap and wtap: 8h + 16 rounds."""
    return 8 * inst.tree.height + 16


def fast_bound(inst):
    """Paper bound for fast: 20(D + sqrt(n)) rounds."""
    return 20 * (inst.diameter + math.isqrt(inst.g.n))


def ecss_bound(inst):
    """Bound for the unweighted 2-ECSS (BFS tree plus tap): 8D rounds."""
    return 8 * inst.diameter


def _cover_keys(cover, scheme):
    return sorted((ve.origin, scheme.key(ve.anc), scheme.key(ve.desc)) for ve in cover)


def _same(got, want, what):
    return [] if got == want else ["%s differs from its sequential shadow" % what]


class Library:
    """Calls into the package's public functions."""

    def __init__(self, m):
        self.m = m

    def _covers(self, inst, edge_ids):
        if self.m.graph.augmentation_covers(inst.g, inst.tree, edge_ids):
            return []
        return ["augmentation leaves a tree edge uncovered"]

    def _two_ec(self, inst, edge_ids):
        if self.m.graph.subgraph_two_edge_connected(inst.g, edge_ids):
            return []
        return ["subgraph is not 2-edge-connected"]

    def _projected(self, inst, tree, labels, cover, scheme=None):
        return self.m.virtual_graph.project_augmentation(
            inst.g, tree, labels, cover, scheme).edge_ids

    def tap(self, inst):
        m = self.m

        def judge(res):
            aug, _, metrics = res
            return _library_outcome("tap", metrics, len(aug.edge_ids),
                                    tree_bound(inst), self._covers(inst, aug.edge_ids))

        def crosscheck(res, _):
            want = m.unweighted.sequential_virtual_optimal(inst.g, inst.tree)
            scheme = m.virtual_graph.PlainScheme()
            return _same(_cover_keys(res[1], scheme),
                         _cover_keys(want["added"], scheme), "tap cover")

        return Call("tap", lambda: m.unweighted.augment_unweighted(inst.g, inst.tree),
                    judge, crosscheck)

    def wtap(self, inst):
        m = self.m

        def judge(res):
            aug, _, _, metrics = res
            return _library_outcome("wtap", metrics, aug.weight, tree_bound(inst),
                                    self._covers(inst, aug.edge_ids))

        def crosscheck(res, _):
            want = m.weighted.sequential_weighted_cover(inst.g, inst.tree)
            key = lambda r: (r[0].origin, r[1], r[2])
            return (_same(sorted(map(key, res[1])), sorted(map(key, want["added"])),
                          "wtap cover")
                    + _same(res[2], want["costs"], "wtap cost decomposition"))

        return Call("wtap", lambda: m.weighted.augment_weighted(inst.g, inst.tree),
                    judge, crosscheck)

    def fast(self, inst):
        m = self.m

        def judge(res):
            aug, _, metrics = res
            return _library_outcome("fast", metrics, len(aug.edge_ids), fast_bound(inst),
                                    self._covers(inst, aug.edge_ids))

        def crosscheck(res, _):
            want = m.fast.sequential_fast_cover(inst.g, inst.tree)
            return _same(_cover_keys(res[1], want["scheme"]),
                         _cover_keys(want["cover"], want["scheme"]), "fast cover")

        return Call("fast", lambda: m.fast.augment_fast(inst.g, inst.tree),
                    judge, crosscheck)

    def ecss(self, inst):
        m = self.m

        def judge(res):
            edges, _, _, metrics = res
            return _library_outcome("ecss", metrics, len(edges), ecss_bound(inst),
                                    self._two_ec(inst, edges))

        def crosscheck(res, _):
            _, tree, aug, _ = res
            want = m.unweighted.sequential_virtual_optimal(inst.g, tree)
            return _same(aug.edge_ids,
                         self._projected(inst, tree, want["labels"], want["added"]),
                         "ecss augmentation")

        return Call("ecss", lambda: m.apps.two_ecss_unweighted(inst.g), judge, crosscheck)

    def ecss_w(self, inst):
        m = self.m

        def judge(res):
            edges, _, _, value, metrics = res
            problems = self._two_ec(inst, edges)
            if value != sum(inst.g.weight(e) for e in edges):
                problems.append("reported weight differs from the edges' weight")
            return _library_outcome("ecss-w", metrics, value, None, problems)

        def crosscheck(res, _):
            _, tree, aug, _, _ = res
            want = m.weighted.sequential_weighted_cover(inst.g, tree)
            cover = [ve for ve, _, _ in want["added"]]
            return _same(aug.edge_ids,
                         self._projected(inst, tree, want["labels"], cover),
                         "ecss-w augmentation")

        return Call("ecss-w", lambda: m.apps.two_ecss_weighted(inst.g), judge, crosscheck)

    def verify(self, inst):
        m = self.m

        def judge(res):
            verdict, bridges, metrics = res
            problems = []
            if verdict != m.graph.is_two_edge_connected(inst.g):
                problems.append("verdict disagrees with the bridge finder")
            if verdict == bool(bridges):
                problems.append("verdict disagrees with the reported bridges")
            return _library_outcome("verify", metrics, len(bridges), None, problems)

        return Call("verify", lambda: m.apps.verify_2ec_distributed(inst.g), judge,
                    lambda res, out: [])

    def cli_run(self, inst, algo, argv_extra, workdir):
        """`treeaug run` on the instance file with CSV and metrics outputs;
        the outputs are judged from the files the command wrote."""
        m = self.m
        csv_path = os.path.join(workdir, "%s.csv" % algo)
        metrics_path = os.path.join(workdir, "%s-metrics.csv" % algo)
        transcript = None
        argv = ["run", inst.path, "--algo", algo] + list(argv_extra) + [
            "--csv", csv_path, "--metrics", metrics_path]
        if algo == "fast":
            transcript = os.path.join(workdir, "fast-transcript.log")
            argv += ["--transcript", transcript]
        bound = tree_bound if algo == "tap" else fast_bound
        label = "cli-" + algo

        def before():
            for path in (csv_path, metrics_path, transcript):
                if path and os.path.exists(path):
                    os.remove(path)

        def judge(rc):
            try:
                return self._judge_cli(inst, label, rc, csv_path, metrics_path,
                                       transcript, bound(inst))
            except (OSError, ValueError) as e:
                return Outcome(label, problems=["unreadable outputs: %s" % e])

        def crosscheck(_, out):
            return _same(out.value, self._sequential_value(inst, algo),
                         "%s augmentation size" % label)

        return Call(label, lambda: m.cli.main(argv), judge, crosscheck, before)

    def _sequential_value(self, inst, algo):
        m = self.m
        if algo == "tap":
            want = m.unweighted.sequential_virtual_optimal(inst.g, inst.tree)
            return len(self._projected(inst, inst.tree, want["labels"], want["added"]))
        want = m.fast.sequential_fast_cover(inst.g, inst.tree)
        return len(self._projected(inst, inst.tree, want["labels"], want["cover"],
                                   want["scheme"]))

    def _judge_cli(self, inst, label, rc, csv_path, metrics_path, transcript, bound):
        problems = [] if rc == 0 else ["exit code %d" % rc]
        with open(csv_path) as f:
            header, row = f.read().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        with open(metrics_path) as f:
            metrics_text = f.read()
        lines = [ln.split(",") for ln in metrics_text.splitlines()[1:]]
        phases = [(p[0], int(p[1]), int(p[2])) for p in lines[:-1]]
        total = lines[-1]
        rounds, messages, tokens = int(total[1]), int(total[2]), int(total[3])
        if fields["valid"] != "1":
            problems.append("the command reports an invalid solution")
        if (int(fields["rounds"]), int(fields["messages"]), int(fields["tokens"])) \
                != (rounds, messages, tokens):
            problems.append("CSV row and metrics file disagree")
        expected = {"n": inst.g.n, "m": inst.g.m, "h": inst.tree.height,
                    "D": inst.diameter}
        for col, want in expected.items():
            if fields[col] != str(want):
                problems.append("CSV %s=%s, expected %s" % (col, fields[col], want))
        digest, size = "", 0
        if transcript is not None:
            with open(transcript, "rb") as f:
                data = f.read()
            digest, size = hashlib.sha256(data).hexdigest(), len(data)
        return Outcome(label, rounds, messages, tokens, int(fields["aug_value"]),
                       rounds / bound, phases, (row, metrics_text, digest), size,
                       problems)


# Each workload has a name, says whether its bounds need the exact diameter,
# makes its instances from the seed and lists the calls of one pass.

class TallPath:
    name = "tall-path"
    needs_diameter = False

    def instances(self, m, seed, workdir):
        # seedless: the seed is recorded but does not change the input
        g, tree = m.generators.gen_cycle(1024)
        return [Instance("cycle-1024", g, tree)]

    def calls(self, lib, inst, workdir):
        return [lib.tap(inst), lib.wtap(inst), lib.verify(inst)]


class ShallowRandom:
    name = "shallow-random"
    needs_diameter = True
    # Round and message totals differ by about 13% (interquartile range)
    # between single seeds, mostly through the height of the MST that
    # ecss-w augments. A run therefore rotates over this many instances and
    # reports their mean, so that one run's figures vary less by seed.
    per_run = 3

    def instances(self, m, seed, workdir):
        out = []
        for i in range(self.per_run):
            s = seed * self.per_run + i
            g, tree = m.generators.gen_random_2ec(2000, 1000, s, wmin=1, wmax=20)
            out.append(Instance("random-2000-%d" % s, g, tree))
        return out

    def calls(self, lib, inst, workdir):
        return [lib.fast(inst), lib.ecss(inst), lib.ecss_w(inst), lib.verify(inst)]


class CliGadget:
    name = "cli-gadget"
    needs_diameter = True

    def instances(self, m, seed, workdir):
        # seedless, like tall-path
        g, tree = m.generators.gen_lb_disjointness(2, 2, 9, [1, 0], [0, 1],
                                                   weighted=False)
        path = os.path.join(workdir, "lb-disj-p9.txt")
        m.graph.write_instance(path, g, tree)
        return [Instance("lb-disj-p9", g, tree, path)]

    def calls(self, lib, inst, workdir):
        return [lib.cli_run(inst, "tap", ["--max-rounds", "1048576"], workdir),
                lib.cli_run(inst, "fast", [], workdir)]


WORKLOADS = {w.name: w for w in (TallPath(), ShallowRandom(), CliGadget())}
