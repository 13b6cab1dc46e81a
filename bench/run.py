"""treeaug benchmark.

    python3 bench/run.py --workload tall-path --seed 1 --seconds 30 --trace 0

Runs one workload in this process: one caller in a closed loop makes the
workload's calls into the package, pass after pass, until --seconds have
passed (and at least once more than the workload has instances, so that
every instance is measured and at least one pass can be compared with an
earlier one). Every output is checked outside the timed calls. With
--trace 0 the passes run untraced and the end-to-end metrics are reported;
with --trace 1 untraced and traced passes alternate and the per-layer
metrics and the tracing overhead are reported. End-to-end host times are
calibrated by a reference loop timed between calls (see REFERENCE_S). The
metric names and units are those listed in BENCHMARK.json. The last line of
standard output is one JSON object; the exit code is 1 when any output
failed its check and 2 when the package cannot be imported.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from tracer import SPAN_NAMES, Tracer
from workloads import WORKLOADS, Library, Outcome

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_MODULES = ("sim", "graph", "generators", "labels", "virtual_graph",
                   "cover_scan", "unweighted", "weighted", "fast", "apps", "cli")
# set-up (import plus instance generation) is repeated this many times and
# the median reported
SETUP_REPEATS = 11
# the phases the package's Metrics can name; absent ones report 0
PHASES = (
    "label_sizes", "label_assign", "exchange", "cover_up", "cover_down",
    "ancestors", "weighted_up", "weighted_down",
    "bfs", "fragmentation", "labels_local_sizes", "labels_local_assign",
    "labels_global_exchange", "labels_global_bcast", "leaf_cover", "leaf_bcast",
    "global_cover", "global_bcast", "local_cover_up", "local_cover_down",
    "final_broadcast", "mst", "verify_verdict")
# Each end-to-end host time is multiplied by REFERENCE_S over the mean time
# of the reference loop around it: for a pass, the loops timed before it and
# after each of its calls. On a shared 2-vCPU virtual machine (Xeon,
# 2.0 GHz) the speed drifts by up to 3x over tens of seconds, so raw median
# pass times of one run spread by 19-36% (interquartile range over the
# median) across five runs. REFERENCE_S is close to the loop's fastest time
# on that machine; it only sets the scale.
REFERENCE_S = 0.1
# ROADMAP baseline for wtap on the 1024-cycle: total rounds and messages,
# then those of its ancestors phase
WTAP_BASELINE = (6135, 1049599, 1023, 523776)


def import_package():
    """Import the package afresh; returns its modules by short name."""
    for name in [k for k in sys.modules if k == "treeaug" or k.startswith("treeaug.")]:
        del sys.modules[name]
    return SimpleNamespace(**{n: importlib.import_module("treeaug." + n)
                              for n in PACKAGE_MODULES})


@dataclass
class Pass:
    pass_id: int
    inst: int
    traced: bool
    seconds: float   # wall time in the pass's calls
    outcomes: list
    leaked: int      # calls after which a sim module global was left changed
    ref: float       # mean time of the reference loop before the pass and
                     # after each call

    @property
    def calibrated(self):
        return calibrate(self.seconds, self.ref)


def reference():
    """Time a fixed pure-Python workload of the engine's kind (tuples, dict
    buckets, list sorts). It shares no code with the package, so its time
    tracks only the machine's current speed."""
    t0 = time.perf_counter()
    buckets = {}
    for r in range(96):
        for v in range(2000):
            key = (v * 7919 + r) % 1024
            msg = (r, v, ("x", key))
            b = buckets.get(key)
            if b is None:
                buckets[key] = [msg]
            else:
                b.append(msg)
        for b in buckets.values():
            b.sort()
        if r % 8 == 7:
            buckets = {}
    return time.perf_counter() - t0


def calibrate(seconds, ref):
    """Host seconds scaled to a machine on which the reference loop takes
    REFERENCE_S."""
    return seconds * REFERENCE_S / ref


def run_pass(m, calls, pass_id, inst, tracer, first_results):
    sink = io.StringIO()
    refs = [reference()]
    outcomes = []
    seconds = 0.0
    leaked = 0
    gc.collect()
    if tracer is not None:
        tracer.install(pass_id)
    try:
        for ci, call in enumerate(calls):
            if call.before is not None:
                call.before()
            before = (m.sim.DEFAULT_MAX_ROUNDS, m.sim.TRANSCRIPT_SINK)
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    result = call.fn()
            except Exception as e:  # a raising call is a failed call; go on
                result = None
                outcomes.append(Outcome(call.label, problems=[
                    "raised %s: %s" % (type(e).__name__, e)]))
            seconds += time.perf_counter() - t0
            refs.append(reference())
            if result is None:
                continue
            after = (m.sim.DEFAULT_MAX_ROUNDS, m.sim.TRANSCRIPT_SINK)
            # by identity: the workload passes --max-rounds equal to the
            # default, so a leaked value compares equal
            leaked += any(a is not b for a, b in zip(before, after))
            sink.seek(0)
            sink.truncate()
            outcomes.append(call.judge(result))
            first_results.setdefault((inst, ci), result)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Pass(pass_id, inst, tracer is not None, seconds, outcomes, leaked,
                statistics.fmean(refs))


def measure(m, wl, insts, seconds, trace, workdir):
    lib = Library(m)
    plans = [wl.calls(lib, inst, workdir) for inst in insts]
    tracer = Tracer(m) if trace else None
    first_results: dict = {}
    passes: list[Pass] = []
    start = time.perf_counter()
    k = 0
    while k <= len(insts) or time.perf_counter() - start < seconds:
        i = k % len(insts)
        passes.append(run_pass(m, plans[i], len(passes), i, None, first_results))
        if trace:
            passes.append(run_pass(m, plans[i], len(passes), i, tracer, first_results))
        k += 1
    return plans, passes, first_results, tracer


def check(plans, passes, first_results):
    """Determinism, bounds and the once-per-run comparison with the
    sequential shadows; problems are added to the outcomes."""
    first = {}
    for p in passes:
        for ci, out in enumerate(p.outcomes):
            ref = first.setdefault((p.inst, ci), out)
            if ref is not out and out.fingerprint != ref.fingerprint:
                out.problems.append("output or counts differ from pass %d"
                                    % next(q.pass_id for q in passes if q.inst == p.inst))
            if out.bound_ratio is not None and out.bound_ratio > 1:
                out.problems.append("rounds exceed the paper's bound by %.3fx"
                                    % out.bound_ratio)
    for (i, ci), result in first_results.items():
        try:
            problems = plans[i][ci].crosscheck(result, first[(i, ci)])
        except Exception as e:  # a broken output may break its shadow check
            problems = ["shadow comparison raised %s: %s" % (type(e).__name__, e)]
        first[(i, ci)].problems.extend(problems)


def _per_instance_mean(passes, n_inst, key):
    """Mean over instances of a per-pass figure, taken from the instance's
    first untraced pass (simulated figures repeat, so any pass would do)."""
    sums = []
    for i in range(n_inst):
        p = next(q for q in passes if q.inst == i and not q.traced)
        sums.append(key(p))
    return statistics.fmean(sums)


def end_to_end(passes, n_inst, setup_times, attempted, failed):
    untraced = [p for p in passes if not p.traced]
    per_inst = [statistics.median(p.calibrated for p in untraced if p.inst == i)
                for i in range(n_inst)]
    total = lambda field: _per_instance_mean(
        passes, n_inst, lambda p: sum(getattr(o, field) for o in p.outcomes))
    return {
        "pass_s": statistics.fmean(per_inst),
        "sim_msgs_per_s": statistics.median(
            sum(o.messages for o in p.outcomes) / p.calibrated for p in untraced),
        "rounds": total("rounds"),
        "messages": total("messages"),
        "tokens": total("tokens"),
        "solution_value": total("value"),
        "bound_ratio_max": _per_instance_mean(passes, n_inst, lambda p: max(
            (o.bound_ratio for o in p.outcomes if o.bound_ratio is not None),
            default=0.0)),
        "ok_ratio": 1 - failed / attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(passes, n_inst, tracer, gen_times):
    traced = [p for p in passes if p.traced]
    tots = [tracer.layer_totals(p.pass_id) for p in traced]

    def mean_of(name, key):
        return statistics.fmean(t[name].get(key, 0) for t in tots)

    out = {}
    for name in SPAN_NAMES:
        for key in ("s", "self_s", "calls", "rounds", "messages"):
            out["%s.%s" % (name, key)] = mean_of(name, key)
    run_msgs = sum(t["sim.run"].get("messages", 0) for t in tots)
    out["sim.us_per_msg"] = 1e6 * sum(t["sim.run"]["s"] for t in tots) / run_msgs
    out["weighted.up_bound_ratio"] = max(
        t["weighted.augment_weighted"].get("up_bound_ratio", 0.0) for t in tots)
    out["fast.nominal_rounds"] = mean_of("fast.augment_fast", "nominal_rounds")
    out["apps.mst.nominal_rounds"] = mean_of("apps.two_ecss_weighted", "nominal_rounds")
    out["apps.self_s"] = sum(out[n + ".self_s"] for n in SPAN_NAMES
                             if n.startswith("apps."))
    out["generators.s"] = statistics.median(gen_times)
    out["cli.transcript_bytes"] = _per_instance_mean(
        passes, n_inst, lambda p: sum(o.transcript_bytes for o in p.outcomes))
    out["cli.leaked_globals"] = statistics.median(p.leaked for p in passes)
    for phase in PHASES:
        for idx, key in ((1, "rounds"), (2, "messages")):
            out["phase.%s.%s" % (phase, key)] = _per_instance_mean(
                passes, n_inst, lambda p: sum(ph[idx] for o in p.outcomes
                                              for ph in o.phases if ph[0] == phase))
    # passes alternate untraced and traced on the same instance
    out["trace.overhead_s"] = statistics.median(
        b.calibrated - a.calibrated for a, b in zip(passes[::2], passes[1::2]))
    return out


def highest_percentile(n):
    """The highest of the usual percentiles with at least ten samples
    beyond it; the median when none has."""
    return next((q for q in (99, 95, 90, 75) if n * (100 - q) >= 1000), 50)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    wl = WORKLOADS[args.workload]
    workdir = str(ROOT / ".bench_work" / wl.name)
    os.makedirs(workdir, exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))

    setup_times, gen_times, refs = [], [], [reference()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        try:
            m = import_package()
        except ImportError as e:
            print("cannot import the treeaug package from %s: %s" % (ROOT / "src", e),
                  file=sys.stderr)
            return 2
        t1 = time.perf_counter()
        insts = wl.instances(m, args.seed, workdir)
        t2 = time.perf_counter()
        refs.append(reference())
        setup_times.append(calibrate(t2 - t0, (refs[-2] + refs[-1]) / 2))
        gen_times.append(t2 - t1)
    if wl.needs_diameter:
        for inst in insts:
            inst.diameter = m.graph.diameter(inst.g)

    t_start = time.perf_counter()
    plans, passes, first_results, tracer = measure(
        m, wl, insts, args.seconds, args.trace, workdir)
    wall = time.perf_counter() - t_start
    check(plans, passes, first_results)

    outcomes = [o for p in passes for o in p.outcomes]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.problems)
    for p in passes:
        for o in p.outcomes:
            for problem in o.problems:
                print("FAILED pass %d %s on %s: %s"
                      % (p.pass_id, o.label, insts[p.inst].name, problem), file=sys.stderr)

    n_inst = len(insts)
    untraced = [p for p in passes if not p.traced]
    print("workload %s, seed %d: %s; %d passes (%d traced) in %.1f s; "
          "%d calls, %d failed"
          % (wl.name, args.seed, ", ".join(i.name for i in insts), len(passes),
             len(passes) - len(untraced), wall, attempted, failed))
    print("untraced passes: wall median %.4f s; reference loop mean %.4f s "
          "(REFERENCE_S %.4f s)"
          % (statistics.median(p.seconds for p in untraced),
             statistics.fmean(p.ref for p in untraced), REFERENCE_S))
    if args.trace:
        group = spec["per_layer"]
        values = per_layer(passes, n_inst, tracer, gen_times)
        tracer.write(os.path.join(workdir, "spans.jsonl"))
    else:
        group = spec["end_to_end"]
        values = end_to_end(passes, n_inst, setup_times, attempted, failed)
        cal = [p.calibrated for p in untraced]
        q = highest_percentile(len(cal))
        pq = statistics.median(cal) if q == 50 else statistics.quantiles(cal, n=100)[q - 1]
        print("calibrated pass seconds: %d samples (%s), median %.4f s, p%d %.4f s; "
              "failed_ratio %.4f"
              % (len(cal), " ".join("%.3f" % x for x in cal), statistics.median(cal),
                 q, pq, failed / attempted))
        if wl.name == "tall-path":
            wtap = next(o for o in passes[0].outcomes if o.label == "wtap")
            anc = next((ph for ph in wtap.phases if ph[0] == "ancestors"), (0, 0, 0))
            print("wtap rounds %d messages %d, ancestors rounds %d messages %d "
                  "(ROADMAP baseline %d %d %d %d)"
                  % ((wtap.rounds, wtap.messages, anc[1], anc[2]) + WTAP_BASELINE))
    metrics = {}
    for entry in group:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print("%-48s %.10g %s" % (entry["name"], values[entry["name"]], entry["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
