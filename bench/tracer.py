"""In-memory span tracer for the benchmark's traced passes.

Each layer is wrapped at the module attribute its callers resolve: a
function bound with ``from .graph import diameter`` is looked up in the
caller's namespace (``cli.diameter``), so that is the attribute replaced.
Spans are kept in memory as ``[name, start, end, parent, pass id,
counters]`` lists and written out once, when the run ends.
"""
from __future__ import annotations

import json
import time


def _metrics_of(result):
    """The Metrics object a layer function returns."""
    if isinstance(result, dict):
        return result["metrics"]
    return result[-1]


def _rounds_messages(args, result):
    m = _metrics_of(result)
    return {"rounds": m.rounds, "messages": m.messages}


def _phase_rounds(name):
    def count(args, result):
        m = _metrics_of(result)
        return {"nominal_rounds": sum(p.rounds for p in m.phases if p.phase == name)}
    return count


def _weighted_up(args, result):
    m = _metrics_of(result)
    height = args[1].height
    up = sum(p.rounds for p in m.phases if p.phase == "weighted_up")
    return {"up_bound_ratio": up / (2 * height + 4)}


# (module, attribute, span name, counters read from the call's result)
WRAPS = [
    ("sim", "run", "sim.run", _rounds_messages),
    ("sim", "broadcast_upcast", "sim.broadcast_upcast", _rounds_messages),
    ("labels", "assign_labels_distributed", "labels.assign_labels_distributed",
     _rounds_messages),
    ("virtual_graph", "build_incidence_distributed",
     "virtual_graph.build_incidence_distributed", _rounds_messages),
    ("virtual_graph", "project_augmentation", "virtual_graph.project_augmentation",
     None),
    ("cover_scan", "distributed_cover_scan", "cover_scan.distributed_cover_scan",
     _rounds_messages),
    ("unweighted", "augment_unweighted", "unweighted.augment_unweighted", None),
    ("weighted", "augment_weighted", "weighted.augment_weighted", _weighted_up),
    ("weighted", "disseminate_ancestors", "weighted.disseminate_ancestors",
     _rounds_messages),
    ("fast", "augment_fast", "fast.augment_fast", _phase_rounds("fragmentation")),
    ("fast", "build_bfs_tree_distributed", "fast.build_bfs_tree_distributed", None),
    ("apps", "build_bfs_tree_distributed", "fast.build_bfs_tree_distributed", None),
    ("fast", "fragment_decompose", "fast.fragment_decompose", None),
    ("apps", "two_ecss_unweighted", "apps.two_ecss_unweighted", None),
    ("apps", "two_ecss_weighted", "apps.two_ecss_weighted", _phase_rounds("mst")),
    ("apps", "verify_2ec_distributed", "apps.verify_2ec_distributed", None),
    ("apps", "mst_tree", "graph.mst_tree", None),
    ("cli", "main", "cli.main", None),
    ("cli", "read_instance", "graph.read_instance", None),
    ("cli", "diameter", "graph.diameter", None),
    ("cli", "augmentation_covers", "graph.check", None),
    ("cli", "subgraph_two_edge_connected", "graph.check", None),
]

SPAN_NAMES = sorted({name for _, _, name, _ in WRAPS})


class Tracer:
    """Wraps the layers while installed and records one span per call."""

    def __init__(self, modules):
        self.modules = modules
        self.spans: list[list] = []
        self.pass_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, orig, name, count):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result
        return traced

    def install(self, pass_id):
        self.pass_id = pass_id
        for mod_name, attr, name, count in WRAPS:
            mod = getattr(self.modules, mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name, count))

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
        self._stack.clear()

    def layer_totals(self, pass_id):
        """Per span name: host seconds, self seconds, calls and summed
        counters over one traced pass."""
        first = next(i for i, s in enumerate(self.spans) if s[4] == pass_id)
        spans = [s for s in self.spans[first:] if s[4] == pass_id]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= first:
                child_time[s[3] - first] += s[2] - s[1]
        totals = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in SPAN_NAMES}
        for s, inner in zip(spans, child_time):
            t = totals[s[0]]
            t["s"] += s[2] - s[1]
            t["self_s"] += s[2] - s[1] - inner
            t["calls"] += 1
            for key, value in (s[5] or {}).items():
                if key == "up_bound_ratio":
                    t[key] = max(t.get(key, 0.0), value)
                else:
                    t[key] = t.get(key, 0) + value
        return totals

    def write(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                rec = {"name": s[0], "start": s[1], "end": s[2],
                       "parent": s[3], "pass": s[4]}
                if s[5]:
                    rec.update(s[5])
                f.write(json.dumps(rec) + "\n")
