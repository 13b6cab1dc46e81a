"""The benchmark under bench/ reaches into the package by name: its tracer
wraps module attributes, and its runner and workloads read others. These
tests only read bench/; they fail when a rename leaves one of those names
dangling, which would otherwise surface only when the benchmark runs."""
import ast
import importlib
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _tracer_wraps():
    # executed from its text, so no bytecode cache is written under bench/
    path = BENCH / "tracer.py"
    namespace = {"__name__": "bench_tracer"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace["WRAPS"]


def test_every_traced_name_resolves():
    wraps = _tracer_wraps()
    assert wraps
    for mod_name, attr, _, _ in wraps:
        mod = importlib.import_module("treeaug." + mod_name)
        assert callable(getattr(mod, attr, None)), (mod_name, attr)


def test_the_simulator_globals_the_runner_saves_exist():
    from treeaug import sim
    assert isinstance(sim.DEFAULT_MAX_ROUNDS, int)
    assert sim.TRANSCRIPT_SINK is None


@pytest.mark.parametrize("script", ("run.py", "workloads.py"))
def test_every_package_name_the_benchmark_reads_resolves(script):
    # every `m.<module>.<attribute>` chain, m being the runner's namespace
    # of freshly imported package modules
    tree = ast.parse((BENCH / script).read_text())
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name) and node.value.value.id == "m"):
            names.add((node.value.attr, node.attr))
    assert names
    for mod_name, attr in sorted(names):
        mod = importlib.import_module("treeaug." + mod_name)
        assert hasattr(mod, attr), (script, mod_name, attr)
