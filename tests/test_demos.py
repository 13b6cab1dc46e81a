"""Each demo script runs to completion; they call the package's public
paths end to end, verify and fast among them, and nothing else runs them."""
import os
import pathlib
import subprocess
import sys

import pytest

import treeaug

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("argv", (
    ["end_to_end.py"], ["round_scaling.py"], ["fast_vs_plain.py", "4"],
), ids=("end_to_end", "round_scaling", "fast_vs_plain"))
def test_demo_exits_0(argv):
    # the subprocess imports the same treeaug as this test
    src = os.path.dirname(os.path.dirname(os.path.abspath(treeaug.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run([sys.executable, str(DEMOS / argv[0])] + argv[1:],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
