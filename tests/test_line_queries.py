"""tools/line_queries.py: the queries-per-step table of this checkout, at a smoke size."""
import importlib.util
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import lcsampler
from lcsampler import MultivariateOracle

_ROOT = Path(__file__).resolve().parent.parent
CELL = re.compile(r"(\d+\.\d\d) / (\d+\.\d\d) / (\d+\.\d\d) = (\d+\.\d\d) \[(\d+\.\d\d), (\d+\.\d\d)\]"
                  r" tangent (\d+\.\d)%")


def run_tool(*args):
    return subprocess.run([sys.executable, str(_ROOT / "tools" / "line_queries.py"), "--root", str(_ROOT), *args],
                          capture_output=True, text=True, timeout=300, check=True).stdout.splitlines()


def test_two_seeds_of_twenty_steps():
    lines = run_tool("--seeds", "2", "--steps", "20")
    assert lines[0] == "| target | κ = 1e6 | κ = 1e12 |"
    assert [line.split(" | ")[0] for line in lines[2:6]] == [
        "| isotropic d = 10", "| `[hard:2, g, g]`", "| mixed", "| `diagonal [1, 30, 1e3, 1e6]`"]
    for line in lines[2:6]:
        cells = CELL.findall(line)
        assert len(cells) == 2
        for bracket, search, trials, total, low, high, tangent in (map(float, c) for c in cells):
            # each phase is a mean over the same 40 steps, rounded to 0.01
            assert abs(bracket + search + trials - total) <= 0.02
            assert low <= total <= high
            assert trials >= 1.0  # every step spends at least one trial
            assert 0.0 <= tangent < 100.0  # each chain's first step searches first
    # the isotropic chains try the tangent first after their first steps
    assert [float(c[-1]) for c in CELL.findall(lines[2])] == [95.0, 95.0]
    # a target outside the class at a kappa has no cell
    lines = run_tool("--seeds", "1", "--steps", "5", "--target", "diagonal", "--kappa", "2")
    assert lines[2] == "| `diagonal [1, 30, 1e3, 1e6]` | - |"


def test_a_chain_that_stops_on_an_error_prints_its_exit_code(monkeypatch):
    # past double precision the far-probe guard raises a UsageError mid-chain
    # (W'(0) = 5.87e147 at kappa = 1e300), which the hitandrun command exits 4 on
    lines = run_tool("--seeds", "1", "--steps", "50", "--target", "hard2", "--kappa", "1e300")
    assert lines[2] == "| `[hard:2, g, g]` | exit 4 |"
    # a target whose lines leave the class declared for it raises a
    # ClassViolationError mid-chain: exit 3
    spec = importlib.util.spec_from_file_location("line_queries", _ROOT / "tools" / "line_queries.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    diag = np.array([1.0, 100.0])
    outside = MultivariateOracle(lambda x: 0.5 * float(x @ (diag * x)), lambda x: diag * x, dimension=2, kappa=10.0)
    monkeypatch.setattr(tool, "oracle_for", lambda *args: outside)
    assert tool.cell(lcsampler, None, SimpleNamespace(counts=None), "isotropic", 10.0, 1, 2000) == "exit 3"
