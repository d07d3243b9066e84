"""tools/line_queries.py: the queries-per-step table of this checkout, at a smoke size."""
import re
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
CELL = re.compile(r"(\d+\.\d\d) / (\d+\.\d\d) / (\d+\.\d\d) = (\d+\.\d\d) \[(\d+\.\d\d), (\d+\.\d\d)\]")


def test_two_seeds_of_twenty_steps():
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "line_queries.py"), "--root", str(_ROOT),
         "--seeds", "2", "--steps", "20"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.splitlines()
    assert lines[0] == "| target | κ = 1e6 | κ = 1e12 |"
    assert [line.split(" | ")[0] for line in lines[2:6]] == [
        "| isotropic d = 10", "| `[hard:2, g, g]`", "| mixed", "| `diagonal [1, 30, 1e3, 1e6]`"]
    for line in lines[2:6]:
        cells = CELL.findall(line)
        assert len(cells) == 2
        for bracket, search, trials, total, low, high in (map(float, c) for c in cells):
            # each phase is a mean over the same 40 steps, rounded to 0.01
            assert abs(bracket + search + trials - total) <= 0.02
            assert low <= total <= high
            assert trials >= 1.0  # every step spends at least one trial
    # a target outside the class at a kappa has no cell
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "line_queries.py"), "--root", str(_ROOT),
         "--seeds", "1", "--steps", "5", "--target", "diagonal", "--kappa", "2"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    assert proc.stdout.splitlines()[2] == "| `diagonal [1, 30, 1e3, 1e6]` | - |"
