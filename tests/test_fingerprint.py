"""tools/fingerprint.py: two runs on one checkout print the same hashes."""
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
AREAS = [
    "potential", "envelope1d", "construction", "line_envelope", "line_probes", "chain", "hardfamily", "cli.sample",
    "cli.envelope-inspect", "cli.bench-queries", "cli.hardfamily-verify", "cli.hitandrun",
]


def fingerprint() -> list[list[str]]:
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "fingerprint.py"), "--root", str(_ROOT)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return [line.split() for line in proc.stdout.splitlines()]


def test_two_runs_on_one_checkout_agree():
    first, second = fingerprint(), fingerprint()
    assert [area for area, _ in first] == AREAS
    assert all(len(digest) == 16 for _, digest in first)
    assert len({digest for _, digest in first}) == len(AREAS)
    assert first == second
