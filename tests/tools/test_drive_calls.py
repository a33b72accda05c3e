"""``tools/drive_calls.py``: the call count of a drive is a number, not a reading."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
TOOL = REPO_ROOT / "tools" / "drive_calls.py"


def _counted(*arguments: str) -> dict[str, int]:
    """workload -> python_calls, as one invocation of the tool printed them."""
    result = subprocess.run(
        [sys.executable, str(TOOL), "--smoke", *arguments], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return {
        name: int(calls)
        for name, calls in re.findall(r"^(\w+)  seed=\d+  smoke=True  python_calls=(\d+)$",
                                      result.stdout, re.MULTILINE)
    }


@pytest.mark.parametrize("workload", ["burst_sim", "xshard_burst"])
def test_same_seed_gives_the_same_integer(workload):
    """Two fresh processes (two hash seeds, two memory layouts), one count."""
    first = _counted("--workload", workload, "--seed", "7")
    assert list(first) == [workload] and first[workload] > 10_000
    assert _counted("--workload", workload, "--seed", "7") == first
    # The count is of this seed's drive, not a constant of the workload.
    assert _counted("--workload", workload, "--seed", "8") != first


def test_every_workload_is_counted_in_a_process_of_its_own():
    """A drive that follows another in one process finds its memos warm."""
    from bench.workloads import WORKLOADS

    together = _counted()
    assert list(together) == list(WORKLOADS)
    assert together["burst_sim"] == _counted("--workload", "burst_sim")["burst_sim"]
