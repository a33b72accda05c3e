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


def test_sample_prints_inclusive_and_self_shares_of_one_drive():
    """Information only: the shares are readings, so only their shape is checked."""
    result = subprocess.run(
        [sys.executable, str(TOOL), "--smoke", "--sample", "--workload", "xshard_burst"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert re.fullmatch(
        r"xshard_burst  seed=\d+  smoke=True  samples=\d+  cpu_s=\d+\.\d{3}  interval_ms=1", header
    )
    shares = [re.fullmatch(r"  +(\d+\.\d)%  +(\d+\.\d)%  (\S.*)", row) for row in rows]
    shares = [match for match in shares if match]
    assert len(shares) >= 2
    for match in shares:
        inclusive, own = float(match[1]), float(match[2])
        assert 0.0 <= own <= inclusive <= 100.0
    # The drive itself is on every sample's stack; the tool's own frames are not.
    assert any(match[3].endswith("(drive)") and float(match[1]) == 100.0 for match in shares)
    assert not any("drive_calls.py" in match[3] for match in shares)


def test_a_reader_that_stops_early_is_not_a_failure():
    """``tools/drive_calls.py … | head`` exits 0 without a traceback."""
    child = subprocess.Popen(
        [sys.executable, str(TOOL), "--smoke", "--workload", "burst_sim"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    child.stdout.close()  # the reader is gone before the first line is written
    _, stderr = child.communicate(timeout=300)
    assert child.returncode == 0, stderr
    assert b"Traceback" not in stderr and b"BrokenPipeError" not in stderr


def test_every_workload_is_counted_in_a_process_of_its_own():
    """A drive that follows another in one process finds its memos warm."""
    from bench.workloads import WORKLOADS

    together = _counted()
    assert list(together) == list(WORKLOADS)
    assert together["burst_sim"] == _counted("--workload", "burst_sim")["burst_sim"]


def test_bytes_attributes_every_wire_byte_to_an_opcode_and_a_link():
    """``--bytes``: a deterministic breakdown whose parts add up to the benchmark's figure."""
    command = [sys.executable, str(TOOL), "--smoke", "--bytes", "--workload", "xshard_burst"]
    first = subprocess.run(command, capture_output=True, text=True)
    assert first.returncode == 0, first.stderr
    assert subprocess.run(command, capture_output=True, text=True).stdout == first.stdout
    header, *rows = first.stdout.splitlines()
    total, network = map(float, re.fullmatch(
        r"xshard_burst  seed=\d+  smoke=True  wire_bytes_per_tx=(\d+\.\d)  network=(\d+\.\d)",
        header,
    ).groups())
    assert total == network > 0
    links = {}
    for row in rows:
        link = re.fullmatch(r"  (\S+) +(\d+\.\d) B/tx +\d+\.\d{3} msgs/tx", row)
        if link:
            current = links[link[1]] = [float(link[2]), 0.0]
            continue
        opcode = re.fullmatch(r"    ([a-z_]+) +(\d+\.\d) B/tx +\d+\.\d{3} msgs/tx", row)
        assert opcode, row
        current[1] += float(opcode[2])
    assert set(links) == {"client<->cell", "cell<->cell"}
    for link_bytes, opcode_bytes in links.values():
        assert opcode_bytes == pytest.approx(link_bytes, abs=0.1 * len(rows))
    assert sum(link_bytes for link_bytes, _ in links.values()) == pytest.approx(total, abs=0.2)
    assert "    tx_receipt" in first.stdout and "    xshard_voucher" in first.stdout
