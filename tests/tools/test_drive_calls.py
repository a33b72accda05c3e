"""``tools/drive_calls.py``: the call count of a drive is a number, not a reading."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
TOOL = REPO_ROOT / "tools" / "drive_calls.py"

#: A ratchet: the bytes per cell<->cell message outside its data field
#: (envelope header, signature, framing) on the smoke ``xshard_burst``,
#: 379.99 B once messages travel in their link form, rounded up to 10 B.
CELL_LINK_BYTES_OUTSIDE_DATA = 380


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
    links, split, outside = {}, {}, {}
    for row in rows:
        link = re.fullmatch(r"  (\S+) +(\d+\.\d) B/tx +\d+\.\d{3} msgs/tx", row)
        if link:
            current = links[link[1]] = [float(link[2]), 0.0]
            continue
        data = re.fullmatch(r"      +(\d+\.\d) B/msg of data +(\d+\.\d) B/msg outside data", row)
        if data:
            outside[(link_name, opcode_name)] = (opcode_row, float(data[1]), float(data[2]))
            continue
        items = re.fullmatch(
            r"      +(\d+\.\d\d) (item|receipt)s/msg +(\d+\.\d) B/\2 +(\d+\.\d) B/msg"
            r" besides the \2s",
            row,
        )
        if items:
            split[(link_name, opcode_name)] = (opcode_row, *map(float, items.group(1, 3, 4)))
            continue
        opcode = re.fullmatch(r"    ([a-z_]+) +(\d+\.\d) B/tx +(\d+\.\d{3}) msgs/tx", row)
        assert opcode, row
        current[1] += float(opcode[2])
        link_name, opcode_name = list(links)[-1], opcode[1]
        opcode_row = (float(opcode[2]), float(opcode[3]))
    assert set(links) == {"client<->cell", "cell<->cell"}
    for link_bytes, opcode_bytes in links.values():
        assert opcode_bytes == pytest.approx(link_bytes, abs=0.1 * len(rows))
    assert sum(link_bytes for link_bytes, _ in links.values()) == pytest.approx(total, abs=0.2)
    assert "    tx_receipt" in first.stdout and "    xshard_voucher" in first.stdout
    # The two list-carrying opcodes split into their items and the rest, and
    # the replies that carry a receipt into their receipts and the rest.
    assert set(split) == {
        ("cell<->cell", "tx_forward"), ("cell<->cell", "tx_confirm"),
        ("client<->cell", "tx_receipt"), ("client<->cell", "xshard_voucher"),
    }
    for (_link, opcode), split_row in split.items():
        (opcode_bytes, messages), per_message, per_item, besides = split_row
        # A list holds at least one item; a message carries at most one receipt.
        listed = opcode in ("tx_forward", "tx_confirm")
        assert per_message >= 1.0 if listed else 0 < per_message <= 1.0
        assert per_item > 0 and besides > 0
        rebuilt = messages * (per_message * per_item + besides)
        assert rebuilt == pytest.approx(opcode_bytes, rel=0.01)
    # Every opcode splits into its data field and the rest, which add up.
    assert len(outside) == sum(row.startswith("    ") and not row.startswith("     ")
                               for row in rows)
    for (opcode_bytes, messages), data_bytes, besides in outside.values():
        assert data_bytes > 0 and besides > 0
        assert messages * (data_bytes + besides) == pytest.approx(opcode_bytes, rel=0.01)
    cell_link = [row for (link, _), row in outside.items() if link == "cell<->cell"]
    per_message = sum(messages * besides for (_, messages), _, besides in cell_link) / sum(
        messages for (_, messages), _, _ in cell_link
    )
    assert per_message <= CELL_LINK_BYTES_OUTSIDE_DATA


#: A ratchet: receipt-family constructions per transaction of the smoke
#: drives at seed 2021 once the service cell builds its receipt in the form
#: it sends (16.30 and 21.81; 19.40 and 26.41 before), rounded up to 0.1.
RECEIPT_FAMILY_PER_TX = {"burst_sim": 16.3, "xshard_burst": 21.9}
RECEIPT_FAMILY = {
    "Confirmation", "LinkConfirmation", "ConfirmationBatch", "CoSigner", "AggregatedReceipt",
    "CompactCoSigner", "CompactReceipt", "ReceiptReply",
}


@pytest.mark.parametrize("workload", sorted(RECEIPT_FAMILY_PER_TX))
def test_objects_counts_what_one_drive_builds_and_ratchets_the_receipt_family(workload):
    """``--objects``: constructions per transaction by class, the same on every run."""
    command = [sys.executable, str(TOOL), "--smoke", "--objects", "--workload", workload,
               "--seed", "2021"]
    first = subprocess.run(command, capture_output=True, text=True)
    assert first.returncode == 0, first.stderr
    assert subprocess.run(command, capture_output=True, text=True).stdout == first.stdout
    header, *rows = first.stdout.splitlines()
    family = float(re.fullmatch(
        rf"{workload}  seed=2021  smoke=True  receipt_family_per_tx=(\d+\.\d\d)", header
    )[1])
    counted = {}
    for row in rows:
        match = re.fullmatch(r"  +(\d+\.\d\d)  (\w+)( +receipt family)?", row)
        assert match, row
        counted[match[2]] = (float(match[1]), match[3] is not None)
    assert {name for name, (_, member) in counted.items() if member} == RECEIPT_FAMILY
    assert {"Payload", "Envelope", "ErrorReply", "VoucherReply"} <= set(counted)
    assert family == pytest.approx(
        sum(per_tx for per_tx, member in counted.values() if member), abs=0.01 * len(counted)
    )
    assert counted["CompactReceipt"][0] > 0
    assert family <= RECEIPT_FAMILY_PER_TX[workload]
