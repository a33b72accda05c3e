"""``tools/drive_calls.py``: the call count of a drive is a number, not a reading."""

import importlib.util
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
TOOL = REPO_ROOT / "tools" / "drive_calls.py"

#: A ratchet: the bytes per cell<->cell message outside its data field
#: (envelope header, signature, framing) on the smoke ``xshard_burst``,
#: 379.99 B once messages travel in their link form, 324.96 B once a
#: signature and a nonce travel as base64url, 141.4 B once a forward travels
#: unsigned and an unsigned message leaves its sender to the link, rounded
#: up to 10 B.
CELL_LINK_BYTES_OUTSIDE_DATA = 150

#: The text bytes of one binary field by width, quotes included: a nonce
#: (12) and a signature (65) as unpadded base64url, the rest as 0x-hex.
TEXT_BYTES = {12: 16 + 2, 16: 2 + 32 + 2, 20: 2 + 40 + 2, 32: 2 + 64 + 2, 65: 87 + 2}


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


def test_a_sample_taken_outside_the_drive_is_not_counted(monkeypatch):
    """The timer runs before the drive starts: a sample there has no drive on its stack."""
    spec = importlib.util.spec_from_file_location("drive_calls", TOOL)
    drive_calls = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(drive_calls)

    class Workload:
        def drive(self, _deployment, _smoke):
            signal.raise_signal(signal.SIGPROF)  # one sample inside the drive
            return "driven"

        def observe(self, _deployment, driven):
            assert driven == "driven"

    def setitimer(_which, seconds, _interval=0.0):
        # No real timer: one sample lands as the timer is armed.
        if seconds:
            signal.raise_signal(signal.SIGPROF)
        return 0.0, 0.0

    monkeypatch.setattr(drive_calls, "_built", lambda *_: (Workload(), None))
    monkeypatch.setattr(drive_calls.signal, "setitimer", setitimer)
    samples, _cpu_seconds, inclusive, own = drive_calls.sample_drive("fake", 0, True)
    drive = (__file__, Workload.drive.__code__.co_firstlineno, "drive")
    assert samples == 1
    assert own == {drive: 1}
    assert inclusive[drive] == 1 and set(inclusive.values()) == {1}


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
    header, *rows, widths = first.stdout.splitlines()
    total, network = map(float, re.fullmatch(
        r"xshard_burst  seed=\d+  smoke=True  wire_bytes_per_tx=(\d+\.\d)  network=(\d+\.\d)",
        header,
    ).groups())
    assert total == network > 0
    # The binary fields by width: each field takes its width's text (quotes
    # included), so count and text bytes agree, and they fit in the total.
    assert widths.startswith("  binary fields by width  ")
    fields = {
        int(width): (float(count), float(text))
        for width, count, text in re.findall(
            r"  (\d+)B (\d+\.\d{3})/tx (\d+\.\d) B/tx", widths
        )
    }
    assert list(fields) == [12, 16, 20, 32, 65]
    # No 32-byte field is left on this drive: the last, a confirmation
    # item's tx id, travels as its first 8 bytes.
    assert fields[32] == (0.0, 0.0)
    for width, (count, text) in fields.items():
        assert count > 0 or width == 32, width
        assert text == pytest.approx(count * TEXT_BYTES[width], abs=0.1), width
    assert sum(text for _count, text in fields.values()) < total
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
        opcode = re.fullmatch(r"    ([a-z_/]+) +(\d+\.\d) B/tx +(\d+\.\d{3}) msgs/tx", row)
        assert opcode, row
        current[1] += float(opcode[2])
        link_name, opcode_name = list(links)[-1], opcode[1]
        opcode_row = (float(opcode[2]), float(opcode[3]))
    assert set(links) == {"client<->cell", "cell<->cell"}
    for link_bytes, opcode_bytes in links.values():
        assert opcode_bytes == pytest.approx(link_bytes, abs=0.1 * len(rows))
    assert sum(link_bytes for link_bytes, _ in links.values()) == pytest.approx(total, abs=0.2)
    assert "    tx_receipt" in first.stdout
    # A voucher transfer prints as its four legs, a row each.
    assert {opcode for _link, opcode in outside if opcode.startswith("xshard_voucher")} == {
        f"xshard_voucher/{leg}" for leg in ("mint", "minted", "redeem", "redeemed")
    }
    # The two list-carrying opcodes split into their items and the rest, and
    # the replies that carry a receipt into their receipts and the rest.
    assert set(split) == {
        ("cell<->cell", "tx_forward"), ("cell<->cell", "tx_confirm"),
        ("client<->cell", "tx_receipt"), ("client<->cell", "xshard_voucher/minted"),
        ("client<->cell", "xshard_voucher/redeemed"),
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


def _printed_bytes(workload):
    """``--bytes`` of the smoke ``workload`` at seed 2021, the same on a second run:
    per opcode row, (B/msg of data, B/msg outside data, B per item or receipt)."""
    command = [sys.executable, str(TOOL), "--smoke", "--bytes", "--workload", workload,
               "--seed", "2021"]
    first = subprocess.run(command, capture_output=True, text=True)
    assert first.returncode == 0, first.stderr
    assert subprocess.run(command, capture_output=True, text=True).stdout == first.stdout
    printed, opcode = {}, None
    for row in first.stdout.splitlines():
        named = re.fullmatch(r"    ([a-z_/]+) +\d+\.\d B/tx +\d+\.\d{3} msgs/tx", row)
        if named:
            opcode = named[1]
            printed[opcode] = [None, None, None]
        data = re.fullmatch(r" +(\d+\.\d) B/msg of data +(\d+\.\d) B/msg outside data", row)
        if data:
            printed[opcode][:2] = float(data[1]), float(data[2])
        carried = re.fullmatch(r" +\d+\.\d\d (?:item|receipt)s/msg +(\d+\.\d) B/.*", row)
        if carried:
            printed[opcode][2] = float(carried[1])
    return printed


#: A ratchet: the smoke ``burst_sim`` at seed 2021 as ``--bytes`` prints it.
#: A ``tx_receipt``, a ``tx_forward`` and a ``tx_confirm`` travel unsigned
#: and without their sender: B/msg outside the data field 172.9, 142.9 and
#: 142.9 (355.9, 325.9 and 325.8 with a signature, a nonce and the sender;
#: 196.8 for a confirmation while only its sender travelled).  A forward
#: item is 348.4 B (372.4 while it named its opcode, always ``tx_submit``).
#: A receipt is 375.4 B (375.5 before forwards shrank, which moved the
#: timestamps its result states; 427.5 while it named the co-signer that is
#: the consortium's other cell, 510.5 while it also carried the fingerprint
#: its client derives).  A field re-added to any of them fails here; a
#: change that moves them on purpose re-records them.
UNSIGNED_OUTSIDE_DATA = {"tx_receipt": 172.9, "tx_forward": 142.9, "tx_confirm": 142.9}
BYTES_PER_RECEIPT = 375.4
BYTES_PER_FORWARD_ITEM = 348.4


def test_bytes_pins_what_an_unsigned_receipt_and_confirmation_cost():
    printed = _printed_bytes("burst_sim")
    assert {
        opcode: printed[opcode][1] for opcode in UNSIGNED_OUTSIDE_DATA
    } == UNSIGNED_OUTSIDE_DATA
    assert printed["tx_receipt"][2] == BYTES_PER_RECEIPT
    assert printed["tx_forward"][2] == BYTES_PER_FORWARD_ITEM


#: A ratchet: the smoke ``xshard_burst`` at seed 2021 as ``--bytes`` prints
#: it, for the statements that travel as signatures their reader rebuilds.
#: A ``tx_confirm`` item is 132.9 B (180.8 while it named its transaction
#: by the whole 32-byte id rather than its first 8 bytes, 304.0 while it
#: also carried the fingerprint, status and timestamp its service cell
#: holds); a voucher leg, data and the rest, is 866.0 / 857.0 / 970.2 /
#: 744.9 B per message for mint / minted / redeem / redeemed (while the
#: voucher and the outer xtx travelled whole, the minted and redeem legs
#: carried the whole voucher); a receipt is 363.1 B on a ``tx_receipt`` and
#: 367.0 / 354.9 B on the minted / redeemed replies (each ~52 B more while
#: its co-signer was named).  The legs and receipts were 868.0 / 856.8 /
#: 972.0 / 744.2 and 362.4 / 367.0 / 354.2 B until confirmation items
#: shrank: shorter confirmations arrive sooner, and the timestamps these
#: state took other digits.  Sized as long as before, the same drive
#: prints the old figures.
BYTES_PER_CONFIRMATION = 132.9
BYTES_PER_VOUCHER_LEG = {
    "xshard_voucher/mint": 866.0, "xshard_voucher/minted": 857.0,
    "xshard_voucher/redeem": 970.2, "xshard_voucher/redeemed": 744.9,
}
BYTES_PER_XSHARD_RECEIPT = {
    "tx_receipt": 363.1, "xshard_voucher/minted": 367.0, "xshard_voucher/redeemed": 354.9,
}


def test_bytes_pins_what_compact_confirmations_vouchers_and_receipts_cost():
    printed = _printed_bytes("xshard_burst")
    assert printed["tx_confirm"][2] == BYTES_PER_CONFIRMATION
    assert {
        leg: round(printed[leg][0] + printed[leg][1], 1) for leg in BYTES_PER_VOUCHER_LEG
    } == BYTES_PER_VOUCHER_LEG
    assert {
        opcode: printed[opcode][2] for opcode in BYTES_PER_XSHARD_RECEIPT
    } == BYTES_PER_XSHARD_RECEIPT


#: A ratchet: the resync bundle of the smoke ``openloop_crash`` at seed
#: 2021 as ``--bytes`` prints it.  Its victim is excluded, crashes and
#: rejoins in one round, and the donor retains the snapshot the victim
#: names: no snapshot travels (the bundle carried a 24,403 B one, and 21
#: entries of 915.5 B each, while every first sync shipped the donor's),
#: an entry past the snapshot travels in 513.8 B without the fields replay
#: derives, and an entry the victim held as its position in 138.0 B.
SYNC_BUNDLE_PARTS = {"snapshot": 0.0, "entry": 513.8, "reference": 138.0}


def test_bytes_splits_a_resync_bundle_into_snapshot_entries_and_references():
    command = [sys.executable, str(TOOL), "--smoke", "--bytes", "--workload", "openloop_crash",
               "--seed", "2021"]
    printed = subprocess.run(command, capture_output=True, text=True)
    assert printed.returncode == 0, printed.stderr
    [(messages, snapshot, shipped, entry, references, reference)] = re.findall(
        r"    cell_sync_state +\d+\.\d B/tx +(\d+\.\d{3}) msgs/tx\n.*\n"
        r" +(\d+\.\d) B/msg of snapshot +(\d+\.\d\d) shipped entries/msg +(\d+\.\d) B/entry"
        r" +(\d+\.\d\d) references/msg +(\d+\.\d) B/reference\n",
        printed.stdout,
    )
    assert float(messages) > 0 and float(shipped) > 0 and float(references) > 0
    assert {
        "snapshot": float(snapshot), "entry": float(entry), "reference": float(reference)
    } == SYNC_BUNDLE_PARTS


#: A ratchet: receipt-family constructions per transaction of the smoke
#: drives at seed 2021 once the client checks its receipt, which rebuilds
#: one ``Confirmation`` per co-signer (16.30 and 21.81; 14.23 and 19.60
#: before; 16.30 and 21.81 with a reply wrapper around the compact
#: receipt, 19.40 and 26.41 before the service cell built its receipt in
#: the form it sends), rounded up to 0.1.  ``xshard_burst`` 22.60 once the
#: sharded client checks the inner receipts of its voucher legs too.  14.23
#: and 19.56 once a receipt's check reads each co-signer's signed bytes
#: without building its ``Confirmation`` (16.30 and 22.62 before, the
#: latter with one confirmation batch more than 22.60 counted: confirmation
#: items that name their transaction by 8 bytes of its id arrive sooner,
#: and the drive's 57 batches split its items otherwise than its 56 did).
RECEIPT_FAMILY_PER_TX = {"burst_sim": 14.3, "xshard_burst": 19.6}
RECEIPT_FAMILY = {
    "Confirmation", "LinkConfirmation", "ConfirmationBatch", "CoSigner", "AggregatedReceipt",
    "CompactReceipt",
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
