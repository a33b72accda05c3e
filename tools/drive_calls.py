#!/usr/bin/env python3
"""Count the Python-level calls of one benchmark drive.

The host clock of the shared box cannot resolve a change of a few per cent
(ROADMAP finding (b)); the number of Python-level calls one ``drive`` makes
can: it is a pure function of the workload and the seed, so it repeats to
the digit and a parent/change pair compares as two integers.

    python tools/drive_calls.py [--workload NAME] [--seed N] [--smoke]
                                [--sample | --bytes | --objects]

builds the workload exactly as ``bench/run.py`` does (``bench.workloads``
is imported, nothing under ``bench/`` is edited), profiles the one
``drive`` call with :mod:`cProfile` and prints the total plus the functions
and files that make the most calls.  Without ``--workload`` every workload
is counted, each in a child process of its own: the process-wide memos a
first drive fills would otherwise make the second one cheaper.  A count
says nothing about waiting or about work inside native code; it ranks
candidates and proves "no more calls than before", and ``bench/run.py``
measures what a user pays.

``--sample`` answers "where does the time go" instead: it runs the drive
without a profiler, takes a stack sample on every millisecond of process
CPU time (``ITIMER_PROF``), and prints each function's *inclusive* share
(samples with it anywhere on the stack) and *self* share (samples with it
on top; a builtin's time is its Python caller's).  cProfile's per-call
overhead inflates functions that make many small calls, so it misranks
the hot path; a sampler does not.  Sample shares are readings of a clock:
they move a little from run to run, unlike the call count.

``--bytes`` attributes the benchmark's ``wire_bytes_per_tx`` instead: it
wraps ``Endpoint.post`` on the class, from outside and for the build and
the drive (every message leaves a node there), and prints the bytes and
messages per transaction of each opcode, split into client<->cell and
cell<->cell traffic.  Bytes include the network's framing, so the total is
the benchmark's figure; like the call count it repeats to the digit.  For
the two opcodes that carry a list of items (``tx_forward``: client
envelopes, ``tx_confirm``: confirmations) a second line splits a message
into its items and the rest: items per message, canonical-JSON bytes per
item, and the bytes per message that are not items (envelope, signature,
network framing).  The replies that can carry a receipt (``tx_receipt``,
``xshard_vote``, ``xshard_voucher``) get the same line for their receipts.
Every opcode also gets a line that splits a message into its data field
(canonical-JSON bytes of ``D``) and the rest: the envelope header, the
signature and the network framing, which are what a change to the envelope
itself moves.

``--objects`` counts what the drive builds: it wraps, from outside and for
the drive alone, the ``__init__`` of every dataclass declared in
:mod:`repro.core.receipts` and :mod:`repro.core.replies`, and of ``Payload``
and ``Envelope``, and prints the constructions per transaction of each.
The *receipt family* is every class of ``core/receipts.py`` plus
``ReceiptReply``: the objects one transaction's receipt is held in on its
way from the co-signing cells to the client.  A decoder that builds an
object builds it through ``__init__``, so decoded objects count too.  Like
the call count it repeats to the digit.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import gc
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import FrameType, CodeType
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
for _entry in (ROOT / "src", ROOT):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

DEFAULT_SEED = 2021
TOP = 15
#: Process CPU seconds between two stack samples of ``--sample``.
SAMPLE_INTERVAL = 0.001

#: (file, line, function) -> calls, as :mod:`pstats` keys them.
CallCounts = dict[tuple[str, int, str], int]


def _built(workload_name: str, seed: int, smoke: bool) -> tuple[Any, Any]:
    """The workload and a freshly built deployment of it, memos cold."""
    from bench import workloads
    from repro.messages.signer import SimulatedSigner

    workload = workloads.WORKLOADS[workload_name]
    gc.collect()
    if not smoke:
        # As bench/measure.py: a full-size drive starts with cold memos.  A
        # smoke drive may share its process with a test suite whose
        # module-level signers must stay registered.
        SimulatedSigner.clear_registry()
    return workload, workload.build(seed, smoke)


def count_drive_calls(workload_name: str, seed: int, smoke: bool) -> tuple[int, CallCounts]:
    """Total Python-level calls of one ``drive``, and the calls per function."""
    workload, deployment = _built(workload_name, seed, smoke)
    profile = cProfile.Profile()
    profile.enable()
    try:
        driven = workload.drive(deployment, smoke)
    finally:
        profile.disable()
    workload.observe(deployment, driven)  # the correctness gate of the benchmark
    # Summed from the raw entries, one per code object.  ``pstats`` keys them
    # by (file, line, name) and lets one entry *overwrite* another with the
    # same key -- every dataclass ``__init__`` is ``<string>:2(__init__)`` --
    # which loses calls and makes the total depend on memory layout.
    per_function: Counter[tuple[str, int, str]] = Counter()
    for entry in profile.getstats():
        per_function[cProfile.label(entry.code)] += entry.callcount
    return sum(per_function.values()), dict(per_function)


def sample_drive(
    workload_name: str, seed: int, smoke: bool
) -> tuple[int, float, CallCounts, CallCounts]:
    """``ITIMER_PROF`` stack samples of one ``drive``.

    Returns (samples, CPU seconds of the drive, inclusive and self samples
    per function).  The kernel may deliver the timer more coarsely than
    asked; samples / CPU seconds is the rate it achieved.  Frames of this
    tool (the caller of ``drive``) are left out, so a share is of the drive
    alone.  A function on the stack twice counts once in a sample's
    inclusive tally.
    """
    workload, deployment = _built(workload_name, seed, smoke)
    inclusive: Counter[tuple[str, int, str]] = Counter()
    own: Counter[tuple[str, int, str]] = Counter()
    samples = 0
    here = sample_drive.__code__.co_filename

    def on_sample(_signum: int, frame: Optional[FrameType]) -> None:
        nonlocal samples
        seen: set[CodeType] = set()
        top = True
        while frame is not None:
            code = frame.f_code
            frame = frame.f_back
            if code.co_filename == here:
                continue
            if top:
                own[cProfile.label(code)] += 1
                top = False
            if code not in seen:
                seen.add(code)
                inclusive[cProfile.label(code)] += 1
        samples += 1

    previous = signal.signal(signal.SIGPROF, on_sample)
    started = time.process_time()
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
    try:
        driven = workload.drive(deployment, smoke)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        cpu_seconds = time.process_time() - started
        signal.signal(signal.SIGPROF, previous)
    workload.observe(deployment, driven)
    return samples, cpu_seconds, dict(inclusive), dict(own)


#: (link, opcode) -> [bytes, messages, items, item bytes, data bytes]; the
#: link is "client<->cell" or "cell<->cell".
Traffic = dict[tuple[str, str], list[int]]

#: The opcodes whose data field carries items worth sizing apart: the key
#: of a list, or of one receipt (present only on replies that carry one).
CARRIED = {
    "tx_forward": "transactions", "tx_confirm": "confirmations",
    "tx_receipt": "receipt", "xshard_vote": "receipt", "xshard_voucher": "receipt",
}


def count_drive_bytes(workload_name: str, seed: int, smoke: bool) -> tuple[int, int, Traffic]:
    """Transactions attempted, network bytes and the traffic by link and opcode of one run."""
    from repro.encoding.canonical_json import dump_bytes
    from repro.messages.endpoint import Endpoint

    #: (source node, destination node, opcode) -> [bytes, messages, items, item bytes, data bytes]
    sent: dict[tuple[str, str, str], list[int]] = {}
    post = Endpoint.post

    def counted_post(endpoint: Any, dst_node: str, envelope: Any) -> bool:
        delivered = post(endpoint, dst_node, envelope)
        if delivered:
            opcode = envelope.operation.value
            tally = sent.setdefault((endpoint.node_name, dst_node, opcode), [0, 0, 0, 0, 0])
            tally[0] += endpoint.network.wire_size(envelope.byte_size())
            tally[1] += 1
            tally[4] += len(dump_bytes(envelope.data))
            key = CARRIED.get(opcode)
            carried = None if key is None else envelope.data.get(key)
            if carried is not None:
                items = carried if type(carried) is list else [carried]
                tally[2] += len(items)
                tally[3] += sum(len(dump_bytes(item)) for item in items)
        return delivered

    setattr(Endpoint, "post", counted_post)
    try:
        workload, deployment = _built(workload_name, seed, smoke)
        driven = workload.drive(deployment, smoke)
    finally:
        setattr(Endpoint, "post", post)
    observed = workload.observe(deployment, driven)
    groups = getattr(deployment, "groups", None)
    deployments = [group.deployment for group in groups] if groups else [deployment]
    cells = {cell.node_name for each in deployments for cell in each.cells}
    traffic: Traffic = {}
    for (src, dst, opcode), counts in sent.items():
        link = "cell<->cell" if src in cells and dst in cells else "client<->cell"
        tally = traffic.setdefault((link, opcode), [0, 0, 0, 0, 0])
        for index, count in enumerate(counts):
            tally[index] += count
    return observed.attempted, observed.wire_bytes, traffic


def _print_bytes(workload_name: str, seed: int, smoke: bool) -> None:
    attempted, network_bytes, traffic = count_drive_bytes(workload_name, seed, smoke)
    counted = sum(counts[0] for counts in traffic.values())
    print(f"{workload_name}  seed={seed}  smoke={smoke}  wire_bytes_per_tx="
          f"{counted / attempted:.1f}  network={network_bytes / attempted:.1f}")
    for link in ("client<->cell", "cell<->cell"):
        rows = sorted(
            ((counts, opcode) for (kind, opcode), counts in traffic.items() if kind == link),
            key=lambda row: (-row[0][0], row[1]),
        )
        size = sum(counts[0] for counts, _ in rows)
        count = sum(counts[1] for counts, _ in rows)
        print(f"  {link:<22}{size / attempted:>10.1f} B/tx  {count / attempted:>7.3f} msgs/tx")
        for (size, count, items, item_bytes, data_bytes), opcode in rows:
            print(f"    {opcode:<20}{size / attempted:>10.1f} B/tx"
                  f"  {count / attempted:>7.3f} msgs/tx")
            print(f"      {data_bytes / count:>7.1f} B/msg of data"
                  f"  {(size - data_bytes) / count:>7.1f} B/msg outside data")
            if items:
                item = "receipt" if CARRIED[opcode] == "receipt" else "item"
                print(f"      {items / count:>7.2f} {item}s/msg  {item_bytes / items:>7.1f} B/{item}"
                      f"  {(size - item_bytes) / count:>7.1f} B/msg besides the {item}s")


def _counted_classes() -> tuple[list[type], set[type]]:
    """The classes ``--objects`` counts, and those of them that make up the receipt family."""
    from repro.core import receipts, replies
    from repro.messages.envelope import Envelope
    from repro.messages.payload import Payload

    declared = {
        module: [
            value for value in vars(module).values()
            if isinstance(value, type) and dataclasses.is_dataclass(value)
            and value.__module__ == module.__name__
        ]
        for module in (receipts, replies)
    }
    family = {*declared[receipts], replies.ReceiptReply}
    return [*declared[receipts], *declared[replies], Payload, Envelope], family


def count_drive_objects(workload_name: str, seed: int, smoke: bool) -> tuple[int, Counter[type]]:
    """Transactions attempted, and the constructions of each counted class in one drive."""
    classes = _counted_classes()[0]
    built: Counter[type] = Counter()

    def counting(cls: type, init: Any) -> Any:
        def counted_init(self: Any, *args: Any, **kwargs: Any) -> None:
            built[cls] += 1
            init(self, *args, **kwargs)
        return counted_init

    workload, deployment = _built(workload_name, seed, smoke)
    originals = {cls: cls.__dict__["__init__"] for cls in classes}
    for cls, init in originals.items():
        setattr(cls, "__init__", counting(cls, init))
    try:
        driven = workload.drive(deployment, smoke)
    finally:
        for cls, init in originals.items():
            setattr(cls, "__init__", init)
    observed = workload.observe(deployment, driven)
    return observed.attempted, built


def _print_objects(workload_name: str, seed: int, smoke: bool) -> None:
    attempted, built = count_drive_objects(workload_name, seed, smoke)
    classes, family = _counted_classes()
    in_family = sum(built[cls] for cls in family)
    print(f"{workload_name}  seed={seed}  smoke={smoke}"
          f"  receipt_family_per_tx={in_family / attempted:.2f}")
    for cls in sorted(classes, key=lambda cls: (-built[cls], cls.__name__)):
        marker = "receipt family" if cls in family else ""
        print(f"  {built[cls] / attempted:>8.2f}  {cls.__name__:<22}{marker}".rstrip())


def _file_of(path: str) -> str:
    if path == "~":
        return "(builtins)"
    try:
        return str(Path(path).resolve().relative_to(ROOT))
    except ValueError:
        return f"(stdlib) {Path(path).name}"


def _where(function: tuple[str, int, str]) -> str:
    path, line, name = function
    # A builtin is all name: "<built-in method builtins.isinstance>".
    return name if path == "~" else f"{_file_of(path)}:{line}({name})"


def main(argv: Optional[list[str]] = None) -> int:
    from bench import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="count this workload in this process (default: each in a child)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--smoke", action="store_true", help="the benchmark's --smoke sizes")
    shown = parser.add_mutually_exclusive_group()
    shown.add_argument("--sample", action="store_true",
                       help="print sampled CPU shares by function instead of call counts")
    shown.add_argument("--bytes", action="store_true",
                       help="print wire bytes and messages per transaction by opcode instead")
    shown.add_argument("--objects", action="store_true",
                       help="print receipt, reply and envelope constructions per transaction")
    args = parser.parse_args(argv)
    if args.workload is None:
        for name in workloads.WORKLOADS:
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed)]
            child = subprocess.run(
                command + ["--smoke"] * args.smoke + ["--sample"] * args.sample
                + ["--bytes"] * args.bytes + ["--objects"] * args.objects
            )
            if child.returncode != 0:
                return child.returncode
        return 0
    if args.bytes:
        _print_bytes(args.workload, args.seed, args.smoke)
        return 0
    if args.objects:
        _print_objects(args.workload, args.seed, args.smoke)
        return 0
    if args.sample:
        samples, cpu_seconds, inclusive, own = sample_drive(args.workload, args.seed, args.smoke)
        print(f"{args.workload}  seed={args.seed}  smoke={args.smoke}  samples={samples}"
              f"  cpu_s={cpu_seconds:.3f}  interval_ms={SAMPLE_INTERVAL * 1e3:g}")
        share = {name: Counter({function: 100 * hits / max(samples, 1)
                                for function, hits in tally.items()})
                 for name, tally in (("inclusive", inclusive), ("self", own))}
        for title, ranked in share.items():
            print(f"  {'inclusive':>9}  {'self':>6}  function (top {TOP} by {title} share)")
            for function, _ in ranked.most_common(TOP):
                print(f"  {share['inclusive'][function]:>8.1f}%  {share['self'][function]:>5.1f}%"
                      f"  {_where(function)}")
        return 0
    total, per_function = count_drive_calls(args.workload, args.seed, args.smoke)
    print(f"{args.workload}  seed={args.seed}  smoke={args.smoke}  python_calls={total}")
    for function, calls in Counter(per_function).most_common(TOP):
        print(f"  {calls:>10}  {_where(function)}")
    per_file: Counter[str] = Counter()
    for function, calls in per_function.items():
        per_file[_file_of(function[0])] += calls
    print("  by file:")
    for file, calls in per_file.most_common(TOP):
        print(f"  {calls:>10}  {file}")
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``| head``): that is not a failure.  Point
        # stdout at /dev/null so the interpreter's last flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    sys.exit(status)
