#!/usr/bin/env python3
"""Count the Python-level calls of one benchmark drive.

The host clock of the shared box cannot resolve a change of a few per cent
(ROADMAP finding (b)); the number of Python-level calls one ``drive`` makes
can: it is a pure function of the workload and the seed, so it repeats to
the digit and a parent/change pair compares as two integers.

    python tools/drive_calls.py [--workload NAME] [--seed N] [--smoke] [--sample]

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
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import FrameType, CodeType
from typing import Optional

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


def _built(workload_name: str, seed: int, smoke: bool) -> tuple[object, object]:
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
    parser.add_argument("--sample", action="store_true",
                        help="print sampled CPU shares by function instead of call counts")
    args = parser.parse_args(argv)
    if args.workload is None:
        for name in workloads.WORKLOADS:
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed)]
            child = subprocess.run(
                command + ["--smoke"] * args.smoke + ["--sample"] * args.sample
            )
            if child.returncode != 0:
                return child.returncode
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
