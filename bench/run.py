"""Entry point of the two-clock benchmark.

    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload in this process; the last line of standard output is
        the result object the driver reads (``--trace 0``: end-to-end
        metrics, ``--trace 1``: per-layer metrics)

    python bench/run.py [--seed N] [--seconds S] [--out FILE]
        every workload, untraced then traced, one fresh child process at
        a time; prints every metric by name with its unit

    python bench/run.py compare A.json B.json
        verdict per end-to-end metric and workload between two ``--out``
        files (or two result records)

Any violation of the correctness or determinism gate exits non-zero and
prints no metrics for that workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
# The same bootstrap as the repository's conftest.py, plus the root so
# that ``bench`` imports as a package when this file runs as a script.
for _entry in (ROOT / "src", ROOT):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

RESULTS_DIR = Path(__file__).resolve().parent / "results"
DEFAULT_SEED = 2021


def _record_path(record_id: str, trace: int) -> Path:
    return RESULTS_DIR / f"{record_id}.trace{trace}.json"


def _print_metrics(record: dict[str, Any]) -> None:
    spread = record["spread"]
    print(f"# {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
          f"run_id={record['run_id']}  repeats={record['repeats']}  "
          f"attempted={record['attempted']}  failed={record['failed']}  "
          f"latency_samples={record['latency_samples']}  sim_digest={record['sim_digest']}")
    for name, metric in record["metrics"].items():
        note = f"   (IQR {spread[name]:.1%} of median)" if name in spread else ""
        print(f"  {name:<42}{metric['value']:>18.6f} {metric['unit']}{note}")


def run_one(args: argparse.Namespace) -> int:
    """Measure one workload in this process (what the driver calls)."""
    started = time.process_time()
    try:
        from bench import measure, workloads
    except ImportError as exc:
        print(f"bench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    import_s = time.process_time() - started
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        record = measure.run_workload(
            workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            smoke=args.smoke,
            import_s=import_s,
        )
    except workloads.BenchFailure as exc:
        print(f"bench: gate violated: {exc}", file=sys.stderr)
        return 1
    RESULTS_DIR.mkdir(exist_ok=True)
    _record_path(record["run_id"], record["trace"]).write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    _print_metrics(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, one child at a time."""
    from bench import manifest, measure, workloads

    records = []
    for declared in manifest.load()["workloads"]:
        workload = workloads.WORKLOADS[declared["name"]]
        pair = []
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload.name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                command.append("--smoke")
            child = subprocess.run(command, stdout=subprocess.DEVNULL)
            if child.returncode != 0:
                print(f"bench: {workload.name} (trace {trace}) exited with "
                      f"{child.returncode}; no metrics", file=sys.stderr)
                return child.returncode
            path = _record_path(measure.run_id(workload, args.seed, args.smoke), trace)
            pair.append(json.loads(path.read_text()))
            _print_metrics(pair[-1])
        # The traced child is another process with another hash seed: its
        # run of sub-seed 0 must be the untraced child's, bit for bit.
        if pair[0]["sub_seeds"][0]["sim_digest"] != pair[1]["sub_seeds"][0]["sim_digest"]:
            print(f"bench: gate violated: {workload.name}: the traced child's "
                  "sim_digest differs from the untraced child's", file=sys.stderr)
            return 1
        records.extend(pair)
    if args.out is not None:
        Path(args.out).write_text(json.dumps(
            {"commit": _commit(), "seed": args.seed, "seconds": args.seconds,
             "records": records},
            indent=1, sort_keys=True) + "\n")
        print(f"[written to {args.out}]")
    return 0


def _commit() -> Optional[str]:
    """The commit the program under test is at, where git can tell."""
    try:
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return found.stdout.strip() if found.returncode == 0 else None


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from bench import compare

        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only, in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--out", help="write the whole set of records to this file")
    args = parser.parse_args(argv)
    if args.seconds is None:
        from bench import manifest

        args.seconds = float(manifest.load()["run_seconds"])
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
