"""``python bench/run.py compare A.json B.json``.

One row per end-to-end metric and workload: both values, the ratio with
its base, and a verdict against the metric's bound in ``BENCHMARK.json``
— ``same``, ``better``, ``worse``, or ``unresolved`` when the spread of
the samples behind either value is wider than the bound, so the
difference cannot be told from noise.  The first line says whether every
simulated-clock metric, count and ``sim_digest`` is identical: a change
meant only to make the Python faster must leave all of them untouched.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from . import manifest

#: Per-layer metrics taken on the host clock; every other one is exact.
_HOST_PREFIXES = ("host.", "trace.attributed_share", "trace.overhead_ratio")
_HOST_SUFFIX = ".self_us_per_tx"
#: End-to-end metrics taken on the host clock.
HOST_END_TO_END = ("host_us_per_tx", "peak_rss_mb", "setup_s")


def is_exact(name: str) -> bool:
    """Whether a metric repeats exactly on an unchanged program."""
    return not (
        name in HOST_END_TO_END
        or name.startswith(_HOST_PREFIXES)
        or name.endswith(_HOST_SUFFIX)
    )


def load_records(path: str) -> dict[tuple[str, int], dict[str, Any]]:
    """(workload, trace) -> record, from an ``--out`` file or one record."""
    data = json.loads(Path(path).read_text())
    records = data["records"] if "records" in data else [data]
    return {(record["workload"], record["trace"]): record for record in records}


def exact_differences(a: dict, b: dict) -> list[str]:
    """Names of exact quantities that differ between two sets of records."""
    differing = []
    for key in sorted(set(a) & set(b)):
        first, second = a[key], b[key]
        label = f"{key[0]}{'/traced' if key[1] else ''}"
        if first["sim_digest"] != second["sim_digest"]:
            differing.append(f"{label}:sim_digest")
        differing.extend(
            f"{label}:{name}"
            for name, metric in first["metrics"].items()
            if is_exact(name) and metric["value"] != second["metrics"][name]["value"]
        )
    return differing


def verdict(declared: dict[str, Any], a: float, b: float, spread: float) -> str:
    bound = declared["bound"]
    if spread > bound:
        return "unresolved"
    change = (b - a) / a
    if declared["better"] == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def render(a_path: str, b_path: str) -> tuple[str, bool]:
    """The comparison as text, and whether any row is ``worse``."""
    a, b = load_records(a_path), load_records(b_path)
    declared = manifest.load()
    differing = exact_differences(a, b)
    lines = [
        "sim-clock metrics, counts and digests: "
        + ("identical" if not differing else f"DIFFER ({', '.join(differing)})"),
        f"A = {a_path}   B = {b_path}",
        f"{'workload':<16}{'metric':<20}{'A':>14}{'B':>14}{'B/A':>9}{'bound':>8}  verdict",
    ]
    any_worse = False
    for workload in (w["name"] for w in declared["workloads"]):
        if (workload, 0) not in a or (workload, 0) not in b:
            continue
        first, second = a[(workload, 0)], b[(workload, 0)]
        for metric in declared["end_to_end"]:
            name = metric["name"]
            x = first["metrics"][name]["value"]
            y = second["metrics"][name]["value"]
            spread = max(first["spread"].get(name, 0.0), second["spread"].get(name, 0.0))
            outcome = verdict(metric, x, y, spread)
            any_worse |= outcome == "worse"
            lines.append(
                f"{workload:<16}{name:<20}{x:>14.4f}{y:>14.4f}{y / x:>9.4f}"
                f"{metric['bound']:>8.3f}  {outcome}"
                + (f" (spread {spread:.1%})" if outcome == "unresolved" else "")
            )
    return "\n".join(lines), any_worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python bench/run.py compare A.json B.json", file=sys.stderr)
        return 2
    text, any_worse = render(*argv)
    print(text)
    return 1 if any_worse else 0
