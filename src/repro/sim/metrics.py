"""Measurement utilities: counters, sample series, percentiles, CDFs.

Every experiment in the benchmark harness reports through these classes so
the output format (p50/p90/p99, CDF series, throughput) is uniform across
Figures 8–10 and the ablations.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence


class MetricsError(ValueError):
    """Raised for invalid metric queries."""


class SampleSeries:
    """An append-only series of numeric samples with percentile queries."""

    def __init__(self, name: str = "series") -> None:
        self.name = name
        self._values: list[float] = []
        self._sorted: list[float] | None = None

    def add(self, value: float) -> None:
        """Record one sample."""
        self._values.append(float(value))
        self._sorted = None

    def extend(self, values: Iterable[float]) -> None:
        """Record many samples."""
        for value in values:
            self.add(value)

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    @property
    def values(self) -> list[float]:
        """All recorded samples, in insertion order."""
        return list(self._values)

    def _ensure_sorted(self) -> list[float]:
        if self._sorted is None:
            self._sorted = sorted(self._values)
        return self._sorted

    def min(self) -> float:
        """Smallest sample."""
        self._require_data()
        return self._ensure_sorted()[0]

    def max(self) -> float:
        """Largest sample."""
        self._require_data()
        return self._ensure_sorted()[-1]

    def mean(self) -> float:
        """Arithmetic mean."""
        self._require_data()
        return sum(self._values) / len(self._values)

    def stdev(self) -> float:
        """Population standard deviation."""
        self._require_data()
        mean = self.mean()
        return math.sqrt(sum((v - mean) ** 2 for v in self._values) / len(self._values))

    def percentile(self, fraction: float) -> float:
        """Linear-interpolated percentile; ``fraction`` in [0, 1]."""
        self._require_data()
        if not (0.0 <= fraction <= 1.0):
            raise MetricsError("percentile fraction must be within [0, 1]")
        ordered = self._ensure_sorted()
        if len(ordered) == 1:
            return ordered[0]
        position = fraction * (len(ordered) - 1)
        lower = int(math.floor(position))
        upper = int(math.ceil(position))
        if lower == upper:
            return ordered[lower]
        weight = position - lower
        return ordered[lower] * (1 - weight) + ordered[upper] * weight

    def p50(self) -> float:
        """Median."""
        return self.percentile(0.50)

    def p90(self) -> float:
        """90th percentile — the statistic the paper quotes for Fig. 8."""
        return self.percentile(0.90)

    def p99(self) -> float:
        """99th percentile."""
        return self.percentile(0.99)

    def fraction_below(self, threshold: float) -> float:
        """Fraction of samples strictly below ``threshold``.

        ``bisect_left`` keeps samples equal to the threshold out of the
        count, matching the documented strict inequality (this statistic
        feeds the Fig. 8 CDF claims, where boundary values are common).
        """
        self._require_data()
        ordered = self._ensure_sorted()
        return bisect_left(ordered, threshold) / len(ordered)

    def cdf(self, points: int = 50) -> list[tuple[float, float]]:
        """An empirical CDF as ``(value, cumulative_fraction)`` pairs."""
        self._require_data()
        ordered = self._ensure_sorted()
        total = len(ordered)
        if points < 2:
            raise MetricsError("a CDF needs at least two points")
        series = []
        for index in range(points):
            fraction = index / (points - 1)
            value = self.percentile(fraction)
            series.append((value, fraction))
        # Ensure the final point covers the maximum sample exactly.
        series[-1] = (ordered[-1], 1.0)
        return series

    def summary(self) -> dict[str, float]:
        """A dictionary of the common summary statistics."""
        self._require_data()
        return {
            "count": float(len(self._values)),
            "min": self.min(),
            "mean": self.mean(),
            "p50": self.p50(),
            "p90": self.p90(),
            "p99": self.p99(),
            "max": self.max(),
        }

    def _require_data(self) -> None:
        if not self._values:
            raise MetricsError(f"series {self.name!r} has no samples")


@dataclass
class ThroughputResult:
    """Outcome of a burst experiment: N operations over a makespan."""

    operations: int
    first_start: float
    last_end: float

    @property
    def makespan(self) -> float:
        """Seconds between the first submission and the last completion."""
        return self.last_end - self.first_start

    @property
    def throughput(self) -> float:
        """Operations per second over the makespan."""
        if self.makespan <= 0:
            return float("inf")
        return self.operations / self.makespan


class MetricsRegistry:
    """A named collection of counters and sample series."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = defaultdict(float)
        self._series: dict[str, SampleSeries] = {}

    def increment(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the counter ``name``."""
        self.counters[name] += amount

    def counter(self, name: str) -> float:
        """Read a counter (0 if never incremented)."""
        return self.counters.get(name, 0.0)

    def series(self, name: str) -> SampleSeries:
        """Get (or create) the sample series ``name``."""
        if name not in self._series:
            self._series[name] = SampleSeries(name)
        return self._series[name]


def format_seconds(value: float) -> str:
    """Human-friendly rendering of a duration."""
    if value < 1e-3:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def ascii_cdf(series: SampleSeries, width: int = 52, height: int = 12) -> str:
    """Render an ASCII CDF plot, used by the figure-reproduction benches."""
    points = series.cdf(points=width)
    low = points[0][0]
    high = points[-1][0]
    span = max(high - low, 1e-12)
    rows = []
    for row in range(height, 0, -1):
        threshold = row / height
        line = []
        for value, fraction in points:
            line.append("#" if fraction >= threshold else " ")
        rows.append(f"{threshold:4.2f} |" + "".join(line))
    axis = "     +" + "-" * width
    labels = f"      {format_seconds(low)}" + " " * max(1, width - 18) + format_seconds(high)
    return "\n".join(rows + [axis, labels])


def ascii_bars(rows: Sequence[tuple[str, float]], width: int = 40, unit: str = "") -> str:
    """Render labelled horizontal bars (used for Fig. 10-style charts)."""
    if not rows:
        return "(no data)"
    peak = max(value for _label, value in rows) or 1.0
    lines = []
    label_width = max(len(label) for label, _value in rows)
    for label, value in rows:
        bar = "#" * max(1, int(round(width * value / peak)))
        lines.append(f"{label.ljust(label_width)} | {bar} {value:,.1f}{unit}")
    return "\n".join(lines)
