"""Scenario reports: the reproduction recipe of one chaos run.

A :class:`ScenarioReport` is what the chaos engine leaves behind — for a
passing run, the oracle verdicts and coverage counters; for a failing
run, everything needed to reproduce and debug it with one command: the
seed, the full (possibly shrunk) scenario spec, and the per-oracle
findings.  Reports are plain JSON so CI can upload them as artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional


@dataclass
class ScenarioReport:
    """Outcome of running one scenario against the oracle stack."""

    seed: int
    spec: dict[str, Any]
    passed: bool
    #: Per-oracle verdicts (OracleResult.to_data() dicts), in run order.
    oracles: list[dict[str, Any]] = field(default_factory=list)
    #: Coverage counters (operations, committed set, fault events, ...).
    stats: dict[str, Any] = field(default_factory=dict)
    #: The minimal failing spec, when a failing scenario was shrunk.
    shrunk_spec: Optional[dict[str, Any]] = None
    #: Whether ``spec`` is exactly what ``sample_scenario(seed)`` yields.
    #: False for hand-modified or shrunk specs — their seed alone does
    #: not reproduce them, the embedded spec JSON does.
    sampled: bool = True
    #: Where this report was persisted (stamped by :meth:`write`), so
    #: the replay command of a non-sampled spec names a real file.
    report_path: Optional[str] = None

    @property
    def replay_command(self) -> str:
        """The one command that reproduces this run."""
        if self.sampled:
            return f"python -m repro.chaos replay {self.seed}"
        target = self.report_path or f"scenario-{self.seed}.json"
        return f"python -m repro.chaos replay --spec {target}"

    def findings(self) -> list[str]:
        """Every finding of every failed oracle, flattened."""
        return [
            finding
            for result in self.oracles
            if not result["passed"]
            for finding in result["findings"]
        ]

    def to_data(self) -> dict[str, Any]:
        """JSON-serializable form."""
        data = {
            "seed": self.seed,
            "passed": self.passed,
            "sampled": self.sampled,
            "replay_command": self.replay_command,
            "spec": self.spec,
            "oracles": list(self.oracles),
            "stats": dict(sorted(self.stats.items())),
        }
        if self.shrunk_spec is not None:
            data["shrunk_spec"] = self.shrunk_spec
        if self.report_path is not None:
            data["report_path"] = self.report_path
        return data

    @classmethod
    def from_data(cls, data: dict[str, Any]) -> "ScenarioReport":
        """Inverse of :meth:`to_data`."""
        return cls(
            seed=int(data["seed"]),
            spec=dict(data["spec"]),
            passed=bool(data["passed"]),
            oracles=list(data.get("oracles", [])),
            stats=dict(data.get("stats", {})),
            shrunk_spec=data.get("shrunk_spec"),
            sampled=bool(data.get("sampled", True)),
            report_path=data.get("report_path"),
        )

    def to_json(self) -> str:
        """Pretty-printed JSON."""
        return json.dumps(self.to_data(), indent=2, sort_keys=True)

    def write(self, directory: str | Path) -> Path:
        """Persist under ``directory`` as ``scenario-<seed>.json``.

        The destination is stamped into :attr:`report_path` first, so
        the serialized ``replay_command`` points at the actual file.
        """
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        path = target / f"scenario-{self.seed}.json"
        self.report_path = str(path)
        path.write_text(self.to_json() + "\n")
        return path
