"""Equality goldens of the chaos engine, recorded by the pre-table code.

``golden_faults.json`` was written by this module run against the commit
*before* the fault kinds moved into the ``FaultKind`` table
(``PYTHONPATH=<parent>/src python tests/chaos/goldens.py <repo root>``,
with the exercised seeds written out: that commit had no
``EXERCISED_SEEDS``).  It pins what a behaviour-preserving rewrite of the
fault machinery must not move:

* ``specs`` — a digest of ``sample_scenario(seed).to_data()`` for seeds
  0–499 and of ``sample_byzantine_scenario(seed).to_data()`` for seeds
  0–47 (the RNG draw order of both samplers);
* ``runs`` — per pinned seed, a digest of the ``fault_log`` (times,
  action strings, details) and of the run's artifacts;
* ``search`` — the covered-tuple count and ``new_tuples_by_iteration`` of
  the search at its pinned budget.

Never re-record it from the current tree to make a test pass: a moved
digest means a sampler draw, an action string or an artifact moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any

GOLDEN_PATH = Path(__file__).with_name("golden_faults.json")

RECOVERABLE_SPEC_SEEDS = range(500)
BYZANTINE_SPEC_SEEDS = range(48)


def _plain(value: Any) -> Any:
    """A JSON-able, order-stable copy (tuples → lists, any key → str)."""
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    return value


def digest(value: Any) -> str:
    """64 bits of SHA-256 over the canonical JSON of ``value``."""
    encoded = json.dumps(_plain(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()[:16]


def run_digests(run: Any) -> list[str]:
    """``[fault_log digest, artifacts digest]`` of one scenario run."""
    return [digest(run.fault_log), digest(run.artifacts)]


def spec_digests() -> dict[str, dict[str, str]]:
    from repro.chaos import sample_byzantine_scenario, sample_scenario

    return {
        "recoverable": {
            str(seed): digest(sample_scenario(seed).to_data())
            for seed in RECOVERABLE_SPEC_SEEDS
        },
        "byzantine": {
            str(seed): digest(sample_byzantine_scenario(seed).to_data())
            for seed in BYZANTINE_SPEC_SEEDS
        },
    }


def load() -> dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


def record() -> dict[str, Any]:
    from repro.chaos import (
        EXERCISED_SEEDS,
        byzantine_corpus_seeds,
        corpus_seeds,
        run_scenario,
        run_search,
        sample_byzantine_scenario,
        sample_scenario,
    )
    from repro.chaos.search import PINNED_SEARCH_BUDGET

    search = run_search(PINNED_SEARCH_BUDGET)
    return {
        "specs": spec_digests(),
        "runs": {
            "recoverable": {
                str(seed): run_digests(run_scenario(sample_scenario(seed)))
                for seed in (*corpus_seeds(), *EXERCISED_SEEDS)
            },
            "byzantine": {
                str(seed): run_digests(run_scenario(sample_byzantine_scenario(seed)))
                for seed in byzantine_corpus_seeds()
            },
        },
        "search": {
            "budget": PINNED_SEARCH_BUDGET,
            "tuples": len(search.coverage),
            "new_tuples_by_iteration": [entry.new_tuples for entry in search.entries],
        },
    }


if __name__ == "__main__":
    target = Path(sys.argv[1]) / "tests" / "chaos" / "golden_faults.json"
    target.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"recorded {target}")
