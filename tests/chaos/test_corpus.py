"""The pinned chaos corpus: every seeded scenario passes the oracle stack.

This is the acceptance gate of the chaos engine: seeds ``0..N-1``
(stratified over shards {1,2,4} × lanes {1,4} × batching {on,off} and
the seven recoverable fault kinds — crashes, rejoins, standby
activations, censor/delay windows, healing partitions, clock skew) each
run through :func:`repro.chaos.check_scenario` —
value conservation, differential equality against the serial/unsharded/
unbatched reference, bit-for-bit same-seed replay, and the full
per-group audit + shard-digest verification.  A failing scenario writes
its :class:`ScenarioReport` (seed + spec + findings) to the report
directory so CI can upload it as an artifact; the report's
``replay_command`` reproduces the failure locally in one line.

Each run is also held against the ``(fault_log, artifacts)`` digests the
pre-table code recorded (``tests/chaos/goldens.py``), and the kinds that
provably *fired* are tallied: once the whole pinned corpus has run, every
kind whose table row names evidence must have fired in at least three
scenarios — a scheduled fault that never fires is not coverage.

Scale with ``pytest --chaos-budget N`` (see tests/chaos/conftest.py).
"""

from collections import Counter

import pytest

from repro.chaos import EXERCISED_SEEDS, check_scenario, corpus_seeds, sample_scenario
from repro.chaos.report import ScenarioReport
from repro.chaos.runner import fired_kinds
from repro.core.faults import FAULT_TABLE, Family

from tests.chaos import goldens
from tests.chaos.conftest import REPORT_DIR

GOLDEN_RUNS = goldens.load()["runs"]["recoverable"]

#: seed -> the kinds that fired in its scenario, filled as the corpus runs.
FIRED: dict[int, set[str]] = {}


def test_scenario_passes_all_oracles(chaos_seed):
    spec = sample_scenario(chaos_seed)
    run, results = check_scenario(spec)
    failed = [result for result in results if not result.passed]
    if failed:
        report = ScenarioReport(
            seed=chaos_seed,
            spec=spec.to_data(),
            passed=False,
            oracles=[result.to_data() for result in results],
            stats={"fault_events": len(run.fault_log)},
        )
        path = report.write(REPORT_DIR)
        details = "; ".join(
            f"{result.oracle}: {result.findings[:2]}" for result in failed
        )
        raise AssertionError(
            f"scenario {chaos_seed} failed oracles [{details}] — "
            f"report: {path}; reproduce with: {report.replay_command}"
        )
    # Replay + audit + conservation + differential all ran.
    assert {result.oracle for result in results} == {
        "conservation",
        "differential",
        "replay",
        "audit",
    }
    # Every scheduled fault actually fired (the FaultSchedule validation
    # promise: nothing silently targets a ghost and never fires).
    injected = {(f["kind"], f["group"], f["cell"]) for f in run.fault_log}
    scheduled = {(f.kind, f.group, f.cell) for f in spec.faults}
    assert scheduled <= injected
    if str(chaos_seed) in GOLDEN_RUNS:
        assert goldens.run_digests(run) == GOLDEN_RUNS[str(chaos_seed)], (
            f"seed {chaos_seed}: [fault_log, artifacts] moved against the "
            f"goldens recorded before the fault table"
        )
    FIRED[chaos_seed] = fired_kinds(run)


def test_every_kind_with_evidence_fires_in_three_pinned_scenarios():
    pinned = {*corpus_seeds(), *EXERCISED_SEEDS}
    if not pinned <= set(FIRED):
        pytest.skip("needs the whole pinned corpus to have run in this session")
    fired = Counter(kind for seed in pinned for kind in FIRED[seed])
    for row in FAULT_TABLE:
        if row.evidence is not None and row.family is not Family.BYZANTINE:
            assert fired[row.name] >= 3, (
                f"{row.name} is scheduled but fires in only {fired[row.name]} "
                f"pinned scenario(s)"
            )
