"""Tamper detection and the shrinking pass.

The negative half of the chaos acceptance criteria: a scenario whose
fault schedule includes a state tamper *must fail* its oracle stack (the
per-group audit replays the cycle and catches the corrupted state), and
the shrinking pass must bisect the schedule down to the tampering fault
alone — the minimal failing spec recorded in the scenario report.
"""

import pytest

from repro.chaos import check_scenario, sample_scenario, shrink_faults
from repro.chaos.runner import scenario_report
from repro.core.faults import FaultSchedule, ScheduledFault

#: A corpus seed with one shard (every operation executes on group 0, so
#: the injected tamper is guaranteed to corrupt executed state), several
#: benign faults for the shrinker to remove, and no crash/recovery of
#: the tamper target (a resync would overwrite the corrupted store and
#: hide the evidence behind the donor's honest state).
BASE_SEED = 13

TAMPER = ScheduledFault(kind="tamper_state", group=0, cell=1, at=6.0)


def tampered_spec():
    spec = sample_scenario(BASE_SEED)
    assert spec.shards == 1 and len(spec.faults) >= 2
    return spec.with_faults(FaultSchedule(spec.faults.faults + (TAMPER,)))


@pytest.fixture(scope="module")
def tamper_outcome():
    """Run the tampered scenario once; reuse across assertions."""
    spec = tampered_spec()
    run, results = check_scenario(spec, replay=False)
    return spec, run, results


def test_injected_state_tamper_is_caught_by_the_oracle_stack(tamper_outcome):
    spec, run, results = tamper_outcome
    audit = next(result for result in results if result.oracle == "audit")
    assert not audit.passed
    assert any("succession" in finding or "fingerprint" in finding
               for finding in audit.findings)
    # The tampering cell recorded its own misbehaviour (test oracle only —
    # the audit does not rely on it).
    assert any(event["kind"] == "tamper_state"
               for cell in run.deployment.group(0).cells
               for event in cell.fault.events)


def test_tampered_scenario_shrinks_to_the_tamper_alone(tamper_outcome):
    spec, _run, _results = tamper_outcome

    def fails(candidate):
        _candidate_run, results = check_scenario(candidate, replay=False)
        return not all(result.passed for result in results)

    shrunk, runs = shrink_faults(spec, fails=fails)
    assert runs <= 24
    assert len(shrunk.faults) == 1
    assert shrunk.faults.faults[0] == TAMPER
    # The shrunk spec still reproduces the failure on the full stack.
    _shrunk_run, results = check_scenario(shrunk, replay=False)
    assert not all(result.passed for result in results)


def test_scenario_report_records_the_shrunk_spec():
    spec = tampered_spec()
    report = scenario_report(spec, replay=False, shrink_on_failure=True)
    assert not report.passed
    assert report.shrunk_spec is not None
    assert len(report.shrunk_spec["faults"]) == 1
    assert report.shrunk_spec["faults"][0]["kind"] == "tamper_state"
    # A hand-modified spec is not what sample_scenario(seed) yields, so
    # the replay command honestly points at the embedded spec instead.
    assert not report.sampled
    assert report.replay_command.endswith(f"--spec scenario-{spec.seed}.json")


def test_shrinker_is_a_no_op_on_single_fault_schedules():
    """Regression: an already-1-minimal schedule must cost *zero*
    candidate executions — the shrinker must not re-run the scenario
    just to confirm the single fault is load-bearing."""
    spec = sample_scenario(0)
    assert len(spec.faults) == 1
    calls = []

    def fails(candidate):
        calls.append(candidate)
        return True

    shrunk, runs = shrink_faults(spec, fails=fails)
    assert shrunk == spec
    assert runs == 0
    assert calls == [], "no runner invocation may happen on a minimal schedule"


def test_shrinker_is_a_no_op_on_empty_schedules():
    """Regression: a spec whose faults validated away entirely (e.g. a
    workload-only failure) shrinks to itself without a single run."""
    spec = sample_scenario(0).with_faults(FaultSchedule(()))
    assert len(spec.faults) == 0
    calls = []

    def fails(candidate):
        calls.append(candidate)
        return True

    shrunk, runs = shrink_faults(spec, fails=fails)
    assert shrunk == spec
    assert runs == 0
    assert calls == []
