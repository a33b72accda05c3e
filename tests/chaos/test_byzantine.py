"""The Byzantine corpus: every injected adversary is caught and named.

The mirror image of ``test_corpus.py``: recoverable scenarios must pass
their oracle stack, Byzantine scenarios must be *caught* — by the
mechanism their threat model predicts.  Each corpus seed runs through
:func:`repro.chaos.check_byzantine_scenario` (the standard stack plus
the attribution oracle) and :func:`repro.chaos.byzantine_verdict`
asserts the per-kind expectations:

* ``tamper_state`` / ``tamper_fingerprint`` / ``equivocate`` fail the
  audit oracle and are attributed to the anchor-agreement check (or a
  per-cell audit finding naming the cell);
* ``lying_gateway`` (``forge``, ``withhold``, and the fast-path
  ``voucher`` forgery modes) passes every standard oracle — the
  forged/withheld XSHARD_VOTE (or forged credit voucher) is refused at
  the certificate layer before anything commits — and is attributed to
  ``caught-by-certificate`` with ledger-derived evidence of zero
  half-commits;
* conservation, differential, and bit-identical same-seed replay stay
  green for *all four* kinds: a caught adversary corrupts no committed
  state and never breaks determinism.
"""

import pytest

from repro.chaos import (
    BYZANTINE_CORPUS_SIZE,
    byzantine_corpus_seeds,
    byzantine_verdict,
    check_byzantine_scenario,
    sample_byzantine_scenario,
)
from repro.chaos.byzantine import ANCHORED_BYZANTINE_KINDS
from repro.chaos.runner import fired_kinds
from repro.core.faults import BYZANTINE_FAULT_KINDS, LYING_GATEWAY_MODES

from tests.chaos import goldens


@pytest.fixture(scope="module")
def byzantine_outcomes():
    """Run the pinned Byzantine corpus once; assertions share the runs."""
    outcomes = {}
    for seed in byzantine_corpus_seeds():
        spec = sample_byzantine_scenario(seed)
        run, results = check_byzantine_scenario(spec)
        outcomes[seed] = (spec, run, results)
    return outcomes


def test_byzantine_sampling_is_deterministic():
    for seed in byzantine_corpus_seeds():
        assert sample_byzantine_scenario(seed) == sample_byzantine_scenario(seed)


def test_byzantine_corpus_covers_every_kind_and_both_lying_modes():
    specs = [sample_byzantine_scenario(seed) for seed in byzantine_corpus_seeds()]
    assert len(specs) == BYZANTINE_CORPUS_SIZE
    kinds = {fault.kind for spec in specs for fault in spec.faults}
    assert kinds == set(BYZANTINE_FAULT_KINDS)
    modes = {
        fault.params["mode"]
        for spec in specs
        for fault in spec.faults
        if fault.kind == "lying_gateway"
    }
    assert modes == set(LYING_GATEWAY_MODES)


def test_byzantine_specs_carry_exactly_one_fault():
    """One adversary per scenario: attribution stays unambiguous."""
    for seed in byzantine_corpus_seeds():
        spec = sample_byzantine_scenario(seed)
        assert len(spec.faults) == 1
        assert spec.standby_cells == 0
        if spec.faults.faults[0].kind == "lying_gateway":
            # A lying gateway needs a cross-shard vote to lie about.
            assert spec.shards >= 2


def test_every_byzantine_scenario_meets_its_verdict(byzantine_outcomes):
    for seed, (spec, _run, results) in byzantine_outcomes.items():
        problems = byzantine_verdict(spec, results)
        assert not problems, f"seed {seed}: {problems}"


def test_replay_is_bit_identical_for_every_byzantine_kind(byzantine_outcomes):
    """Determinism survives the adversary: the replay oracle re-runs the
    scenario from the same seed and diffs the full artifact set."""
    seen_kinds = set()
    for seed, (spec, _run, results) in byzantine_outcomes.items():
        replay = next(result for result in results if result.oracle == "replay")
        assert replay.passed, f"seed {seed}: {replay.findings}"
        seen_kinds |= spec.faults.kinds()
    assert seen_kinds == set(BYZANTINE_FAULT_KINDS)


def test_every_fault_is_attributed_to_its_predicted_mechanism(byzantine_outcomes):
    for seed, (spec, _run, results) in byzantine_outcomes.items():
        attribution = next(
            result for result in results if result.oracle == "attribution"
        )
        assert attribution.passed, f"seed {seed}: {attribution.findings}"
        assert attribution.metrics["byzantine_faults"] == 1
        assert attribution.metrics["attributed"] == 1
        (record,) = attribution.metrics["attributions"]
        fault = spec.faults.faults[0]
        assert record["kind"] == fault.kind
        assert (record["group"], record["cell"]) == (fault.group, fault.cell)
        assert record["evidence"], "an attribution must carry its proof"
        if fault.kind == "lying_gateway":
            assert record["mechanism"] == "caught-by-certificate"
        else:
            assert record["mechanism"] in (
                "caught-by-anchor-agreement",
                "caught-by-audit",
            )


def test_lying_gateway_leaves_zero_half_commits(byzantine_outcomes):
    """The acceptance bar: a forged or withheld vote — or a forged
    fast-path voucher — must never produce a settled source hold, a
    credited or redeemed target, or a client-visible ok commit; holds
    stay escrowed until the decision is re-driven (or the voucher's
    escrow reclaims)."""
    from repro.audit.oracles import harvest_escrows
    from repro.chaos.scenario import CHAOS_CONTRACT
    from repro.client.sharded import CrossShardResult

    checked = 0
    for seed, (spec, run, _results) in byzantine_outcomes.items():
        fault = spec.faults.faults[0]
        if fault.kind != "lying_gateway":
            continue
        checked += 1
        cell = run.deployment.group(fault.group).cells[fault.cell]
        lied = {
            event["xtx"]
            for event in cell.fault.events
            if event["kind"] == "lying_gateway" and event.get("xtx")
        }
        assert lied, "the lying gateway must have had a vote to lie about"
        escrows = harvest_escrows(run.deployment, CHAOS_CONTRACT)
        for xtx in lied:
            pair = escrows.get(xtx)
            out, into = (None, None) if pair is None else (pair.source, pair.target)
            if out is not None:
                assert out["status"] != "settled", f"seed {seed} xtx {xtx}"
            if into is not None:
                assert into["status"] != "credited", f"seed {seed} xtx {xtx}"
                assert into["status"] != "redeemed", f"seed {seed} xtx {xtx}"
        for result in run.workload.results:
            if isinstance(result, CrossShardResult) and result.xtx in lied:
                assert not (result.ok and result.decision == "commit"), (
                    f"seed {seed}: client saw an undetected half-commit"
                )
    assert checked >= 3, "all three lying modes must have been exercised"


def test_anchored_kinds_fail_audit_and_lying_gateway_does_not(byzantine_outcomes):
    for seed, (spec, _run, results) in byzantine_outcomes.items():
        audit = next(result for result in results if result.oracle == "audit")
        if spec.faults.kinds() & ANCHORED_BYZANTINE_KINDS:
            assert not audit.passed, f"seed {seed}: anchored fault escaped audit"
        else:
            assert audit.passed, f"seed {seed}: {audit.findings}"


def test_runs_match_the_goldens_recorded_before_the_fault_table(byzantine_outcomes):
    golden = goldens.load()["runs"]["byzantine"]
    for seed, (_spec, run, _results) in byzantine_outcomes.items():
        assert goldens.run_digests(run) == golden[str(seed)], f"seed {seed}"


def test_every_byzantine_kind_fires_in_three_pinned_scenarios(byzantine_outcomes):
    fired = [
        kind
        for _spec, run, _results in byzantine_outcomes.values()
        for kind in fired_kinds(run)
    ]
    for kind in BYZANTINE_FAULT_KINDS:
        assert fired.count(kind) >= 3, f"{kind} fires in {fired.count(kind)} scenario(s)"
