"""Scenario sampling: determinism, serialization, validation, coverage."""

import json

import pytest

from repro.chaos import (
    CORPUS_SIZE,
    ScenarioError,
    ScenarioSpace,
    ScenarioSpec,
    corpus_specs,
    coverage,
    sample_scenario,
)
from repro.chaos.scenario import (
    FAULTS_END,
    FAULTS_START,
    OPS_END,
    OPS_START,
    RESOLVE_BY,
)
from repro.core.faults import (
    BYZANTINE_FAULT_KINDS,
    RECOVERABLE_FAULT_KINDS,
    VOUCHER_FAULT_KINDS,
    FaultError,
    FaultSchedule,
    ScheduledFault,
)

from tests.chaos import goldens


def test_sampling_is_a_pure_function_of_the_seed():
    for seed in (0, 7, 41, 59):
        assert sample_scenario(seed) == sample_scenario(seed)


def test_distinct_seeds_draw_distinct_scenarios():
    specs = {seed: sample_scenario(seed) for seed in range(8)}
    operations = {
        tuple(str(op.to_data()) for op in spec.operations) for spec in specs.values()
    }
    assert len(operations) == len(specs), "seeds must not share workload draws"


def test_spec_round_trips_through_json_data():
    """``to_data`` → JSON → ``from_data`` is the identity on every sampled
    spec, with ``from_data`` coercing nothing in a fault."""
    for seed in range(200):
        spec = sample_scenario(seed)
        assert ScenarioSpec.from_data(json.loads(json.dumps(spec.to_data()))) == spec


def test_sampled_specs_match_the_goldens_recorded_before_the_fault_table():
    """The draw order of both samplers is the corpus's identity."""
    golden = goldens.load()["specs"]
    now = goldens.spec_digests()
    for family in ("recoverable", "byzantine"):
        moved = [seed for seed, digest in golden[family].items() if now[family][seed] != digest]
        assert not moved, f"{family} specs moved for seeds {moved}"
        assert len(now[family]) == len(golden[family])


def test_sampled_timelines_respect_the_scenario_phases():
    for seed in range(24):
        spec = sample_scenario(seed)
        for op in spec.operations:
            assert OPS_START <= op.at <= OPS_END
        for fault in spec.faults:
            if fault.kind == "standby_activate":
                # Activations land anywhere in the fault/traffic window —
                # including inside other cells' crash windows; the rejoin
                # protocol backfills in-flight admissions and excludes
                # silent voters, so nothing is scheduled around.
                assert fault.at >= FAULTS_START
                assert fault.at <= RESOLVE_BY + spec.shards
            else:
                assert FAULTS_START <= fault.at <= FAULTS_END
            if fault.until is not None:
                assert fault.at < fault.until <= RESOLVE_BY
                if fault.kind in ("crash_recover", "crash_rejoin"):
                    assert fault.until >= fault.at + 4.0
            if fault.kind == "partition_window":
                # Partitions heal before the first anchor boundary, so
                # the cut-off cells reconnect in time to co-sign digests.
                assert fault.until is not None
                assert fault.until <= 19.0 < spec.report_period
            if fault.kind == "skew_window":
                assert 0.0 < fault.params["seconds"] <= 0.5
        assert spec.end_time > spec.cycles * spec.report_period


def test_fault_kinds_derive_from_the_exported_taxonomy():
    """Satellite: the sampling space's fault kinds are the single
    exported constant, not a hand-maintained copy — adding a kind to
    ``repro.core.faults`` widens the sampler automatically."""
    space = ScenarioSpace()
    assert space.fault_kinds == RECOVERABLE_FAULT_KINDS
    assert space.fault_kinds is RECOVERABLE_FAULT_KINDS
    # Byzantine kinds are deliberately NOT in the uniform space: their
    # scenarios must fail oracles, and belong to the byzantine corpus.
    assert not set(space.fault_kinds) & set(BYZANTINE_FAULT_KINDS)


def test_fault_targeting_a_ghost_cell_is_rejected_at_spec_level():
    spec = sample_scenario(0)
    ghost = FaultSchedule(
        (ScheduledFault(kind="crash_recover", group=0, cell=99, at=6.0, until=12.0),)
    )
    with pytest.raises(FaultError, match="unknown cell 99"):
        spec.with_faults(ghost)
    wrong_group = FaultSchedule(
        (ScheduledFault(kind="crash_recover", group=7, cell=0, at=6.0, until=12.0),)
    )
    with pytest.raises(FaultError, match="group 7"):
        spec.with_faults(wrong_group)
    ghost_account = FaultSchedule(
        (ScheduledFault(kind="censor_window", group=0, cell=0, at=6.0, until=12.0,
                        params={"account": 99}),)
    )
    with pytest.raises(ScenarioError, match="account 99"):
        spec.with_faults(ghost_account)


def test_standby_activation_must_target_a_standby_index():
    with pytest.raises(FaultError, match="not a standby"):
        ScenarioSpec.from_data(
            {
                **sample_scenario(2).to_data(),
                "standby_cells": 1,
                "faults": [
                    {"kind": "standby_activate", "group": 0, "cell": 0, "at": 6.0}
                ],
            }
        )


def test_space_validation_rejects_degenerate_axes():
    with pytest.raises(ScenarioError):
        ScenarioSpace(shards=())
    with pytest.raises(ScenarioError):
        ScenarioSpace(consortium_size=1)
    with pytest.raises(ScenarioError):
        ScenarioSpace(min_ops=5, max_ops=3)


def test_pinned_corpus_spans_the_full_feature_matrix():
    specs = corpus_specs()
    assert len(specs) == CORPUS_SIZE >= 50
    cov = coverage(specs)
    assert cov["matrix_points"] == len(ScenarioSpace().matrix()) == 12
    assert set(cov["fault_kinds"]) == set(RECOVERABLE_FAULT_KINDS) | set(
        VOUCHER_FAULT_KINDS
    )
    assert set(cov["op_kinds"]) == {"transfer", "cas_put", "vote", "invest"}
    # Multi-shard scenarios exist with transfers, so cross-shard 2PC and
    # pauper-driven aborts get exercised across the corpus.
    assert cov["multi_shard_transfer_candidates"] > 0


def test_corpus_stratifies_the_voucher_fast_path():
    """Half the corpus runs its cross-shard transfers over the voucher
    fast path, voucher delivery faults ride only on those scenarios (on
    the gateway cell), and lead-kind stratification is untouched."""
    specs = corpus_specs()
    fast = [spec for spec in specs if spec.fast_path]
    slow = [spec for spec in specs if not spec.fast_path]
    assert len(fast) == len(slow) == CORPUS_SIZE // 2
    voucher_kinds = set(VOUCHER_FAULT_KINDS)
    sampled = 0
    for spec in specs:
        for fault in spec.faults:
            if fault.kind in voucher_kinds:
                sampled += 1
                assert spec.fast_path and spec.shards > 1
                assert fault.cell == 0, "voucher faults target the gateway"
                assert fault.until is not None
    assert sampled > 0, "the corpus must sample voucher delivery faults"
    # The voucher draws ride strictly *after* the pre-existing ones, so
    # lead-kind stratification over seed % 7 is untouched: the first
    # scheduled fault of every scenario is never a voucher kind.
    for spec in specs:
        if len(spec.faults):
            assert spec.faults.faults[0].kind not in voucher_kinds

