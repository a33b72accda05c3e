"""Overlay consensus timing rules, cell standing, and Theorem 1."""

import pytest

from repro.core.config import SystemInvariants
from repro.core.consensus import ConsensusError, OverlayConsensus
from repro.crypto.keys import PrivateKey

CELLS = tuple(PrivateKey.from_seed(f"oc-cell-{i}").address for i in range(4))


@pytest.fixture
def consensus():
    invariants = SystemInvariants(
        deployment_id="oc", cell_addresses=CELLS, report_period=600.0,
        initial_timestamp=1_000.0, forwarding_deadline=10.0, miss_threshold=3,
    )
    return OverlayConsensus(invariants)


def test_cycle_arithmetic(consensus):
    assert consensus.cycle_of(1_000.0) == 0
    assert consensus.cycle_of(1_599.9) == 0
    assert consensus.cycle_of(1_600.0) == 1
    assert consensus.cycle_start(2) == 2_200.0
    assert consensus.cycle_deadline(0) == 1_600.0
    assert consensus.next_deadline(1_700.0) == 2_200.0


def test_timestamp_before_t0_rejected(consensus):
    with pytest.raises(ConsensusError):
        consensus.cycle_of(500.0)
    with pytest.raises(ConsensusError):
        consensus.cycle_start(-1)


def test_report_deadline_rule(consensus):
    # Snapshot i must be reported by the end of cycle i+1 and counts from i+2.
    assert consensus.report_due_by(0) == consensus.cycle_deadline(1)
    assert consensus.valid_from_cycle(0) == 2
    assert consensus.is_report_timely(0, reported_at=2_199.0)
    assert not consensus.is_report_timely(0, reported_at=2_201.0)


def test_miss_tracking_and_exclusion(consensus):
    cell = CELLS[1]
    assert not consensus.record_miss(cell, cycle=0)
    assert not consensus.record_miss(cell, cycle=0)
    assert consensus.record_miss(cell, cycle=1)  # third consecutive miss excludes
    assert consensus.standing(cell).is_excluded
    assert cell in consensus.excluded_cells()
    assert cell not in consensus.active_cells()
    consensus.readmit(cell)
    assert not consensus.standing(cell).is_excluded
    assert consensus.standing(cell).consecutive_misses == 0


def test_success_resets_consecutive_misses(consensus):
    cell = CELLS[2]
    consensus.record_miss(cell, 0)
    consensus.record_miss(cell, 0)
    consensus.record_success(cell)
    assert consensus.standing(cell).consecutive_misses == 0
    assert consensus.standing(cell).total_misses == 2
    assert not consensus.standing(cell).is_excluded


def test_explicit_exclusion(consensus):
    consensus.exclude(CELLS[3], cycle=5)
    assert consensus.standing(CELLS[3]).excluded_since_cycle == 5


def test_unknown_cell_rejected(consensus):
    with pytest.raises(ConsensusError):
        consensus.standing(PrivateKey.from_seed("ghost").address)


@pytest.mark.parametrize("size", [2, 3, 5, 10, 100])
def test_theorem1_minimum_valid_cells_is_one(size):
    assert OverlayConsensus.minimum_valid_cells(size) == 1


def test_theorem1_rejects_empty_consortium():
    with pytest.raises(ConsensusError):
        OverlayConsensus.minimum_valid_cells(0)
