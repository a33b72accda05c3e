"""Tests generated from ``repro.core.faults.FAULT_TABLE``.

Everything here iterates the table, so a kind declared tomorrow is
covered the day it is declared: what a row says (window ⇔ a shape that
disarms, a draw that validates) and what the one switch shape does when
windows of one kind overlap on one cell (last writer wins).
"""

import dataclasses
import random

import pytest

from repro.chaos import sample_scenario
from repro.chaos.runner import _arm_faults
from repro.core.faults import (
    FAULT_TABLE,
    RESOLVE_BY,
    Family,
    FaultSchedule,
    ScheduledFault,
    Switch,
    Target,
)
from repro.core.sharding import ShardedDeployment

SWITCH_ROWS = [row for row in FAULT_TABLE if isinstance(row.arm, Switch)]


def armed(faults):
    """A two-group deployment with ``faults`` armed, group 0's gateway, the log."""
    spec = dataclasses.replace(sample_scenario(4), standby_cells=1)
    spec = spec.with_faults(FaultSchedule(tuple(faults)))
    assert spec.shards == 2
    deployment = ShardedDeployment(spec.config())
    accounts = [f"0x{index:040x}" for index in range(spec.account_count)]
    fault_log = []
    _arm_faults(deployment, spec, accounts, fault_log)
    return deployment, deployment.group(0).cells[0], fault_log


def settings(deployment, cell):
    """Every setting a switch can write: the plan's fields and the node's skew."""
    plan = {
        field.name: getattr(cell.fault, field.name)
        for field in dataclasses.fields(cell.fault)
        if field.name != "events"
    }
    return plan, deployment.network.node_skew(cell.node_name)


def example(row, at, until, draw_seed):
    """A fault of ``row`` on the first cell of group 0 it may target."""
    rng = random.Random(draw_seed)
    params = {
        # The lying mode is the one param no row draws (stratified by seed).
        param.name: param.draw(rng, [0, 1, 2, 3]) if param.draw else "forge"
        for param in row.params
    }
    return ScheduledFault(row.name, 0, row.target.indices(2, 1)[0], at, until, params)


@pytest.mark.parametrize("row", SWITCH_ROWS, ids=lambda row: row.name)
def test_overlapping_windows_resolve_last_writer_wins(row):
    stem = row.arm.stem
    early, late = example(row, 6.0, 12.0, 1), example(row, 8.0, 16.0, 2)
    deployment, cell, fault_log = armed([early, late])
    off = settings(deployment, cell)

    deployment.run(until=7.0)
    first = settings(deployment, cell)
    assert first != off
    deployment.run(until=9.0)
    in_force = settings(deployment, cell)
    assert in_force != off
    if early.params != late.params:
        assert in_force != first, "the later window's value is the one in force"
    # The earlier window's end is superseded: it logs, and changes nothing.
    deployment.run(until=13.0)
    assert settings(deployment, cell) == in_force
    assert fault_log[-1]["action"] == f"{stem}_off_superseded"
    assert fault_log[-1]["at"] == 12.0
    # The later window's end restores the off-value.
    deployment.run(until=17.0)
    assert settings(deployment, cell) == off
    assert [(entry["at"], entry["action"]) for entry in fault_log] == [
        (6.0, f"{stem}_on"),
        (8.0, f"{stem}_on"),
        (12.0, f"{stem}_off_superseded"),
        (16.0, f"{stem}_off"),
    ]
    if row.arm.detail is not None:
        assert all(row.arm.detail in entry for entry in fault_log[:2])


@pytest.mark.parametrize("row", SWITCH_ROWS, ids=lambda row: row.name)
def test_disjoint_windows_are_two_plain_windows(row):
    stem = row.arm.stem
    deployment, cell, fault_log = armed(
        [example(row, 6.0, 8.0, 1), example(row, 10.0, 12.0, 2)]
    )
    off = settings(deployment, cell)
    for until, on in ((7.0, True), (9.0, False), (11.0, True), (13.0, False)):
        deployment.run(until=until)
        assert (settings(deployment, cell) != off) is on
    assert [entry["action"] for entry in fault_log] == [
        f"{stem}_on", f"{stem}_off", f"{stem}_on", f"{stem}_off"
    ]


def test_same_kind_windows_on_different_cells_do_not_supersede_each_other():
    row = next(row for row in SWITCH_ROWS if row.target is Target.ACTIVE)
    other = dataclasses.replace(example(row, 8.0, 16.0, 2), cell=1)
    deployment, _cell, fault_log = armed([example(row, 6.0, 12.0, 1), other])
    deployment.run(until=17.0)
    assert not [e for e in fault_log if e["action"].endswith("_superseded")]


@pytest.mark.parametrize("row", FAULT_TABLE, ids=lambda row: row.name)
def test_a_row_takes_a_window_exactly_when_its_shape_disarms(row):
    deployment, _cell, fault_log = armed(
        [example(row, 6.0, 9.0 if row.window else None, 0)]
    )
    deployment.run(until=10.0)
    assert [entry["kind"] for entry in fault_log] == [row.name] * (2 if row.window else 1)


@pytest.mark.parametrize(
    "row",
    [row for row in FAULT_TABLE if row.family is not Family.BYZANTINE],
    ids=lambda row: row.name,
)
def test_a_drawn_fault_is_valid_and_resolves_in_time(row):
    for seed in range(50):
        fault = row.draw(random.Random(seed), 7.5, 1, 2, 2, [0, 1, 2])
        FaultSchedule((fault,)).validate_for(2, 2, standby_cells=1)
        assert fault.kind == row.name and fault.group == 1
        assert (fault.until is not None) == (row.window is not None)
        assert fault.until is None or fault.at < fault.until <= RESOLVE_BY
        assert set(fault.params) == {param.name for param in row.params}
        if row.outage:
            assert fault.cell != 0, "an outage spares the gateway of a sharded run"
