"""Shrink a failing scenario to a minimal fault schedule.

When a scenario fails its oracle stack, the first question is *which
fault did it*: a schedule usually carries several injections, most of
them innocent.  :func:`shrink_faults` runs a delta-debugging pass over
the fault schedule — try dropping halves, then single units, re-running
the oracle stack each time and keeping any removal that still fails —
until no single unit can be removed without the failure disappearing.
The result is a 1-minimal failing spec, which the
:class:`~repro.chaos.report.ScenarioReport` records next to the original.

Two deliberate scope choices:

* the workload is *not* shrunk — operations are cheap, and the
  committed-set oracles need traffic to have something to check; the
  signal an operator wants is the minimal *fault* combination;
* the standby activations of a scenario shrink as **one atomic unit**:
  standby provisioning follows the schedule
  (:meth:`~repro.chaos.scenario.ScenarioSpec.with_faults`), and a
  candidate that kept some groups' activations while dropping others
  would strand provisioned-but-dead cells — failing the audit oracle
  for a reason unrelated to the fault being isolated.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.faults import FaultSchedule, Target
from .scenario import ScenarioSpec

#: A shrink unit: the schedule indices removed (and kept) together.
Unit = tuple[int, ...]

#: The most candidate specs one shrink executes.
MAX_RUNS = 24


def default_fails(spec: ScenarioSpec) -> bool:
    """Whether a spec fails its full oracle stack (the default predicate)."""
    from .runner import check_scenario

    _run, results = check_scenario(spec)
    return not all(result.passed for result in results)


def _shrink_units(schedule: FaultSchedule) -> list[Unit]:
    """Partition a schedule into independently removable units."""
    units: list[Unit] = []
    standby: list[int] = []
    for index, fault in enumerate(schedule.faults):
        if fault.row.target is Target.STANDBY:
            standby.append(index)
        else:
            units.append((index,))
    if standby:
        units.append(tuple(standby))
    units.sort(key=lambda unit: unit[0])
    return units


def shrink_faults(
    spec: ScenarioSpec,
    fails: Optional[Callable[[ScenarioSpec], bool]] = None,
) -> tuple[ScenarioSpec, int]:
    """Bisect ``spec``'s fault schedule down to a minimal failing one.

    ``fails`` decides whether a candidate spec still reproduces the
    failure (defaults to running the full oracle stack); :data:`MAX_RUNS`
    bounds the number of candidate executions.  Returns the smallest
    failing spec found plus the number of candidate runs spent.  The
    input spec is assumed to fail; if the candidate budget runs out the
    best spec found so far is returned.
    """
    fails = fails or default_fails
    all_faults = spec.faults.faults
    units = _shrink_units(spec.faults)
    runs = 0

    def spec_from(kept: list[Unit]) -> ScenarioSpec:
        indices = sorted(index for unit in kept for index in unit)
        return spec.with_faults(FaultSchedule(tuple(all_faults[i] for i in indices)))

    def attempt(kept: list[Unit]) -> bool:
        nonlocal runs
        if runs >= MAX_RUNS:
            return False
        runs += 1
        return fails(spec_from(kept))

    # Halving pass: cut the schedule down logarithmically first.
    while len(units) > 1:
        half = len(units) // 2
        for keep in (units[:half], units[half:]):
            if attempt(keep):
                units = keep
                break
        else:
            break

    # Greedy single-unit removal until 1-minimal.
    improved = True
    while improved and len(units) > 1:
        improved = False
        for drop in range(len(units)):
            keep = units[:drop] + units[drop + 1 :]
            if attempt(keep):
                units = keep
                improved = True
                break
    return spec_from(units), runs
