"""Coverage-guided scenario search — the greybox half of the corpus.

The uniform corpus (:mod:`repro.chaos.corpus`) spans the feature matrix
and the fault kinds by stratified construction, but it only *combines*
them as fast as the seed arithmetic happens to.  The search replaces
half of a run's budget with coverage-guided exploration: it tracks a
coverage map of

    ``(matrix point × fault kind × op kind × oracle-check-fired)``

tuples, and spends the second half of the budget mutating *near-miss*
specs — scenarios that already sit on an uncovered cell's matrix point
but miss its fault kind — by **growing** a fault of the missing kind
onto them (or, when the map is saturated, **perturbing** rich scenarios
with extra operations and retimed fault windows).  Grown faults obey the
same recoverability constraints the sampler enforces (one outage per
group, gateways spared, partitions heal before the report boundary), so
every search scenario must still pass its oracle stack — a failure is a
found bug, not sampling noise.

:func:`run_search` returns a :class:`SearchOutcome` whose
:meth:`~SearchOutcome.trend_data` serializes to ``corpus_trend.json``;
CI pins a floor on the covered-tuple count so coverage can never
silently regress (see ``docs/TESTING.md``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from ..audit.oracles import OracleResult
from ..client.sharded import CrossShardResult
from ..client.workload import MixedOperation
from ..core.faults import (
    FAULTS_END,
    FAULTS_START,
    Family,
    FaultSchedule,
    Target,
    fault_kind,
)
from ..sim.rng import SeedSequence
from .runner import ScenarioRun, check_scenario
from .scenario import (
    OPS_END,
    OPS_START,
    ScenarioSpace,
    ScenarioSpec,
    sample_scenario,
)

#: Schema tag of ``corpus_trend.json`` (bump on incompatible change).
TREND_SCHEMA = "repro.chaos.corpus_trend/1"

#: The budget CI runs the search at on every push.
PINNED_SEARCH_BUDGET = 10

#: Coverage floor at the pinned budget: the tuple count a
#: :data:`PINNED_SEARCH_BUDGET` search reached when the floor was last
#: ratcheted, minus nothing — the search is deterministic, so any drop
#: is a real regression (a fault kind that stopped firing, a signal
#: that vanished), not flakiness.
PINNED_COVERAGE_FLOOR = 650

#: How one scenario is checked during search.  Search optimizes
#: *discovery rate*, so the default drops the one expensive oracle (replay
#: re-runs the scenario); the full stack still covers every corpus seed in CI.
CheckScenario = Callable[[ScenarioSpec], tuple[ScenarioRun, list[OracleResult]]]


def cheap_check(spec: ScenarioSpec) -> tuple[ScenarioRun, list[OracleResult]]:
    """Conservation, the differential and audit — the search's default check."""
    return check_scenario(spec, replay=False)


# ----------------------------------------------------------------------
# The coverage map
# ----------------------------------------------------------------------
CoverageTuple = tuple[str, str, str, str]


def matrix_label(shards: int, lanes: int, batching: bool) -> str:
    """The matrix-point key used in coverage tuples (and reports)."""
    return f"shards={shards}/lanes={lanes}/batching={'on' if batching else 'off'}"


def run_signals(run: ScenarioRun, results: list[OracleResult]) -> set[str]:
    """Which oracle checks and runtime behaviours one run actually fired.

    These are the dynamic half of a coverage tuple: a scenario that
    *schedules* a censor window but never censors anything covers less
    than one whose window provably dropped a transaction.
    """
    signals = {
        f"oracle:{result.oracle}:{'pass' if result.passed else 'fail'}"
        for result in results
    }
    conservation = next(
        (result for result in results if result.oracle == "conservation"), None
    )
    if conservation is not None and conservation.metrics.get("in_transit", 0):
        signals.add("conservation:in-transit")
    for event in run.fault_log:
        signals.add(f"fault:{event['action']}")
    outcomes = run.workload.results
    if any(outcome is None for outcome in outcomes):
        signals.add("client:unanswered")
    if any(outcome is not None and not outcome.ok for outcome in outcomes):
        signals.add("client:failure")
    if any(
        isinstance(outcome, CrossShardResult) and outcome.ok
        for outcome in outcomes
    ):
        signals.add("client:cross-commit")
    if any(
        isinstance(outcome, CrossShardResult) and outcome.in_transit
        for outcome in outcomes
    ):
        signals.add("client:cross-in-transit")
    return signals


def coverage_tuples(
    spec: ScenarioSpec, run: ScenarioRun, results: list[OracleResult]
) -> set[CoverageTuple]:
    """The coverage tuples one checked scenario contributes."""
    matrix = matrix_label(spec.shards, spec.lanes, spec.batching)
    kinds = sorted(spec.faults.kinds())
    ops = sorted({op.kind for op in spec.operations})
    signals = sorted(run_signals(run, results))
    return {
        (matrix, kind, op, signal)
        for kind in kinds
        for op in ops
        for signal in signals
    }


# ----------------------------------------------------------------------
# Mutations (grow / perturb)
# ----------------------------------------------------------------------
def grow_fault(spec: ScenarioSpec, kind: str, rng) -> Optional[ScenarioSpec]:
    """Graft one fault of ``kind`` onto a spec, sampler-legally.

    Returns ``None`` when the spec cannot legally carry the kind (every
    group already has an outage, or a standby is already provisioned) —
    the caller falls back to a perturbation.
    """
    row = fault_kind(kind)
    shards = spec.shards
    cells = spec.consortium_size
    funded = [
        index
        for index in range(spec.account_count)
        if index not in spec.pauper_accounts
    ]
    at = round(rng.uniform(FAULTS_START, FAULTS_END), 3)
    if row.family is not Family.RECOVERABLE:
        return None
    if row.target is Target.STANDBY:
        if spec.standby_cells:
            return None
        activations = tuple(
            row.draw(rng, round(at + group, 3), group, shards, cells, funded)
            for group in range(shards)
        )
        return replace(
            spec,
            standby_cells=1,
            faults=FaultSchedule(spec.faults.faults + activations),
        )
    # Same constraint as the sampler — one outage per group — but drawn
    # from the groups still free instead of drawn and skipped.
    busy = {fault.group for fault in spec.faults if fault.row.outage} if row.outage else set()
    free_groups = [group for group in range(shards) if group not in busy]
    if not free_groups:
        return None
    group = free_groups[rng.randrange(len(free_groups))]
    fault = row.draw(rng, at, group, shards, cells, funded)
    return spec.with_faults(FaultSchedule(spec.faults.faults + (fault,)))


def perturb(spec: ScenarioSpec, rng) -> ScenarioSpec:
    """Jitter a covered spec: extra transfer traffic or earlier windows.

    Fault windows are only ever shifted *earlier* (length preserved), so
    every timing constraint the original window satisfied — heal before
    the report boundary, resolve before ``RESOLVE_BY`` — still holds.
    """
    funded = [
        index
        for index in range(spec.account_count)
        if index not in spec.pauper_accounts
    ]
    windowed = [
        index for index, fault in enumerate(spec.faults) if fault.until is not None
    ]
    if rng.random() < 0.5 or not windowed:
        sender = funded[rng.randrange(len(funded))]
        others = [
            index for index in range(spec.account_count) if index != sender
        ]
        operation = MixedOperation(
            at=round(rng.uniform(OPS_START, OPS_END), 3),
            kind="transfer",
            sender=sender,
            args={
                "to": others[rng.randrange(len(others))],
                "amount": rng.randrange(1, 10),
            },
        )
        return replace(
            spec,
            operations=tuple(
                sorted(spec.operations + (operation,), key=lambda op: op.at)
            ),
        )
    index = windowed[rng.randrange(len(windowed))]
    fault = spec.faults.faults[index]
    shift = round(rng.uniform(0.0, min(1.5, fault.at - FAULTS_START)), 3)
    moved = replace(fault, at=round(fault.at - shift, 3),
                    until=round(fault.until - shift, 3))
    faults = spec.faults.faults[:index] + (moved,) + spec.faults.faults[index + 1:]
    return replace(spec, faults=FaultSchedule(faults))


# ----------------------------------------------------------------------
# The search loop
# ----------------------------------------------------------------------
@dataclass
class SearchEntry:
    """One checked scenario inside a search run."""

    iteration: int
    origin: str  # "uniform" | "mutation"
    seed: int  # seed of the (base) sampled spec
    spec: ScenarioSpec
    passed: bool
    new_tuples: int
    mutation: Optional[str] = None


@dataclass
class SearchOutcome:
    """Everything one coverage-guided search run produced."""

    budget: int
    entries: list[SearchEntry]
    coverage: set[CoverageTuple] = field(default_factory=set)

    @property
    def failures(self) -> list[SearchEntry]:
        """Entries whose oracle stack failed (found bugs)."""
        return [entry for entry in self.entries if not entry.passed]

    def coverage_summary(self) -> dict[str, Any]:
        """Headline numbers of the coverage map."""
        return {
            "tuples": len(self.coverage),
            "matrix_points": len({item[0] for item in self.coverage}),
            "fault_kinds": len({item[1] for item in self.coverage}),
            "op_kinds": len({item[2] for item in self.coverage}),
            "signals": len({item[3] for item in self.coverage}),
        }

    def trend_data(
        self, uniform_tuples: Optional[int] = None
    ) -> dict[str, Any]:
        """The ``corpus_trend.json`` payload (see ``docs/TESTING.md``)."""
        data: dict[str, Any] = {
            "schema": TREND_SCHEMA,
            "budget": self.budget,
            "uniform_budget": sum(
                1 for entry in self.entries if entry.origin == "uniform"
            ),
            "search_budget": sum(
                1 for entry in self.entries if entry.origin == "mutation"
            ),
            "coverage": self.coverage_summary(),
            "new_tuples_by_iteration": [
                entry.new_tuples for entry in self.entries
            ],
            "entries": [
                {
                    "iteration": entry.iteration,
                    "origin": entry.origin,
                    "seed": entry.seed,
                    "mutation": entry.mutation,
                    "passed": entry.passed,
                    "new_tuples": entry.new_tuples,
                }
                for entry in self.entries
            ],
            "failures": len(self.failures),
            "failing_specs": [
                entry.spec.to_data() for entry in self.failures
            ],
        }
        if uniform_tuples is not None:
            data["uniform_coverage_tuples"] = uniform_tuples
        return data

    def write_trend(
        self, path: str, uniform_tuples: Optional[int] = None
    ) -> None:
        """Write ``corpus_trend.json``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                self.trend_data(uniform_tuples), handle, indent=2, sort_keys=True
            )
            handle.write("\n")


def _next_mutation(
    space: ScenarioSpace,
    covered: set[CoverageTuple],
    archive: list[ScenarioSpec],
    rng,
    iteration: int,
) -> tuple[ScenarioSpec, int, str]:
    """Pick and apply the next mutation (deterministic per iteration)."""
    matrix = space.matrix()
    covered_cells = {(item[0], item[1]) for item in covered}
    covered_matrices = {item[0] for item in covered}
    targets = [
        (index, point, kind)
        for index, point in enumerate(matrix)
        for kind in space.fault_kinds
        if (matrix_label(*point), kind) not in covered_cells
    ]
    # Every coverage tuple is keyed by its matrix point, so an uncovered
    # *point* is worth a whole spec's tuple crop while an uncovered kind
    # on a covered point only adds that kind's slice — chase points
    # first.  The map updates every iteration, so taking the best target
    # (rather than round-robining) never repeats itself.
    targets.sort(
        key=lambda item: (matrix_label(*item[1]) in covered_matrices, item[0])
    )
    for index, point, kind in targets:
        # Near-miss first: an already-run spec sitting on the target
        # matrix point but missing the target kind.
        base = next(
            (
                spec
                for spec in archive
                if (spec.shards, spec.lanes, spec.batching) == point
                and kind not in spec.faults.kinds()
            ),
            None,
        )
        if base is None:
            # No near-miss at this matrix point yet: sample a fresh seed
            # pinned to it (seed ≡ index mod |matrix|) and grow that.
            base = sample_scenario(index + len(matrix) * (iteration + 1), space)
        grown = grow_fault(base, kind, rng)
        if grown is not None:
            return grown, base.seed, f"grow:{kind}@{matrix_label(*point)}"
    base = archive[rng.randrange(len(archive))]
    return perturb(base, rng), base.seed, "perturb"


def run_search(
    budget: int,
    space: Optional[ScenarioSpace] = None,
    check: Optional[CheckScenario] = None,
) -> SearchOutcome:
    """Run one coverage-guided search: half uniform, half mutations.

    The first ``ceil(budget / 2)`` iterations replay the uniform corpus
    prefix (exploration, and the mutation archive's raw material); the
    rest grow/perturb near-miss specs toward uncovered
    ``(matrix point, fault kind)`` cells.  Fully deterministic: same
    budget and space → same scenarios, same coverage map.
    """
    space = space or ScenarioSpace()
    check = check or cheap_check
    if budget < 2:
        raise ValueError(f"the search budget must be at least 2, got {budget!r}")
    uniform_budget = (budget + 1) // 2
    covered: set[CoverageTuple] = set()
    entries: list[SearchEntry] = []
    archive: list[ScenarioSpec] = []

    def admit(
        iteration: int,
        origin: str,
        seed: int,
        spec: ScenarioSpec,
        mutation: Optional[str] = None,
    ) -> None:
        run, results = check(spec)
        fresh = coverage_tuples(spec, run, results) - covered
        covered.update(fresh)
        entries.append(
            SearchEntry(
                iteration=iteration,
                origin=origin,
                seed=seed,
                spec=spec,
                passed=all(result.passed for result in results),
                new_tuples=len(fresh),
                mutation=mutation,
            )
        )
        archive.append(spec)

    for iteration in range(uniform_budget):
        admit(iteration, "uniform", iteration, sample_scenario(iteration, space))
    seeds = SeedSequence("chaos-search")
    for iteration in range(uniform_budget, budget):
        rng = seeds.child(str(iteration)).stream("mutate")
        spec, seed, description = _next_mutation(
            space, covered, archive, rng, iteration
        )
        admit(iteration, "mutation", seed, spec, mutation=description)
    return SearchOutcome(budget=budget, entries=entries, coverage=covered)


def uniform_coverage(
    budget: int,
    space: Optional[ScenarioSpace] = None,
    check: Optional[CheckScenario] = None,
) -> set[CoverageTuple]:
    """The coverage map of the plain uniform corpus at ``budget`` seeds.

    The baseline :func:`run_search` must beat at equal budget — computed
    with the same check so the comparison is apples to apples.
    """
    space = space or ScenarioSpace()
    check = check or cheap_check
    covered: set[CoverageTuple] = set()
    for seed in range(budget):
        spec = sample_scenario(seed, space)
        run, results = check(spec)
        covered.update(coverage_tuples(spec, run, results))
    return covered
