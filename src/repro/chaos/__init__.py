"""Deterministic chaos-scenario engine over the full feature matrix.

Seeded, fully replayable adversarial scenarios (batching × lanes ×
shards × faults) driven through a
:class:`~repro.core.sharding.ShardedDeployment` and checked against a
stack of audit oracles.  ``python -m repro.chaos replay <seed>``
reproduces any run bit for bit; see ``docs/TESTING.md``.
"""

from .byzantine import (
    ATTRIBUTION_MECHANISMS,
    FaultAttribution,
    attribute_byzantine_faults,
    byzantine_verdict,
    check_byzantine_scenario,
)
from .corpus import (
    BYZANTINE_CORPUS_SIZE,
    CORPUS_SIZE,
    EXERCISED_SEEDS,
    byzantine_corpus_seeds,
    corpus_seeds,
    corpus_specs,
    coverage,
)
from .report import ScenarioReport
from .runner import (
    ScenarioRun,
    check_scenario,
    harvest_committed,
    harvest_semantics,
    run_scenario,
    scenario_report,
)
from .scenario import (
    CHAOS_CONTRACT,
    ScenarioError,
    ScenarioSpace,
    ScenarioSpec,
    sample_byzantine_scenario,
    sample_scenario,
)
from .search import SearchOutcome, run_search
from .shrink import shrink_faults

__all__ = [
    "ATTRIBUTION_MECHANISMS",
    "BYZANTINE_CORPUS_SIZE",
    "CHAOS_CONTRACT",
    "CORPUS_SIZE",
    "EXERCISED_SEEDS",
    "FaultAttribution",
    "ScenarioError",
    "ScenarioReport",
    "ScenarioRun",
    "ScenarioSpace",
    "ScenarioSpec",
    "SearchOutcome",
    "attribute_byzantine_faults",
    "byzantine_corpus_seeds",
    "byzantine_verdict",
    "check_byzantine_scenario",
    "check_scenario",
    "corpus_seeds",
    "corpus_specs",
    "coverage",
    "harvest_committed",
    "harvest_semantics",
    "run_scenario",
    "sample_byzantine_scenario",
    "sample_scenario",
    "scenario_report",
    "shrink_faults",
]
