"""Coverage-guided search: beats uniform, deterministic, floor-pinned.

The acceptance bar of the greybox half of the corpus
(:mod:`repro.chaos.search`): at the pinned CI budget the search must
**strictly** beat the plain uniform corpus on covered
``(matrix point × fault kind × op kind × signal)`` tuples, every
scenario it generates must still pass the (cheap) oracle stack — grown
faults obey the sampler's recoverability constraints, so a failure here
is a found bug — and the whole run must be a pure function of the
budget, because CI pins a coverage floor on it.
"""

import json

from repro.chaos import SearchOutcome, run_search
from repro.chaos.__main__ import main as chaos_main
from repro.chaos.search import (
    PINNED_COVERAGE_FLOOR,
    PINNED_SEARCH_BUDGET,
    TREND_SCHEMA,
    uniform_coverage,
)
from repro.core.faults import RECOVERABLE_FAULT_KINDS

import pytest

from tests.chaos import goldens


@pytest.fixture(scope="module")
def pinned_search() -> SearchOutcome:
    """One search run at the CI-pinned budget, shared across assertions."""
    return run_search(PINNED_SEARCH_BUDGET)


def test_search_strictly_beats_uniform_at_equal_budget(pinned_search):
    uniform = uniform_coverage(PINNED_SEARCH_BUDGET)
    assert len(pinned_search.coverage) > len(uniform), (
        f"search covered {len(pinned_search.coverage)} tuples, uniform "
        f"{len(uniform)} — the mutation half is not earning its budget"
    )


def test_search_meets_the_pinned_coverage_floor(pinned_search):
    assert len(pinned_search.coverage) >= PINNED_COVERAGE_FLOOR


def test_search_matches_the_golden_recorded_before_the_fault_table(pinned_search):
    """Action strings are coverage signals and grown faults are sampler
    draws: the same tuples, iteration by iteration, or something moved."""
    golden = goldens.load()["search"]
    assert golden["budget"] == PINNED_SEARCH_BUDGET
    assert len(pinned_search.coverage) == golden["tuples"]
    assert [
        entry.new_tuples for entry in pinned_search.entries
    ] == golden["new_tuples_by_iteration"]


def test_search_scenarios_pass_their_oracle_stack(pinned_search):
    assert pinned_search.failures == [], (
        "a search scenario failed its oracles — grown faults are "
        "sampler-legal, so this is a real bug, not sampling noise"
    )


def test_search_spends_half_its_budget_on_mutations(pinned_search):
    origins = [entry.origin for entry in pinned_search.entries]
    assert len(origins) == PINNED_SEARCH_BUDGET
    assert origins.count("uniform") == (PINNED_SEARCH_BUDGET + 1) // 2
    assert origins.count("mutation") == PINNED_SEARCH_BUDGET // 2
    assert all(entry.mutation for entry in pinned_search.entries
               if entry.origin == "mutation")


def test_coverage_tuples_are_well_formed(pinned_search):
    for matrix, kind, op, signal in pinned_search.coverage:
        assert matrix.startswith("shards=")
        assert kind in RECOVERABLE_FAULT_KINDS
        assert op in {"transfer", "cas_put", "vote", "invest"}
        assert ":" in signal


def test_search_is_a_pure_function_of_the_budget():
    first = run_search(4)
    second = run_search(4)
    assert first.coverage == second.coverage
    assert [(e.seed, e.origin, e.mutation) for e in first.entries] == [
        (e.seed, e.origin, e.mutation) for e in second.entries
    ]


def test_trend_payload_matches_the_documented_schema(pinned_search, tmp_path):
    path = tmp_path / "corpus_trend.json"
    pinned_search.write_trend(str(path), uniform_tuples=123)
    data = json.loads(path.read_text())
    assert data["schema"] == TREND_SCHEMA
    assert data["budget"] == PINNED_SEARCH_BUDGET
    assert data["uniform_budget"] + data["search_budget"] == PINNED_SEARCH_BUDGET
    assert data["coverage"]["tuples"] == len(pinned_search.coverage)
    assert data["uniform_coverage_tuples"] == 123
    assert len(data["entries"]) == PINNED_SEARCH_BUDGET
    assert data["failures"] == 0
    assert data["failing_specs"] == []
    assert len(data["new_tuples_by_iteration"]) == PINNED_SEARCH_BUDGET


def test_cli_search_subcommand_writes_the_trend(tmp_path):
    path = tmp_path / "corpus_trend.json"
    status = chaos_main(["search", "--budget", "4", "--trend-out", str(path)])
    assert status == 0
    data = json.loads(path.read_text())
    assert data["schema"] == TREND_SCHEMA
    assert data["budget"] == 4


def test_cli_search_fails_on_a_floor_regression(tmp_path):
    path = tmp_path / "corpus_trend.json"
    status = chaos_main([
        "search", "--budget", "4", "--trend-out", str(path),
        "--coverage-floor", "1000000",
    ])
    assert status == 1
