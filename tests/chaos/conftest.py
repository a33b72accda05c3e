"""Fixtures for the chaos-engine suite (budget scaling, report dir)."""

from __future__ import annotations

import os

import pytest

from repro.chaos import CORPUS_SIZE, EXERCISED_SEEDS, corpus_seeds

#: Where failing scenario reports are written (CI uploads these).
REPORT_DIR = os.environ.get("CHAOS_REPORT_DIR", ".chaos-reports")


def pytest_generate_tests(metafunc):
    """Parametrize corpus tests over the budgeted seed range.

    The ``--chaos-budget N`` option (see the root conftest) replaces the
    pinned corpus with seeds ``0..N-1`` — a prefix for quick smoke runs,
    an extension beyond the pinned range for nightly soak runs.  A run
    that covers the pinned range also takes the exercised stratum.
    """
    if "chaos_seed" in metafunc.fixturenames:
        seeds = corpus_seeds(metafunc.config.getoption("--chaos-budget"))
        if len(seeds) >= CORPUS_SIZE:
            seeds += [seed for seed in EXERCISED_SEEDS if seed not in seeds]
        metafunc.parametrize("chaos_seed", seeds)


@pytest.fixture
def chaos_budget(request) -> int | None:
    """The raw --chaos-budget value (None = pinned corpus)."""
    return request.config.getoption("--chaos-budget")
