"""Pytest bootstrap: make ``src/`` importable without installation.

The project is normally installed with ``pip install -e .`` (or
``python setup.py develop`` on environments without the ``wheel`` package),
but adding the source tree to ``sys.path`` here means the test-suite and
benchmark harness also run straight from a fresh checkout.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_addoption(parser):
    """Repo-wide pytest options.

    ``--chaos-budget`` scales the chaos corpus (tests/chaos): by default
    the pinned corpus runs in full; nightly jobs pass a larger budget to
    extend the seed range, and a smaller one gives a quick smoke slice.

    ``--endurance-budget`` scales the endurance benchmark's steady phase
    (benchmarks/test_endurance.py) in simulated minutes: the default
    regenerates the committed 30-minute baseline; CI's endurance job
    passes a short smoke horizon, and nightly jobs extend it.
    """
    parser.addoption(
        "--chaos-budget",
        type=int,
        default=None,
        metavar="N",
        help="number of seeded chaos scenarios to run (default: the pinned corpus)",
    )
    parser.addoption(
        "--endurance-budget",
        type=int,
        default=None,
        metavar="MINUTES",
        help="steady-phase sim-minutes for the endurance benchmark (default: 30)",
    )


def pytest_configure(config):
    """Register the repo's custom markers (no ``PytestUnknownMarkWarning``)."""
    config.addinivalue_line(
        "markers", "slow: end-to-end headline-claim runs that take several seconds each"
    )
