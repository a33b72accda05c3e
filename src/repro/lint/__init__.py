"""``repro.lint`` — the repository's own static-analysis suite.

Every subsystem in this reproduction stakes its correctness on two
whole-program invariants that ordinary tests cannot economically cover:

* **Determinism** — same-seed replay and cross-cell fingerprint agreement
  (the chaos oracles' foundation) require that core code never consults
  ambient nondeterminism (wall clocks, process entropy, hash-salted
  orderings) outside the seeded :mod:`repro.sim.rng` streams.
* **Access-plan soundness** — the conflict-aware lane scheduler
  (:mod:`repro.core.lanes`) parallelizes transactions based on the access
  plans contracts *declare before executing*; an under-declared write is a
  silent parallel-corruption bug.

Both are enforceable statically.  This package walks the source tree with
:mod:`ast` and applies three rule families (see
``docs/STATIC_ANALYSIS.md`` for the full catalog and suppression policy):

* ``DET*``   — ambient-nondeterminism rules (:mod:`repro.lint.determinism`);
* ``PLAN*``  — access-plan conformance rules (:mod:`repro.lint.access_plans`);
* ``PROTO*`` — message-protocol wiring rules (:mod:`repro.lint.protocol`),
  and beside them ``FAULT001``: a fault kind is named in its table row only.

Run it as ``python -m repro.lint src/repro`` (or ``python tools/lint.py``).
Findings can be suppressed inline with a justified comment::

    risky_call()  # lint: disable=DET002 — reason the rule does not apply

and a committed baseline file (``tools/lint_baseline.json``) ratchets any
grandfathered findings to zero growth.
"""

from .engine import (
    Finding,
    LintError,
    form_github_annotation,
    lint_paths,
    load_baseline,
    render_findings,
)

__all__ = [
    "Finding",
    "LintError",
    "form_github_annotation",
    "lint_paths",
    "load_baseline",
    "render_findings",
]
