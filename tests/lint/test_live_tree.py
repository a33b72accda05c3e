"""The committed tree must lint clean, and seeded mutations must be caught.

These are the acceptance tests for the suite itself: the real ``src/repro``
tree produces no findings beyond the committed baseline, and reintroducing
two historical bug classes (an ambient ``import random`` and a silently
narrowed access plan) each produce exactly one finding with the expected
rule id.  A third mutation puts one fault-kind comparison back beside the
fault table.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.lint import lint_paths, load_baseline

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "tools" / "lint_baseline.json"


def test_committed_tree_is_baseline_clean():
    findings = lint_paths([SRC_REPRO])
    baseline = load_baseline(BASELINE)
    new = [finding for finding in findings if finding.key not in baseline]
    assert new == [], "new lint findings:\n" + "\n".join(f.render() for f in new)


def test_committed_baseline_is_empty():
    # The ratchet target: the baseline never grows, and today it is empty.
    assert load_baseline(BASELINE) == {}


@pytest.fixture
def tree_copy(tmp_path):
    # The copy must be literally named "repro" so module names (and the
    # package-scoped rules keyed on them) come out identical to the real tree.
    copy = tmp_path / "repro"
    shutil.copytree(SRC_REPRO, copy)
    return copy


def mutate(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text, f"mutation anchor not found in {path}: {old!r}"
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def test_mutation_ambient_random_import_is_one_det001(tree_copy):
    mutate(
        tree_copy / "ethchain" / "node.py",
        "from __future__ import annotations\n",
        "from __future__ import annotations\n\nimport random\n",
    )
    findings = lint_paths([tree_copy])
    assert [f.rule for f in findings] == ["DET001"]
    assert findings[0].module == "repro.ethchain.node"
    assert "random" in findings[0].message


def test_mutation_component_moving_the_clock_is_one_det005(tree_copy):
    mutate(
        tree_copy / "sim" / "resources.py",
        "        started = self.env.now\n",
        "        started = self.env.now\n        self.env.now = started + duration\n",
    )
    findings = lint_paths([tree_copy])
    assert [f.rule for f in findings] == ["DET005"]
    assert findings[0].module == "repro.sim.resources"


def test_mutation_dropped_plan_delta_is_one_plan001(tree_copy):
    mutate(
        tree_copy / "contracts" / "community" / "fastmoney.py",
        'deltas=frozenset({recipient_key, "stats/transfers"}),',
        "deltas=frozenset({recipient_key}),",
    )
    findings = lint_paths([tree_copy])
    assert [f.rule for f in findings] == ["PLAN001"]
    assert "stats/transfers" in findings[0].message
    assert "transfer" in findings[0].symbol


def test_mutation_kind_comparison_beside_the_table_is_one_fault001(tree_copy):
    mutate(
        tree_copy / "chaos" / "shrink.py",
        "if fault.row.target is Target.STANDBY:",
        'if fault.kind == "standby_activate":',
    )
    findings = lint_paths([tree_copy])
    assert [f.rule for f in findings] == ["FAULT001"]
    assert findings[0].module == "repro.chaos.shrink"
    assert "standby_activate" in findings[0].message
