"""The documentation tree must not contain broken intra-repo links."""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
CHECKER = REPO_ROOT / "tools" / "check_links.py"


def test_readme_and_docs_links_resolve():
    result = subprocess.run(
        [sys.executable, str(CHECKER)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_checker_flags_broken_links_and_anchors(tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text(
        "# Title\n"
        "[missing](./does-not-exist.md)\n"
        "[bad anchor](#nope)\n"
        "[escape](../../../../../etc/passwd)\n"
        "[ok external](https://example.com/)\n"
    )
    result = subprocess.run(
        [sys.executable, str(CHECKER), str(bad)], capture_output=True, text=True
    )
    assert result.returncode == 1
    assert "broken link" in result.stderr
    assert "broken anchor" in result.stderr
    assert "escapes the repository" in result.stderr


def test_checker_flags_rotted_module_and_file_references(tmp_path):
    bad = tmp_path / "rot.md"
    bad.write_text(
        "# Title\n"
        "The `repro.core.telepathy` module does not exist.\n"
        "Neither does `core/telepathy.py` nor `benchmarks/test_nothing.py`.\n"
        "And `imaginary-dir/` is not a directory.\n"
    )
    result = subprocess.run(
        [sys.executable, str(CHECKER), str(bad)], capture_output=True, text=True
    )
    assert result.returncode == 1
    assert "broken module reference" in result.stderr
    assert "telepathy" in result.stderr
    assert "broken file reference" in result.stderr
    assert "test_nothing.py" in result.stderr
    assert "broken directory reference" in result.stderr


def test_checker_accepts_real_module_and_file_references(tmp_path):
    good = tmp_path / "fresh.md"
    good.write_text(
        "# Title\n"
        "`repro.core.sharding` routes; `repro.core.sharding.ShardMap` maps;\n"
        "`repro.client` is a package and `repro.core.faults.FaultPlan` an attribute.\n"
        "`core/lanes.py` and `benchmarks/test_sharding.py` exist,\n"
        "`check_links.py` is found by bare name, and `docs/` is a directory.\n"
    )
    result = subprocess.run(
        [sys.executable, str(CHECKER), str(good)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_checker_accepts_valid_anchors(tmp_path):
    good = tmp_path / "good.md"
    other = tmp_path / "other.md"
    other.write_text("# Some Heading!\n")
    good.write_text("# A `Code` Heading\n[self](#a-code-heading)\n")
    # Anchors across files only work inside the repo root; self-anchors and
    # plain file links are checked anywhere.
    result = subprocess.run(
        [sys.executable, str(CHECKER), str(good)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_opcode_reference_matches_the_route_table():
    """docs/ARCHITECTURE.md's opcode table is generated from repro.core.routes."""
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_opcode_table.py")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
