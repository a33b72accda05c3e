"""``BENCHMARK.json`` is the catalogue: names, units, directions, bounds.

The benchmark reads it rather than repeating it, so the file the driver
checks and the numbers the benchmark prints cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
PATH = ROOT / "BENCHMARK.json"


def load() -> dict[str, Any]:
    return json.loads(PATH.read_text())


def with_units(values: dict[str, float], section: str) -> dict[str, dict[str, Any]]:
    """Attach each value's declared unit; the names must match exactly."""
    declared = {metric["name"]: metric["unit"] for metric in load()[section]}
    if set(values) != set(declared):
        raise KeyError(
            f"{section} metrics differ from BENCHMARK.json: "
            f"undeclared {sorted(set(values) - set(declared))}, "
            f"missing {sorted(set(declared) - set(values))}"
        )
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
