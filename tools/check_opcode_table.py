#!/usr/bin/env python3
"""Keep the opcode reference of ``docs/ARCHITECTURE.md`` equal to the route table.

The table between the ``opcode-table`` markers is *generated* from
:mod:`repro.core.routes` — the one declaration of who may send which
opcode, what body it carries, what the ingress stage does before its
handler runs, and which opcodes a cell only emits.  Without arguments the
script fails (exit status 1, with a diff) when the committed block
differs from what the declaration renders; ``--write`` regenerates it.
Used by the ``docs`` CI job and ``tests/docs/test_doc_links.py``.
"""

from __future__ import annotations

import difflib
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.routes import REPLY_ONLY, ROUTES  # noqa: E402
from repro.messages.opcodes import Opcode  # noqa: E402

DOCUMENT = REPO_ROOT / "docs" / "ARCHITECTURE.md"
BEGIN = "<!-- opcode-table:begin (generated by tools/check_opcode_table.py --write) -->"
END = "<!-- opcode-table:end -->"


def render() -> str:
    """The Markdown block for the current route table, in ``Opcode`` order."""
    lines = [
        f"{len(Opcode)} opcodes: {len(ROUTES)} routed, {len(REPLY_ONLY)} reply-only.",
        "",
        "| Opcode | Sender | Served | Admission | Body `D` | Refused as | Handler |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for opcode in Opcode:
        route = ROUTES.get(opcode)
        if route is None:
            lines.append(f"| `{opcode.name}` | — | reply-only: a cell emits it | | | | |")
            continue
        refusal = route.refusal
        lines.append(
            f"| `{opcode.name}` | {route.sender.value} "
            f"| {'after the auth delay' if route.delayed else 'on delivery'} "
            f"| {route.admission.value if route.admission is not None else '—'} "
            f"| {f'`{route.body.__name__}`' if route.body is not None else '—'} "
            f"| `{refusal.auth_counter}` / `{refusal.malformed_counter}`, "
            f"{'`TX_ERROR`' if refusal.answered else 'silent'} "
            f"| `{route.handler}` |"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    text = DOCUMENT.read_text()
    try:
        head, rest = text.split(BEGIN, 1)
        committed, tail = rest.split(END, 1)
    except ValueError:
        print(f"{DOCUMENT}: the opcode-table markers are missing", file=sys.stderr)
        return 1
    generated = f"\n{render()}\n"
    if committed == generated:
        return 0
    if "--write" in argv:
        DOCUMENT.write_text(head + BEGIN + generated + END + tail)
        print(f"{DOCUMENT}: opcode reference regenerated")
        return 0
    sys.stderr.writelines(
        difflib.unified_diff(
            committed.splitlines(keepends=True),
            generated.splitlines(keepends=True),
            "docs/ARCHITECTURE.md (committed)",
            "repro.core.routes (rendered)",
        )
    )
    print("opcode reference is stale: run tools/check_opcode_table.py --write", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
