#!/usr/bin/env python3
"""Keep the generated references of ``docs/ARCHITECTURE.md`` equal to the code.

The table between the ``opcode-table`` markers is *generated* from
:mod:`repro.core.routes` — the one declaration of who may send which
opcode, what body it carries, what the ingress stage does before its
handler runs, and which body a cell answers with under each reply opcode.
The one between the ``wire-bodies`` markers is generated from the wire
fields the body classes declare (:mod:`repro.messages.wire`, the reply
classes of :mod:`repro.core.replies` included): family error, signer and
domain tag, and every field's key and kind.  Without arguments the script
fails (exit status 1, with a diff) when a committed block differs from what
the declarations render; ``--write`` regenerates them.  Used by the
``docs`` CI job and ``tests/docs/test_doc_links.py``.
"""

from __future__ import annotations

import difflib
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.routes import REPLIES, REPLY_ONLY, ROUTES  # noqa: E402
from repro.messages import evidence, wire  # noqa: E402,F401 - evidence defines bodies no route names
from repro.messages.opcodes import Opcode  # noqa: E402
from repro.messages.signer import SignedStatement  # noqa: E402

DOCUMENT = REPO_ROOT / "docs" / "ARCHITECTURE.md"


def _subclasses(cls: type) -> list[type]:
    return [found for sub in cls.__subclasses__() for found in (sub, *_subclasses(sub))]


def render_wire_bodies() -> str:
    """The Markdown block for every class that declares wire fields, by name."""
    bodies = {cls.__name__: cls for cls in _subclasses(wire.Body) if cls is not SignedStatement}
    lines = [
        f"{len(bodies)} declared bodies.  `key?` may be absent from the wire; *italic* fields "
        "travel with a statement but are not under its signature.",
        "",
        "| Body | Parse error | Signed by (domain tag) | Data field | Fields, `key: kind` |",
        "| --- | --- | --- | --- | --- |",
    ]
    for name in sorted(bodies):
        cls = bodies[name]
        signed = issubclass(cls, SignedStatement)
        fields = ", ".join(
            ("`{}{}`: {}" if item.signed or not signed else "*`{}{}`: {}*").format(
                item.key, "" if item.required else "?", item.kind.name
            )
            for item in wire.fields(cls)
        )
        signer = f"`{cls.SIGNER}` ({f'`{cls.KIND}`' if cls.KIND else 'none'})" if signed else "—"
        carried = "the body" if cls.DATA_KEY is None else f"under `{cls.DATA_KEY}`"
        lines.append(f"| `{name}` | `{cls.ERROR.__name__}` | {signer} | {carried} | {fields} |")
    return "\n".join(lines)


def render() -> str:
    """The Markdown block for the current route table, in ``Opcode`` order."""
    lines = [
        f"{len(Opcode)} opcodes: {len(ROUTES)} routed, {len(REPLY_ONLY)} reply-only; "
        f"{len(REPLIES)} carry a declared reply body.",
        "",
        "| Opcode | Sender | Served | Admission | Body `D` | Refused as | Handler | Body as a cell's reply |",
        "| --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for opcode in Opcode:
        route = ROUTES.get(opcode)
        reply = f"`{REPLIES[opcode].__name__}`" if opcode in REPLIES else "—"
        if route is None:
            lines.append(
                f"| `{opcode.name}` | — | reply-only: a cell emits it | | | | | {reply} |"
            )
            continue
        refusal = route.refusal
        lines.append(
            f"| `{opcode.name}` | {route.sender.value} "
            f"| {'after the auth delay' if route.delayed else 'on delivery'} "
            f"| {route.admission.value if route.admission is not None else '—'} "
            f"| {f'`{route.body.__name__}`' if route.body is not None else '—'} "
            f"| `{refusal.auth_counter}` / `{refusal.malformed_counter}`, "
            f"{'`TX_ERROR`' if refusal.answered else 'silent'} "
            f"| `{route.handler}` | {reply} |"
        )
    return "\n".join(lines)


#: (marker name, what renders the block between its markers)
BLOCKS = (("opcode-table", render), ("wire-bodies", render_wire_bodies))


def main(argv: list[str]) -> int:
    text = DOCUMENT.read_text()
    stale = False
    for name, render_block in BLOCKS:
        begin = f"<!-- {name}:begin (generated by tools/check_opcode_table.py --write) -->"
        end = f"<!-- {name}:end -->"
        try:
            head, rest = text.split(begin, 1)
            committed, tail = rest.split(end, 1)
        except ValueError:
            print(f"{DOCUMENT}: the {name} markers are missing", file=sys.stderr)
            return 1
        generated = f"\n{render_block()}\n"
        if committed == generated:
            continue
        stale = True
        text = head + begin + generated + end + tail
        if "--write" not in argv:
            sys.stderr.writelines(
                difflib.unified_diff(
                    committed.splitlines(keepends=True),
                    generated.splitlines(keepends=True),
                    f"docs/ARCHITECTURE.md {name} (committed)",
                    f"{name} (rendered from the code)",
                )
            )
    if not stale:
        return 0
    if "--write" in argv:
        DOCUMENT.write_text(text)
        print(f"{DOCUMENT}: generated references rewritten")
        return 0
    print("a generated reference is stale: run tools/check_opcode_table.py --write", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
