#!/usr/bin/env python3
"""Keep the generated references of ``docs/`` equal to the code.

The table between the ``opcode-table`` markers is *generated* from
:mod:`repro.core.routes` — the one declaration of who may send which
opcode, what body it carries, what the ingress stage does before its
handler runs, and which body a cell answers with under each reply opcode.
The one between the ``wire-bodies`` markers is generated from the wire
fields the body classes declare (:mod:`repro.messages.wire`, the reply
classes of :mod:`repro.core.replies` included): family error, signer and
domain tag, and every field's key and kind.  The ``fault-kinds`` block of
``docs/FAULTS.md`` is generated from :data:`repro.core.faults.FAULT_TABLE`,
the one declaration of every scheduled fault kind; the ``escrow-states``
block of ``docs/TESTING.md`` by evaluating
:class:`repro.audit.oracles.EscrowPair` over every joint state of a
cross-shard escrow pair.  Without arguments the script
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

from repro.audit.oracles import EscrowPair  # noqa: E402
from repro.core.faults import FAULT_TABLE, Family  # noqa: E402
from repro.core.routes import REPLIES, REPLY_ONLY, ROUTES, travels_signed  # noqa: E402
from repro.messages import wire  # noqa: E402
from repro.messages.opcodes import Opcode  # noqa: E402
from repro.messages.signer import SignedStatement  # noqa: E402

ARCHITECTURE = REPO_ROOT / "docs" / "ARCHITECTURE.md"
FAULTS = REPO_ROOT / "docs" / "FAULTS.md"
TESTING = REPO_ROOT / "docs" / "TESTING.md"

#: The statuses FastMoney writes on a cross-shard transfer's source and
#: target instance; None is "no record".
SOURCE_STATUSES = ("held", "settled", "refunded", "reclaimed", "voucher", "voucher_reclaimed", None)
TARGET_STATUSES = ("expected", "credited", "cancelled", "redeemed", None)


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
        "| Opcode | Sender | Signed | Served | Admission | Body `D` | Refused as | Handler "
        "| Body as a cell's reply |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for opcode in Opcode:
        route = ROUTES.get(opcode)
        reply = f"`{REPLIES[opcode].__name__}`" if opcode in REPLIES else "—"
        signed = "yes" if travels_signed(opcode) else "**no**"
        if route is None:
            lines.append(
                f"| `{opcode.name}` | — | {signed} | reply-only: a cell emits it "
                f"| | | | | {reply} |"
            )
            continue
        refusal = route.refusal
        lines.append(
            f"| `{opcode.name}` | {route.sender.value} | {signed} "
            f"| {'after the auth delay' if route.delayed else 'on delivery'} "
            f"| {route.admission.value if route.admission is not None else '—'} "
            f"| {f'`{route.body.__name__}`' if route.body is not None else '—'} "
            f"| `{refusal.auth_counter}` / `{refusal.malformed_counter}`, "
            f"{'`TX_ERROR`' if refusal.answered else 'silent'} "
            f"| `{route.handler}` | {reply} |"
        )
    return "\n".join(lines)


def render_fault_kinds() -> str:
    """The Markdown block for the fault table, in declared order."""
    lines = [
        f"{len(FAULT_TABLE)} kinds: "
        + ", ".join(
            f"{sum(row.family is family for row in FAULT_TABLE)} {family.value}"
            for family in Family
        )
        + ".  *Fired when*: the `FaultPlan.record` event that proves the fault acted "
        "(`fault_kinds_fired` in a scenario report); a kind without one fires by being injected.",
        "",
        "| Kind | Family | Shape | Window | Outage | Target | Params | Fired when | Oracles |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for row in FAULT_TABLE:
        if row.family is not Family.BYZANTINE:
            oracles = "tolerated: every oracle passes"
        elif row.audit_fails:
            oracles = "caught: audit fails (`caught-by-anchor-agreement` / `caught-by-audit`)"
        else:
            oracles = "caught: refused before commit (`caught-by-certificate`), audit passes"
        params = ", ".join(f"`{param.name}`: {param.what}" for param in row.params)
        lines.append(
            f"| `{row.name}` | {row.family.value} | {type(row.arm).__name__.lower()} "
            f"| {'`[at, until)`' if row.window is not None else '`at`'} "
            f"| {'yes' if row.outage else '—'} | {row.target.value} | {params or '—'} "
            f"| {f'`{row.evidence}` recorded' if row.evidence else 'injected'} | {oracles} |"
        )
    return "\n".join(lines)


def render_escrow_states() -> str:
    """The Markdown block of every (source, target) escrow state, as the oracles read it."""
    pairs = [
        EscrowPair(
            "x",
            source and {"status": source, "from": "sender", "to": "recipient", "amount": 1,
                        "instance": "source"},
            target and {"status": target, "to": "recipient", "amount": 1, "instance": "target"},
        )
        for source in SOURCE_STATUSES
        for target in TARGET_STATUSES
        if source or target
    ]
    lines = [
        f"{len(pairs)} joint states: {sum(not pair.findings() for pair in pairs)} legal, "
        f"{sum(bool(pair.findings()) for pair in pairs)} a finding.  *In transit*: counted in "
        "the global `minted == supplies + in-transit` check.  *Committed*: the transfer the "
        "differential oracle hands to the specification.  *Owner*: whose balance the semantic "
        "harvest credits with the escrowed value (— when a balance already holds it, or nothing "
        "does).  A further record of either direction for one xtx (a reused xtx) is one more "
        "finding, naming both instances, and the pair then commits nothing.",
        "",
        "| Source | Target | Conservation verdict | In transit | Committed | Owner |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for pair in pairs:
        verdict = "; ".join(
            finding.removeprefix(f"xtx {pair.xtx}: ") for finding in pair.findings()
        )
        source, target = pair.source_status, pair.target_status
        lines.append(
            f"| {f'`{source}`' if source else '—'} | {f'`{target}`' if target else '—'} "
            f"| {verdict or 'legal'} | {'the amount' if pair.in_transit else '—'} "
            f"| {'yes' if pair.transfer is not None else '—'} "
            f"| {pair.adjustment[0] if pair.adjustment is not None else '—'} |"
        )
    return "\n".join(lines)


#: (document, marker name, what renders the block between its markers)
BLOCKS = (
    (ARCHITECTURE, "opcode-table", render),
    (ARCHITECTURE, "wire-bodies", render_wire_bodies),
    (FAULTS, "fault-kinds", render_fault_kinds),
    (TESTING, "escrow-states", render_escrow_states),
)


def main(argv: list[str]) -> int:
    texts = {document: document.read_text() for document, _name, _render in BLOCKS}
    stale = set()
    for document, name, render_block in BLOCKS:
        shown = document.relative_to(REPO_ROOT)
        begin = f"<!-- {name}:begin (generated by tools/check_opcode_table.py --write) -->"
        end = f"<!-- {name}:end -->"
        try:
            head, rest = texts[document].split(begin, 1)
            committed, tail = rest.split(end, 1)
        except ValueError:
            print(f"{shown}: the {name} markers are missing", file=sys.stderr)
            return 1
        generated = f"\n{render_block()}\n"
        if committed == generated:
            continue
        stale.add(document)
        texts[document] = head + begin + generated + end + tail
        if "--write" not in argv:
            sys.stderr.writelines(
                difflib.unified_diff(
                    committed.splitlines(keepends=True),
                    generated.splitlines(keepends=True),
                    f"{shown} {name} (committed)",
                    f"{name} (rendered from the code)",
                )
            )
    if not stale:
        return 0
    if "--write" in argv:
        for document in sorted(stale):
            document.write_text(texts[document])
            print(f"{document}: generated references rewritten")
        return 0
    print("a generated reference is stale: run tools/check_opcode_table.py --write", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
