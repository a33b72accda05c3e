"""Message-protocol wiring rules (``PROTO*``) and the fault-table rule (``FAULT001``).

The uniform RESTful interface routes every message by its opcode
(Section III-C2 of the paper), and the cell's route table
(:mod:`repro.core.routes`) is the one declaration of that routing.  Five
wiring mistakes survive unit tests easily — an opcode the tables do not
know, a row without a resolvable body parser, a handler that trusts
payload data before authenticating the envelope, a sender that signs and
sends beside the endpoint, and an opcode nothing sends — so they are
checked statically over the whole tree:

* ``PROTO001`` — every member of :class:`repro.messages.opcodes.Opcode`
  must be declared in the route module: as the key of an
  ``Opcode.X: Route(...)`` row of ``ROUTES`` (an opcode a cell serves), of
  an ``Opcode.X: Class`` row of ``REPLIES`` (one it answers with; the
  reply-only opcodes are the ``REPLIES`` keys that have no route), or of
  one row in each — never of two rows of the same table.  An undeclared
  opcode is either dead protocol surface or a handler someone forgot to
  route; a doubly declared one has a row the dict silently drops.
* ``PROTO002`` — the body of every ``Route(...)`` row must be ``None`` or a
  class, defined in the scanned tree, that can parse the data field: it
  declares its wire fields under the codec base (``wire.Body`` derives
  ``from_data`` from them) or defines ``from_data`` by hand — one parser
  per body, named in one place.  The class of every ``REPLIES`` row must
  declare its wire fields under the codec base: a reply is built *and*
  read from its declaration.
* ``PROTO003`` — inside message handlers (``_serve_*`` / ``_process_*`` /
  ``_accept_*`` / ``handle_*`` functions taking an ``Envelope``), the
  envelope's ``.data`` / ``.payload`` must not be consumed before
  ``.verify()``: Section III-D3 makes authentication the first step of
  serving any request.  A handler may leave that step to an ingress
  stage only if *every* reference to it is a call made after the caller
  verified the envelope it passes.  Handlers the route table names get a
  typed body from the stage and have no business reading ``.data`` at all.
* ``PROTO004`` — ``Envelope.create(...)`` and ``<...>.network.send(...)``
  are called by the participant's endpoint
  (:mod:`repro.messages.endpoint`) and nowhere else: it owns the nonce
  sequence, the clock stamp, the crashed-cell gate and the request → reply
  map, and a hand-rolled sender beside it has to re-state all four.
* ``PROTO005`` — every opcode is named (``Opcode.X``) by some module other
  than the two that declare it, ``opcodes`` and ``routes``: an opcode only
  the tables know is a route no participant sends or reads.
* ``FAULT001`` — the same "declared once" rule for the scheduled fault
  kinds: what a kind *is* lives in its ``FaultKind(...)`` row of
  :mod:`repro.core.faults`, so under :mod:`repro.chaos` and in that module
  a kind's name as a string literal — compared, matched in a ``case``, or
  passed as ``kind=`` — anywhere outside a row is a second place that has
  to know the kind.  The ``fault.record("...")`` event names in the cell
  and the gateway are out of scope: a row's ``evidence`` refers to them.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence

from .engine import Finding, SourceFile

OPCODES_MODULE = "repro.messages.opcodes"
ROUTES_MODULE = "repro.core.routes"
DISPATCH_PACKAGE = "repro.core"
#: Where ``Envelope.create`` is defined, and the one module that may call it.
SENDER_MODULES = ("repro.messages.envelope", "repro.messages.endpoint")
#: Where the ``FaultKind(...)`` rows live, and the package that must ask them.
FAULTS_MODULE = "repro.core.faults"
CHAOS_PACKAGE = "repro.chaos"

_HANDLER_PREFIXES = ("_serve_", "_process_", "_accept_", "handle_")


def _finding(
    source: SourceFile, line: int, rule: str, message: str, fixit: str, symbol: str
) -> Finding:
    return Finding(
        path=source.display_path,
        line=line,
        rule=rule,
        message=message,
        fixit=fixit,
        symbol=symbol,
        module=source.module,
    )


def _opcode_members(source: SourceFile) -> dict[str, int]:
    """``{member name: line}`` of the ``Opcode`` enum class."""
    members: dict[str, int] = {}
    for node in ast.walk(source.tree):
        if isinstance(node, ast.ClassDef) and node.name == "Opcode":
            for item in node.body:
                if isinstance(item, ast.Assign):
                    for target in item.targets:
                        if isinstance(target, ast.Name) and target.id.isupper():
                            members[target.id] = item.lineno
    return members


def _opcode_name(node: ast.AST) -> Optional[str]:
    """``X`` for an ``Opcode.X`` expression."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "Opcode"
    ):
        return node.attr
    return None


def _route_rows(source: SourceFile) -> list[tuple[str, Optional[ast.expr], int]]:
    """``(opcode member, body expression, line)`` of every ``Opcode.X: Route(...)`` row."""
    rows = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Dict):
            continue
        for key, value in zip(node.keys, node.values):
            name = _opcode_name(key) if key is not None else None
            if (
                name is not None
                and isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "Route"
            ):
                keywords = {keyword.arg: keyword.value for keyword in value.keywords}
                body = value.args[1] if len(value.args) > 1 else keywords.get("body")
                rows.append((name, body, key.lineno))
    return rows


def _reply_rows(source: SourceFile) -> list[tuple[str, ast.expr, int]]:
    """``(opcode member, class expression, line)`` of every ``Opcode.X: Class`` reply row."""
    for node in ast.walk(source.tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and any(
            isinstance(target, ast.Name) and target.id == "REPLIES"
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        ):
            table = node.value
            if isinstance(table, ast.Dict):
                return [
                    (name, value, key.lineno)
                    for key, value in zip(table.keys, table.values)
                    if key is not None and (name := _opcode_name(key)) is not None
                ]
    return []


def _declares_wire_field(node: ast.ClassDef) -> bool:
    """Whether the class body has a ``name: type = wire.<kind>(...)`` field."""
    for item in node.body:
        call = item.value if isinstance(item, ast.AnnAssign) else None
        while isinstance(call, ast.Call):
            call = call.func  # ``wire.list_of(wire.text)(default=())`` calls twice
        if isinstance(call, ast.Attribute) and getattr(call.value, "id", None) == "wire":
            return True
    return False


def _parser_classes(sources: Sequence[SourceFile]) -> tuple[set[str], set[str]]:
    """Names of the scanned classes that can parse a data field.

    First the ones that declare it: the class (or a base) has wire fields
    under the codec base ``wire.Body``, which derives the parser from them
    (:mod:`repro.messages.wire`).  Second those and the ones that define
    ``from_data`` by hand.
    """
    classes = {
        node.name: node
        for source in sources
        for node in ast.walk(source.tree)
        if isinstance(node, ast.ClassDef)
    }

    def lineage(node: ast.ClassDef) -> Iterator[ast.ClassDef]:
        yield node
        for base in node.bases:
            parent = classes.get(getattr(base, "id", None) or getattr(base, "attr", ""))
            if parent is not None and parent is not node:
                yield from lineage(parent)

    def declares(node: ast.ClassDef) -> bool:
        ancestry = list(lineage(node))
        return any(cls.name == "Body" for cls in ancestry) and any(
            _declares_wire_field(cls) for cls in ancestry
        )

    declared = {name for name, node in classes.items() if declares(node)}
    by_hand = {
        name
        for name, node in classes.items()
        if any(getattr(item, "name", None) == "from_data" for item in node.body)
    }
    return declared, declared | by_hand


def _check_opcode_wiring(sources: Sequence[SourceFile]) -> Iterator[Finding]:
    by_module = {source.module: source for source in sources}
    opcodes_source = by_module.get(OPCODES_MODULE)
    routes_source = by_module.get(ROUTES_MODULE)
    if opcodes_source is None:
        return
    members = _opcode_members(opcodes_source)
    # Only meaningful when the dispatch package is actually in the scan
    # (fixture trees exercising other rules may omit it).
    if not members or not any(
        s.module == DISPATCH_PACKAGE or s.module.startswith(DISPATCH_PACKAGE + ".")
        for s in sources
    ):
        return
    rows = _route_rows(routes_source) if routes_source is not None else []
    replies = _reply_rows(routes_source) if routes_source is not None else []
    routed = [name for name, _body, _line in rows]
    answered = [name for name, _body, _line in replies]

    # PROTO001 — every opcode is served, answered with, or both: once per table.
    for name, line in sorted(members.items()):
        count = max(routed.count(name), answered.count(name))
        if count != 1:
            yield _finding(
                opcodes_source,
                line,
                "PROTO001",
                f"opcode {name} is declared {count} times in {ROUTES_MODULE} "
                "(one Route row, one REPLIES row, or one of each)",
                "add an Opcode.X: Route(...) row naming its sender, body and handler, an "
                "Opcode.X: Class row in REPLIES, or remove the dead opcode",
                f"opcode:{name}",
            )

    # PROTO002 — every row names a body parser (or declares there is no body).
    declared, parsers = _parser_classes(sources)
    for name, body, line in replies:
        if not (isinstance(body, ast.Name) and body.id in declared):
            yield _finding(
                routes_source,
                line,
                "PROTO002",
                f"the REPLIES row of {name} names no class with declared wire fields "
                "in the scanned tree",
                "point the row at the wire.Body class that declares the reply's fields",
                f"reply-body:{name}",
            )
    for name, body, line in rows:
        carries_nothing = isinstance(body, ast.Constant) and body.value is None
        if not carries_nothing and not (isinstance(body, ast.Name) and body.id in parsers):
            yield _finding(
                routes_source,
                line,
                "PROTO002",
                f"the route of {name} names no class with declared wire fields or a "
                f"from_data parser in the scanned tree",
                "point the row at the class that parses the opcode's data "
                "field (None only for an opcode that carries none)",
                f"route-body:{name}",
            )


def _check_unsent_opcodes(sources: Sequence[SourceFile]) -> Iterator[Finding]:
    """PROTO005 — every opcode is named beside the two modules that declare it."""
    opcodes_source = next((s for s in sources if s.module == OPCODES_MODULE), None)
    named = {
        name
        for source in sources
        if source.module not in (OPCODES_MODULE, ROUTES_MODULE)
        for node in ast.walk(source.tree)
        if (name := _opcode_name(node)) is not None
    }
    # A scan that names no opcode at all (the fixture trees of the other
    # rules) holds no sender to compare with.
    if opcodes_source is None or not named:
        return
    for name, line in sorted(_opcode_members(opcodes_source).items()):
        if name not in named:
            yield _finding(
                opcodes_source,
                line,
                "PROTO005",
                f"opcode {name} is named nowhere but {OPCODES_MODULE} and {ROUTES_MODULE}: "
                "no participant sends or reads it",
                "send it where the protocol needs it, or delete the opcode and its route",
                f"unsent:{name}",
            )


def _annotation_is_envelope(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Name):
        return annotation.id == "Envelope"
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == "Envelope"
    if isinstance(annotation, ast.Constant):
        return annotation.value == "Envelope"
    return False


def _verified_names(function: ast.FunctionDef) -> dict[str, int]:
    """``{variable: first line}`` of the ``<variable>.verify()`` calls in ``function``."""
    lines: dict[str, int] = {}
    for sub in ast.walk(function):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "verify"
            and isinstance(sub.func.value, ast.Name)
        ):
            name = sub.func.value.id
            lines[name] = min(sub.lineno, lines.get(name, sub.lineno))
    return lines


def _authenticated_by_callers(handler: ast.FunctionDef, trees: Sequence[ast.Module]) -> bool:
    """Whether an ingress stage verifies the envelope before every use of ``handler``.

    True when every reference to the handler's name in the dispatch
    package is a method call made from a function that, on an earlier
    line, called ``.verify()`` on a variable it passes along.  Callees
    resolve by method name; a handler stored or passed around uncalled
    counts as reachable without authentication.
    """
    references = {
        id(sub)
        for tree in trees
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and sub.attr == handler.name
    }
    vouched = set()
    for tree in trees:
        for caller in ast.walk(tree):
            if not isinstance(caller, ast.FunctionDef):
                continue
            verified = _verified_names(caller)
            for call in ast.walk(caller):
                if isinstance(call, ast.Call) and id(call.func) in references:
                    passed = [*call.args, *(keyword.value for keyword in call.keywords)]
                    if any(
                        isinstance(arg, ast.Name)
                        and verified.get(arg.id, call.lineno) < call.lineno
                        for arg in passed
                    ):
                        vouched.add(id(call.func))
    return bool(references) and vouched == references


def _check_verify_order(sources: Sequence[SourceFile]) -> Iterator[Finding]:
    """PROTO003 — handlers must verify the envelope before reading payload."""
    dispatch = [
        source
        for source in sources
        if source.module == DISPATCH_PACKAGE
        or source.module.startswith(DISPATCH_PACKAGE + ".")
    ]
    trees = [source.tree for source in dispatch]
    for source in dispatch:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if not node.name.startswith(_HANDLER_PREFIXES):
                continue
            envelope_params = [
                arg.arg
                for arg in [*node.args.args, *node.args.kwonlyargs]
                if _annotation_is_envelope(arg.annotation)
            ]
            verified = _verified_names(node)
            for param in envelope_params:
                verify_line = verified.get(param)
                if verify_line is None and _authenticated_by_callers(node, trees):
                    continue
                consumed = sorted(
                    (sub.lineno, sub.attr)
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.Attribute)
                    and sub.attr in ("data", "payload")
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == param
                )
                for line, attr in consumed:
                    if verify_line is None or line < verify_line:
                        problem = (
                            "before the envelope signature is verified"
                            if verify_line is not None
                            else "and the handler never verifies the envelope "
                            "(nor does every caller, before passing it)"
                        )
                        yield _finding(
                            source,
                            line,
                            "PROTO003",
                            f"handler {node.name}() consumes {param}.{attr} {problem}",
                            f"check 'if not {param}.verify(): return' before "
                            f"touching payload fields (Section III-D3)",
                            f"{node.name}:{attr}:L{line}",
                        )


def _check_single_sender(sources: Sequence[SourceFile]) -> Iterator[Finding]:
    """PROTO004 — nobody signs or sends an envelope beside the endpoint."""
    for source in sources:
        if source.module in SENDER_MODULES:
            continue
        for node in ast.walk(source.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            owner, call = node.func.value, node.func.attr
            if call == "create" and getattr(owner, "id", None) == "Envelope":
                what = "Envelope.create"
            elif call == "send" and "network" in (
                getattr(owner, "id", None), getattr(owner, "attr", None)
            ):
                what = "network.send"
            else:
                continue
            yield _finding(
                source,
                node.lineno,
                "PROTO004",
                f"{what}(...) is called outside the message endpoint",
                "sign and send through the participant's endpoint "
                "(Endpoint.sign / post / send / ask)",
                f"{what}:L{node.lineno}",
            )


def _string_constants(node: ast.AST) -> Iterator[ast.Constant]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub


def _check_fault_table(sources: Sequence[SourceFile]) -> Iterator[Finding]:
    """FAULT001 — nobody spells a fault kind's name beside its table row."""
    table = next((source for source in sources if source.module == FAULTS_MODULE), None)
    if table is None:
        return
    rows = [
        node
        for node in ast.walk(table.tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "FaultKind"
    ]
    kinds = set()
    for row in rows:
        name = row.args[0] if row.args else next(
            (keyword.value for keyword in row.keywords if keyword.arg == "name"), None
        )
        if isinstance(name, ast.Constant) and isinstance(name.value, str):
            kinds.add(name.value)
    # Literals inside a row are the declaration; one reported is not reported
    # again for an enclosing comparison.
    settled = {id(sub) for row in rows for sub in ast.walk(row)}
    for source in sources:
        if not (
            source is table
            or source.module == CHAOS_PACKAGE
            or source.module.startswith(CHAOS_PACKAGE + ".")
        ):
            continue
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Compare):
                how, literals = "compared", list(_string_constants(node))
            elif isinstance(node, ast.match_case):
                how, literals = "matched", list(_string_constants(node.pattern))
            elif isinstance(node, ast.keyword) and node.arg == "kind":
                how, literals = "passed as kind=", list(_string_constants(node.value))
            else:
                continue
            for literal in literals:
                if literal.value in kinds and id(literal) not in settled:
                    settled.add(id(literal))
                    yield _finding(
                        source,
                        literal.lineno,
                        "FAULT001",
                        f"fault kind {literal.value!r} is {how} as a string literal "
                        f"outside its FaultKind row in {FAULTS_MODULE}",
                        "ask the row (fault.row / fault_kind(name)): its family, target, "
                        "window, outage, evidence or arm shape — or declare the property there",
                        f"{literal.value}:L{literal.lineno}",
                    )


def check_protocol(sources: Sequence[SourceFile]) -> Iterator[Finding]:
    """Apply every PROTO rule, and FAULT001, across the scanned tree."""
    yield from _check_opcode_wiring(sources)
    yield from _check_unsent_opcodes(sources)
    yield from _check_verify_order(sources)
    yield from _check_single_sender(sources)
    yield from _check_fault_table(sources)
