"""Message-protocol wiring rules (``PROTO*``).

The uniform RESTful interface routes every message by its opcode
(Section III-C2 of the paper).  Three wiring mistakes survive unit tests
easily — an opcode nobody dispatches, a structured opcode without a typed
body class, and a handler that trusts payload data before authenticating
the envelope — so they are checked statically over the whole tree:

* ``PROTO001`` — every member of :class:`repro.messages.opcodes.Opcode`
  must be referenced somewhere in ``repro.core`` (the cell dispatch /
  reply paths).  An unreferenced opcode is either dead protocol surface or
  a handler someone forgot to register.
* ``PROTO002`` — every *structured* opcode (``CELL_*``, ``XSHARD_*``, and
  the ``*_BATCH`` families, whose payloads carry signed sub-structures)
  must have a body-class entry in ``repro.messages.registry`` —
  and every registry entry must name a real opcode and an importable
  class.
* ``PROTO003`` — inside message handlers (``_serve_*`` / ``_process_*`` /
  ``_accept_*`` / ``handle_*`` functions taking an ``Envelope``), the
  envelope's ``.data`` / ``.payload`` must not be consumed before
  ``.verify()``: Section III-D3 makes authentication the first step of
  serving any request.  A handler may leave that step to an ingress
  stage only if *every* reference to it is a call made after the caller
  verified the envelope it passes.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence

from .engine import Finding, SourceFile

OPCODES_MODULE = "repro.messages.opcodes"
REGISTRY_MODULE = "repro.messages.registry"
DISPATCH_PACKAGE = "repro.core"

#: Opcode-name families whose payloads are typed body classes.
STRUCTURED_PREFIXES = ("CELL_", "XSHARD_")
STRUCTURED_SUFFIXES = ("_BATCH",)

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


def _opcode_references(source: SourceFile) -> set[str]:
    """Names referenced as ``Opcode.X`` anywhere in the file."""
    refs: set[str] = set()
    for node in ast.walk(source.tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "Opcode"
        ):
            refs.add(node.attr)
    return refs


def is_structured(name: str) -> bool:
    """Whether the opcode family carries a typed body class."""
    return name.startswith(STRUCTURED_PREFIXES) or name.endswith(STRUCTURED_SUFFIXES)


def _registry_entries(source: SourceFile) -> dict[str, tuple[str, int]]:
    """``{opcode member: (\"module:Class\" target, line)}`` from OPCODE_BODIES."""
    entries: dict[str, tuple[str, int]] = {}
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target: ast.expr = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
        else:
            continue
        if not (isinstance(target, ast.Name) and target.id == "OPCODE_BODIES"):
            continue
        value = node.value
        if isinstance(value, ast.Dict):
            for key, item in zip(value.keys, value.values):
                if (
                    isinstance(key, ast.Attribute)
                    and isinstance(key.value, ast.Name)
                    and key.value.id == "Opcode"
                ):
                    spec = item.value if isinstance(item, ast.Constant) else ""
                    entries[key.attr] = (str(spec), key.lineno)
    return entries


def _check_opcode_wiring(sources: Sequence[SourceFile]) -> Iterator[Finding]:
    by_module = {source.module: source for source in sources}
    opcodes_source = by_module.get(OPCODES_MODULE)
    if opcodes_source is None:
        return
    members = _opcode_members(opcodes_source)
    if not members:
        return

    # PROTO001 — dispatch coverage in repro.core.
    referenced: set[str] = set()
    for source in sources:
        if source.module == DISPATCH_PACKAGE or source.module.startswith(
            DISPATCH_PACKAGE + "."
        ):
            referenced |= _opcode_references(source)
    # Only meaningful when the dispatch package is actually in the scan
    # (fixture trees exercising other rules may omit it).
    if any(
        s.module == DISPATCH_PACKAGE or s.module.startswith(DISPATCH_PACKAGE + ".")
        for s in sources
    ):
        for name, line in sorted(members.items()):
            if name not in referenced:
                yield _finding(
                    opcodes_source,
                    line,
                    "PROTO001",
                    f"opcode {name} has no reference in {DISPATCH_PACKAGE} "
                    f"(no cell dispatches, emits, or replies with it)",
                    "register a handler branch in Cell._on_message (or remove "
                    "the dead opcode)",
                    f"opcode:{name}",
                )

    # PROTO002 — structured opcodes need a registry body class.
    registry_source = by_module.get(REGISTRY_MODULE)
    structured = {name: line for name, line in members.items() if is_structured(name)}
    if registry_source is None:
        for name, line in sorted(structured.items()):
            yield _finding(
                opcodes_source,
                line,
                "PROTO002",
                f"structured opcode {name} but {REGISTRY_MODULE} is missing",
                "add repro/messages/registry.py with an OPCODE_BODIES entry "
                "mapping the opcode to its body class",
                f"registry:{name}",
            )
        return
    entries = _registry_entries(registry_source)
    for name, line in sorted(structured.items()):
        if name not in entries:
            yield _finding(
                opcodes_source,
                line,
                "PROTO002",
                f"structured opcode {name} has no body class in "
                f"{REGISTRY_MODULE}.OPCODE_BODIES",
                "map it to its 'module:Class' body so handlers and audits "
                "share one parser",
                f"registry:{name}",
            )
    for name, (spec, line) in sorted(entries.items()):
        if name not in members:
            yield _finding(
                registry_source,
                line,
                "PROTO002",
                f"OPCODE_BODIES maps unknown opcode {name}",
                "remove the stale entry or add the opcode to the enum",
                f"registry-stale:{name}",
            )
            continue
        target = _resolve_body_class(spec, by_module)
        if target is False:
            yield _finding(
                registry_source,
                line,
                "PROTO002",
                f"OPCODE_BODIES entry for {name} names {spec!r}, which does "
                f"not resolve to a class in the scanned tree",
                "point the entry at an existing 'module:Class'",
                f"registry-target:{name}",
            )


def _resolve_body_class(
    spec: str, by_module: dict[str, SourceFile]
) -> Optional[bool]:
    """True if resolvable, False if provably wrong, None if out of scope."""
    if ":" not in spec:
        return False
    module_name, class_name = spec.split(":", 1)
    source = by_module.get(module_name)
    if source is None:
        return None
    for node in ast.walk(source.tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return True
    return False


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


def check_protocol(sources: Sequence[SourceFile]) -> Iterator[Finding]:
    """Apply every PROTO rule across the scanned tree."""
    yield from _check_opcode_wiring(sources)
    yield from _check_verify_order(sources)
