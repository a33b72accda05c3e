"""Determinism rules (``DET*``).

Same-seed replay and cross-cell fingerprint agreement — the foundation of
every chaos oracle in :mod:`repro.audit.oracles` — hold only if core code
never consults ambient nondeterminism.  These rules flag the ways it could
creep in:

* ``DET001`` — runtime ``import random`` / ``secrets`` / ``uuid`` in a
  guarded package.  Annotation-only imports belong under
  ``if TYPE_CHECKING:``; entropy consumers must take a seeded stream from
  :mod:`repro.sim.rng` instead.
* ``DET002`` — ambient nondeterminism *calls* anywhere in the tree:
  module-level ``random.*`` functions, ``random.Random()`` with no seed,
  ``secrets.*``, ``uuid.uuid1/uuid4``, wall-clock reads (``time.time`` and
  friends, ``datetime.now``), ``os.urandom``, and ``os.environ`` /
  ``os.getenv`` reads (environment-dependent behavior is nondeterminism
  across hosts).  ``random.Random(seed)`` with an explicit seed is allowed.
* ``DET003`` — iteration whose order the language does not pin where the
  order can leak into hashes, fingerprints, canonical encodings, or
  emitted messages: any direct iteration over a set display/constructor in
  a guarded package, and unsorted ``dict.keys()/.values()/.items()``
  iteration inside order-sensitive (sink) functions.  Wrap the iterable in
  ``sorted(...)`` or iterate a deterministic container.
* ``DET004`` — builtin ``hash()`` / ``id()`` in a guarded package: string
  hashing is salted per process (PYTHONHASHSEED) and ``id()`` is an
  address, so neither may reach any serialized or ordered context.  Use
  :mod:`repro.crypto.hashing` digests instead.
* ``DET005`` — a write to an attribute named ``now`` anywhere but
  :mod:`repro.sim.environment`: the simulated clock is a plain attribute
  (it is read tens of thousands of times per burst), so nothing but this
  rule stops a component from moving time.  Plain, annotated and augmented
  assignments and ``setattr(..., "now", ...)`` all count.
* ``DET006`` — an import of :class:`repro.sim.environment.Environment` (or
  of the module that defines it) under :mod:`repro.core` or
  :mod:`repro.messages`, except in the two modules that build and run the
  simulation (:data:`SIMULATION_BUILDERS`).  Everything else takes a
  :class:`~repro.sim.environment.Clock`, so what a stage may do with time
  is the port's six members, never ``run`` or ``step``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from .engine import Finding, SourceFile

#: Packages whose code feeds replicated state, fingerprints, or the wire.
GUARDED_PACKAGES: tuple[str, ...] = (
    "repro.core",
    "repro.messages",
    "repro.contracts",
    "repro.chaos",
    "repro.crypto",
    "repro.encoding",
    "repro.ethchain",
    "repro.audit",
)

#: Modules exempt from every DET rule: the seeded-stream provider itself,
#: and this analyzer (a development tool outside the simulation).
SANCTIONED_MODULES: tuple[str, ...] = ("repro.sim.rng", "repro.lint")

#: Nondeterministic standard-library modules a guarded module may not import.
AMBIENT_IMPORTS = frozenset({"random", "secrets", "uuid"})

#: Wall-clock reads (simulation code must use ``env.now``).
_CLOCK_CALLS = frozenset({"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter"})

#: The one module that may write the simulated clock (DET005).
CLOCK_OWNER = "repro.sim.environment"

#: Packages whose modules take a ``Clock`` instead of the ``Environment`` (DET006).
CLOCK_PORT_PACKAGES: tuple[str, ...] = ("repro.core", "repro.messages")
#: The modules of those packages that build and run the simulation (DET006).
SIMULATION_BUILDERS: tuple[str, ...] = ("repro.core.deployment", "repro.core.sharding")

#: Function names marking order-sensitive contexts for DET003(b).
_SINK_NAME_RE = re.compile(
    r"fingerprint|digest|canonical|hash|wire|serial|sign|emit|to_data|ledger_order"
)

_DICT_VIEW_METHODS = frozenset({"keys", "values", "items"})


def _in_package(module: str, packages: Iterable[str]) -> bool:
    return any(module == pkg or module.startswith(pkg + ".") for pkg in packages)


def is_guarded(module: str) -> bool:
    """Whether DET001/DET003/DET004 apply to ``module``."""
    if _in_package(module, SANCTIONED_MODULES):
        return False
    return _in_package(module, GUARDED_PACKAGES)


def is_sanctioned(module: str) -> bool:
    """Whether every DET rule skips ``module``."""
    return _in_package(module, SANCTIONED_MODULES)


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an expression (``os.environ`` -> that)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


class _TypeCheckingSpans(ast.NodeVisitor):
    """Line spans covered by ``if TYPE_CHECKING:`` blocks."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int]] = []

    def visit_If(self, node: ast.If) -> None:
        test = node.test
        name = _dotted(test)
        if name in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            end = max(child.end_lineno or child.lineno for child in node.body)
            self.spans.append((node.lineno, end))
        self.generic_visit(node)

    def covers(self, lineno: int) -> bool:
        return any(start <= lineno <= end for start, end in self.spans)


def _iterating_nodes(tree: ast.AST) -> Iterator[tuple[ast.expr, ast.AST]]:
    """Yield (iterable expression, owning statement/comprehension) pairs."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, node
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for generator in node.generators:
                yield generator.iter, node


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _enclosing_functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node  # type: ignore[misc]


def _assigned_attributes(node: ast.AST) -> Iterator[ast.Attribute]:
    """Attribute nodes an assignment statement writes (unpacked targets too)."""
    targets: list[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        elif isinstance(target, ast.Attribute):
            yield target


def _is_clock_setattr(node: ast.AST) -> bool:
    """``setattr(x, "now", v)`` or ``object.__setattr__(x, "now", v)``."""
    return (
        isinstance(node, ast.Call)
        and _dotted(node.func).split(".")[-1] in ("setattr", "__setattr__")
        and len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value == "now"
    )


def _imported_module(source: SourceFile, node: ast.ImportFrom) -> str:
    """The absolute module name ``from <...> import`` reads from."""
    if node.level == 0:
        return node.module or ""
    package = source.module.split(".")
    if source.path.name != "__init__.py":
        package = package[:-1]
    base = package[: len(package) - (node.level - 1)]
    return ".".join([*base, node.module] if node.module else base)


def _environment_imports(source: SourceFile) -> Iterator[int]:
    """Lines importing the ``Environment`` class or its module (DET006)."""
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            if any(alias.name == CLOCK_OWNER for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            module = _imported_module(source, node)
            names = {alias.name for alias in node.names}
            if (module == CLOCK_OWNER and names & {"Environment", "*"}) or (
                module == "repro.sim" and names & {"Environment", "environment", "*"}
            ):
                yield node.lineno


def check_determinism(source: SourceFile) -> Iterator[Finding]:
    """Apply every DET rule to one source file."""
    module = source.module
    if is_sanctioned(module):
        return
    guarded = is_guarded(module)
    tree = source.tree

    def finding(line: int, rule: str, message: str, fixit: str, symbol: str) -> Finding:
        return Finding(
            path=source.display_path,
            line=line,
            rule=rule,
            message=message,
            fixit=fixit,
            symbol=symbol,
            module=module,
        )

    # ------------------------------------------------------------------
    # DET001 — runtime import of an entropy module in a guarded package.
    # ------------------------------------------------------------------
    if guarded:
        spans = _TypeCheckingSpans()
        spans.visit(tree)
        for node in ast.walk(tree):
            names: list[tuple[str, int]] = []
            if isinstance(node, ast.Import):
                names = [(alias.name.split(".")[0], node.lineno) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [(node.module.split(".")[0], node.lineno)]
            for name, lineno in names:
                if name in AMBIENT_IMPORTS and not spans.covers(lineno):
                    yield finding(
                        lineno,
                        "DET001",
                        f"runtime import of nondeterministic module {name!r} "
                        f"in guarded package",
                        "take a seeded stream from sim.rng (SeedSequence.stream), or "
                        "move an annotation-only import under 'if TYPE_CHECKING:'",
                        f"import:{name}",
                    )

    # ------------------------------------------------------------------
    # DET002 — ambient nondeterminism calls (all packages).
    # ------------------------------------------------------------------
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            root = dotted.split(".")[0]
            leaf = dotted.split(".")[-1]
            hit = None
            if root == "random" and dotted.count(".") == 1:
                if leaf == "Random":
                    if not node.args and not node.keywords:
                        hit = ("random.Random() without a seed", "pass an explicit seed "
                               "or take a stream from sim.rng")
                elif leaf not in ("getstate", "setstate"):
                    hit = (f"ambient module-level call {dotted}()",
                           "draw from a seeded random.Random stream (sim.rng) instead")
            elif root == "secrets" and dotted.count(".") == 1:
                hit = (f"process-entropy call {dotted}()",
                       "derive key material from the experiment seed "
                       "(e.g. PrivateKey.from_seed)")
            elif dotted in ("uuid.uuid1", "uuid.uuid4"):
                hit = (f"random identifier call {dotted}()",
                       "derive ids from NonceFactory or a seeded stream")
            elif root == "time" and leaf in _CLOCK_CALLS and dotted.count(".") == 1:
                hit = (f"wall-clock read {dotted}()",
                       "use the simulation clock (env.now)")
            elif leaf in ("now", "utcnow", "today") and "datetime" in dotted:
                hit = (f"wall-clock read {dotted}()",
                       "use the simulation clock (env.now)")
            elif dotted == "os.urandom":
                hit = ("process-entropy call os.urandom()",
                       "derive bytes from the experiment seed via crypto.hashing")
            elif dotted == "os.getenv":
                hit = ("environment read os.getenv()",
                       "thread configuration through DeploymentConfig or CLI args")
            if hit is not None:
                yield finding(node.lineno, "DET002", hit[0], hit[1], f"call:{dotted}")
        elif isinstance(node, ast.Attribute) and _dotted(node) == "os.environ":
            yield finding(
                node.lineno,
                "DET002",
                "environment read os.environ",
                "thread configuration through DeploymentConfig or CLI args",
                "attr:os.environ",
            )

    # ------------------------------------------------------------------
    # DET005 — the simulated clock has one writer (all packages).
    # ------------------------------------------------------------------
    if module != CLOCK_OWNER:
        for node in ast.walk(tree):
            written = [t.lineno for t in _assigned_attributes(node) if t.attr == "now"]
            if _is_clock_setattr(node):
                written.append(node.lineno)
            for lineno in written:
                yield finding(
                    lineno,
                    "DET005",
                    "write to an attribute named 'now': the simulated clock is "
                    "moved by the kernel only",
                    "schedule an event (env.timeout / env.call_at) and let "
                    "Environment.step advance the clock; name other attributes "
                    "differently",
                    f"clock-write:L{lineno}",
                )

    # ------------------------------------------------------------------
    # DET006 — stages take a Clock; only the simulation's builders import
    # the Environment.
    # ------------------------------------------------------------------
    if _in_package(module, CLOCK_PORT_PACKAGES) and module not in SIMULATION_BUILDERS:
        for lineno in _environment_imports(source):
            yield finding(
                lineno,
                "DET006",
                "import of the simulation Environment outside the modules that "
                "build and run the simulation",
                "take a repro.sim.environment.Clock (now, event, timeout, any_of, "
                "call_at, process) and let the deployment pass its Environment",
                f"environment-import:L{lineno}",
            )

    if not guarded:
        return

    # ------------------------------------------------------------------
    # DET003 — order-unstable iteration where order can leak out.
    # ------------------------------------------------------------------
    for iterable, _owner in _iterating_nodes(tree):
        if _is_set_expression(iterable):
            yield finding(
                iterable.lineno,
                "DET003",
                "iteration over a set expression has PYTHONHASHSEED-dependent order",
                "wrap the iterable in sorted(...) or use a deterministic container",
                f"setiter:L{iterable.lineno}",
            )
    for func in _enclosing_functions(tree):
        if not _SINK_NAME_RE.search(func.name):
            continue
        for iterable, _owner in _iterating_nodes(func):
            if (
                isinstance(iterable, ast.Call)
                and isinstance(iterable.func, ast.Attribute)
                and iterable.func.attr in _DICT_VIEW_METHODS
                and not iterable.args  # KeyValueStore.keys(prefix) sorts internally
            ):
                yield finding(
                    iterable.lineno,
                    "DET003",
                    f"unsorted .{iterable.func.attr}() iteration inside "
                    f"order-sensitive function {func.name}()",
                    "iterate sorted(....items()) so the emitted order is canonical",
                    f"dictiter:{func.name}:L{iterable.lineno}",
                )

    # ------------------------------------------------------------------
    # DET004 — salted/address-based identity in replicated code.
    # ------------------------------------------------------------------
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("hash", "id")
        ):
            yield finding(
                node.lineno,
                "DET004",
                f"builtin {node.func.id}() is process-dependent "
                f"(hash salting / object addresses)",
                "use a crypto.hashing digest or an explicit stable key",
                f"builtin:{node.func.id}:L{node.lineno}",
            )
