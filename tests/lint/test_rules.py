"""Per-rule fixture goldens for :mod:`repro.lint`.

Each rule gets three fixtures: a positive (the rule fires), a suppressed
variant (a justified inline comment silences it), and a clean variant (the
sanctioned way to write the same code).  Fixture trees live in a temp
directory literally named ``repro`` because the analyzer derives module
names from the scanned root, which is what makes the package-scoped rules
(guarded packages, ``repro.contracts``, ``repro.core``) apply.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_paths


@pytest.fixture
def tree(tmp_path):
    root = tmp_path / "repro"

    def write(relative: str, source: str) -> Path:
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return path

    write.root = root  # type: ignore[attr-defined]
    return write


def rules_of(findings):
    return [finding.rule for finding in findings]


# ----------------------------------------------------------------------
# DET001 — runtime entropy imports in guarded packages
# ----------------------------------------------------------------------
def test_det001_fires_on_runtime_import(tree):
    tree("core/x.py", "import random\n")
    assert rules_of(lint_paths([tree.root])) == ["DET001"]


def test_det001_allows_type_checking_gate(tree):
    tree(
        "core/x.py",
        """
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            import random
        """,
    )
    assert lint_paths([tree.root]) == []


def test_det001_not_applied_outside_guarded_packages(tree):
    tree("sim/x.py", "import random\n")
    assert lint_paths([tree.root]) == []


def test_det001_suppressed_with_reason(tree):
    tree(
        "core/x.py",
        "import random  # lint: disable=DET001 — fixture exercising the suppression path\n",
    )
    assert lint_paths([tree.root]) == []


# ----------------------------------------------------------------------
# DET002 — ambient nondeterminism calls (every package)
# ----------------------------------------------------------------------
def test_det002_fires_even_outside_guarded_packages(tree):
    tree(
        "sim/latencyish.py",
        """
        import random
        import time

        def sample():
            return random.random() + time.time()
        """,
    )
    assert rules_of(lint_paths([tree.root])) == ["DET002", "DET002"]


def test_det002_allows_seeded_random_stream(tree):
    tree(
        "sim/latencyish.py",
        """
        import random

        def stream(seed):
            return random.Random(seed)
        """,
    )
    assert lint_paths([tree.root]) == []


def test_det002_flags_unseeded_random_and_environment(tree):
    tree(
        "client/cfg.py",
        """
        import os
        import random

        def build():
            return random.Random(), os.environ.get("LANES")
        """,
    )
    assert rules_of(lint_paths([tree.root])) == ["DET002", "DET002"]


# ----------------------------------------------------------------------
# DET003 — order-unstable iteration in order-sensitive places
# ----------------------------------------------------------------------
def test_det003_fires_on_set_iteration_in_guarded_package(tree):
    tree(
        "core/y.py",
        """
        def collect(items):
            return [x for x in {1, 2, 3}]
        """,
    )
    assert rules_of(lint_paths([tree.root])) == ["DET003"]


def test_det003_fires_on_dict_views_in_sink_functions_only(tree):
    tree(
        "core/y.py",
        """
        def to_wire(self):
            return [k for k in self.data.items()]

        def helper(self):
            return [k for k in self.data.items()]
        """,
    )
    findings = lint_paths([tree.root])
    assert rules_of(findings) == ["DET003"]
    assert "to_wire" in findings[0].message


def test_det003_clean_when_sorted(tree):
    tree(
        "core/y.py",
        """
        def to_wire(self):
            return [k for k in sorted(self.data.items())]
        """,
    )
    assert lint_paths([tree.root]) == []


def test_det003_suppressed_with_reason(tree):
    tree(
        "core/y.py",
        """
        def fingerprint(self):
            # lint: disable=DET003 — XOR accumulation is order-independent
            return [k for k in self.data.items()]
        """,
    )
    assert lint_paths([tree.root]) == []


# ----------------------------------------------------------------------
# DET004 — salted / address-based identity in guarded packages
# ----------------------------------------------------------------------
def test_det004_fires_on_builtin_hash_and_id(tree):
    tree(
        "messages/z.py",
        """
        def key_of(obj):
            return hash(obj), id(obj)
        """,
    )
    assert rules_of(lint_paths([tree.root])) == ["DET004", "DET004"]


def test_det004_not_applied_outside_guarded_packages(tree):
    tree(
        "baselines/z.py",
        """
        def key_of(obj):
            return hash(obj)
        """,
    )
    assert lint_paths([tree.root]) == []


# ----------------------------------------------------------------------
# DET005 — the simulated clock has one writer (every package)
# ----------------------------------------------------------------------
def test_det005_fires_on_every_way_to_write_the_clock(tree):
    tree(
        "loadgen/warp.py",
        """
        def warp(env, cell):
            env.now = 5.0
            cell.env.now += 1.0
            env.now: float = 2.0
            env.now, other = 1.0, 2.0
            setattr(env, "now", 3.0)
            object.__setattr__(env, "now", 4.0)
        """,
    )
    assert rules_of(lint_paths([tree.root])) == ["DET005"] * 6


def test_det005_allows_reads_and_other_names(tree):
    tree(
        "core/reader.py",
        """
        def stamp(env, record):
            record.at = env.now
            record.known = env.now + 1.0
            now = env.now
            record.now_seen = now
            setattr(record, "at", now)
            return getattr(env, "now")
        """,
    )
    assert lint_paths([tree.root]) == []


def test_det005_exempts_the_environment_module_only(tree):
    body = """
        class Environment:
            def step(self):
                self.now = 1.0
        """
    tree("sim/environment.py", body)
    assert lint_paths([tree.root]) == []
    tree("sim/events.py", body)
    assert rules_of(lint_paths([tree.root])) == ["DET005"]


# ----------------------------------------------------------------------
# DET006 — core and messages take a Clock, not the Environment
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "module, source",
    [
        ("core/cell.py", "from ..sim.environment import Environment\n"),
        ("core/cell.py", "from ..sim.environment import Clock, Environment as Env\n"),
        ("core/cell.py", "from ..sim import environment\n"),
        ("core/cell.py", "import repro.sim.environment\n"),
        ("core/__init__.py", "from ..sim import Environment\n"),
        ("messages/endpoint.py", "from repro.sim.environment import Environment\n"),
        ("core/cell.py", "from typing import TYPE_CHECKING\n\nif TYPE_CHECKING:\n"
                         "    from ..sim.environment import Environment\n"),
    ],
)
def test_det006_fires_on_an_environment_import_in_core_and_messages(tree, module, source):
    tree(module, source)
    findings = lint_paths([tree.root])
    assert rules_of(findings) == ["DET006"]
    assert "Clock" in findings[0].fixit


def test_det006_allows_the_clock_and_the_simulation_builders(tree):
    tree("core/cell.py", "from ..sim.environment import Clock\n")
    tree("messages/endpoint.py", "from ..sim.events import Event\n")
    for builder in ("core/deployment.py", "core/sharding.py"):
        tree(builder, "from ..sim.environment import Environment\n")
    tree("client/client.py", "from ..sim.environment import Environment\n")
    tree("sim/resources.py", "from .environment import Environment\n")
    assert lint_paths([tree.root]) == []


# ----------------------------------------------------------------------
# PLAN rules — access-plan conformance
# ----------------------------------------------------------------------
PLAN_CONTRACT = """
    from ..state_store import AccessSet


    class Thing:
        def _k(self, a):
            return f"k/{a}"

        @bcontract_method
        def put_it(self, ctx, a):
            self.store.put(self._k(a), 1)
            self.store.increment("count")
            %(extra)s
            return {}

        %(orphan)s

        def access_plan(self, method, args, *, sender, tx_id):
            if method == "put_it":
                return AccessSet(
                    writes=frozenset({self._k(args["a"])}),
                    deltas=frozenset(%(deltas)s),
                )
            return None
"""


def plan_contract(extra="pass", orphan="", deltas='{"count"}'):
    return textwrap.dedent(PLAN_CONTRACT) % {
        "extra": extra,
        "orphan": textwrap.indent(textwrap.dedent(orphan), " " * 4).lstrip(),
        "deltas": deltas,
    }


def test_plan_clean_contract(tree):
    tree("contracts/community/thing.py", plan_contract())
    assert lint_paths([tree.root]) == []


def test_plan001_fires_on_undeclared_mutation(tree):
    tree(
        "contracts/community/thing.py",
        plan_contract(extra='self.store.put("extra", 2)'),
    )
    findings = lint_paths([tree.root])
    assert rules_of(findings) == ["PLAN001"]
    assert "'extra'" in findings[0].message


def test_plan002_fires_on_dead_declaration(tree):
    tree(
        "contracts/community/thing.py",
        plan_contract(deltas='{"count", "dead"}'),
    )
    findings = lint_paths([tree.root])
    assert rules_of(findings) == ["PLAN002"]
    assert "'dead'" in findings[0].message


def test_plan003_fires_on_unplanned_mutating_method(tree):
    orphan = """
    @bcontract_method
    def orphan(self, ctx):
        self.store.put("solo", 1)
        return {}
    """
    tree("contracts/community/thing.py", plan_contract(orphan=orphan))
    findings = lint_paths([tree.root])
    assert rules_of(findings) == ["PLAN003"]
    assert "orphan" in findings[0].message


def test_plan003_suppressed_with_reason(tree):
    orphan = """
    @bcontract_method
    # lint: disable=PLAN003 — whole-store sweep stays exclusive on purpose
    def orphan(self, ctx):
        self.store.put("solo", 1)
        return {}
    """
    tree("contracts/community/thing.py", plan_contract(orphan=orphan))
    assert lint_paths([tree.root]) == []


def test_plan_rules_skip_planless_contracts(tree):
    # A contract with no access_plan at all is outside the PLAN rules
    # (it runs exclusively; nothing was declared to conform to).
    tree(
        "contracts/community/thing.py",
        """
        class Thing:
            @bcontract_method
            def put_it(self, ctx):
                self.store.put("solo", 1)
                return {}
        """,
    )
    assert lint_paths([tree.root]) == []


# ----------------------------------------------------------------------
# PROTO rules — opcode / route-table / verify-order wiring
# ----------------------------------------------------------------------
OPCODES = """
    from enum import Enum


    class Opcode(str, Enum):
        TX_SUBMIT = "tx_submit"
        TX_ERROR = "tx_error"
        CELL_SYNC = "cell_sync"
        PING = "ping"
"""

ROUTES = """
    from ..messages.bodies import SyncRequest

    ROUTES = {
        Opcode.TX_SUBMIT: Route(Sender.CLIENT, Call, "_serve_submit", ANSWER),
        Opcode.CELL_SYNC: Route(Sender.CELL, SyncRequest, "_serve_sync", DROP),
        Opcode.PING: Route(Sender.ANYONE, None, "_serve_ping", DROP),
    }
    REPLIES = {Opcode.TX_ERROR: ErrorReply}
    REPLY_ONLY = frozenset(REPLIES) - frozenset(ROUTES)


    class Call:
        @classmethod
        def from_data(cls, raw):
            return cls()
"""

#: What a cell answers with is declared on the codec, like ``DECLARED_BODIES``.
REPLY_BODIES = """
    from . import wire


    class ErrorReply(wire.Body):
        error: str = wire.text()
"""

BODIES = """
    class SyncRequest:
        @classmethod
        def from_data(cls, raw):
            return cls()
"""

DISPATCH = """
    def dispatch(self, envelope):
        return ROUTES[envelope.operation]
"""


#: The other shape of a body parser: fields declared under the codec base,
#: which derives ``from_data`` from them.
DECLARED_BODIES = """
    from . import wire


    class SyncRequest(wire.Body):
        since_sequence: int = wire.natural()
        peers: tuple = wire.list_of(wire.text)(default=())


    class DeltaSyncRequest(SyncRequest):
        pass
"""

CODEC = """
    class Body:
        @classmethod
        def from_data(cls, raw):
            return cls()
"""


def write_protocol_tree(tree, opcodes=OPCODES, routes=ROUTES, dispatch=DISPATCH, bodies=BODIES):
    tree("messages/opcodes.py", opcodes)
    tree("messages/wire.py", CODEC)
    tree("messages/bodies.py", bodies)
    tree("core/replies.py", REPLY_BODIES)
    tree("core/routes.py", routes)
    tree("core/cell.py", dispatch)


def test_proto_clean_wiring(tree):
    write_protocol_tree(tree)
    assert lint_paths([tree.root]) == []


def test_proto001_fires_on_undeclared_opcode(tree):
    write_protocol_tree(
        tree,
        opcodes=OPCODES + '        PONG = "pong"\n',
    )
    findings = lint_paths([tree.root])
    assert rules_of(findings) == ["PROTO001"]
    assert "PONG is declared 0 times" in findings[0].message


@pytest.mark.parametrize(
    "old, new",
    [
        # a second row, which the dict silently drops
        ("    }", '        Opcode.PING: Route(Sender.CELL, None, "_serve_probe", DROP),\n    }'),
        # likewise in the reply table
        ("TX_ERROR: ErrorReply}", "TX_ERROR: ErrorReply, Opcode.PING: ErrorReply,"
                                  " Opcode.PING: ErrorReply}"),
    ],
)
def test_proto001_fires_on_an_opcode_declared_twice(tree, old, new):
    write_protocol_tree(tree, routes=ROUTES.replace(old, new, 1))
    findings = lint_paths([tree.root])
    assert rules_of(findings) == ["PROTO001"]
    assert "PING is declared 2 times" in findings[0].message


def test_proto001_accepts_an_opcode_that_is_served_and_answered_with(tree):
    # XSHARD_VOUCHER: a request on its way in, a reply on its way out.
    write_protocol_tree(
        tree, routes=ROUTES.replace("TX_ERROR: ErrorReply}", "TX_ERROR: ErrorReply, "
                                    "Opcode.PING: ErrorReply}")
    )
    assert lint_paths([tree.root]) == []


def test_proto001_reads_the_reply_only_opcodes_off_the_replies_table(tree):
    # A literal REPLY_ONLY set declares nothing any more.
    write_protocol_tree(
        tree, routes=ROUTES.replace("REPLIES = {Opcode.TX_ERROR: ErrorReply}", "REPLIES = {}")
        .replace("frozenset(REPLIES) - frozenset(ROUTES)", "frozenset({Opcode.TX_ERROR})")
    )
    findings = lint_paths([tree.root])
    assert rules_of(findings) == ["PROTO001"]
    assert "TX_ERROR is declared 0 times" in findings[0].message


def test_proto002_fires_on_a_row_without_a_body_parser(tree):
    write_protocol_tree(
        tree,
        routes=ROUTES.replace("Sender.CELL, SyncRequest,", "Sender.CELL, NoSuchClass,"),
    )
    findings = lint_paths([tree.root])
    assert rules_of(findings) == ["PROTO002"]
    assert "CELL_SYNC" in findings[0].message


def test_proto002_fires_on_a_class_that_cannot_parse(tree):
    write_protocol_tree(tree, routes=ROUTES.replace("def from_data(", "def from_wire("))
    findings = lint_paths([tree.root])
    assert rules_of(findings) == ["PROTO002"]
    assert "TX_SUBMIT" in findings[0].message


@pytest.mark.parametrize("body", ["SyncRequest", "DeltaSyncRequest"])
def test_proto002_accepts_a_body_that_declares_its_wire_fields(tree, body):
    write_protocol_tree(
        tree, routes=ROUTES.replace("SyncRequest", body), bodies=DECLARED_BODIES
    )
    assert lint_paths([tree.root]) == []


@pytest.mark.parametrize(
    "bodies",
    [
        # under the codec base, with nothing declared for it to derive from
        DECLARED_BODIES.replace("wire.natural()", "0").replace(
            "wire.list_of(wire.text)(default=())", "()"
        ),
        # fields that look declared, on a class the codec does not know
        DECLARED_BODIES.replace("(wire.Body)", ""),
    ],
    ids=["no-wire-field", "no-codec-base"],
)
def test_proto002_fires_on_a_body_the_codec_derives_no_parser_for(tree, bodies):
    write_protocol_tree(tree, bodies=bodies)
    findings = lint_paths([tree.root])
    assert rules_of(findings) == ["PROTO002"]
    assert "CELL_SYNC" in findings[0].message


@pytest.mark.parametrize(
    "old, new",
    [
        ("TX_ERROR: ErrorReply}", "TX_ERROR: NoSuchReply}"),
        # a reply is built and read from its declaration: a hand-written parser is not one
        ("TX_ERROR: ErrorReply}", "TX_ERROR: Call}"),
        ("TX_ERROR: ErrorReply}", 'TX_ERROR: {"error": str}}'),
    ],
    ids=["unknown-class", "hand-written-parser", "not-a-class"],
)
def test_proto002_fires_on_a_reply_row_without_declared_wire_fields(tree, old, new):
    write_protocol_tree(tree, routes=ROUTES.replace(old, new, 1))
    findings = lint_paths([tree.root])
    assert rules_of(findings) == ["PROTO002"]
    assert "REPLIES row of TX_ERROR" in findings[0].message


def test_proto003_fires_on_data_before_verify(tree):
    write_protocol_tree(
        tree,
        dispatch=DISPATCH
        + """
        def _serve_submit(self, envelope: Envelope):
            cycle = envelope.data["cycle"]
            if not envelope.verify():
                return None
            return cycle
        """,
    )
    findings = lint_paths([tree.root])
    assert rules_of(findings) == ["PROTO003"]
    assert "_serve_submit" in findings[0].message


def test_proto003_clean_when_verify_comes_first(tree):
    write_protocol_tree(
        tree,
        dispatch=DISPATCH
        + """
        def _serve_submit(self, envelope: Envelope):
            if not envelope.verify():
                return None
            return envelope.data["cycle"]
        """,
    )
    assert lint_paths([tree.root]) == []


def test_proto003_fires_when_handler_never_verifies(tree):
    write_protocol_tree(
        tree,
        dispatch=DISPATCH
        + """
        def handle_thing(self, envelope: Envelope):
            return envelope.payload
        """,
    )
    findings = lint_paths([tree.root])
    assert rules_of(findings) == ["PROTO003"]
    assert "never verifies" in findings[0].message


INGRESS = DISPATCH + """
    def _serve_client(self, src_node, envelope: Envelope):
        if not envelope.verify():
            return None
        return self.gateway.handle_request(src_node, envelope)
"""

GATEWAY = """
    class Gateway:
        def handle_request(self, src_node, envelope: Envelope):
            return envelope.data["phase"]
"""


def test_proto003_clean_when_the_ingress_stage_verified_first(tree):
    # The gateway handler never verifies: its only caller already did.
    write_protocol_tree(tree, dispatch=INGRESS)
    tree("core/gateway.py", GATEWAY)
    assert lint_paths([tree.root]) == []


@pytest.mark.parametrize(
    "bypass",
    [
        # a second caller that never verified what it passes
        """
    def _on_timer(self, src_node, envelope):
        return self.gateway.handle_request(src_node, envelope)
""",
        # a caller that verifies only after handing the envelope on
        """
    def _serve_late(self, src_node, envelope: Envelope):
        reply = self.gateway.handle_request(src_node, envelope)
        return reply if envelope.verify() else None
""",
        # the handler escapes as a callback nobody can vouch for
        """
    def _install(self):
        self.callbacks.append(self.gateway.handle_request)
""",
        # the ingress stage verifies one envelope and passes another
        """
    def _serve_inner(self, src_node, envelope: Envelope, inner):
        if envelope.verify():
            return self.gateway.handle_request(src_node, inner)
""",
    ],
)
def test_proto003_fires_when_a_path_bypasses_the_ingress_stage(tree, bypass):
    write_protocol_tree(tree, dispatch=INGRESS + bypass)
    tree("core/gateway.py", GATEWAY)
    findings = lint_paths([tree.root])
    assert rules_of(findings) == ["PROTO003"]
    assert "handle_request" in findings[0].message


ENDPOINT = """
    class Endpoint:
        def sign(self, recipient, operation, data):
            return Envelope.create(signer=self.signer, recipient=recipient)

        def post(self, dst_node, envelope):
            return self.network.send(self.node_name, dst_node, envelope, 1)
"""


def test_proto004_clean_when_only_the_endpoint_signs_and_sends(tree):
    write_protocol_tree(
        tree,
        dispatch=DISPATCH
        + """
        def _reply(self, dst_node, request, operation, data):
            self.endpoint.post(dst_node, self.endpoint.sign(request.sender, operation, data))
            self.batcher.send(dst_node)          # not the network
            return Confirmation.create(self.signer)  # not an envelope
        """,
    )
    tree("messages/endpoint.py", ENDPOINT)
    tree("messages/envelope.py", "class Envelope:\n    create = classmethod(lambda cls, **kw: cls())\n")
    assert lint_paths([tree.root]) == []


@pytest.mark.parametrize(
    "sender, what",
    [
        ("reply = Envelope.create(signer=self.signer, nonce=self.nonces.next())", "Envelope.create"),
        ("self.network.send(self.node_name, dst_node, reply, 1)", "network.send"),
        ("self.cell.network.send(self.cell.node_name, dst_node, reply, 1)", "network.send"),
        ("network.send(node_name, dst_node, reply, 1)", "network.send"),
    ],
)
def test_proto004_fires_on_a_hand_rolled_sender(tree, sender, what):
    write_protocol_tree(tree)
    tree("messages/endpoint.py", ENDPOINT)
    tree("audit/auditor.py", f"""
    class Auditor:
        def _request(self, dst_node, reply=None):
            {sender}
    """)
    findings = lint_paths([tree.root])
    assert rules_of(findings) == ["PROTO004"]
    assert what in findings[0].message and "audit/auditor.py" in findings[0].path
    assert "endpoint" in findings[0].fixit


# ----------------------------------------------------------------------
# PROTO005 — every opcode has a sender or a reader beside its two tables
# ----------------------------------------------------------------------
CLIENT = """
    class Client:
        def submit(self, address, call):
            request, waiter = self.endpoint.ask(address, Opcode.TX_SUBMIT, call)
            return waiter

        def read(self, reply):
            return reply.operation == Opcode.TX_ERROR
"""

CELL_SIDE = """
    def ask_peers(self, peers):
        for address in peers:
            self.endpoint.send(address, Opcode.CELL_SYNC, {})
            self.endpoint.send(address, Opcode.PING, {"probe": True})
"""


def test_proto005_clean_when_every_opcode_is_sent_or_read_somewhere(tree):
    write_protocol_tree(tree)
    tree("client/client.py", CLIENT)
    tree("core/recovery.py", CELL_SIDE)
    assert lint_paths([tree.root]) == []


@pytest.mark.parametrize(
    "opcodes",
    [
        OPCODES,
        # A reference inside the declaring module sends nothing.
        OPCODES + "\n\n    def is_probe(operation):\n        return operation is Opcode.PING\n",
    ],
    ids=["named-by-its-route-only", "named-by-its-own-module"],
)
def test_proto005_fires_on_an_opcode_only_its_tables_name(tree, opcodes):
    write_protocol_tree(tree, opcodes=opcodes)
    tree("client/client.py", CLIENT)
    tree("core/recovery.py", CELL_SIDE.replace(
        '            self.endpoint.send(address, Opcode.PING, {"probe": True})\n', ""
    ))
    findings = lint_paths([tree.root])
    assert rules_of(findings) == ["PROTO005"]
    assert "opcode PING is named nowhere but" in findings[0].message
    assert findings[0].path.endswith("messages/opcodes.py")


def test_proto005_does_not_take_the_wire_string_for_a_sender(tree):
    # ``"ping"`` is what travels, but only ``Opcode.PING`` is a use of the
    # member: a string spelling of it would outlive the member's deletion.
    write_protocol_tree(tree)
    tree("client/client.py", CLIENT)
    tree("core/recovery.py", CELL_SIDE.replace("Opcode.PING", '"ping"'))
    findings = lint_paths([tree.root])
    assert rules_of(findings) == ["PROTO005"]
    assert findings[0].symbol == "unsent:PING"


def test_proto005_reports_each_unsent_opcode_at_its_member(tree):
    write_protocol_tree(tree)
    tree("client/client.py", CLIENT)
    findings = lint_paths([tree.root])
    assert rules_of(findings) == ["PROTO005", "PROTO005"]
    lines = textwrap.dedent(OPCODES).splitlines()
    assert [(finding.symbol, finding.line) for finding in findings] == [
        ("unsent:CELL_SYNC", lines.index('    CELL_SYNC = "cell_sync"') + 1),
        ("unsent:PING", lines.index('    PING = "ping"') + 1),
    ]
    assert all("delete the opcode and its route" in finding.fixit for finding in findings)


def test_proto005_needs_the_opcode_module_to_compare_with(tree):
    # Senders alone, as in a scan of one package: nothing declares an
    # opcode here, so nothing can be unsent.
    tree("client/client.py", CLIENT)
    tree("core/recovery.py", CELL_SIDE)
    assert lint_paths([tree.root]) == []


# ----------------------------------------------------------------------
# FAULT001 — a fault kind's name is spelt in its table row and nowhere else
# ----------------------------------------------------------------------
FAULT_TABLE = """
    FAULT_TABLE = (
        FaultKind("crash_recover", Family.RECOVERABLE, Lifecycle("crash", _crash), outage=True),
        FaultKind(name="tamper_state", family=Family.BYZANTINE, arm=Latch("tamper_state"),
                  evidence="tamper_state"),
    )
    OUTAGE_KINDS = frozenset(row.name for row in FAULT_TABLE if row.outage)
"""


def test_fault001_clean_when_callers_ask_the_row(tree):
    tree("core/faults.py", FAULT_TABLE)
    tree("chaos/runner.py", """
    def arm(fault, rows):
        if fault.row.outage or fault.kind in rows:
            return MixedOperation(kind="transfer")     # an operation kind, not a fault kind
        return fault.kind == other.kind
    """)
    # The cell records the event a row's evidence names: out of the rule's scope.
    tree("core/cell.py", """
    def execute(self):
        self.fault.record("tamper_state", contract=1)
        return self.kind == "crash_recover"
    """)
    assert lint_paths([tree.root]) == []


@pytest.mark.parametrize(
    "module, code, how",
    [
        ("chaos/runner.py", 'armed = fault.kind == "crash_recover"', "compared"),
        ("chaos/search.py", 'hit = kind in ("skew_window", "tamper_state")', "compared"),
        ("chaos/shrink.py", 'hit = "tamper_state" != fault.kind', "compared"),
        ("chaos/scenario.py", 'fault = ScheduledFault(kind="crash_recover", group=0)', "passed as kind="),
    ],
)
def test_fault001_fires_on_a_kind_literal_outside_the_table(tree, module, code, how):
    tree("core/faults.py", FAULT_TABLE)
    tree(module, code + "\n")
    findings = lint_paths([tree.root])
    assert rules_of(findings) == ["FAULT001"]
    assert how in findings[0].message and module in findings[0].path
    assert "row" in findings[0].fixit


def test_fault001_fires_in_the_table_module_outside_a_row(tree):
    tree("core/faults.py", FAULT_TABLE + """
    ANCHORED = frozenset(row.name for row in FAULT_TABLE if row.name == "tamper_state")
    """)
    findings = lint_paths([tree.root])
    assert rules_of(findings) == ["FAULT001"]
    assert "core/faults.py" in findings[0].path


def test_fault001_fires_on_a_matched_kind(tree):
    tree("core/faults.py", FAULT_TABLE)
    tree("chaos/runner.py", """
    def arm(fault):
        match fault.kind:
            case "crash_recover" | "tamper_state":
                return 1
            case "transfer":
                return 2
    """)
    findings = lint_paths([tree.root])
    assert rules_of(findings) == ["FAULT001", "FAULT001"]
    assert all("matched" in finding.message for finding in findings)


def test_fault001_suppressed_with_reason(tree):
    tree("core/faults.py", FAULT_TABLE)
    tree("chaos/runner.py", """
    # lint: disable=FAULT001 — reads a pre-table report whose kinds were renamed
    legacy = kind == "crash_recover"
    """)
    assert lint_paths([tree.root]) == []


# ----------------------------------------------------------------------
# LINT001 — suppression hygiene
# ----------------------------------------------------------------------
def test_lint001_fires_on_unjustified_suppression(tree):
    tree("core/x.py", "import random  # lint: disable=DET001\n")
    findings = lint_paths([tree.root])
    # The suppression still silences DET001, but is itself flagged.
    assert rules_of(findings) == ["LINT001"]
