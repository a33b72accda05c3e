"""The serial specification behind the differential oracle.

The specification (:mod:`repro.chaos.spec`) applies a committed set to
fresh contracts and nothing else, so it must not import the system it
judges; the differential built on it must still catch a broken executor
even when the broken executor is everywhere, and the oracle stack must
still catch a batcher that loses forwards.
"""

import ast
import dataclasses
import subprocess
import sys
from pathlib import Path

import repro.chaos.spec as spec_module
from repro.chaos import CHAOS_CONTRACT, check_scenario, run_scenario, sample_scenario
from repro.chaos.runner import run_differential_oracle
from repro.chaos.spec import apply_committed
from repro.core.batching import BatchDispatcher
from repro.core.executor import TransactionExecutor
from repro.messages import SimulatedSigner

#: Packages the specification must never reach, directly or through what it imports.
JUDGED = ("repro.core", "repro.messages", "repro.sim", "repro.client")

ALICE, BOB, CAROL = (SimulatedSigner(f"spec/{name}").address.hex() for name in ("a", "b", "c"))


def _call(sender, method, args, tx_id, contract=CHAOS_CONTRACT):
    return {"group": 0, "sender": sender, "contract": contract, "method": method,
            "args": args, "tx_id": tx_id, "timestamp": 1.0}


def test_the_specification_imports_nothing_it_judges():
    tree = ast.parse(Path(spec_module.__file__).read_text())
    package = ["repro", "chaos"]
    imported = {
        ".".join(package[:len(package) + 1 - node.level] + [node.module])
        if node.level else node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
    } | {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
         for alias in node.names}
    assert "repro.contracts.context" in imported
    assert [name for name in imported if name.startswith(JUDGED)] == []
    # Transitively: load the module without the chaos package (whose runner
    # does drive deployments) and list what came along.
    probe = (
        "import importlib, pathlib, sys, types\n"
        "import repro\n"
        "chaos = types.ModuleType('repro.chaos')\n"
        "chaos.__path__ = [str(pathlib.Path(repro.__file__).parent / 'chaos')]\n"
        "sys.modules['repro.chaos'] = chaos\n"
        "importlib.import_module('repro.chaos.spec')\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True, text=True,
        env={"PYTHONPATH": str(Path(spec_module.__file__).parents[2])},
    ).stdout.split()
    assert "repro.chaos.spec" in loaded
    assert [name for name in loaded if name.startswith(JUDGED)] == []


def test_a_committed_set_applies_in_whatever_order_works():
    """A pauper spends a credit that is harvested after its own transfer."""
    calls = [
        _call(BOB, "transfer", {"to": CAROL, "amount": 3}, "0x2"),
        _call(ALICE, "transfer", {"to": BOB, "amount": 5}, "0x1"),
        _call(ALICE, "put", {"content_hex": "00ff"}, "0x3", contract="system.cas"),
    ]
    cross = [{"xtx": "0xx1", "sender": ALICE, "to": CAROL, "amount": 2}]
    registry, findings = apply_committed(
        "t", CHAOS_CONTRACT, {ALICE: 10, BOB: 0, CAROL: 0}, calls, cross
    )
    assert findings == []
    balances = dict(registry.get(CHAOS_CONTRACT).store.items("balance/"))
    assert balances == {f"balance/{ALICE}": 3, f"balance/{BOB}": 2, f"balance/{CAROL}": 5}
    assert len(list(registry.get("system.cas").store.items("refs/"))) == 1


def test_a_call_no_order_allows_is_a_finding():
    calls = [
        _call(BOB, "transfer", {"to": CAROL, "amount": 3}, "0x2"),
        _call(CAROL, "transfer", {"to": ALICE, "amount": 1}, "0x4",
              contract=f"{CHAOS_CONTRACT}@s1"),
    ]
    _registry, findings = apply_committed(
        "t", CHAOS_CONTRACT, {ALICE: 10, BOB: 0}, calls, [],
    )
    assert len(findings) == 2
    assert "fails on the specification: FastMoney: insufficient funds" in findings[0]
    assert findings[1] == f"committed transfer 0x4...: committed by unknown sender {CAROL}"


# ----------------------------------------------------------------------
# Mutation checks: a broken system must still fail its oracles
# ----------------------------------------------------------------------
def _applied_twice(monkeypatch):
    """An executor that invokes every call twice and reports the first outcome."""
    execute = TransactionExecutor.execute

    def twice(self, entry):
        outcome = execute(self, entry)
        execute(self, entry)
        return outcome

    monkeypatch.setattr(TransactionExecutor, "execute", twice)


def test_an_executor_applying_calls_twice_is_caught_by_the_differential(monkeypatch):
    spec = sample_scenario(0)   # CAS puts and investments: a second application shows
    assert run_differential_oracle(run_scenario(spec)).passed
    _applied_twice(monkeypatch)
    run = run_scenario(spec)
    # The specification never executes through the executor, so the
    # mutant it judges cannot leak into the judgement.
    assert not run_differential_oracle(run).passed
    monkeypatch.undo()
    assert not run_differential_oracle(run).passed


def test_a_batcher_losing_one_forward_per_batch_is_caught_by_the_oracle_stack(monkeypatch):
    spec = sample_scenario(0)
    assert spec.batching
    # Every operation at one instant, so batches carry several forwards.
    at = spec.operations[0].at
    burst = dataclasses.replace(
        spec, operations=tuple(dataclasses.replace(op, at=at) for op in spec.operations)
    )
    _run, results = check_scenario(burst, replay=False)
    assert all(result.passed for result in results)
    flush = BatchDispatcher._flush
    lost = []

    def lossy(self, dst_node):
        queue = self._queues.get(dst_node)
        if queue is not None and len(queue.forwards) > 1:
            lost.append(queue.forwards.pop(0))
        flush(self, dst_node)

    monkeypatch.setattr(BatchDispatcher, "_flush", lossy)
    _run, results = check_scenario(burst, replay=False)
    assert lost
    failed = {result.oracle for result in results if not result.passed}
    assert "audit" in failed
