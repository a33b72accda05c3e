"""Boundary tracer: spans around each layer's public synchronous calls.

Nothing under ``src/`` is edited for tracing.  Each entry of
:data:`TRACED` names a public function or method of one layer (a module
of this repository); :meth:`Tracer.install` swaps it for a wrapper with
``setattr`` on the owning class or module — module-level functions are
also rebound in every loaded ``repro.*`` module whose globals hold the
same object, because ``from x import f`` copies the reference — and
:meth:`Tracer.uninstall` puts every original back.

A wrapper records one span — target, start, end, parent — in memory.  A
layer's *self time* is the duration of its spans minus the part their
child spans cover, so nested layers (an envelope that encodes, an
encode that hashes) are never counted twice.  Generator functions are
not wrapped: the bodies of ``core.cell``, ``client`` and ``loadgen``
processes, and the kernel's dispatch loop, stay unattributed and are
reported as ``other``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

#: layer -> "module:attribute.path" of its traced entry points.
TRACED: dict[str, tuple[str, ...]] = {
    "encoding": (
        "repro.encoding.canonical_json:dumps",
        "repro.encoding.canonical_json:dump_bytes",
        "repro.encoding.canonical_json:loads",
    ),
    "crypto": (
        "repro.crypto.hashing:fast_hash",
        "repro.crypto.hashing:combine_hashes",
        "repro.crypto.keccak:keccak256",
        "repro.crypto.fingerprint:fingerprint_state",
        "repro.crypto.fingerprint:snapshot_fingerprint",
        "repro.crypto.keys:PrivateKey.from_seed",
        "repro.crypto.keys:PrivateKey.sign",
        "repro.crypto.keys:recover_address",
    ),
    "messages": (
        "repro.messages.envelope:Envelope.create",
        "repro.messages.envelope:Envelope.verify",
        "repro.messages.envelope:Envelope.to_wire",
        "repro.messages.envelope:Envelope.from_wire",
        "repro.messages.envelope:Envelope.byte_size",
        "repro.messages.envelope:NonceFactory.next",
        "repro.messages.payload:Payload.canonical_bytes",
        "repro.messages.payload:Payload.hash_hex",
        "repro.messages.batch:ForwardBatch.of",
        "repro.messages.batch:ForwardBatch.envelopes",
        "repro.messages.signer:SimulatedSigner.sign",
        "repro.messages.signer:EcdsaSigner.sign",
        "repro.messages.signer:verify_signature",
        "repro.messages.xshard:CrossShardVote.create",
        "repro.messages.xshard:CrossShardVote.verify",
        "repro.messages.xshard:CrossShardVoucher.create",
        "repro.messages.xshard:CrossShardVoucher.verify",
    ),
    "sim": ("repro.sim.network:Network.send",),
    "core.ledger": (
        "repro.core.ledger:TransactionLedger.admit",
        "repro.core.ledger:TransactionLedger.mark_executed",
        "repro.core.ledger:TransactionLedger.mark_rejected",
        "repro.core.ledger:TransactionLedger.cycle_execution_fingerprint",
        "repro.core.ledger:TransactionLedger.sync_segment",
        "repro.core.ledger:TransactionLedger.backfill",
    ),
    "core.lanes": (
        "repro.core.lanes:LaneScheduler.acquire",
        "repro.core.lanes:LaneScheduler.granted",
        "repro.core.lanes:LaneScheduler.release",
    ),
    "core.executor": (
        "repro.core.executor:TransactionExecutor.execute",
        "repro.core.executor:ExecutionOutcome.execution_fingerprint",
    ),
    "contracts": (
        "repro.contracts.interface:BContract.invoke",
        "repro.contracts.state_store:KeyValueStore.put",
        "repro.contracts.state_store:KeyValueStore.increment",
        "repro.contracts.state_store:KeyValueStore.delete",
        "repro.contracts.state_store:KeyValueStore.commit",
        "repro.contracts.state_store:KeyValueStore.fingerprint",
        "repro.contracts.state_store:KeyValueStore.cow_export",
        "repro.contracts.state_store:KeyValueStore.restore_state",
    ),
    "core.batching": (
        "repro.core.batching:BatchDispatcher.queue_forward",
        "repro.core.batching:BatchDispatcher.queue_confirmation",
    ),
    "core.receipts": (
        "repro.core.receipts:Confirmation.create",
        "repro.core.receipts:Confirmation.verify",
        "repro.core.receipts:Confirmation.to_wire",
        "repro.core.receipts:Confirmation.from_wire",
        "repro.core.receipts:AggregatedReceipt.to_wire",
        "repro.core.receipts:AggregatedReceipt.from_wire",
    ),
    "core.snapshot": (
        "repro.core.snapshot:SnapshotEngine.take_snapshot",
        "repro.core.snapshot:SnapshotEngine.adopt",
        "repro.core.snapshot:DataSnapshot.to_wire",
        "repro.core.snapshot:DataSnapshot.from_wire",
    ),
    "core.recovery": (
        "repro.core.recovery:MembershipManager.provisional_forward_targets",
        "repro.core.recovery:MembershipManager.resolve_reply",
        "repro.core.recovery:MembershipManager.handle_vote",
        "repro.core.recovery:MembershipManager.handle_update",
        "repro.messages.membership:SyncState.to_data",
        "repro.messages.membership:SyncState.from_data",
    ),
    "ethchain": (
        "repro.ethchain.node:EthereumNode.mine_block",
        "repro.ethchain.node:EthereumNode.submit_transaction",
        "repro.ethchain.provider:Web3Provider.transact",
    ),
    "client": (
        "repro.client.client:BlockumulusClient.submit",
        "repro.client.client:BlockumulusClient.request",
        "repro.client.sharded:ShardedClient.submit_cross",
        "repro.client.sharded:ShardedClient.submit_voucher",
    ),
}

#: Entry points that are only counted: a span around the kernel's step
#: would make every other span its child.
COUNTED: tuple[str, ...] = ("repro.sim.environment:Environment.step",)

#: Traced entry points whose returned length is summed (encoded bytes).
SIZED: tuple[str, ...] = ("repro.encoding.canonical_json:dumps",)

LAYERS: tuple[str, ...] = tuple(TRACED)


@dataclass
class TraceSummary:
    """Spans of one traced call, aggregated after its timer stopped."""

    calls: Counter = field(default_factory=Counter)        # target -> spans
    layer_calls: Counter = field(default_factory=Counter)  # layer -> spans
    layer_self_s: Counter = field(default_factory=Counter)  # layer -> self seconds
    #: (target, parent layer) -> spans; "" is the parent of a root span.
    calls_under: Counter = field(default_factory=Counter)
    counted: Counter = field(default_factory=Counter)      # count-only targets
    sized_bytes: int = 0
    missing_targets: int = 0

    @property
    def attributed_s(self) -> float:
        return sum(self.layer_self_s.values())


def _resolve(target: str) -> tuple[Any, str, Any]:
    """(owner, attribute, raw attribute) of a ``module:path`` target."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *holders, attribute = path.split(".")
    for name in holders:
        owner = getattr(owner, name)
    return owner, attribute, vars(owner)[attribute]


class Tracer:
    """Installs the wrappers, records spans while active, restores."""

    def __init__(self) -> None:
        self.active = False
        self._targets: list[tuple[str, str]] = []  # span id -> (target, layer)
        self._spans: list[Optional[tuple[int, float, float, int]]] = []
        self._stack: list[int] = []
        self._counted: Counter = Counter()
        self._sized_bytes = 0
        self._missing = 0
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _span_wrapper(self, target: str, layer: str, call: Callable) -> Callable:
        identity = len(self._targets)
        self._targets.append((target, layer))
        spans, stack, clock = self._spans, self._stack, time.perf_counter
        sized = target in SIZED

        @functools.wraps(call)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return call(*args, **kwargs)
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                value = call(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (identity, start, end, parent)
            if sized:
                self._sized_bytes += len(value)
            return value

        return wrapper

    def _count_wrapper(self, target: str, call: Callable) -> Callable:
        counted = self._counted

        @functools.wraps(call)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self.active:
                counted[target] += 1
            return call(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def _swap(self, target: str, wrap: Callable[[Callable], Callable]) -> None:
        try:
            owner, attribute, raw = _resolve(target)
        except (ImportError, AttributeError, KeyError):
            # The program moved or renamed the entry point; the layer
            # loses this span, and the count of such losses is reported.
            self._missing += 1
            return
        if isinstance(raw, (classmethod, staticmethod)):
            replacement: Any = type(raw)(wrap(raw.__func__))
        else:
            replacement = wrap(raw)
        if isinstance(owner, type):
            holders = [(owner, attribute)]
        else:
            # A module-level function: rebind every alias of it.
            holders = [
                (module, name)
                for module_name, module in list(sys.modules.items())
                if module is not None
                and (module_name == "repro" or module_name.startswith("repro."))
                for name, value in list(vars(module).items())
                if value is raw
            ]
        for holder, name in holders:
            self._restore.append((holder, name, vars(holder)[name]))
            setattr(holder, name, replacement)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("the tracer is already installed")
        for layer, targets in TRACED.items():
            for target in targets:
                self._swap(
                    target,
                    lambda call, t=target, l=layer: self._span_wrapper(t, l, call),
                )
        for target in COUNTED:
            self._swap(target, lambda call, t=target: self._count_wrapper(t, call))

    def uninstall(self) -> None:
        while self._restore:
            holder, name, original = self._restore.pop()
            setattr(holder, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.active = False
        self.uninstall()

    def wrapped_attributes(self) -> list[tuple[Any, str, Any]]:
        """(holder, attribute, original) of everything currently swapped."""
        return list(self._restore)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def summary(self) -> TraceSummary:
        """Aggregate the recorded spans (call with the tracer inactive)."""
        if self._stack:
            raise RuntimeError("spans are still open")
        spans = [span for span in self._spans if span is not None]
        if len(spans) != len(self._spans):
            raise RuntimeError("a span was never closed")
        covered = [0.0] * len(spans)
        for _identity, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        result = TraceSummary(
            counted=Counter(self._counted),
            sized_bytes=self._sized_bytes,
            missing_targets=self._missing,
        )
        for slot, (identity, start, end, parent) in enumerate(spans):
            target, layer = self._targets[identity]
            result.calls[target] += 1
            result.layer_calls[layer] += 1
            result.layer_self_s[layer] += (end - start) - covered[slot]
            parent_layer = self._targets[spans[parent][0]][1] if parent >= 0 else ""
            result.calls_under[(target, parent_layer)] += 1
        return result
