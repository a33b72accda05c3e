"""The fixed-period ``BatchDispatcher``, kept verbatim as the test-side reference.

``repro.core.batching.BatchDispatcher`` treats its quantum as a rate bound:
a flush is armed for ``max(now, last flush + quantum)``, so an item queued
at a destination idle for a quantum leaves at once.  This is the dispatcher
it replaced, which always flushed one full quantum after the first item
reached an empty queue.  At ``quantum = 0`` the two policies are the same
program, so ``test_batching_policy.py`` drives both with the same random
programs and requires the same flush instants and the same batch contents.
Do not "fix" or speed this class up: it is the oracle.  (Two edits were
made to it on purpose, in both classes alike: the opcodes and the
confirmation item type were renamed with the wire, and the
``batch_items_dropped`` metric now counts dropped items, as
``items_dropped`` always did, instead of dropped flushes.)
"""


from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.receipts import ConfirmationBatch, LinkConfirmation
from repro.crypto.keys import Address
from repro.messages.batch import ForwardBatch
from repro.messages.endpoint import Endpoint
from repro.messages.envelope import Envelope
from repro.messages.opcodes import Opcode
from repro.sim.metrics import MetricsRegistry


@dataclass
class _DestinationQueue:
    """Messages accumulated for one destination cell during a quantum."""

    recipient: Address
    forwards: list[Envelope] = field(default_factory=list)
    confirmations: list[LinkConfirmation] = field(default_factory=list)
    flush_pending: bool = False

    @property
    def empty(self) -> bool:
        return not self.forwards and not self.confirmations


class ReferenceBatchDispatcher:
    """Coalesces a cell's outgoing overlay messages per destination."""

    def __init__(
        self, endpoint: Endpoint, quantum: float, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        if quantum < 0:
            raise ValueError("the batch quantum cannot be negative")
        #: The cell's endpoint signs and sends each batch.  Its ``silent``
        #: gate is checked at flush time: a cell that crashed between
        #: queueing and flushing must not emit the batch (a per-transaction
        #: sender would already have gone silent), so crash behaviour is
        #: identical with batching on and off.
        self.endpoint = endpoint
        self.node_name = endpoint.node_name
        self.quantum = quantum
        self.metrics = metrics
        self._queues: dict[str, _DestinationQueue] = {}
        #: Lifetime counters (exposed through the cell's statistics).
        self.batches_sent = 0
        self.items_coalesced = 0
        self.items_dropped = 0

    # ------------------------------------------------------------------
    # Queueing
    # ------------------------------------------------------------------
    def queue_forward(self, dst_node: str, recipient: Address, client_envelope: Envelope) -> None:
        """Queue one client transaction for forwarding to ``dst_node``."""
        queue = self._queue_for(dst_node, recipient)
        queue.forwards.append(client_envelope)
        self._arm_flush(dst_node, queue)

    def queue_confirmation(
        self, dst_node: str, recipient: Address, confirmation: LinkConfirmation
    ) -> None:
        """Queue one signed confirmation owed to the service cell at ``dst_node``."""
        queue = self._queue_for(dst_node, recipient)
        queue.confirmations.append(confirmation)
        self._arm_flush(dst_node, queue)

    def _queue_for(self, dst_node: str, recipient: Address) -> _DestinationQueue:
        queue = self._queues.get(dst_node)
        if queue is None:
            queue = _DestinationQueue(recipient=recipient)
            self._queues[dst_node] = queue
        return queue

    def _arm_flush(self, dst_node: str, queue: _DestinationQueue) -> None:
        if queue.flush_pending:
            return
        queue.flush_pending = True
        self.endpoint.env.timeout(self.quantum).add_callback(lambda _event: self._flush(dst_node))

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    def _flush(self, dst_node: str) -> None:
        queue = self._queues.get(dst_node)
        if queue is None:
            return
        queue.flush_pending = False
        if queue.empty:
            return
        forwards, queue.forwards = queue.forwards, []
        confirmations, queue.confirmations = queue.confirmations, []
        if self.endpoint.silent():
            # The cell crashed while the batch was waiting for its quantum:
            # the queued items die with the process, like any unflushed
            # outbound buffer on a crashed machine.
            dropped = len(forwards) + len(confirmations)
            self.items_dropped += dropped
            if self.metrics is not None:
                self.metrics.increment(f"{self.node_name}/batch_items_dropped", dropped)
            return
        if forwards:
            self._send(
                dst_node,
                queue.recipient,
                Opcode.TX_FORWARD,
                ForwardBatch.of(forwards).to_data(),
                len(forwards),
            )
        if confirmations:
            self._send(
                dst_node,
                queue.recipient,
                Opcode.TX_CONFIRM,
                ConfirmationBatch(tuple(confirmations)).to_data(),
                len(confirmations),
            )

    def _send(
        self,
        dst_node: str,
        recipient: Address,
        operation: Opcode,
        data: dict[str, Any],
        item_count: int,
    ) -> None:
        self.endpoint.send(dst_node, recipient, operation, data)
        self.batches_sent += 1
        self.items_coalesced += item_count
        if self.metrics is not None:
            self.metrics.increment(f"{self.node_name}/batches_sent")
            self.metrics.series(f"{self.node_name}/batch_size").add(item_count)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def statistics(self) -> dict[str, Any]:
        """Lifetime batching counters for this cell."""
        return {
            "batches_sent": self.batches_sent,
            "items_coalesced": self.items_coalesced,
            "items_dropped": self.items_dropped,
            "mean_batch_size": (
                self.items_coalesced / self.batches_sent if self.batches_sent else 0.0
            ),
        }
