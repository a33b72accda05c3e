"""Per-destination coalescing of overlay messages into batch envelopes.

Every transaction a service cell admits must be forwarded to every other
consortium cell, and every forwarded execution produces a confirmation
flowing back (Fig. 7 steps 2-3).  Sent individually this is O(N * cells)
network messages for N simultaneous transactions — the dominant event count
in the paper's 20,000-transaction stress runs.  The :class:`BatchDispatcher`
instead queues outgoing forwards and confirmations per destination cell and
flushes each queue as a single batch envelope, so the same burst costs
O(cells) messages per *scheduling quantum*.

The quantum is a rate bound, not a delay: a destination gets at most one
flush per quantum, and no item waits longer than one.  A flush is armed for
``max(now, last flush + quantum)``, so an item queued at a destination that
has been idle for a quantum leaves at once (a zero-delay timer: whatever is
queued in the same instant still shares its batch), and only items that
arrive while the destination is busy wait — for the rest of the quantum
that the previous flush opened.  At low load a batch of one therefore costs
no more time than the paper's per-transaction forward; under a burst only
what is queued at the idle→busy edge leaves early, in a batch of its own,
and every later batch collects a full quantum's worth of items.

The dispatcher is purely a transport optimization: per-transaction
authentication (client signatures on forwards, cell signatures on
confirmations) is preserved inside the batches.  With batching disabled
(``quantum=None``: the paper's per-transaction messages) each item leaves
at once, as a list of one.

A batch is stamped and sent by the cell's message endpoint
(:mod:`repro.messages.endpoint`) like everything else the cell says — a
``TX_FORWARD`` and a ``TX_CONFIRM`` travel unsigned, the link naming their
sender — and the dispatcher holds no signer, nonce factory or network of
its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..crypto.keys import Address
from ..messages.batch import ForwardBatch
from ..messages.endpoint import Endpoint
from ..messages.envelope import Envelope
from ..messages.opcodes import Opcode
from ..sim.metrics import MetricsRegistry
from .receipts import ConfirmationBatch, LinkConfirmation
from .routes import travels_signed


@dataclass
class _DestinationQueue:
    """Messages waiting for the next flush to one destination cell.

    ``last_flush`` is the sim time of the previous flush (``-inf`` before
    the first): the next one may not happen before ``last_flush +
    quantum``, and happens at once if that instant has already passed.
    """

    recipient: Address
    forwards: list[Envelope] = field(default_factory=list)
    confirmations: list[LinkConfirmation] = field(default_factory=list)
    flush_pending: bool = False
    last_flush: float = float("-inf")

    @property
    def empty(self) -> bool:
        return not self.forwards and not self.confirmations


class BatchDispatcher:
    """Coalesces a cell's outgoing overlay messages per destination."""

    def __init__(
        self,
        endpoint: Endpoint,
        quantum: Optional[float],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if quantum is not None and quantum < 0:
            raise ValueError("the batch quantum cannot be negative")
        #: The cell's endpoint stamps and sends each batch.  Its ``silent``
        #: gate is checked at flush time: a cell that crashed between
        #: queueing and flushing must not emit the batch (a per-transaction
        #: sender would already have gone silent), so crash behaviour is
        #: identical with batching on and off.
        self.endpoint = endpoint
        self.node_name = endpoint.node_name
        #: None: coalesce nothing, every item leaves when it is queued.
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
        if self.quantum is None:
            self._flush(dst_node)
            return
        if queue.flush_pending:
            return
        queue.flush_pending = True
        env = self.endpoint.env
        env.call_at(max(env.now, queue.last_flush + self.quantum), lambda: self._flush(dst_node))

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
        queue.last_flush = self.endpoint.env.now
        forwards, queue.forwards = queue.forwards, []
        confirmations, queue.confirmations = queue.confirmations, []
        if self.endpoint.silent():
            # The cell crashed while the batch was waiting for its flush:
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
                ConfirmationBatch(tuple(confirmations)).data_at(self.endpoint.env.now),
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
        self.endpoint.send(dst_node, recipient, operation, data, signed=travels_signed(operation))
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
