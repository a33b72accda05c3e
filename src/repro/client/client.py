"""The Blockumulus client API.

A client (Section III-B4) holds an access subscription with one cell — its
*service cell* — and interacts with bContracts by sending signed TX_SUBMIT
messages and waiting for the aggregated multi-signature receipt.  A client
object here models one client machine (or one of the paper's geographically
scattered *client pools*): it owns a network node, and can submit requests
either under its own identity or on behalf of freshly generated throwaway
accounts, exactly as the paper's test harness does.

What the client says goes through its message endpoint
(:mod:`repro.messages.endpoint`), and what it hears back is read through
:func:`repro.core.routes.read_reply` into the body the cell declared for
that reply — or one error text: "service cell is unreachable", the cell's
own words for a refusal, the reader's for a malformed reply, or why a
receipt does not confirm the transaction (the client checks every receipt
it is sent, see :meth:`BlockumulusClient.receipt_refusal`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..core.deployment import BlockumulusDeployment
from ..core.receipts import AggregatedReceipt, CompactReceipt, ReceiptError
from ..core.replies import ReplyError
from ..core.routes import read_reply
from ..crypto.keys import Address
from ..messages.endpoint import Endpoint
from ..messages.envelope import Envelope, NonceFactory
from ..messages.opcodes import Opcode
from ..messages.signer import Signer
from ..sim.events import Event


class ClientError(Exception):
    """Raised for client-side protocol failures."""


@dataclass
class TransactionResult:
    """What a client learns about one submitted transaction."""

    ok: bool
    submitted_at: float
    completed_at: float
    receipt: Optional[AggregatedReceipt] = None
    error: Optional[str] = None
    tx_id: Optional[str] = None

    @property
    def latency(self) -> float:
        """Client-observed confirmation delay (seconds of simulated time)."""
        return self.completed_at - self.submitted_at

    @property
    def shed(self) -> bool:
        """Whether the cell's admission controller rejected this arrival.

        A shed transaction was refused *before* ledger admission — it
        never executed anywhere and is safe to retry.  Matched on the
        ``OVERLOADED`` error prefix of the cell's ``TX_ERROR`` reply.
        """
        return not self.ok and self.error is not None and self.error.startswith("OVERLOADED")


class BlockumulusClient:
    """A client machine attached to the simulated network.

    One instance models one client machine bound to one *service cell*:
    construction registers a network node, links it to the cell, and
    (unless a ``signer`` is shared in) mints a fresh deterministic
    identity.  All request APIs are asynchronous in simulation time —
    they return a :class:`~repro.sim.events.Event` that fires with the
    typed result (:class:`TransactionResult` for :meth:`submit`, the raw
    view value for :meth:`query`, the reply envelope for
    :meth:`request`); drive the environment to make progress.  Replies
    are matched to requests by nonce (and taken from the service cell
    only), so any number of requests may be in flight concurrently.
    """

    _counter = 0

    def __init__(
        self,
        deployment: BlockumulusDeployment,
        signer: Optional[Signer] = None,
        service_cell_index: int = 0,
        node_name: Optional[str] = None,
        nonces: Optional[NonceFactory] = None,
    ) -> None:
        self.deployment = deployment
        self.env = deployment.env
        self.network = deployment.network
        type(self)._counter += 1
        self.node_name = node_name or f"client-{type(self)._counter}"
        self.signer = signer or deployment.make_client_signer(f"client/{self.node_name}")
        self.service_cell = deployment.cell(service_cell_index)
        self.endpoint = Endpoint(self.env, self.network, self.node_name, self.signer, nonces=nonces)
        self.nonces = self.endpoint.nonces
        self.network.register(self.node_name, handler=self._on_message)
        self.network.set_link(
            self.node_name, self.service_cell.node_name, deployment.config.client_cell_latency
        )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def address(self) -> Address:
        """The client's Blockumulus address."""
        return self.signer.address

    # ------------------------------------------------------------------
    # Message plumbing
    # ------------------------------------------------------------------
    def _on_message(self, src_node: str, payload: Any, size: int) -> None:
        """Network handler: hand a reply envelope to the request it answers.

        Unsolicited or duplicate messages, and replies from anyone but the
        service cell or over another link, are dropped silently (a client
        never serves requests).
        """
        if isinstance(payload, Envelope):
            self.endpoint.resolve(src_node, payload)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def request(
        self,
        operation: Opcode,
        data: dict[str, Any],
        signer: Optional[Signer] = None,
        deadline: Optional[float] = None,
    ) -> tuple[Envelope, Event]:
        """Send one signed request to the service cell; returns (request, waiter).

        The waiter event fires with the reply :class:`Envelope`, or with
        ``None`` at once when the service cell is unreachable — and, given
        a ``deadline`` (seconds), with ``None`` once it passes unanswered.
        This is the raw building block under :meth:`submit` and
        :meth:`query`; protocol layers that add their own reply handling —
        e.g. the cross-shard coordinator in
        :class:`~repro.client.sharded.ShardedClient`, which drives
        ``XSHARD_*`` phases against several groups — use it directly.
        """
        return self.endpoint.ask(
            self.service_cell.node_name, self.service_cell.address, operation, data, signer,
            deadline,
        )

    def subscribe(self) -> Event:
        """Open an access subscription with the service cell."""
        _request, waiter = self.request(Opcode.SUBSCRIBE, {"plan": "standard"})
        return waiter

    def submit(
        self,
        contract: str,
        method: str,
        args: dict[str, Any],
        signer: Optional[Signer] = None,
    ) -> Event:
        """Submit a bContract transaction; the event fires with a TransactionResult."""
        submitted_at = self.env.now
        request, waiter = self.request(
            Opcode.TX_SUBMIT,
            {"contract": contract, "method": method, "args": args},
            signer=signer,
        )

        def refused(error: str) -> TransactionResult:
            # Silence, the cell's own words for a refusal, a malformed reply
            # or a receipt that proves nothing.  The transaction is the one
            # this client signed, whatever a reply says; its id is taken only
            # once answered, since taking it lets the signed bytes go.
            return TransactionResult(
                False, submitted_at, self.env.now, error=error, tx_id=request.payload.hash_hex()
            )

        def receipted(body: CompactReceipt, reply: Envelope) -> TransactionResult:
            receipt, error = self.checked_receipt(body, request, reply)
            if receipt is None:
                return refused(error)
            return TransactionResult(
                True, submitted_at, self.env.now, receipt=receipt, tx_id=receipt.tx_id
            )

        return self._answer(waiter, Opcode.TX_RECEIPT, receipted, refused)

    def checked_receipt(
        self, body: CompactReceipt, request: Envelope, reply: Envelope
    ) -> tuple[Optional[AggregatedReceipt], str]:
        """The receipt ``reply`` carries of ``request``, rebuilt and checked.

        That is ``(receipt, "")`` when it confirms the transaction, else
        ``(None, why)`` and one tick of ``<client node>/refused_receipts``.
        """
        try:
            receipt = body.rebuild(request, reply, self.deployment.invariants.cell_addresses)
        except ReceiptError:
            error: Optional[str] = "receipt failed verification"
        else:
            error = self.receipt_refusal(receipt)
        if error is None:
            return receipt, ""
        self.deployment.metrics.increment(f"{self.node_name}/refused_receipts")
        return None, error

    def receipt_refusal(self, receipt: AggregatedReceipt) -> Optional[str]:
        """Why ``receipt`` does not confirm this client's transaction, or None if it does.

        Every co-signer must be a cell of the consortium the deployment
        registered (its system invariants), the service cell must be one of
        them, and every co-signature must verify over the statement the
        receipt states — whose fingerprint the client derived from its own
        request and the result it was told.  A co-signature is checked
        against the cell's public key, which the client holds with the
        consortium's addresses, rather than by recovering the key.
        """
        is_cell = self.deployment.invariants.is_cell
        if not all(is_cell(cosigner.cell) for cosigner in receipt.cosigners):
            return "receipt co-signed by a cell outside the consortium"
        if not receipt.verify([self.service_cell.address], self.deployment.cell_keys):
            return "receipt failed verification"
        return None

    def query(self, contract: str, view: str, args: dict[str, Any] | None = None) -> Event:
        """Read-only state query served by the service cell alone."""
        _request, waiter = self.request(
            Opcode.QUERY_STATE, {"contract": contract, "view": view, "args": args or {}}
        )
        return self._answer(waiter, Opcode.QUERY_RESULT, lambda body, _reply: body.result)

    def _answer(
        self,
        waiter: Event,
        expected: Opcode,
        answered: Callable[[Any, Envelope], Any],
        unanswered: Optional[Callable[[str], Any]] = None,
    ) -> Event:
        """An event exactly one hop behind ``waiter``, fired with a typed result.

        That is ``answered(body, reply envelope)`` for the ``expected``
        reply, and ``unanswered(why)`` for anything else — or, without one, the event
        fails with a :class:`ClientError` saying why.
        """
        answer = self.env.event()

        def _resolve(event: Event) -> None:
            try:
                body = read_reply(event.value, expected, "service cell is unreachable")
            except ReplyError as exc:
                if unanswered is None:
                    answer.fail(ClientError(str(exc)))
                else:
                    answer.succeed(unanswered(str(exc)))
            else:
                answer.succeed(answered(body, event.value))

        waiter.add_callback(_resolve)
        return answer

    def submit_contingency(self, contract: str, method: str, args: dict[str, Any],
                           eth_key, signer: Optional[Signer] = None) -> Event:
        """Submit a transaction directly to the Ethereum anchor contract.

        This is the censorship escape hatch of Section V-B: the signed
        Blockumulus envelope is wrapped into an Ethereum transaction calling
        ``submit_contingency`` on the SnapshotRegistry; cells are obliged to
        execute everything recorded there.  Returns the event of the
        Ethereum receipt.
        """
        envelope = self.endpoint.sign(
            self.service_cell.address,
            Opcode.TX_SUBMIT,
            {"contract": contract, "method": method, "args": args},
            signer=signer,
        )
        return self.deployment.eth.transact_and_wait(
            eth_key,
            self.deployment.registry_contract.address,
            "submit_contingency",
            {"transaction": envelope.to_wire()},
        )
