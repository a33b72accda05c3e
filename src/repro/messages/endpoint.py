"""One way to talk to a cell: sign, send, await (Section III-C2).

Every request *and response* is the same payload tuple, signed but for the
opcodes whose reader checks the signatures they carry instead and takes
them only over the link of their sender (the route table says which), and
a reply names its request in ``τ``
(``reply_to``).  Clients, cells and auditors each
hold one :class:`Endpoint`, which alone knows how a message gets its nonce
and clock stamp, how it reaches the network, and how a reply finds the
request it answers.  It is the only caller of ``Envelope.create`` and
``Network.send`` (lint rule ``PROTO004``), so a second transport has one
class to stand behind.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..crypto.keys import Address
from ..sim.environment import Clock
from ..sim.events import Event
from ..sim.network import Network
from .envelope import Envelope, NonceFactory
from .opcodes import Opcode
from .signer import Signer


class Endpoint:
    """A participant's signer, nonce sequence, network node and pending requests."""

    def __init__(
        self,
        env: Clock,
        network: Network,
        node_name: str,
        signer: Signer,
        silent: Callable[[], bool] = lambda: False,
        nonces: Optional[NonceFactory] = None,
    ) -> None:
        self.env = env
        self.network = network
        self.node_name = node_name
        self.signer = signer
        #: The signer's one nonce sequence: requests, replies and batch
        #: flushes all draw from it, and so do the other nodes it is handed
        #: to (the per-group nodes of one client identity).
        self.nonces = NonceFactory(signer.address) if nonces is None else nonces
        #: True while nothing may leave the node (a crashed cell emits nothing).
        self.silent = silent
        #: Request nonce -> (the cell that was asked, the identity that asked,
        #: the event its reply fires).
        self._pending: dict[str, tuple[Address, Address, Event]] = {}

    def sign(
        self,
        recipient: Address,
        operation: Opcode,
        data: dict[str, Any],
        reply_to: Optional[str] = None,
        signer: Optional[Signer] = None,
    ) -> Envelope:
        """An envelope stamped with the next nonce and the current time.

        ``signer`` speaks for another identity from this node (a client
        machine submitting on behalf of a throwaway account).
        """
        return Envelope.create(
            signer=signer or self.signer,
            recipient=recipient,
            operation=operation,
            data=data,
            timestamp=self.env.now,
            nonce=self.nonces.next(),
            reply_to=reply_to,
        )

    def stamp(
        self,
        recipient: Address,
        operation: Opcode,
        data: dict[str, Any],
        reply_to: Optional[str] = None,
    ) -> Envelope:
        """An envelope that travels unsigned, stamped with the current time and no nonce."""
        signer = self.signer
        return Envelope.unsigned(
            signer.address, signer.scheme, recipient, operation, data, self.env.now, reply_to
        )

    def post(self, dst_node: str, envelope: Envelope) -> bool:
        """Hand ``envelope`` to the network; False if it never left.

        That is when this node is silent, or the network refuses the
        destination (offline, or across a partition).
        """
        if self.silent():
            return False
        return self.network.send(self.node_name, dst_node, envelope, envelope.byte_size())

    def send(
        self,
        dst_node: str,
        recipient: Address,
        operation: Opcode,
        data: dict[str, Any],
        reply_to: Optional[str] = None,
        signed: bool = True,
    ) -> bool:
        """Sign (or :meth:`stamp`) and post a message nobody waits on; False if it never left."""
        envelope = (self.sign if signed else self.stamp)(recipient, operation, data, reply_to)
        return self.post(dst_node, envelope)

    def ask(
        self,
        dst_node: str,
        recipient: Address,
        operation: Opcode,
        data: dict[str, Any],
        signer: Optional[Signer] = None,
        deadline: Optional[float] = None,
    ) -> tuple[Envelope, Event]:
        """Send a request; returns it and the event its reply fires.

        The event's value is the reply envelope — or ``None``, at once and
        with no timer scheduled, when the request never left.  With a
        ``deadline`` (seconds) the event fires with ``None`` once it
        passes unanswered, and the request is no longer waited for either
        way.
        """
        request = self.sign(recipient, operation, data, signer=signer)
        waiter = self.env.event()
        if not self.post(dst_node, request):
            return request, waiter.succeed(None)
        self._pending[request.nonce] = (dst_node, recipient, request.sender, waiter)
        if deadline is None:
            return request, waiter
        return request, _Answer(self, request, waiter, self.env.timeout(deadline))

    def resolve(self, src_node: str, reply: Envelope, answer: Any = None) -> bool:
        """Hand ``reply`` from ``src_node`` to the request it names, if the cell asked sent it.

        The request's event fires with ``answer`` (a receiver that already
        parsed the reply passes the typed body), else with the envelope.
        A reply nobody waits for is dropped.  False only when a pending
        request is answered by someone other than the cell that was asked,
        over another link than the one to the node asked, or in a reply
        addressed to someone other than the identity that asked: whoever
        sees a request learns its nonce, so the nonce alone must not let a
        third party answer, and a reply travels without its recipient (the
        requester supplies it, see ``Envelope.from_link``).  That request
        keeps waiting.  An unsigned reply travels without its sender too,
        which the requester supplies as the asked cell's; the link it
        arrives on is what vouches for that (the connection a REST request
        is answered on), so a peer that learned the nonce from a forward
        cannot answer in the asked cell's name.
        """
        reply_to = reply.payload.reply_to
        if reply_to is None or reply_to not in self._pending:
            return True
        asked_node, asked, requester, waiter = self._pending[reply_to]
        if src_node != asked_node or reply.sender != asked or reply.recipient != requester:
            return False
        del self._pending[reply_to]
        waiter.succeed(reply if answer is None else answer)
        return True

    def _forget(self, request: Envelope) -> None:
        """Stop waiting for the reply to ``request``; a late one is dropped."""
        self._pending.pop(request.nonce, None)


class _Answer(Event):
    """The reply to one request, or ``None`` once its deadline passed.

    It fires one step after the first of the two — the reply's event or
    the deadline's timer — exactly as ``any_of`` over them would, so a
    caller resumes where a hand-rolled race would have resumed it.  Its
    value is settled only when it is processed, just before its waiters
    run: a reply resolved in that same instant still counts.  Once settled
    it leaves the timer, so a reply that beat its deadline is not kept
    alive by the timer until the deadline passes.
    """

    __slots__ = ("_endpoint", "_request", "_waiter", "_timer")

    def __init__(self, endpoint: Endpoint, request: Envelope, waiter: Event, timer: Event) -> None:
        super().__init__(waiter.env)
        self._endpoint = endpoint
        self._request = request
        self._waiter = waiter
        self._timer = timer
        self.add_callback(self._settle)
        waiter.add_callback(self._fire)
        timer.add_callback(self._fire)

    def _fire(self, _event: Event) -> None:
        if not self.triggered:
            self.succeed()

    def _settle(self, _event: Event) -> None:
        self._endpoint._forget(self._request)
        timer_callbacks = self._timer.callbacks
        if timer_callbacks is not None:
            timer_callbacks.remove(self._fire)
        waiter = self._waiter
        self._value = waiter.value if waiter.triggered else None
