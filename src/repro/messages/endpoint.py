"""One way to talk to a cell: sign, send, await (Section III-C2).

Every request *and response* is the same signed payload tuple, and a reply
names its request in ``τ`` (``reply_to``).  Clients, cells and auditors each
hold one :class:`Endpoint`, which alone knows how a message gets its nonce
and clock stamp, how it reaches the network, and how a reply finds the
request it answers.  It is the only caller of ``Envelope.create`` and
``Network.send`` (lint rule ``PROTO004``), so a second transport has one
class to stand behind.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..crypto.keys import Address
from ..sim.environment import Environment
from ..sim.events import Event
from ..sim.network import Network
from .envelope import Envelope, NonceFactory
from .opcodes import Opcode
from .signer import Signer


class Endpoint:
    """A participant's signer, nonce sequence, network node and pending requests."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        node_name: str,
        signer: Signer,
        silent: Callable[[], bool] = lambda: False,
    ) -> None:
        self.env = env
        self.network = network
        self.node_name = node_name
        self.signer = signer
        #: The node's one nonce sequence: requests, replies and batch
        #: flushes all draw from it.
        self.nonces = NonceFactory(signer.address)
        #: True while nothing may leave the node (a crashed cell emits nothing).
        self.silent = silent
        #: Request nonce -> (the cell that was asked, the event its reply fires).
        self._pending: dict[str, tuple[Address, Event]] = {}

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
    ) -> bool:
        """Sign and post a message nobody waits on; False if it never left."""
        return self.post(dst_node, self.sign(recipient, operation, data, reply_to))

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
        self._pending[request.nonce] = (recipient, waiter)
        if deadline is None:
            return request, waiter
        return request, _Answer(self, request, waiter, self.env.timeout(deadline))

    def resolve(self, reply: Envelope, answer: Any = None) -> bool:
        """Hand ``reply`` to the request it names, if the cell asked sent it.

        The request's event fires with ``answer`` (a receiver that already
        parsed the reply passes the typed body), else with the envelope.
        A reply nobody waits for is dropped.  False only when a pending
        request is answered by someone other than the cell that was asked:
        whoever sees a request learns its nonce, so the nonce alone must
        not let a third party answer.  That request keeps waiting.
        """
        reply_to = reply.payload.reply_to
        if reply_to is None or reply_to not in self._pending:
            return True
        recipient, waiter = self._pending[reply_to]
        if reply.sender != recipient:
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
        super().__init__(endpoint.env)
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
