"""A finished transaction leaves nothing behind on the deadline timers.

Every forward races its confirmations against the forwarding deadline
(``any_of``), and every cross-shard request races its reply against one
(``Endpoint.ask(deadline=)``).  The deadline timers stay scheduled after
the race was won — 900 s later, by default — so whatever they still point
at stays alive as long: the condition, the confirmations it collected,
the request.  After a drained burst nothing may reach a settled
``AnyOf`` or ``_Answer`` any more.
"""

import gc

import pytest

from repro.client import run_burst_transfers
from repro.messages.endpoint import _Answer
from repro.sim import AnyOf
from tests.conftest import make_deployment, make_sharded_deployment


def _reachable_waits(root) -> list:
    """The ``AnyOf`` / ``_Answer`` objects reachable from ``root``."""
    seen, frontier, found = {id(root)}, [root], []
    while frontier:
        referents = gc.get_referents(*frontier)
        frontier = []
        for item in referents:
            if id(item) in seen or isinstance(item, type):
                continue
            seen.add(id(item))
            if isinstance(item, (AnyOf, _Answer)):
                found.append(item)
            frontier.append(item)
    return found


@pytest.mark.parametrize("batching", [True, False])
def test_a_drained_burst_leaves_no_condition_reachable(batching):
    deployment = make_deployment(signature_scheme="sim", message_batching=batching)
    report = run_burst_transfers(deployment, count=20, pools=2)
    assert report.failure_count == 0
    # The forwarding deadlines of the burst are still scheduled ...
    assert any(at > deployment.env.now + 100 for at, _seq, _event in deployment.env._queue)
    # ... but nothing they hold leads to a settled race.
    assert _reachable_waits(deployment) == []


def test_a_drained_cross_shard_burst_leaves_no_answer_reachable():
    deployment = make_sharded_deployment(2, signature_scheme="sim")
    report = run_burst_transfers(deployment, count=12, pools=2, cross_shard_rate=0.5)
    assert report.failure_count == 0
    assert _reachable_waits(deployment) == []
