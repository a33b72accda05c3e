"""The rejoin in-flight window: admitted-tx-aware readmission + backfill.

The one correctness bug the chaos engine ever found: a cell readmitted
while the consortium is executing traffic could miss entries that peers
*admitted* between the rejoiner's donor sync and the readmit commit.
The rejoin vote compares state fingerprints, which cannot see
admitted-but-not-yet-executed transactions, so the vote passes while
entries are lost — peers forward only to active-view members, and the
rejoiner was not one yet.

These tests *construct* that race deterministically instead of hoping
chaos traffic hits the few-millisecond window: a watcher process admits
a transaction at every live peer the instant the donor serves the sync,
which is provably inside the sync→vote gap.  With backfill the recovery
converges (the ack-carried admitted heads trigger a delta fetch); with
``RecoveryStage._backfill`` patched out the old window reopens and
the rejoiner's ledger and state demonstrably diverge.
"""

from repro.client import BlockumulusClient, FastMoneyClient
from repro.contracts.community import FastMoney
from repro.core.recovery import RecoveryStage
from repro.messages import Envelope, Opcode
from tests.conftest import make_deployment


def _client_tx_envelope(deployment, signer, recipient, nonce, amount):
    """A valid signed FastMoney transfer, as a service cell would admit it."""
    return Envelope.create(
        signer=signer,
        recipient=recipient,
        operation=Opcode.TX_SUBMIT,
        data={
            "contract": FastMoney.DEFAULT_NAME,
            "method": "transfer",
            "args": {"to": "0x" + "ee" * 20, "amount": amount},
        },
        timestamp=deployment.env.now,
        nonce=nonce,
    )


def _prepare_excluded_cell(deployment):
    """Fund an account, crash+exclude cell 2, land traffic it will miss."""
    client = BlockumulusClient(
        deployment,
        signer=deployment.make_client_signer("inflight-client"),
        service_cell_index=0,
    )
    fastmoney = FastMoneyClient(client)
    deployment.env.run(fastmoney.faucet(1_000))
    for amount in (3, 5):
        event = fastmoney.transfer("0x" + "aa" * 20, amount)
        deployment.env.run(event)
        assert event.value.ok
    deployment.crash_cell(2)
    deployment.exclude_cell(2)
    missed = fastmoney.transfer("0x" + "ab" * 20, 2)
    deployment.env.run(missed)
    assert missed.value.ok
    return client


def _admit_at_peers_when_donor_serves(deployment, client):
    """Watcher process: inject one admitted-not-executed tx mid-handshake.

    Polls the donor's ``syncs_served`` counter and, the instant the sync
    reply leaves, admits the same signed client transaction at both live
    peers *without executing it* — exactly the protocol state live
    traffic produces between a cell's admission and its execution.  The
    rejoiner is still replaying the (already-serialized) bundle at that
    moment, so its sync cannot contain the entry, while every peer's
    rejoin ack will count it in ``admitted_head`` — and, because the
    entry has not executed, the peers' state fingerprints still *agree*
    with the rejoiner's.  Returns a dict collecting the injected entries.
    """
    env = deployment.env
    injected = {"entries": []}
    envelope = _client_tx_envelope(
        deployment,
        client.signer,
        deployment.cell(0).address,
        client.nonces.next(),
        amount=7,
    )

    def watcher():
        base = deployment.metrics.counter("cell-0/syncs_served")
        while deployment.metrics.counter("cell-0/syncs_served") == base:
            yield env.timeout(0.0005)
        for index in (0, 1):
            cell = deployment.cell(index)
            cycle = cell.consensus.cycle_of(env.now)
            entry = cell.ledger.admit(envelope, cycle)
            injected["entries"].append((cell, entry))

    env.process(watcher())
    return injected


def _execute_injected(deployment, injected):
    """The peers execute the in-flight entry, as they would have live."""
    env = deployment.env
    for cell, entry in injected["entries"]:
        env.process(cell.execute.run(entry))
    deployment.run(until=env.now + 1.0)


def _state_fingerprints(cell):
    return {
        name: cell.contracts.get(name).fingerprint_hex()
        for name in cell.contracts.names()
    }


def test_backfill_closes_the_inflight_admission_window():
    deployment = make_deployment(consortium_size=3, report_period=600.0)
    client = _prepare_excluded_cell(deployment)
    injected = _admit_at_peers_when_donor_serves(deployment, client)

    recovery = deployment.recover_cell(2)
    deployment.env.run(recovery)
    result = recovery.value
    assert result.ok and result.readmitted, result.reason

    # The race fired: both peers held the admitted entry when they voted.
    assert len(injected["entries"]) == 2
    # The vote still passed on the FIRST attempt — state fingerprints
    # cannot distinguish an admitted-only entry — and the ack-carried
    # admitted heads are what routed the gap into the backfill phase.
    assert result.attempts == 1
    assert result.live_backfilled >= 1
    assert result.backfill_rounds >= 1
    assert result.delta_syncs >= 1

    # The rejoiner holds (and already executed) the in-flight entry.
    rejoiner = deployment.cell(2)
    _, donor_entry = injected["entries"][0]
    assert rejoiner.ledger.contains(donor_entry.tx_id)
    assert rejoiner.ledger.get(donor_entry.tx_id).status == "executed"

    # Once the peers execute it too, all three cells converge bit for bit.
    _execute_injected(deployment, injected)
    digests = {
        tuple(map(tuple, cell.ledger.sync_digest())) for cell in deployment.cells
    }
    assert len(digests) == 1
    fingerprints = {
        tuple(sorted(_state_fingerprints(cell).items()))
        for cell in deployment.cells
    }
    assert len(fingerprints) == 1


def test_inflight_window_is_lost_without_backfill(monkeypatch):
    """Regression guard: disabling backfill reopens the original bug.

    Identical construction — but with the backfill phase patched out the
    readmission succeeds on fingerprint agreement alone and the rejoiner
    never learns about the in-flight entry: its ledger stays short and,
    once the peers execute the entry, its contract state diverges from
    the consortium's.  This is the failure the chaos corpus could only
    avoid by quiescing traffic before every recovery.
    """
    deployment = make_deployment(consortium_size=3, report_period=600.0)
    client = _prepare_excluded_cell(deployment)
    injected = _admit_at_peers_when_donor_serves(deployment, client)

    def no_backfill(self, donor, donor_node, acks, result):
        return
        yield

    monkeypatch.setattr(RecoveryStage, "_backfill", no_backfill)
    recovery = deployment.recover_cell(2)
    deployment.env.run(recovery)
    result = recovery.value

    # The vote PASSES — that is the bug: state fingerprints are blind to
    # the admitted-but-unexecuted entry both peers were holding.
    assert result.ok and result.readmitted
    assert len(injected["entries"]) == 2
    assert result.live_backfilled == 0 and result.backfill_rounds == 0

    # But the readmitted cell is missing the in-flight transaction...
    rejoiner = deployment.cell(2)
    _, donor_entry = injected["entries"][0]
    assert not rejoiner.ledger.contains(donor_entry.tx_id)
    assert len(rejoiner.ledger) == len(deployment.cell(0).ledger) - 1

    # ...and once the peers execute it, the consortium's state has
    # diverged from the rejoiner's: silent entry loss, detected only
    # here because the test looks.  With backfill (previous test) the
    # same schedule converges.
    _execute_injected(deployment, injected)
    assert _state_fingerprints(rejoiner) != _state_fingerprints(deployment.cell(0))
    digests = {
        tuple(map(tuple, cell.ledger.sync_digest())) for cell in deployment.cells
    }
    assert len(digests) == 2


def test_a_recovery_outside_the_window_takes_no_backfill_round():
    """The same recovery without the race: every agreeing ack's head is
    covered by the synced tail, so the backfill phase returns at once —
    the path every measured corpus and benchmark recovery took."""
    deployment = make_deployment(consortium_size=3, report_period=600.0)
    _prepare_excluded_cell(deployment)

    recovery = deployment.recover_cell(2)
    deployment.env.run(recovery)
    result = recovery.value
    assert result.ok and result.readmitted and result.attempts == 1
    assert result.live_backfilled == 0 and result.backfill_rounds == 0
    digests = {
        tuple(map(tuple, cell.ledger.sync_digest())) for cell in deployment.cells
    }
    assert len(digests) == 1


def test_silent_peer_is_excluded_instead_of_waited_out():
    """A crashed-but-unexcluded peer must not stall readmission.

    With cells 0..2, cell 1 crashes *without* being excluded, then cell 2
    (excluded) recovers.  Cell 2's first vote needs 2 of {cell0, cell1}
    — but cell 1 can never answer.  Instead of failing forever (or the
    corpus having to schedule activations after every crash window), the
    coordinator names cell 1 silent, votes it out with cell 0's help,
    and the retry succeeds against the shrunken, reachable quorum.  One
    result reports both attempts: the first replays the transfer cell 2
    missed, the retry one that cell 0 admitted during the failed vote.
    """
    deployment = make_deployment(consortium_size=3, report_period=600.0)
    client = BlockumulusClient(
        deployment,
        signer=deployment.make_client_signer("silent-peer-client"),
        service_cell_index=0,
    )
    fastmoney = FastMoneyClient(client)
    deployment.env.run(fastmoney.faucet(100))
    event = fastmoney.transfer("0x" + "aa" * 20, 4)
    deployment.env.run(event)
    assert event.value.ok

    deployment.crash_cell(2)
    deployment.exclude_cell(2)
    missed = fastmoney.transfer("0x" + "ab" * 20, 2)
    deployment.env.run(missed)
    assert missed.value.ok
    deployment.crash_cell(1)  # silent: crashed but never excluded

    recovery = deployment.recover_cell(2)
    deployment.run(until=deployment.env.now + 1.0)  # inside the first vote
    fastmoney.transfer("0x" + "ac" * 20, 1)
    deployment.env.run(recovery)
    result = recovery.value
    assert result.ok and result.readmitted, result.reason
    assert result.reason is None
    assert result.attempts == 2  # one failed vote, one against the live quorum
    assert result.delta_syncs == 1  # the retry re-fetched only the delta
    assert (result.replayed, result.live_backfilled) == (2, 1)
    deployment.run(until=deployment.env.now + 1.0)  # commits land everywhere

    # The silent peer was voted out everywhere that is still live.
    crashed = deployment.cell(1).address
    assert crashed in deployment.cell(0).consensus.excluded_cells()
    assert crashed in deployment.cell(2).consensus.excluded_cells()
    # And the rejoiner is active again from the donor's point of view.
    assert deployment.cell(2).address in deployment.cell(0).consensus.active_cells()


def test_recovering_cell_sheds_client_ingress():
    """Mid-resync a cell must refuse TX_SUBMIT with the OVERLOADED shed
    outcome — half-restored state never services transactions."""
    deployment = make_deployment(consortium_size=3, report_period=600.0)
    client = BlockumulusClient(
        deployment,
        signer=deployment.make_client_signer("shed-client"),
        service_cell_index=0,
    )
    fastmoney = FastMoneyClient(client)
    deployment.env.run(fastmoney.faucet(100))
    event = fastmoney.transfer("0x" + "aa" * 20, 3)
    deployment.env.run(event)
    assert event.value.ok

    deployment.crash_cell(2)
    deployment.exclude_cell(2)
    recovery = deployment.recover_cell(2)

    # A client pointed at the recovering cell submits while the resync is
    # in flight (the handshake alone spans several network round trips).
    direct = BlockumulusClient(
        deployment,
        signer=deployment.make_client_signer("shed-client-direct"),
        service_cell_index=2,
    )
    shed_event = FastMoneyClient(direct).transfer("0x" + "bb" * 20, 1)
    deployment.env.run(shed_event)
    shed_result = shed_event.value
    assert not shed_result.ok
    assert shed_result.shed, shed_result.error
    assert deployment.cell(2).statistics()["admission"]["shed_recovering"] == 1
    # Shedding left no protocol trace: no ledger entry anywhere.
    for cell in deployment.cells:
        assert not cell.ledger.contains(shed_event.value.tx_id)

    deployment.env.run(recovery)
    assert recovery.value.ok
    deployment.run(until=deployment.env.now + 1.0)
    after = FastMoneyClient(direct).faucet(10)
    deployment.env.run(after)
    assert after.value.ok  # recovered cell services traffic again
