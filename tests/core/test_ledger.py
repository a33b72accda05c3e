"""The mutex-protected transaction ledger."""

import pytest

from repro.core.ledger import LedgerError, TransactionLedger
from repro.crypto.keys import PrivateKey
from repro.messages import EcdsaSigner, Envelope, Opcode
from repro.sim import Environment

SIGNER = EcdsaSigner.from_seed("ledger-client")
CELL = PrivateKey.from_seed("ledger-cell").address


def make_envelope(nonce, amount=1):
    return Envelope.create(
        signer=SIGNER, recipient=CELL, operation=Opcode.TX_SUBMIT,
        data={"contract": "fastmoney", "method": "transfer", "args": {"amount": amount}},
        timestamp=1.0, nonce=nonce,
    )


@pytest.fixture
def ledger():
    return TransactionLedger(Environment(), "cell-0")


def test_admit_assigns_sequence_and_cycle(ledger):
    first = ledger.admit(make_envelope("0x1"), cycle=0)
    second = ledger.admit(make_envelope("0x2"), cycle=1)
    assert first.sequence == 0 and second.sequence == 1
    assert len(ledger) == 2
    assert ledger.contains(first.tx_id)
    assert ledger.get(first.tx_id).cycle == 0


def test_duplicate_admission_rejected(ledger):
    envelope = make_envelope("0x1")
    ledger.admit(envelope, cycle=0)
    with pytest.raises(LedgerError):
        ledger.admit(envelope, cycle=0)


def test_unknown_tx_rejected(ledger):
    with pytest.raises(LedgerError):
        ledger.get("0x" + "00" * 32)


def test_execution_bookkeeping(ledger):
    entry = ledger.admit(make_envelope("0x1"), cycle=0)
    ledger.mark_executed(entry.tx_id, "fastmoney", {"ok": True}, b"\x01" * 32)
    assert entry.status == "executed" and entry.contract == "fastmoney"
    rejected = ledger.admit(make_envelope("0x2"), cycle=0)
    ledger.mark_rejected(rejected.tx_id, "fastmoney", "insufficient funds")
    assert rejected.status == "rejected" and rejected.error == "insufficient funds"
    stats = ledger.statistics()
    assert stats["executed"] == 1 and stats["rejected"] == 1 and stats["total"] == 2


def test_cycle_queries(ledger):
    entries = [ledger.admit(make_envelope(f"0x{i}"), cycle=i % 2) for i in range(6)]
    ledger.mark_executed(entries[0].tx_id, "fastmoney", None, b"\x00" * 32)
    assert len(ledger.executed_for_cycle(0)) == 1
    assert len(ledger.executed_for_cycle(1)) == 0


def test_segment_export_roundtrips_envelopes(ledger):
    ledger.admit(make_envelope("0x1"), cycle=0)
    ledger.admit(make_envelope("0x2"), cycle=1, contingency=True)
    segment = ledger.segment(0, 1)
    assert len(segment) == 2
    restored = Envelope.from_wire(segment[0].envelope)
    assert restored.verify()
    assert segment[1].summary.contingency is True
    assert segment[1].to_wire()["summary"] == ledger.entry_at(1).summary()


def test_mutex_serializes_admission(ledger):
    env = ledger.env
    order = []

    def admitter(tag, hold):
        yield ledger.mutex.request()
        try:
            yield env.timeout(hold)
            ledger.admit(make_envelope(f"0x{tag}"), cycle=0)
            order.append((env.now, tag))
        finally:
            ledger.mutex.release()

    env.process(admitter("a", 2))
    env.process(admitter("b", 1))
    env.run()
    assert order == [(2, "a"), (3, "b")]
