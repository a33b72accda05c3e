"""A cell under audit may be the one cheating: what it answers is never trusted.

Every test replaces one handler of one cell by something that only answers
messages — it ``reply``s a shape the honest handler never produces — and
requires the audit to end as a finding, never as an exception out of
``run_audit`` / ``run_recovery_audit`` (which on the commit before the
reply bodies were declared raised ``KeyError`` / ``AttributeError`` /
``ValueError`` / ``TypeError`` for all but one of these shapes).
"""

import pytest

from repro.audit import Auditor
from repro.client import BlockumulusClient, FastMoneyClient
from repro.core.replies import SnapshotResponse
from repro.messages import Opcode
from tests.conftest import make_deployment

CYCLE = 1
SNAPSHOT_HEAD = {"cycle": CYCLE, "taken_at": 30.0, "cell_id": "x", "fingerprint": "0x00"}

BAD_SNAPSHOTS = {
    "no snapshot key": {},
    "snapshot is a number": {"snapshot": 7},
    "fingerprint is not hex": {
        "snapshot": {**SNAPSHOT_HEAD, "contract_fingerprints": {"fastmoney": "0xzz"}}
    },
    "state export is a list": {
        "snapshot": {**SNAPSHOT_HEAD, "contract_fingerprints": {}, "state_export": [1, 2]}
    },
    "snapshot is empty": {"snapshot": {}},
}
BAD_LEDGERS = {
    "entries of numbers": {"first_cycle": CYCLE, "last_cycle": CYCLE, "entries": [7]},
    "entries is a number": {"first_cycle": CYCLE, "last_cycle": CYCLE, "entries": 7},
    "an entry without its envelope": {
        "first_cycle": CYCLE, "last_cycle": CYCLE, "entries": [{"summary": {}}],
    },
}


def audited_deployment():
    """A few transfers and two completed report cycles, as the probe had them."""
    deployment = make_deployment(report_period=15.0, eth_block_interval=2.0,
                                 signature_scheme="sim")
    money = FastMoneyClient(BlockumulusClient(deployment))
    deployment.env.run(money.faucet(10))
    deployment.run(until=16.0)
    for _ in range(3):  # inside cycle 1, so its succession audit has something to replay
        deployment.env.run(money.transfer("0x" + "7b" * 20, 1))
    deployment.run(until=50.0)
    return deployment


def answer_with(cell, handler_name, opcode, data, when=lambda request: True):
    """Make ``cell`` answer the requests ``when`` picks with ``data``; honest otherwise."""
    honest = getattr(cell.read, handler_name)

    def handler(src_node, envelope, body):
        if when(body):
            cell.reply(src_node, envelope, opcode, data)
        else:
            honest(src_node, envelope, body)

    setattr(cell.read, handler_name, handler)


def kinds(report):
    return [finding.kind for finding in report.findings]


def test_the_honest_cell_of_this_fixture_passes_with_a_replay():
    report = Auditor(audited_deployment()).run_audit(1, CYCLE)
    assert report.passed and report.checked_transactions == 3, report.findings


@pytest.mark.parametrize("data", BAD_SNAPSHOTS.values(), ids=BAD_SNAPSHOTS)
def test_a_malformed_snapshot_response_is_one_finding(data):
    deployment = audited_deployment()
    answer_with(deployment.cell(1), "_serve_snapshot_request", Opcode.SNAPSHOT_RESPONSE, data)
    report = Auditor(deployment).run_audit(1, CYCLE)
    assert not report.passed and kinds(report) == ["snapshot_unavailable"]
    assert "malformed snapshot response" in report.findings[0].details
    # The honest cell next to it is audited as before.
    assert Auditor(deployment).run_audit(0, CYCLE).passed


def test_garbling_only_the_predecessor_does_not_get_a_cell_out_of_the_replay():
    deployment = audited_deployment()
    answer_with(
        deployment.cell(1), "_serve_snapshot_request", Opcode.SNAPSHOT_RESPONSE,
        {"snapshot": 7}, when=lambda request: request.cycle == CYCLE - 1,
    )
    report = Auditor(deployment).run_audit(1, CYCLE)
    assert kinds(report) == ["snapshot_unavailable"] and report.checked_transactions == 0
    assert f"cycle {CYCLE - 1}: malformed snapshot response" in report.findings[0].details
    # Having no predecessor (cycle 0 has none to ask for) is still not a finding.
    assert Auditor(deployment).run_audit(0, 0).passed


@pytest.mark.parametrize("data", BAD_LEDGERS.values(), ids=BAD_LEDGERS)
def test_a_malformed_ledger_response_is_one_finding_and_no_replay(data):
    deployment = audited_deployment()
    answer_with(deployment.cell(1), "_serve_ledger_request", Opcode.LEDGER_RESPONSE, data)
    report = Auditor(deployment).run_audit(1, CYCLE)
    assert not report.passed and kinds(report) == ["ledger_unavailable"]
    assert "malformed ledger response: entries" in report.findings[0].details
    assert report.checked_transactions == 0


@pytest.mark.parametrize("cheater, kind", [(1, "snapshot_unavailable"), (0, "reference_unavailable")])
def test_a_malformed_reply_in_a_recovery_audit_is_one_finding(cheater, kind):
    deployment = audited_deployment()
    answer_with(
        deployment.cell(cheater), "_serve_snapshot_request", Opcode.SNAPSHOT_RESPONSE,
        {"snapshot": {**SNAPSHOT_HEAD, "contract_fingerprints": {"fastmoney": "0xzz"}}},
    )
    report = Auditor(deployment).run_recovery_audit(1, 0, cycle=CYCLE)
    assert not report.passed and kinds(report) == [kind]
    assert Auditor(audited_deployment()).run_recovery_audit(1, 0, cycle=CYCLE).passed


def test_a_reply_of_another_opcode_is_a_finding_in_the_readers_words():
    deployment = audited_deployment()
    answer_with(deployment.cell(1), "_serve_snapshot_request", Opcode.QUERY_RESULT, {"result": 1})
    report = Auditor(deployment).run_audit(1, CYCLE)
    assert kinds(report) == ["snapshot_unavailable"]
    assert report.findings[0].details == "unexpected reply query_result"


def test_a_snapshot_served_by_a_cell_that_was_not_asked_is_ignored():
    deployment = audited_deployment()
    asked, other = deployment.cell(1), deployment.cell(0)
    honest = asked.read._serve_snapshot_request
    held = []

    def let_the_other_cell_answer(src_node, envelope, body):
        # The other cell sees the request (and so its nonce) and answers it
        # with its own, perfectly well-formed, snapshot.
        held.append((src_node, envelope, body))
        response = SnapshotResponse(other.snapshots.get(body.cycle))
        other.reply(src_node, envelope, Opcode.SNAPSHOT_RESPONSE, response.to_data())

    asked.read._serve_snapshot_request = let_the_other_cell_answer
    auditor = Auditor(deployment)
    audit = deployment.env.process(auditor.audit_cell(1, CYCLE))
    deployment.run(until=deployment.env.now + 5.0)
    assert not audit.triggered, "only the cell that was asked can answer"
    assert len(auditor.endpoint._pending) == 1

    # The asked cell answers after all: the audit goes on from where it waited.
    asked.read._serve_snapshot_request = honest
    honest(*held[0])
    report = deployment.env.run(audit)
    assert report.passed and report.checked_transactions == 3
    assert not auditor.endpoint._pending
