"""Per-cell admission control: bounded inflight and deterministic shedding.

The endurance benchmark proves the overload story at scale; these tests
pin the mechanism at unit scale — configuration validation, the ingress
gate itself, the client-visible ``OVERLOADED`` contract, the statistics
block, and that a shed burst replays bit-identically under the same seed.
"""

import dataclasses

import pytest

from repro.client.workload import run_burst_transfers
from repro.contracts.community import FastMoney
from repro.core.cell import OVERLOADED_ERROR
from repro.core.config import ConfigError
from repro.core.sharding import GATEWAY_CELL_INDEX
from repro.messages import Envelope, Opcode
from repro.messages.envelope import NonceFactory
from repro.messages.xshard import (
    CrossShardDecision,
    CrossShardPrepare,
    CrossShardVoucherTransfer,
)
from repro.sim import CellServiceModel, ConstantLatency
from tests.conftest import fast_config, make_deployment, make_sharded_deployment


def slow_serial_model() -> CellServiceModel:
    """One transaction at a time, 50 ms each — easy to overload."""
    return CellServiceModel(
        invoke_overhead=ConstantLatency(0.05),
        auth_overhead=ConstantLatency(0.002),
        aggregate_overhead_per_cell=0.001,
        max_parallel_invocations=1,
    )


def test_max_inflight_config_validation():
    assert fast_config().max_inflight is None  # unbounded by default
    assert fast_config(max_inflight=1).max_inflight == 1
    for bad in (0, -5):
        with pytest.raises(ConfigError, match="max_inflight"):
            fast_config(max_inflight=bad)


def test_admission_gate_takes_slots_and_sheds_at_the_bound():
    deployment = make_deployment(max_inflight=2)
    cell = deployment.cell(0)
    assert cell._admit_ingress() and cell._admit_ingress()
    assert not cell._admit_ingress(), "the third arrival must be shed"
    cell._inflight -= 1  # one service completes
    assert cell._admit_ingress(), "a freed slot admits again"

    stats = cell.statistics()["admission"]
    assert stats == {
        "max_inflight": 2,
        "inflight": 2,
        "peak_inflight": 2,
        "shed": 1,
        "shed_recovering": 0,
    }


def test_unbounded_cell_never_sheds():
    deployment = make_deployment(service_model=slow_serial_model())
    report = run_burst_transfers(deployment, count=20, pools=4)
    assert report.failure_count == 0
    assert all(not result.shed for result in report.results)
    for cell in deployment.cells:
        stats = cell.statistics()["admission"]
        assert stats["max_inflight"] is None and stats["shed"] == 0


def test_overloaded_burst_sheds_with_the_client_visible_error():
    deployment = make_deployment(
        max_inflight=4, service_model=slow_serial_model(), signature_scheme="sim"
    )
    report = run_burst_transfers(deployment, count=30, pools=4)

    shed = [result for result in report.results if result.shed]
    committed = [result for result in report.results if result.ok]
    assert shed, "a 30-tx instant burst must overflow max_inflight=4"
    assert committed, "admitted transactions must still commit"
    assert len(shed) + len(committed) == 30, "no third outcome under overload"
    for result in shed:
        assert not result.ok and result.error == OVERLOADED_ERROR

    total_shed = 0
    for cell in deployment.cells:
        stats = cell.statistics()["admission"]
        assert stats["peak_inflight"] <= 4
        assert stats["inflight"] == 0, "inflight must drain to zero"
        total_shed += stats["shed"]
    assert total_shed == len(shed)


def test_shedding_is_deterministic_under_the_same_seed():
    def outcomes():
        deployment = make_deployment(
            max_inflight=4, service_model=slow_serial_model(), signature_scheme="sim"
        )
        report = run_burst_transfers(deployment, count=30, pools=4)
        return [(result.ok, result.shed, result.error) for result in report.results]

    first, second = outcomes(), outcomes()
    assert first == second
    assert any(shed for _ok, shed, _error in first)


# ----------------------------------------------------------------------
# The one ingress stage: every kind, every early exit, one release
# ----------------------------------------------------------------------
BOB = "0x" + "55" * 20


class IngressProbe:
    """A raw network node that sends hand-built envelopes to a gateway cell."""

    def __init__(self, max_inflight: int = 1) -> None:
        self.sharded = make_sharded_deployment(
            2, max_inflight=max_inflight, service_model=slow_serial_model(),
            signature_scheme="sim",
        )
        self.env = self.sharded.env
        self.deployment = self.sharded.group(0)
        self.cell = self.sharded.group(0).cells[GATEWAY_CELL_INDEX]
        self.alice = self.deployment.make_client_signer("alice")
        self.nonces = NonceFactory(self.alice.address)
        self.sharded.deploy_contract_instances(
            [FastMoney("pay", params={
                "genesis_balances": {self.alice.address.hex(): 100}, "allow_faucet": False,
            })],
            group=0,
        )
        self.replies: list[Envelope] = []
        self.sharded.network.register(
            "probe", handler=lambda _src, reply, _size: self.replies.append(reply)
        )

    def envelope(self, operation, data, recipient=None) -> Envelope:
        return Envelope.create(
            signer=self.alice, recipient=recipient or self.cell.address,
            operation=operation, data=data, timestamp=self.env.now,
            nonce=self.nonces.next(),
        )

    def request(self, kind: str, *, xtx="0xfeed", group=0, recipient=None) -> Envelope:
        """One well-formed request of an ingress kind (or a 2PC decision)."""
        def inner(method, args):
            return self.envelope(
                Opcode.TX_SUBMIT, {"contract": "pay", "method": method, "args": args},
                recipient=recipient,
            )

        if kind == "submit":
            return inner("transfer", {"to": BOB, "amount": 1})
        if kind == "prepare":
            operation, body = Opcode.XSHARD_PREPARE, CrossShardPrepare(
                xtx=xtx, group=group, participants=(0, 1),
                transaction=inner("xshard_reserve", {"xtx": xtx, "amount": 1}).to_wire(),
            )
        elif kind == "voucher":
            operation, body = Opcode.XSHARD_VOUCHER, CrossShardVoucherTransfer(
                phase="mint", group=group, target_group=1, target_contract="pay",
                transaction=inner("xshard_voucher_mint", {
                    "xtx": xtx, "to": BOB, "amount": 1, "expires_at": 500.0,
                }).to_wire(),
            )
        else:
            operation = Opcode.XSHARD_COMMIT if kind == "commit" else Opcode.XSHARD_ABORT
            body = CrossShardDecision(
                xtx=xtx, decision=kind, group=group, participants=(0, 1),
                transaction=inner("xshard_settle", {"xtx": xtx}).to_wire(),
            )
        return self.envelope(operation, body.to_data(), recipient=recipient)

    def send(self, envelope: Envelope) -> None:
        self.sharded.network.send("probe", self.cell.node_name, envelope, envelope.byte_size())

    def settle(self) -> dict:
        """Run past every deadline a request could wait on; the admission block."""
        self.env.run(until=self.env.now + self.deployment.config.forwarding_deadline + 1.0)
        return self.cell.statistics()["admission"]

    def errors(self) -> list[str]:
        return [reply.data.get("error") for reply in self.replies]


@pytest.mark.parametrize("kind", ["submit", "prepare", "voucher"])
@pytest.mark.parametrize(
    "early_exit", ["shed", "bad_signature", "wrong_recipient", "refusal", "crash"]
)
def test_every_early_exit_of_the_ingress_stage_releases_its_slot(early_exit, kind):
    probe = IngressProbe(max_inflight=1)
    cell = probe.cell
    expected_shed = 0
    if early_exit == "shed":
        # A slow transfer holds the only slot when the request arrives.
        probe.send(probe.request("submit"))
        probe.send(probe.request(kind))
        admission = probe.settle()
        assert probe.errors().count(OVERLOADED_ERROR) == 1
        expected_shed = 1
    elif early_exit == "bad_signature":
        honest = probe.request(kind)
        probe.send(dataclasses.replace(
            honest, signature=bytes(byte ^ 0xFF for byte in honest.signature)
        ))
        admission = probe.settle()
        assert probe.errors() == ["authentication failed"]
    elif early_exit == "wrong_recipient":
        sibling = probe.sharded.group(0).cells[1]
        probe.send(probe.request(kind, recipient=sibling.address))
        admission = probe.settle()
        assert probe.errors() == ["authentication failed"]
    elif early_exit == "refusal":
        if kind == "submit":
            # The ledger refuses a transaction it already holds.
            duplicate = probe.request("submit")
            probe.send(duplicate)
            probe.settle()
            probe.send(duplicate)
            admission = probe.settle()
            assert "already in the ledger" in probe.errors()[-1]
        else:
            probe.send(probe.request(kind, group=1))
            admission = probe.settle()
            assert probe.errors() == ["cell group 0 is not group 1"]
            assert cell.statistics()["xshard_transactions"] == 0
    else:
        probe.send(probe.request(kind))
        probe.env.run(until=probe.env.now + 0.03)
        assert cell.inflight == 1, "the request must be mid-service at the crash"
        probe.deployment.crash_cell(0)
        admission = probe.settle()
        assert probe.replies == [], "a crashed cell stays silent"

    assert admission["inflight"] == 0 and cell.inflight == 0
    assert admission["peak_inflight"] == 1
    assert admission["shed"] == expected_shed
    if early_exit in ("bad_signature", "wrong_recipient"):
        assert probe.sharded.metrics.counter(f"{cell.node_name}/auth_failures") == 1
        assert len(cell.ledger) == 0


@pytest.mark.parametrize("decision", ["commit", "abort"])
def test_decisions_are_never_shed(decision):
    """A commit/abort completes held funds: it takes no slot and is never shed."""
    probe = IngressProbe(max_inflight=1)
    probe.send(probe.request("submit"))  # holds the only slot while the decision arrives
    probe.send(probe.request(decision))
    admission = probe.settle()

    # The decision reached the gateway's state machine (which refuses an
    # xtx it never prepared) instead of the admission controller.
    assert OVERLOADED_ERROR not in probe.errors()
    assert "no prepared cross-shard transaction 0xfeed" in probe.errors()
    assert admission["shed"] == 0
    assert admission["peak_inflight"] == 1, "a decision never occupies a slot"
    assert admission["inflight"] == 0
