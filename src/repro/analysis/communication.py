"""Table II — per-transaction communication overhead.

The paper measures, with WireShark on a local two-cell deployment, the TCP
bytes exchanged per FastMoney transaction on each communication vector
(client↔cell and cell↔cell), for consortium sizes 2, 4, and 8.  The
reproduction measures the same quantity directly from the network fabric's
byte counters: it runs exactly one transaction of the requested kind on a
fresh deployment with LAN latencies (matching the paper's local setup),
then reads the per-direction byte totals.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.deployment import BlockumulusDeployment
from ..core.config import DeploymentConfig
from ..client.client import BlockumulusClient
from ..client.apps import CasClient, FastMoneyClient
from ..sim.latency import fast_test_service_model, lan_latency


class CommunicationError(Exception):
    """Raised when the measurement transaction fails."""


@dataclass(frozen=True)
class VectorBytes:
    """Bytes observed on one communication vector for one transaction."""

    label: str
    inbound: int      # toward the first-named party
    outbound: int     # away from the first-named party


@dataclass(frozen=True)
class CommunicationProfile:
    """Table II measurements for one consortium size."""

    cells: int
    client_cell_payment: VectorBytes
    client_cell_fingerprint: VectorBytes
    cell_cell_forward: VectorBytes

    def rows(self) -> list[tuple[str, int, int]]:
        """(label, in, out) rows in the paper's order."""
        return [
            ("CL<->C: fingerprint", self.client_cell_fingerprint.inbound,
             self.client_cell_fingerprint.outbound),
            ("CL<->C: payment", self.client_cell_payment.inbound,
             self.client_cell_payment.outbound),
            ("C<->C: forward", self.cell_cell_forward.inbound,
             self.cell_cell_forward.outbound),
        ]


def _local_deployment(
    cells: int, signature_scheme: str = "ecdsa", batched: bool = False
) -> BlockumulusDeployment:
    # The paper's WireShark capture follows individual per-transaction HTTP
    # streams, so Table II is measured with message batching disabled; pass
    # ``batched=True`` for the batch-pipeline ablation instead.
    config = DeploymentConfig(
        consortium_size=cells,
        report_period=3_600.0,
        client_cell_latency=lan_latency(),
        cell_cell_latency=lan_latency(),
        service_model=fast_test_service_model(),
        signature_scheme=signature_scheme,
        seed=1234,
        message_batching=batched,
    )
    return BlockumulusDeployment(config)


def _measure_transaction(deployment: BlockumulusDeployment, kind: str) -> dict[str, VectorBytes]:
    """Run one transaction and return the per-vector byte counts."""
    client = BlockumulusClient(deployment, node_name=f"tab2-client-{kind}-{deployment.consortium_size}")
    network = deployment.network
    service = deployment.cell(0)

    # Warm-up: fund the account so the measured transfer is a plain payment.
    if kind == "payment":
        funding = FastMoneyClient(client).faucet(1_000)
        deployment.env.run(funding)
        if not funding.value.ok:
            raise CommunicationError(f"funding failed: {funding.value.error}")

    network.reset_traffic()
    if kind == "payment":
        event = FastMoneyClient(client).transfer("0x" + "42" * 20, 25)
    elif kind == "fingerprint":
        event = CasClient(client).put(b"table-ii fingerprint measurement payload")
    else:
        raise CommunicationError(f"unknown transaction kind {kind!r}")
    deployment.env.run(event)
    result = event.value
    if not result.ok:
        raise CommunicationError(f"measurement transaction failed: {result.error}")

    client_to_cell = network.bytes_between(client.node_name, service.node_name)
    cell_to_client = network.bytes_between(service.node_name, client.node_name)

    # Cell-to-cell: one forwarded copy and one confirmation per peer; the
    # per-link figures match the paper's single C<->C stream measurement.
    peers = [cell for cell in deployment.cells if cell is not service]
    if peers:
        first_peer = peers[0]
        forward_out = network.bytes_between(service.node_name, first_peer.node_name)
        confirm_in = network.bytes_between(first_peer.node_name, service.node_name)
    else:
        forward_out = confirm_in = 0

    return {
        "client_cell": VectorBytes(label="CL<->C", inbound=cell_to_client, outbound=client_to_cell),
        "cell_cell": VectorBytes(label="C<->C", inbound=confirm_in, outbound=forward_out),
    }


def measure_profile(
    cells: int, signature_scheme: str = "ecdsa", batched: bool = False
) -> CommunicationProfile:
    """Measure the full Table II column for a consortium of ``cells`` cells.

    ``batched=False`` (the default) reproduces the paper's per-transaction
    message counts; ``batched=True`` measures the same transaction through
    the batched overlay pipeline.  Either way a lone transaction's forward
    and confirmation each travel as a list of one under the same opcode.
    """
    payment = _measure_transaction(_local_deployment(cells, signature_scheme, batched), "payment")
    fingerprint = _measure_transaction(
        _local_deployment(cells, signature_scheme, batched), "fingerprint"
    )
    return CommunicationProfile(
        cells=cells,
        client_cell_payment=payment["client_cell"],
        client_cell_fingerprint=fingerprint["client_cell"],
        cell_cell_forward=payment["cell_cell"],
    )


def max_throughput_from_bandwidth(
    bytes_per_transaction: int, bandwidth_bps: float = 1_000_000_000.0
) -> float:
    """Transactions/second a given bandwidth can carry (Section VI-D check)."""
    if bytes_per_transaction <= 0:
        raise CommunicationError("bytes per transaction must be positive")
    return bandwidth_bps / (8 * bytes_per_transaction)


def render_table(profiles: list[CommunicationProfile]) -> str:
    """Text rendering of Table II."""
    header = f"{'Communication':<22}" + "".join(
        f"{str(profile.cells) + ' cells (in/out)':>22}" for profile in profiles
    )
    lines = [header, "-" * len(header)]
    if not profiles:
        return "(no data)"
    for index, (label, _inbound, _outbound) in enumerate(profiles[0].rows()):
        cells_text = "".join(
            f"{profile.rows()[index][1]:>11,}/{profile.rows()[index][2]:<10,}"
            for profile in profiles
        )
        lines.append(f"{label:<22}" + cells_text)
    return "\n".join(lines)
