"""Every receipt a burst delivers proves what it states, and states it once.

A receipt names the transaction, its contract, its execution fingerprint
and its status once; each co-signing cell adds only its address, the
moment it signed and the signature.  Whatever path a transaction took —
its own service cell or a peer's, confirmations batched or one message
each — the client's receipt must verify for every active cell.
"""

import pytest

from repro.client.workload import run_burst_transfers
from tests.conftest import make_deployment

#: What the receipt states once, and so no co-signer repeats.
SHARED = {"tx_id", "contract", "fingerprint", "status", "error"}


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "per-transaction"])
@pytest.mark.parametrize("cells", [2, 3])
def test_every_burst_receipt_verifies_for_every_active_cell(cells, batched):
    deployment = make_deployment(
        consortium_size=cells, signature_scheme="sim", message_batching=batched,
    )
    report = run_burst_transfers(deployment, count=60, pools=6)
    assert report.failure_count == 0 and len(report.results) == 60
    active = [cell.address for cell in deployment.cells]
    service_cells = set()
    for result in report.results:
        receipt = result.receipt
        assert receipt.verify(expected_cells=active), result.tx_id
        assert len(receipt.cosigners) == cells
        service_cells.add(receipt.service_cell)
        for cosigner in receipt.to_wire()["cosigners"]:
            assert set(cosigner) == {"cell", "timestamp", "signature", "scheme"}
            assert not SHARED & set(cosigner)
    # The burst's clients are spread over the cells: each serves some.
    assert service_cells == set(active)
