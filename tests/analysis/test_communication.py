"""Table II communication accounting."""

import pytest

from repro.analysis.communication import (
    CommunicationError,
    max_throughput_from_bandwidth,
    measure_profile,
    render_table,
)


@pytest.fixture(scope="module")
def profiles():
    return [measure_profile(cells) for cells in (2, 4)]


def test_client_request_size_roughly_constant_across_consortium_sizes(profiles):
    two, four = profiles
    assert abs(two.client_cell_payment.outbound - four.client_cell_payment.outbound) < 60


def test_reply_grows_with_consortium_size(profiles):
    two, four = profiles
    growth = four.client_cell_payment.inbound - two.client_cell_payment.inbound
    # Two extra co-signers ride in the receipt, each only a cell, a timestamp
    # and a signature (the statement travels once): ~2 x 239 = 478 bytes.
    assert growth > 400


def test_per_transaction_bytes_in_paper_ballpark(profiles):
    two = profiles[0]
    # Paper (2 cells): payment 1,140/559 bytes; forward 667/947 bytes.
    assert 500 < two.client_cell_payment.outbound < 1_200
    assert 800 < two.client_cell_payment.inbound < 3_000
    assert 500 < two.cell_cell_forward.outbound < 2_500
    assert 400 < two.cell_cell_forward.inbound < 2_000


def test_fingerprint_row_present(profiles):
    two = profiles[0]
    rows = dict((label, (inbound, outbound)) for label, inbound, outbound in two.rows())
    assert "CL<->C: fingerprint" in rows and "C<->C: forward" in rows


def test_bandwidth_supports_tens_of_thousands_of_tps(profiles):
    two = profiles[0]
    per_tx_bytes = two.client_cell_payment.inbound + two.client_cell_payment.outbound
    tps = max_throughput_from_bandwidth(per_tx_bytes, bandwidth_bps=1e9)
    # Section VI-D: a 1 Gbps uplink carries >30,000 transactions per second.
    assert tps > 30_000


def test_throughput_helper_validation():
    with pytest.raises(CommunicationError):
        max_throughput_from_bandwidth(0)


def test_render_table(profiles):
    text = render_table(list(profiles))
    assert "payment" in text and "2 cells" in text
