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
    # Two extra co-signers ride in the receipt, each only a timestamp and a
    # base64url signature (the statement travels once, and the consortium
    # names the co-signers): 249 bytes, 2 x ~125 (2 x 177 while each named
    # its cell, 2 x 222 while a signature also travelled as 0x-hex).
    assert growth > 230


#: What the paper's payment request carries and the link form does not: its
#: recipient Ar, which the receiving cell supplies (``,"recipient":"0x…"``).
RECIPIENT_BYTES = len(',"recipient":"0x' + "00" * 20 + '"')
#: What the paper's request spends on its signature beyond ours: Ethereum
#: tooling writes 65 bytes as ``0x`` and 130 hex digits, ours is 87
#: characters of base64url.
HEX_SIGNATURE_BYTES = len("0x" + "00" * 65) - 87
#: What the paper's receipt reply carries and ours does not: the reply is a
#: signed message M = {P, Sig(P)} there (a hex signature, a nonce and the
#: sender), ours travels unsigned, and its receipt states the fingerprint,
#: which our client derives, and its peer co-signer's address, which our
#: client knows as the consortium's other cell.
UNSIGNED_REPLY_BYTES = (
    len(',"signature":"0x' + "00" * 65 + '"') + len(',"nonce":"' + "A" * 16 + '"')
    + len(',"sender":"0x' + "00" * 20 + '"') + len(',"fingerprint":"0x' + "00" * 32 + '"')
    + len(',"cell":"0x' + "00" * 20 + '"')
)
#: What the paper's forward carries and ours does not: the forward is a
#: signed message there (a hex signature, a nonce and the sender), ours
#: travels unsigned over the forwarding cell's link, which names it, and its
#: client transaction leaves out its opcode, always ``tx_submit``.
UNSIGNED_FORWARD_BYTES = (
    len(',"signature":"0x' + "00" * 65 + '"') + len(',"nonce":"' + "A" * 16 + '"')
    + len(',"sender":"0x' + "00" * 20 + '"') + len(',"operation":"tx_submit"')
)
#: What the paper's confirmation carries and ours leaves to its reader: the
#: fingerprint and status of the call the service cell executed itself, the
#: timestamp of the ``TX_CONFIRM`` that carries it, and its sender, which
#: the link names.
DERIVED_CONFIRMATION_BYTES = (
    len(',"fingerprint":"0x' + "00" * 32 + '"') + len(',"status":"executed"')
    + len(',"timestamp":12.345678') + len(',"sender":"0x' + "00" * 20 + '"')
)


def test_per_transaction_bytes_in_paper_ballpark(profiles):
    two = profiles[0]
    # Paper (2 cells): payment 1,140/559 bytes; forward 667/947 bytes.
    paper_form = two.client_cell_payment.outbound + RECIPIENT_BYTES + HEX_SIGNATURE_BYTES
    assert 500 < paper_form < 1_200
    # The reply itself, pinned at its measured size (586 B while it named
    # its peer co-signer, 852 B while it was also signed and carried the
    # fingerprint), and in the paper's form.
    assert two.client_cell_payment.inbound <= 534
    assert 800 < two.client_cell_payment.inbound + UNSIGNED_REPLY_BYTES < 3_000
    # The forward, pinned at its measured size (693 B while it was signed
    # and its item named its opcode), and in the paper's form.
    assert two.cell_cell_forward.outbound <= 486
    assert 500 < two.cell_cell_forward.outbound + UNSIGNED_FORWARD_BYTES < 2_500
    # The confirmation, pinned at its measured size (381 B while its sender
    # travelled, 505 B while it also stated what its reader derives), and in
    # the paper's form.
    assert two.cell_cell_forward.inbound <= 327
    assert 400 < two.cell_cell_forward.inbound + DERIVED_CONFIRMATION_BYTES < 2_000


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
