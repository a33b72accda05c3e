"""Table II — per-transaction communication overhead in bytes (E2).

Measures, for consortium sizes 2/4/8, the bytes exchanged on the
client<->cell vector (FastMoney payment and CAS fingerprint/upload
requests) and on a single cell<->cell forward/confirm exchange, exactly as
the paper measures with WireShark on a local deployment.
"""

from repro.analysis import max_throughput_from_bandwidth, measure_profile, render_table2

from _harness import CONSORTIUM_SIZES, write_output

#: Paper values for the 2-cell payment row (bytes in/out).
PAPER_2CELL_PAYMENT_IN = 1_140
PAPER_2CELL_PAYMENT_OUT = 559


def measure_all():
    return [measure_profile(cells) for cells in CONSORTIUM_SIZES]


def test_table2_communication(benchmark):
    profiles = benchmark.pedantic(measure_all, rounds=1, iterations=1)
    text = render_table2(profiles)

    two, four, eight = profiles
    per_tx = two.client_cell_payment.inbound + two.client_cell_payment.outbound
    ceiling = max_throughput_from_bandwidth(per_tx, bandwidth_bps=1e9)
    text += (
        f"\n\npaper (2 cells, payment): in {PAPER_2CELL_PAYMENT_IN} / out {PAPER_2CELL_PAYMENT_OUT} bytes"
        f"\nmeasured (2 cells, payment): in {two.client_cell_payment.inbound} / "
        f"out {two.client_cell_payment.outbound} bytes"
        f"\n1 Gbps uplink supports ~{ceiling:,.0f} tx/s at the measured per-transaction size "
        f"(paper: >30,000 tx/s)"
    )
    write_output("table2_communication", text)

    # Shape checks mirroring the paper's observations:
    # the client's request is small and roughly constant in the consortium size...
    assert abs(two.client_cell_payment.outbound - eight.client_cell_payment.outbound) < 80
    # ...while the reply grows with the number of co-signing cells...
    assert two.client_cell_payment.inbound < four.client_cell_payment.inbound < eight.client_cell_payment.inbound
    # ...the worst observed vector stays in the single-kilobytes range...
    worst = max(eight.client_cell_payment.inbound, eight.client_cell_fingerprint.inbound)
    assert worst < 8_000
    # ...and the available bandwidth supports tens of thousands of tx/s.
    assert ceiling > 30_000
    # The receipt reply carries only what the client lacks: within 10 % of
    # the paper's 2-cell payment reply.
    assert two.client_cell_payment.inbound <= 1.1 * PAPER_2CELL_PAYMENT_IN
