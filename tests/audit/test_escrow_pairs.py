"""Every joint state of a cross-shard escrow pair, read by every oracle.

A cross-shard transfer leaves one escrow record on each of its two
FastMoney instances: the source record (``out``) in one of the six
statuses FastMoney writes — ``held``, ``settled``, ``refunded``,
``reclaimed``, ``voucher``, ``voucher_reclaimed`` — and the target record
(``in``) in one of four — ``expected``, ``credited``, ``cancelled``,
``redeemed`` — either of them possibly absent.  Each row below places one
pair on two fresh instances and pins what the oracles make of it:

* the conservation oracle's findings, exact text and order;
* its ``in_transit`` metric;
* whether the differential oracle's committed set lists the transfer
  (never for a pair the conservation oracle finds illegal);
* the balance adjustment of the semantic harvest (whose balance the
  escrowed value belongs to while no balance holds it).

The instances' supplies are set so that the per-instance and global
checks close when ``in_transit`` is what the row says, so a finding
listed here is a pairing finding.
"""

from types import SimpleNamespace

import pytest

from repro.audit.oracles import harvest_escrows, run_conservation_oracle
from repro.chaos.runner import harvest_committed, harvest_semantics
from repro.contracts.community.fastmoney import FastMoney
from repro.contracts.registry import ContractRegistry

BASE = "fm"
SOURCE_INSTANCE = "fm"
TARGET_INSTANCE = "fm@s1"
XTX = "x"
SENDER = "0x" + "11" * 20
RECIPIENT = "0x" + "22" * 20
AMOUNT = 7

SOURCE_STATUSES = (
    "held", "settled", "refunded", "reclaimed", "voucher", "voucher_reclaimed", None,
)
TARGET_STATUSES = ("expected", "credited", "cancelled", "redeemed", None)


def _source_record(status, amount):
    """The ``out`` record exactly as FastMoney writes it in ``status``."""
    record = {"direction": "out", "from": SENDER, "amount": amount, "status": status}
    if status == "held":
        record["expires_at"] = 100.0
    elif status == "voucher":
        record.update(to=RECIPIENT, expires_at=100.0, reclaim_after=110.0)
    elif status == "voucher_reclaimed":
        record["to"] = RECIPIENT
    return record


def _target_record(status, amount):
    """The ``in`` record exactly as FastMoney writes it in ``status``."""
    return {"direction": "in", "to": RECIPIENT, "amount": amount, "status": status}


CREDIT_UNSETTLED = (
    f"xtx {XTX}: credited on {TARGET_INSTANCE!r} without a settled source hold "
    f"(value minted)"
)


def _not_a_voucher(status):
    return (
        f"xtx {XTX}: redeemed on {TARGET_INSTANCE!r} but the source record on "
        f"{SOURCE_INSTANCE!r} has status {status!r}, not a minted voucher"
    )


TO_SENDER = {SENDER: AMOUNT}
TO_RECIPIENT = {RECIPIENT: AMOUNT}

#: (source, target, source amount, target amount) ->
#: (findings, in_transit, committed, adjusted balances)
ROWS = {
    ("held", "expected"): ([], 0, False, TO_SENDER),
    ("held", "credited"): ([CREDIT_UNSETTLED], 0, False, TO_SENDER),
    ("held", "cancelled"): ([], 0, False, TO_SENDER),
    ("held", "redeemed"): ([_not_a_voucher("held")], 0, False, TO_SENDER),
    ("held", None): ([], 0, False, TO_SENDER),
    ("settled", "expected"): ([], AMOUNT, True, TO_RECIPIENT),
    ("settled", "credited"): ([], 0, True, {}),
    ("settled", "cancelled"): (
        [f"xtx {XTX}: settled on {SOURCE_INSTANCE!r} but cancelled on "
         f"{TARGET_INSTANCE!r} (contradictory decisions)"],
        0, False, {},
    ),
    ("settled", "redeemed"): ([_not_a_voucher("settled")], 0, False, {}),
    ("settled", None): (
        [f"xtx {XTX}: settled on {SOURCE_INSTANCE!r} with no target escrow record at all"],
        0, False, {},
    ),
    ("refunded", "expected"): ([], 0, False, {}),
    ("refunded", "credited"): ([CREDIT_UNSETTLED], 0, False, {}),
    ("refunded", "cancelled"): ([], 0, False, {}),
    ("refunded", "redeemed"): ([_not_a_voucher("refunded")], 0, False, {}),
    ("refunded", None): ([], 0, False, {}),
    ("reclaimed", "expected"): ([], 0, False, {}),
    ("reclaimed", "credited"): ([CREDIT_UNSETTLED], 0, False, {}),
    ("reclaimed", "cancelled"): ([], 0, False, {}),
    ("reclaimed", "redeemed"): ([_not_a_voucher("reclaimed")], 0, False, {}),
    ("reclaimed", None): ([], 0, False, {}),
    ("voucher", "expected"): ([], AMOUNT, False, TO_SENDER),
    ("voucher", "credited"): ([CREDIT_UNSETTLED], AMOUNT, False, TO_SENDER),
    ("voucher", "cancelled"): ([], AMOUNT, False, TO_SENDER),
    ("voucher", "redeemed"): ([], 0, True, {}),
    ("voucher", None): ([], AMOUNT, False, TO_SENDER),
    ("voucher_reclaimed", "expected"): ([], 0, False, {}),
    ("voucher_reclaimed", "credited"): ([CREDIT_UNSETTLED], 0, False, {}),
    ("voucher_reclaimed", "cancelled"): ([], 0, False, {}),
    ("voucher_reclaimed", "redeemed"): (
        [f"xtx {XTX}: voucher redeemed on {TARGET_INSTANCE!r} but reclaimed on "
         f"{SOURCE_INSTANCE!r} (double spend)"],
        0, False, {},
    ),
    ("voucher_reclaimed", None): ([], 0, False, {}),
    (None, "expected"): ([], 0, False, {}),
    (None, "credited"): ([CREDIT_UNSETTLED], 0, False, {}),
    (None, "cancelled"): ([], 0, False, {}),
    (None, "redeemed"): (
        [f"xtx {XTX}: voucher redeemed on {TARGET_INSTANCE!r} with no minted source "
         f"voucher (value minted)"],
        0, False, {},
    ),
}

#: Amount-mismatch rows: (source, target, source amount, target amount).
MISMATCHES = {
    ("settled", "credited", AMOUNT, 5): (
        [f"xtx {XTX}: settled {AMOUNT} but credited 5"], 0, False, {},
    ),
    ("voucher", "redeemed", AMOUNT, 5): (
        [f"xtx {XTX}: vouched {AMOUNT} but redeemed 5"], 0, False, {},
    ),
}

CASES = {
    **{(source, target, AMOUNT, AMOUNT): row for (source, target), row in ROWS.items()},
    **MISMATCHES,
}


def test_the_table_covers_every_joint_state():
    states = {(source, target) for source in SOURCE_STATUSES for target in TARGET_STATUSES}
    states.discard((None, None))
    assert set(ROWS) == states
    assert len(ROWS) == 34


def _pair_deployment(source, target, source_amount, target_amount):
    """Two one-cell groups, each with one FastMoney instance, holding the pair."""
    return _deployment(
        (SOURCE_INSTANCE, source and _source_record(source, source_amount)),
        (TARGET_INSTANCE, target and _target_record(target, target_amount)),
    )


def _deployment(*instances):
    """One one-cell group per ``(instance name, escrow record or None)``.

    Each instance's supply is what its balances (none) plus its held
    escrow sum to, so only the pairing and in-transit terms can move the
    oracle's verdict.
    """
    registries = []
    for name, record in instances:
        registry = ContractRegistry()
        contract = registry.register(FastMoney(name))
        if record is not None:
            contract.store.put(f"xshard/{XTX}", record)
        held = record is not None and record["status"] == "held"
        contract.store.put("supply", record["amount"] if held else 0)
        registries.append(registry)
    deployment = SimpleNamespace(
        groups=[
            SimpleNamespace(index=index, cells=[SimpleNamespace(contracts=registry, ledger=())])
            for index, registry in enumerate(registries)
        ]
    )
    return deployment, registries


@pytest.mark.parametrize(
    "case", list(CASES), ids=lambda case: "{}-{}-{}-{}".format(*case)
)
def test_every_oracle_reads_the_pair_as_the_table_says(case):
    source, target, source_amount, target_amount = case
    findings, in_transit, committed, adjusted = CASES[case]
    deployment, registries = _pair_deployment(*case)
    held = source_amount if source == "held" else 0

    verdict = run_conservation_oracle(
        deployment, {SOURCE_INSTANCE: held + in_transit, TARGET_INSTANCE: 0}
    )
    assert verdict.findings == findings
    assert verdict.passed is (not findings)
    assert verdict.metrics["in_transit"] == in_transit
    assert verdict.metrics["escrow_pairs"] == 1

    calls, cross = harvest_committed(deployment, BASE)
    assert calls == []
    transfer = {"xtx": XTX, "sender": SENDER, "to": RECIPIENT, "amount": source_amount}
    assert cross == ([transfer] if committed else [])

    assert harvest_semantics(registries, BASE)["balances"] == adjusted


def test_a_reused_xtx_keeps_every_record_and_names_both_instances():
    """One xtx opened on two target instances: the second record is a
    finding naming both, and no transfer of it is committed."""
    deployment, registries = _deployment(
        ("fm", _source_record("settled", AMOUNT)),
        ("fm@s1", _target_record("credited", AMOUNT)),
        ("fm@s2", _target_record("expected", AMOUNT)),
    )
    (pair,) = harvest_escrows(deployment).values()
    assert (pair.source["instance"], pair.target["instance"]) == ("fm", "fm@s1")
    assert [(record["instance"], record["status"]) for record in pair.others] == [
        ("fm@s2", "expected")
    ]
    assert pair.commit_legs == ("settled", "credited")

    verdict = run_conservation_oracle(deployment, {"fm": 0, "fm@s1": 0, "fm@s2": 0})
    assert verdict.findings == [
        f"xtx {XTX}: two target escrow records, on 'fm@s1' and 'fm@s2' (xtx reused)"
    ]
    assert verdict.metrics["in_transit"] == 0
    assert verdict.metrics["escrow_pairs"] == 1
    assert harvest_committed(deployment, BASE) == ([], [])
    assert harvest_semantics(registries, BASE)["balances"] == {}


def test_every_further_record_is_a_leg_and_a_finding():
    """A double credit and a second source hold: each extra record is named."""
    deployment, _registries = _deployment(
        ("fm", _source_record("settled", AMOUNT)),
        ("fm@s1", _target_record("credited", AMOUNT)),
        ("fm@s2", _target_record("credited", AMOUNT)),
        ("fm@s3", _source_record("held", AMOUNT)),
    )
    (pair,) = harvest_escrows(deployment).values()
    assert pair.commit_legs == ("settled", "credited", "credited")
    assert pair.findings() == [
        f"xtx {XTX}: two source escrow records, on 'fm' and 'fm@s3' (xtx reused)",
        f"xtx {XTX}: two target escrow records, on 'fm@s1' and 'fm@s2' (xtx reused)",
    ]
    assert pair.transfer is None
