"""Direct coverage of the FaultPlan switches (Section V attack models).

The integration suite exercises these paths end to end; the tests here pin
down the per-switch behaviour — predicate semantics, event recording, and
the observable divergence each fault produces — independently of the
recovery machinery.
"""

import pytest

from repro.client import BlockumulusClient, FastMoneyClient
from repro.core.faults import (
    BYZANTINE_FAULT_KINDS,
    FAULT_KINDS,
    LYING_GATEWAY_MODES,
    RECOVERABLE_FAULT_KINDS,
    FaultError,
    FaultPlan,
    FaultSchedule,
    ScheduledFault,
    censor_method,
    censor_sender,
)
from repro.messages import EcdsaSigner, Envelope, Opcode
from tests.conftest import make_deployment


def _envelope(signer, contract="fastmoney", method="transfer"):
    return Envelope.create(
        signer=signer,
        recipient=EcdsaSigner.from_seed("faults/cell").address,
        operation=Opcode.TX_SUBMIT,
        data={"contract": contract, "method": method, "args": {}},
        timestamp=0.0,
        nonce="0x000000000001",
    )


# ----------------------------------------------------------------------
# Construction validation (FaultPlan and the scheduled-fault vocabulary)
# ----------------------------------------------------------------------
def test_fault_plan_rejects_invalid_arguments_at_construction():
    with pytest.raises(FaultError, match="negative"):
        FaultPlan(extra_confirm_delay=-1.0)
    with pytest.raises(FaultError, match="number of seconds"):
        FaultPlan(extra_confirm_delay="slow")
    with pytest.raises(FaultError, match="callable"):
        FaultPlan(censor="0xabc")
    # The valid shapes still construct.
    assert FaultPlan(extra_confirm_delay=0.5).extra_confirm_delay == 0.5
    assert FaultPlan(censor=censor_sender("0x" + "11" * 20)).censor is not None


def test_scheduled_fault_validates_kind_time_and_window():
    with pytest.raises(FaultError, match="unknown fault kind"):
        ScheduledFault(kind="meteor_strike", group=0, cell=0, at=1.0)
    with pytest.raises(FaultError, match="non-negative"):
        ScheduledFault(kind="crash_recover", group=0, cell=0, at=-2.0, until=3.0)
    with pytest.raises(FaultError, match="end time"):
        ScheduledFault(kind="crash_recover", group=0, cell=0, at=5.0)
    with pytest.raises(FaultError, match="end after it starts"):
        ScheduledFault(kind="censor_window", group=0, cell=0, at=5.0, until=5.0)
    with pytest.raises(FaultError, match="does not take an end time"):
        ScheduledFault(kind="tamper_state", group=0, cell=0, at=5.0, until=9.0)
    with pytest.raises(FaultError, match="seconds"):
        ScheduledFault(kind="delay_window", group=0, cell=0, at=1.0, until=2.0)
    with pytest.raises(FaultError, match="account"):
        ScheduledFault(kind="censor_window", group=0, cell=0, at=1.0, until=2.0)
    with pytest.raises(FaultError, match="account"):
        ScheduledFault(kind="censor_window", group=0, cell=0, at=1.0, until=2.0,
                       params={"account": -3})


@pytest.mark.parametrize(
    "window",
    [
        {"at": float("nan"), "until": 9.0},
        {"at": 5.0, "until": float("nan")},
        {"at": 5.0, "until": float("inf")},
        {"at": float("inf"), "until": float("inf")},
        {"at": True, "until": 9.0},
        {"at": 0.0, "until": True},
    ],
)
def test_scheduled_fault_times_are_finite_numbers_and_not_bools(window):
    """``nan < 0`` and ``nan <= nan`` are both false and ``bool`` is an
    ``int``: a comparison alone lets all of these through to ``call_at``."""
    with pytest.raises(FaultError, match="fault time|fault window"):
        ScheduledFault(kind="censor_window", group=0, cell=0,
                       params={"account": 1}, **window)


@pytest.mark.parametrize("kind", ["delay_window", "skew_window"])
@pytest.mark.parametrize("seconds", [float("nan"), float("inf"), True, 0, -0.5, "1"])
def test_window_seconds_are_positive_finite_numbers(kind, seconds):
    with pytest.raises(FaultError, match=rf"{kind} needs .*params\['seconds'\]"):
        ScheduledFault(kind=kind, group=0, cell=0, at=1.0, until=2.0,
                       params={"seconds": seconds})


def test_scheduled_fault_takes_exactly_the_params_its_kind_declares():
    # A misspelt key used to run silently as the default mode.
    with pytest.raises(FaultError, match=r"lying_gateway takes no params\['mod'\]"):
        ScheduledFault(kind="lying_gateway", group=0, cell=0, at=1.0,
                       params={"mod": "withhold", "mode": "forge"})
    with pytest.raises(FaultError, match=r"lying_gateway needs params\['mode'\]"):
        ScheduledFault(kind="lying_gateway", group=0, cell=0, at=1.0)
    with pytest.raises(FaultError, match=r"tamper_state takes no params\['bogus'\]"):
        ScheduledFault(kind="tamper_state", group=0, cell=0, at=1.0,
                       params={"bogus": 1})
    with pytest.raises(FaultError, match=r"censor_window takes no params\['seconds'\]"):
        ScheduledFault(kind="censor_window", group=0, cell=0, at=1.0, until=2.0,
                       params={"account": 0, "seconds": 0.1})
    with pytest.raises(FaultError, match="params must be a dict"):
        ScheduledFault(kind="tamper_state", group=0, cell=0, at=1.0, params=[])


def test_from_data_reads_report_json_strictly():
    """A report is read with exact JSON types — nothing is coerced — and a
    wrong shape is a ``FaultError``, not a ``KeyError`` out of the CLI."""
    good = {"kind": "censor_window", "group": 1, "cell": 1, "at": 3.0,
            "until": 9.0, "params": {"account": 2}}
    assert ScheduledFault.from_data(good).to_data() == good
    for key, lenient in (("group", "1"), ("cell", 1.9), ("at", "3"), ("until", "9")):
        with pytest.raises(FaultError, match="fault"):
            ScheduledFault.from_data({**good, key: lenient})
    for key in ("kind", "group", "cell", "at"):
        with pytest.raises(FaultError, match=f"missing .*{key}"):
            ScheduledFault.from_data({k: v for k, v in good.items() if k != key})
    with pytest.raises(FaultError, match="JSON object"):
        ScheduledFault.from_data(["censor_window"])
    with pytest.raises(FaultError, match="JSON list"):
        FaultSchedule.from_data({"faults": [good]})
    with pytest.raises(FaultError, match="JSON object"):
        FaultSchedule.from_data([good, "tamper_state"])
    with pytest.raises(FaultError, match="unknown fault kind"):
        ScheduledFault.from_data({**good, "kind": ["censor_window"]})


def test_gateway_kinds_must_target_the_gateway_cell():
    for kind, extra in (
        ("lying_gateway", {"params": {"mode": "forge"}}),
        ("voucher_loss", {"until": 9.0}),
        ("voucher_duplication", {"until": 9.0}),
    ):
        sibling = ScheduledFault(kind=kind, group=0, cell=1, at=5.0, **extra)
        with pytest.raises(FaultError, match="not a gateway cell"):
            FaultSchedule((sibling,)).validate_for(shard_count=2, cells_per_group=2)


def test_fault_kind_taxonomy_is_partitioned():
    """Every kind is recoverable, Byzantine, or a voucher delivery fault —
    never more than one — samplers and the attribution oracle branch on
    this split."""
    from repro.core.faults import VOUCHER_FAULT_KINDS

    strata = (
        set(RECOVERABLE_FAULT_KINDS),
        set(BYZANTINE_FAULT_KINDS),
        set(VOUCHER_FAULT_KINDS),
    )
    assert set(FAULT_KINDS) == strata[0] | strata[1] | strata[2]
    for i, left in enumerate(strata):
        for right in strata[i + 1:]:
            assert not left & right
    assert {"partition_window", "skew_window"} <= set(RECOVERABLE_FAULT_KINDS)
    assert {"equivocate", "lying_gateway"} <= set(BYZANTINE_FAULT_KINDS)
    assert {"voucher_loss", "voucher_duplication"} == set(VOUCHER_FAULT_KINDS)
    # The voucher kinds ride as extra draws on top of the lead-fault
    # stratification, so the lead tuple keeps its length (seed % 7).
    assert len(RECOVERABLE_FAULT_KINDS) == 7


def test_scheduled_fault_validates_the_byzantine_and_windowed_kinds():
    # Clock skew needs a positive magnitude and a window.
    with pytest.raises(FaultError, match="seconds"):
        ScheduledFault(kind="skew_window", group=0, cell=0, at=1.0, until=2.0)
    with pytest.raises(FaultError, match="seconds"):
        ScheduledFault(kind="skew_window", group=0, cell=0, at=1.0, until=2.0,
                       params={"seconds": -0.5})
    with pytest.raises(FaultError, match="end time"):
        ScheduledFault(kind="skew_window", group=0, cell=0, at=1.0,
                       params={"seconds": 0.2})
    # Partitions are windowed: they must heal.
    with pytest.raises(FaultError, match="end time"):
        ScheduledFault(kind="partition_window", group=0, cell=0, at=1.0)
    # A lying gateway needs a recognised lying mode and no window.
    with pytest.raises(FaultError, match="mode"):
        ScheduledFault(kind="lying_gateway", group=0, cell=0, at=1.0,
                       params={"mode": "stall"})
    with pytest.raises(FaultError, match="does not take an end time"):
        ScheduledFault(kind="lying_gateway", group=0, cell=0, at=1.0, until=5.0,
                       params={"mode": "forge"})
    for mode in LYING_GATEWAY_MODES:
        fault = ScheduledFault(kind="lying_gateway", group=0, cell=0, at=1.0,
                               params={"mode": mode})
        assert fault.params["mode"] == mode
    # Equivocation and partitions survive the wire round-trip.
    schedule = FaultSchedule((
        ScheduledFault(kind="equivocate", group=0, cell=1, at=6.0),
        ScheduledFault(kind="partition_window", group=0, cell=1, at=6.0,
                       until=11.0),
        ScheduledFault(kind="skew_window", group=0, cell=0, at=6.0, until=12.0,
                       params={"seconds": 0.25}),
    ))
    assert FaultSchedule.from_data(schedule.to_data()) == schedule
    assert schedule.kinds() == {"equivocate", "partition_window", "skew_window"}


def test_fault_plan_validates_the_byzantine_switches():
    with pytest.raises(FaultError, match="forge"):
        FaultPlan(lying_gateway="stall")
    plan = FaultPlan(equivocate=True, lying_gateway="withhold")
    assert plan.equivocate
    assert plan.lying_gateway == "withhold"
    plan.record("lying_gateway", mode="withhold", xtx="x-1", honest_ok=True)
    assert plan.events == [
        {"kind": "lying_gateway", "mode": "withhold", "xtx": "x-1",
         "honest_ok": True}
    ]


def test_fault_schedule_rejects_unknown_cells_instead_of_never_firing():
    crash = ScheduledFault(kind="crash_recover", group=0, cell=3, at=5.0, until=9.0)
    schedule = FaultSchedule((crash,))
    with pytest.raises(FaultError, match="unknown cell 3 of group 0"):
        schedule.validate_for(shard_count=1, cells_per_group=2)
    with pytest.raises(FaultError, match="cell group 1"):
        FaultSchedule(
            (ScheduledFault(kind="delay_window", group=1, cell=0, at=1.0, until=2.0,
                            params={"seconds": 0.1}),)
        ).validate_for(shard_count=1, cells_per_group=2)
    # Standby activation must target a standby index, and vice versa.
    activate = ScheduledFault(kind="standby_activate", group=0, cell=1, at=5.0)
    with pytest.raises(FaultError, match="not a standby"):
        FaultSchedule((activate,)).validate_for(
            shard_count=1, cells_per_group=2, standby_cells=1
        )
    FaultSchedule(
        (ScheduledFault(kind="standby_activate", group=0, cell=2, at=5.0),)
    ).validate_for(shard_count=1, cells_per_group=2, standby_cells=1)


def test_fault_schedule_round_trips_and_shrinks():
    schedule = FaultSchedule(
        (
            ScheduledFault(kind="censor_window", group=0, cell=1, at=5.0, until=9.0,
                           params={"account": 2}),
            ScheduledFault(kind="tamper_state", group=0, cell=0, at=7.0),
        )
    )
    assert FaultSchedule.from_data(schedule.to_data()) == schedule
    assert schedule.kinds() == {"censor_window", "tamper_state"}
    assert schedule.without(0).faults == schedule.faults[1:]
    with pytest.raises(FaultError, match="no fault with index"):
        schedule.without(5)


# ----------------------------------------------------------------------
# Censor predicates
# ----------------------------------------------------------------------
def test_censor_sender_matches_case_insensitively():
    alice = EcdsaSigner.from_seed("faults/alice")
    bob = EcdsaSigner.from_seed("faults/bob")
    predicate = censor_sender(alice.address.hex().upper())
    assert predicate(_envelope(alice))
    assert not predicate(_envelope(bob))


def test_censor_method_targets_one_call_only():
    alice = EcdsaSigner.from_seed("faults/alice")
    predicate = censor_method("dividendpool", "withdraw_dividend")
    assert predicate(_envelope(alice, "dividendpool", "withdraw_dividend"))
    assert not predicate(_envelope(alice, "dividendpool", "invest"))
    assert not predicate(_envelope(alice, "fastmoney", "withdraw_dividend"))


def test_fault_plan_records_censor_events():
    alice = EcdsaSigner.from_seed("faults/alice")
    plan = FaultPlan(censor=censor_sender(alice.address.hex()))
    envelope = _envelope(alice)
    assert plan.is_censored(envelope)
    assert plan.events == [{"kind": "censor", "tx_id": envelope.payload.hash_hex()}]
    # Non-matching traffic is passed through and not recorded.
    assert not plan.is_censored(_envelope(EcdsaSigner.from_seed("faults/bob")))
    assert len(plan.events) == 1


def test_censoring_cell_silently_drops_the_transaction():
    deployment = make_deployment(consortium_size=2)
    client = BlockumulusClient(deployment, service_cell_index=0)
    fastmoney = FastMoneyClient(client)
    deployment.env.run(fastmoney.faucet(100))

    cell = deployment.cell(0)
    cell.fault.censor = censor_sender(client.address.hex())
    attempt = fastmoney.transfer("0x" + "aa" * 20, 1)
    deployment.run(until=deployment.env.now + 5.0)
    # Silence, not an error: the client never hears back (Section V-B).
    assert not attempt.triggered
    assert cell.fault.events and cell.fault.events[0]["kind"] == "censor"
    assert cell.metrics.counter(f"{cell.node_name}/censored") == 1
    assert len(cell.ledger) == 1  # only the pre-censorship faucet


# ----------------------------------------------------------------------
# State tampering
# ----------------------------------------------------------------------
def test_tamper_state_diverges_fingerprints_and_records_the_event():
    deployment = make_deployment(consortium_size=2)
    client = BlockumulusClient(deployment, service_cell_index=0)
    fastmoney = FastMoneyClient(client)
    deployment.env.run(fastmoney.faucet(100))

    tampering = deployment.cell(1)
    tampering.fault.tamper_state = True
    result = fastmoney.transfer("0x" + "bb" * 20, 5)
    deployment.env.run(result)
    # The transaction still confirms: execution fingerprints (tx-level)
    # agree, and the corruption only shows up in the *state* fingerprints
    # compared at snapshot time.
    assert result.value.ok
    honest = deployment.cell(0).contracts.get("fastmoney")
    dirty = tampering.contracts.get("fastmoney")
    assert honest.fingerprint_hex() != dirty.fingerprint_hex()
    assert dirty.store.get("__tampered__") is not None
    kinds = {event["kind"] for event in tampering.fault.events}
    assert "tamper_state" in kinds


# ----------------------------------------------------------------------
# Confirmation delay
# ----------------------------------------------------------------------
def test_extra_confirm_delay_below_deadline_only_slows_the_receipt():
    deployment = make_deployment(consortium_size=2, forwarding_deadline=5.0)
    client = BlockumulusClient(deployment, service_cell_index=0)
    fastmoney = FastMoneyClient(client)
    deployment.env.run(fastmoney.faucet(100))

    deployment.cell(1).fault.extra_confirm_delay = 1.0
    result = fastmoney.transfer("0x" + "cc" * 20, 1)
    deployment.env.run(result)
    assert result.value.ok
    assert result.value.latency > 1.0
    assert {"kind": "delay", "seconds": 1.0} in deployment.cell(1).fault.events


def test_extra_confirm_delay_beyond_deadline_counts_as_a_miss():
    deployment = make_deployment(
        consortium_size=2, forwarding_deadline=0.5, miss_threshold=3
    )
    client = BlockumulusClient(deployment, service_cell_index=0)
    fastmoney = FastMoneyClient(client)
    deployment.env.run(fastmoney.faucet(100))

    slow = deployment.cell(1)
    slow.fault.extra_confirm_delay = 2.0
    result = fastmoney.transfer("0x" + "dd" * 20, 1)
    deployment.env.run(result)
    assert not result.value.ok
    assert "deadline" in result.value.error
    standing = deployment.cell(0).consensus.standing(slow.address)
    assert standing.consecutive_misses == 1
    assert not standing.is_excluded  # below the threshold, not yet excluded
