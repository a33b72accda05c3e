"""The serial specification the differential oracle judges a run against.

The differential oracle (:func:`repro.chaos.runner.differential_findings`)
asks whether applying exactly what a run committed, one call at a time,
to fresh contracts lands on the same application state.  This module is
that application: each committed call goes straight to
``contract.invoke`` on a fresh registry of the contracts a deployment
starts with, under an :class:`~repro.contracts.context.InvocationContext`
carrying the call's signed sender, transaction id and timestamp.  No cell,
ledger, envelope, signer, network or simulated clock takes part — the
module imports nothing from ``repro.core``, ``repro.messages``,
``repro.sim`` or ``repro.client`` — so the specification shares only
contract code with what it judges.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..contracts.community import FastMoney, default_community_contracts
from ..contracts.context import BContractError, InvocationContext
from ..contracts.registry import ContractRegistry
from ..contracts.system import ContentAddressableStorage, install_system_contracts
from ..crypto.keys import Address

#: ``(contract, method, args, sender, tx_id, timestamp, what)``: one call to apply.
_Call = tuple[str, str, dict[str, Any], str, str, float, str]


def _apply(registry: ContractRegistry, call: _Call, senders: dict[str, int]) -> Optional[str]:
    """Apply one call; the finding if it fails, else None."""
    contract, method, args, sender, tx_id, timestamp, what = call
    if sender not in senders:
        return f"{what}: committed by unknown sender {sender}"
    context = InvocationContext(
        sender=Address.from_hex(sender), tx_id=tx_id, timestamp=timestamp,
        cell_id="specification", cycle=0,
        cas=registry.get(ContentAddressableStorage.DEFAULT_NAME),
    )
    try:
        registry.get(contract).invoke(context, method, args)
    except BContractError as exc:
        return f"{what}: fails on the specification: {exc}"
    return None


def apply_committed(
    label: str,
    base_name: str,
    genesis_by_account: dict[str, int],
    calls: Sequence[dict[str, Any]],
    cross: Sequence[dict[str, Any]],
    elections: Sequence[tuple[str, Sequence[str]]] = (),
) -> tuple[ContractRegistry, list[str]]:
    """Apply a committed set serially to what a deployment starts with.

    ``calls`` and ``cross`` are what
    :func:`repro.chaos.runner.harvest_committed` returns: a call to any
    per-group instance of ``base_name`` lands on one FastMoney of that
    name, and a cross-shard transfer is a plain transfer on it.  ``genesis_by_account``
    holds every account the run minted — the only senders a committed call
    may have — and its first account creates the ``elections`` first.
    ``label`` names the run (``chaos/<seed>``, ``endurance``).  Returns the
    registry and the findings: every call no order of the set lets succeed.
    """
    registry = ContractRegistry()
    install_system_contracts(registry)
    for contract in default_community_contracts():
        registry.register(contract)
    funded = {account: amount for account, amount in genesis_by_account.items() if amount > 0}
    registry.register(
        FastMoney(base_name, params={"genesis_balances": funded, "allow_faucet": False})
    )
    creator = next(iter(genesis_by_account), "")
    findings: list[str] = []
    for election_id, choices in elections:
        setup = ("ballot", "create_election",
                 {"election_id": election_id, "question": f"{label}/{election_id}",
                  "choices": list(choices), "closes_at": 1_000_000.0},
                 creator, f"{label}/election/{election_id}", 0.0, f"election {election_id!r}")
        error = _apply(registry, setup, genesis_by_account)
        if error is not None:
            findings.append(error)
    pending: list[_Call] = [
        (base_name if call["contract"].split("@s", 1)[0] == base_name else call["contract"],
         call["method"], call["args"], call["sender"], call["tx_id"], call["timestamp"],
         f"committed {call['method']} {call['tx_id'][:18]}...")
        for call in calls
    ] + [
        (base_name, "transfer", {"to": transfer["to"], "amount": transfer["amount"]},
         transfer["sender"], transfer["xtx"], 0.0,
         f"committed cross transfer {transfer['xtx']}")
        for transfer in cross
    ]
    # Fixpoint: the committed set is harvested per group (and the
    # cross-shard pairs separately), so it carries no global order — and an
    # account funded *by* one committed transfer may be the sender of
    # another.  The run itself is a witness that a valid order exists, so
    # retrying the leftovers each round must drain the list; anything still
    # failing when a round makes no progress is a real divergence.
    while pending:
        retry: list[_Call] = []
        errors: list[str] = []
        for call in pending:
            error = _apply(registry, call, genesis_by_account)
            if error is not None:
                retry.append(call)
                errors.append(error)
        if len(retry) == len(pending):
            findings.extend(errors)
            break
        pending = retry
    return registry, findings
