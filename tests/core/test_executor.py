"""The deterministic transaction executor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contracts import BContractError, ContractRegistry, FastMoney, bcontract_view
from repro.contracts.system.cas import ContentAddressableStorage
from repro.core.executor import ExecutionOutcome, TransactionExecutor
from repro.crypto.fingerprint import canonical_bytes
from repro.crypto.hashing import fast_hash
from repro.core.ledger import TransactionLedger
from repro.crypto.keys import PrivateKey
from repro.messages import EcdsaSigner, Envelope, Opcode
from repro.sim import Environment

CLIENT = EcdsaSigner.from_seed("exec-client")
CELL = PrivateKey.from_seed("exec-cell").address


@pytest.fixture
def setup():
    registry = ContractRegistry()
    registry.register(ContentAddressableStorage(ContentAddressableStorage.DEFAULT_NAME))
    fastmoney = FastMoney("fastmoney", params={"genesis_balances": {CLIENT.address.hex(): 100}})
    registry.register(fastmoney)
    ledger = TransactionLedger(Environment(), "cell-0")
    executor = TransactionExecutor("cell-0", registry)
    return registry, ledger, executor


def admit(ledger, data, nonce="0x1", timestamp=2.0):
    envelope = Envelope.create(
        signer=CLIENT, recipient=CELL, operation=Opcode.TX_SUBMIT,
        data=data, timestamp=timestamp, nonce=nonce,
    )
    return ledger.admit(envelope, cycle=0)


def test_successful_execution(setup):
    registry, ledger, executor = setup
    entry = admit(ledger, {"contract": "fastmoney", "method": "transfer",
                           "args": {"to": "0x" + "aa" * 20, "amount": 25}})
    outcome = executor.execute(entry)
    assert outcome.ok and outcome.status == "executed"
    assert outcome.result["amount"] == 25
    assert outcome.fingerprint == registry.get("fastmoney").fingerprint()
    assert outcome.fingerprint_hex().startswith("0x")


def test_contract_rejection_is_an_outcome_not_an_exception(setup):
    _registry, ledger, executor = setup
    entry = admit(ledger, {"contract": "fastmoney", "method": "transfer",
                           "args": {"to": "0x" + "aa" * 20, "amount": 10_000}})
    outcome = executor.execute(entry)
    assert not outcome.ok and "insufficient" in outcome.error


def test_unknown_contract_raises(setup):
    _registry, ledger, executor = setup
    entry = admit(ledger, {"contract": "ghost", "method": "x", "args": {}})
    with pytest.raises(BContractError):
        executor.execute(entry)


def test_malformed_call_rejected(setup):
    _registry, ledger, executor = setup
    entry = admit(ledger, {"method": "transfer", "args": {}})
    with pytest.raises(BContractError):
        executor.execute(entry)
    entry2 = admit(ledger, {"contract": "fastmoney", "args": {}}, nonce="0x2")
    with pytest.raises(BContractError):
        executor.execute(entry2)


def test_execution_fingerprint_is_order_independent_identifier(setup):
    _registry, ledger, executor = setup
    entry = admit(ledger, {"contract": "fastmoney", "method": "transfer",
                           "args": {"to": "0x" + "aa" * 20, "amount": 5}})
    outcome = executor.execute(entry)
    assert outcome.execution_fingerprint() != outcome.fingerprint
    assert outcome.execution_fingerprint_hex().startswith("0x")


_results = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
        st.dictionaries(st.integers(-5, 5), inner, max_size=3),  # keys that are not str
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(result=_results, error=st.one_of(st.none(), st.text()), text=st.text(max_size=8))
def test_execution_fingerprint_is_the_generic_encoding_of_its_dict(result, error, text):
    """Written from its shape, the fingerprint hashes exactly the bytes the dict encodes to."""
    outcome = ExecutionOutcome(
        tx_id="0x" + text, contract=text, method="tränsfer", status="executed",
        result=result, error=error, fingerprint=b"\x00" * 32,
    )
    expected = fast_hash(canonical_bytes({
        "tx_id": outcome.tx_id, "contract": outcome.contract, "method": outcome.method,
        "status": outcome.status, "result": result, "error": error,
    }))
    assert outcome.execution_fingerprint() == expected


def test_identical_transactions_produce_identical_execution_fingerprints(setup):
    registry, ledger, executor = setup
    other_registry = ContractRegistry()
    other_registry.register(ContentAddressableStorage(ContentAddressableStorage.DEFAULT_NAME))
    other_registry.register(
        FastMoney("fastmoney", params={"genesis_balances": {CLIENT.address.hex(): 100}})
    )
    other_ledger = TransactionLedger(Environment(), "cell-1")
    other_executor = TransactionExecutor("cell-1", other_registry)

    data = {"contract": "fastmoney", "method": "transfer",
            "args": {"to": "0x" + "aa" * 20, "amount": 5}}
    entry_a = admit(ledger, data)
    entry_b = admit(other_ledger, data)
    assert (
        executor.execute(entry_a).execution_fingerprint()
        == other_executor.execute(entry_b).execution_fingerprint()
    )


def test_context_uses_signed_timestamp(setup):
    registry, ledger, executor = setup
    entry = admit(ledger, {"contract": "fastmoney", "method": "transfer",
                           "args": {"to": "0x" + "aa" * 20, "amount": 1}}, timestamp=42.0)
    executor.execute(entry)
    stored = registry.get("fastmoney").store.get(f"processed/{entry.tx_id}")
    assert stored == pytest.approx(42.0)


def test_query_view(setup):
    _registry, _ledger, executor = setup
    assert executor.query("fastmoney", "balance_of", {"account": CLIENT.address.hex()}) == 100


# ----------------------------------------------------------------------
# View read-set tracking (execution lanes regression)
# ----------------------------------------------------------------------
class LeakyViews(FastMoney):
    """A contract whose views misbehave, for the read-only guard tests."""

    TYPE = "test/leaky"

    @bcontract_view
    def polluting_view(self) -> int:
        # Regression target: before the read-only guard, this silently
        # mutated contract state (and its fingerprint) from the read path.
        self.store.put("polluted", True)
        return 1

    @bcontract_view
    def deleting_view(self) -> int:
        self.store.delete("supply")
        return 1

    @bcontract_view
    def counting_view(self) -> int:
        self.store.increment("stats/view_calls")
        return 1


@pytest.fixture
def leaky():
    registry = ContractRegistry()
    contract = LeakyViews("leaky", params={"genesis_balances": {CLIENT.address.hex(): 9}})
    registry.register(contract)
    return contract, TransactionExecutor("cell-0", registry)


def test_view_writes_are_rejected_and_do_not_pollute_state(leaky):
    contract, executor = leaky
    before = contract.fingerprint()
    for view in ("polluting_view", "deleting_view", "counting_view"):
        with pytest.raises(BContractError, match="read-only during a view"):
            executor.query("leaky", view, {})
        assert contract.fingerprint() == before
        assert not contract.store.contains("polluted")
        assert not contract.store.in_transaction
        assert not contract.store.in_view


def test_view_reads_are_tracked_and_writes_stay_empty(leaky):
    contract, executor = leaky
    assert executor.query("leaky", "balance_of", {"account": CLIENT.address.hex()}) == 9
    assert executor.last_view_reads == {f"balance/{CLIENT.address.hex()}"}
    assert contract.last_view_reads == executor.last_view_reads
    # A failed view still closes the guard and reports the keys it read.
    with pytest.raises(BContractError):
        executor.query("leaky", "deleting_view", {})
    assert not contract.store.in_view


def test_invocation_access_sets_differentiate_reads_writes_deltas(setup):
    registry, ledger, executor = setup
    entry = admit(ledger, {"contract": "fastmoney", "method": "transfer",
                           "args": {"to": "0x" + "aa" * 20, "amount": 5}})
    outcome = executor.execute(entry)
    access = outcome.access
    assert access is not None
    sender_key = f"balance/{CLIENT.address.hex()}"
    assert sender_key in access.reads and sender_key in access.writes
    # Recipient credit and the transfer counter are commutative deltas.
    assert f"balance/0x{'aa' * 20}" in access.deltas
    assert "stats/transfers" in access.deltas
    assert "stats/transfers" not in access.writes
    # The declared plan covers every observed mutation.
    plan = registry.get("fastmoney").access_plan(
        "transfer", {"to": "0x" + "aa" * 20, "amount": 5},
        sender=CLIENT.address.hex(), tx_id=entry.tx_id,
    )
    assert plan is not None and plan.covers_mutations_of(access)


def test_rejected_invocation_still_reports_access(setup):
    _registry, ledger, executor = setup
    entry = admit(ledger, {"contract": "fastmoney", "method": "transfer",
                           "args": {"to": "0x" + "aa" * 20, "amount": 10_000}})
    outcome = executor.execute(entry)
    assert not outcome.ok
    assert outcome.access is not None
    assert f"balance/{CLIENT.address.hex()}" in outcome.access.reads


def test_execute_safely_rejects_instead_of_raising(setup):
    _registry, ledger, executor = setup
    entry = admit(ledger, {"contract": "ghost", "method": "x", "args": {}})
    outcome = executor.execute_safely(entry)
    assert not outcome.ok and "ghost" in (outcome.error or "")
    assert outcome.fingerprint == b"\x00" * 32
