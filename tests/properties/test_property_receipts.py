"""The one assumption of a derived receipt fingerprint: a result survives its JSON trip.

A client derives the fingerprint its receipt's co-signers signed from its
own request and the ``result`` the receipt carries
(``repro.core.receipts.executed_fingerprint_hex``).  The cells hashed the
result their contract returned; the client hashes what it parsed off the
wire.  The two agree only if ``canonical_bytes`` cannot tell a result from
its canonical-JSON round trip.  Here every method and view of every
contract a deployment ships runs once or more, in an order in which each
succeeds, with values hypothesis draws, and every result is checked.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contracts import InvocationContext
from repro.contracts.community import default_community_contracts
from repro.contracts.registry import ContractRegistry
from repro.contracts.system import install_system_contracts
from repro.contracts.system.cas import ContentAddressableStorage
from repro.crypto.fingerprint import canonical_bytes
from repro.crypto.keys import PrivateKey
from repro.encoding import canonical_json

A, B = (PrivateKey.from_seed(f"result-shapes/{name}").address for name in "ab")
CONTENT = st.binary(max_size=12)
SOURCE = '''
class Tally(BContract):
    TYPE = "community/tally"

    @bcontract_method
    def add(self, ctx, amount):
        return {"total": self.store.increment("total", amount)}
'''

#: Step ``i`` runs at ``10 * i`` seconds.
STEP = 10.0


class Soon(float):
    """A time this many seconds after the step that states it."""


@st.composite
def lifecycles(draw):
    """Every shipped entry point, in an order in which each can succeed, with drawn values.

    Each step is ``(contract, entry point, is a view, sender, args)``; what
    is drawn is what a result can echo back — amounts, times, texts,
    choices, contents.
    """
    small = st.integers(1, 9)
    fund, later = draw(st.integers(100, 10**6)), draw(st.floats(1e5, 1e9))
    soon = Soon(draw(st.floats(0.1, 9.9)))  # passed by the next step
    twice = Soon(STEP + soon)  # passed two steps on
    choices = draw(st.lists(st.text(min_size=1, max_size=6), min_size=2, max_size=4,
                            unique=True))
    content = draw(CONTENT)
    digest = ContentAddressableStorage.content_hash(content)
    money = [
        ("faucet", {"amount": fund}), ("transfer", {"to": B.hex(), "amount": draw(small)}),
        ("burn", {"amount": draw(small)}),
        ("xshard_reserve", {"xtx": "0xa1", "amount": draw(small), "expires_at": later}),
        ("xshard_settle", {"xtx": "0xa1"}),
        ("xshard_reserve", {"xtx": "0xa2", "amount": draw(small), "expires_at": None}),
        ("xshard_refund", {"xtx": "0xa2"}),
        ("xshard_reserve", {"xtx": "0xa3", "amount": draw(small), "expires_at": soon}),
        ("xshard_reclaim", {"xtx": "0xa3"}),
        ("xshard_expect", {"xtx": "0xb1", "to": A.hex(), "amount": draw(small),
                           "expires_at": later}),
        ("xshard_credit", {"xtx": "0xb1"}),
        ("xshard_expect", {"xtx": "0xb2", "to": A.hex(), "amount": draw(small),
                           "expires_at": later}),
        ("xshard_cancel", {"xtx": "0xb2"}),
        ("xshard_voucher_mint", {"xtx": "0xc1", "to": B.hex(), "amount": draw(small),
                                 "expires_at": soon, "reclaim_after": soon}),
        ("xshard_voucher_reclaim", {"xtx": "0xc1"}),
        ("xshard_voucher_redeem", {"xtx": "0xc2", "to": A.hex(), "amount": draw(small),
                                   "expires_at": later}),
        ("xshard_voucher_redeem", {"xtx": "0xc2", "to": A.hex(), "amount": draw(small),
                                   "expires_at": later}),
    ]
    steps = [("fastmoney", method, False, A, args) for method, args in money]
    steps += [("fastmoney", view, True, A, args) for view, args in (
        ("balance_of", {"account": A.hex()}), ("total_supply", {}), ("transfer_count", {}),
        ("xshard_status", {"xtx": "0xa1"}), ("xshard_status", {"xtx": "0xzz"}),
    )]
    steps += [("system.cas", method, view, A, args) for method, view, args in (
        ("put", False, {"content_hex": content.hex()}),
        ("add_reference", False, {"digest": digest}), ("release", False, {"digest": digest}),
        ("get", True, {"digest": digest}), ("reference_count", True, {"digest": digest}),
        ("stats", True, {}),
    )]
    election = {"election_id": "e1", "question": draw(st.text(max_size=12)),
                "choices": choices, "closes_at": later}
    steps += [("ballot", method, view, A, args) for method, view, args in (
        ("create_election", False, election),
        ("vote", False, {"election_id": "e1", "choice": draw(st.sampled_from(choices))}),
        ("election", True, {"election_id": "e1"}), ("tally", True, {"election_id": "e1"}),
        ("winner", True, {"election_id": "e1"}),
    )]
    steps += [("dividendpool", method, view, sender, args) for method, view, sender, args in (
        ("invest", False, A, {"amount": fund}), ("invest", False, B, {"amount": draw(small)}),
        ("declare_dividend", False, A,
         {"rate_percent": draw(st.integers(1, 100)), "claim_deadline": twice}),
        ("withdraw_dividend", False, A, {}),
        ("reinvest_unclaimed", False, A, {}),
        ("position", True, A, {"account": B.hex()}), ("totals", True, A, {}),
    )]
    steps += [("system.deployer", method, view, A, args) for method, view, args in (
        ("deploy", False, {"name": "tally", "source": SOURCE, "params": {},
                           "destroyable": True}),
        ("record", True, {"name": "tally"}), ("deployed", True, {}),
        ("destroy", False, {"name": "tally"}),
    )]
    return steps


def shipped_registry() -> ContractRegistry:
    """What every deployment starts with: the system and the community contracts."""
    registry = ContractRegistry()
    install_system_contracts(registry)
    for contract in default_community_contracts():
        registry.register(contract)
    return registry


def entry_points(registry):
    """``(contract name, entry point)`` of every method and view the registry ships."""
    return {
        (name, entry)
        for name in registry.names()
        for entry in (*registry.get(name).methods(), *registry.get(name).views())
    }


@settings(max_examples=60, deadline=None)
@given(lifecycles())
def test_every_result_a_shipped_contract_returns_survives_its_json_round_trip(steps):
    registry = shipped_registry()
    returned = set()
    for index, (name, entry, view, sender, args) in enumerate(steps):
        now = STEP * index
        args = {key: now + value if type(value) is Soon else value
                for key, value in args.items()}
        contract = registry.get(name)
        if view:
            result = contract.query(entry, args)
        else:
            ctx = InvocationContext(sender=sender, tx_id=f"0x{index:04x}", timestamp=now,
                                    cell_id="cell-0", cycle=0)
            result = contract.invoke(ctx, entry, args)
        returned.add((name, entry))
        sent = canonical_json.loads(canonical_json.dumps(result))
        assert canonical_bytes(sent) == canonical_bytes(result), (name, entry, result)
    # Every entry point of every shipped contract returned at least once.
    assert returned == entry_points(shipped_registry())
