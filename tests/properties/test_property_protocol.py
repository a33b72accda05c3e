"""Property-based tests for protocol-level invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemInvariants
from repro.core.consensus import OverlayConsensus
from repro.crypto.keys import PrivateKey
from repro.crypto.merkle import MerkleTree
from repro.crypto.hashing import fast_hash
from repro.encoding import canonical_json
from repro.messages import EcdsaSigner, Envelope, Opcode, SimulatedSigner

CELLS = tuple(PrivateKey.from_seed(f"prop-cell-{i}").address for i in range(3))
ECDSA_SIGNER = EcdsaSigner.from_seed("prop-ecdsa")
SIM_SIGNER = SimulatedSigner("prop-sim")


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=10_000.0),
    st.floats(min_value=0.0, max_value=10_000.0),
    st.floats(min_value=0.0, max_value=10**6),
)
def test_cycle_arithmetic_invariants(period, t0, offset):
    invariants = SystemInvariants(
        deployment_id="prop", cell_addresses=CELLS, report_period=period, initial_timestamp=t0,
        forwarding_deadline=10.0, miss_threshold=5,
    )
    consensus = OverlayConsensus(invariants)
    timestamp = t0 + offset
    cycle = consensus.cycle_of(timestamp)
    assert consensus.cycle_start(cycle) <= timestamp
    assert timestamp < consensus.cycle_start(cycle) + period * (1 + 1e-9)
    assert consensus.next_deadline(timestamp) > timestamp - 1e-6
    assert consensus.report_due_by(cycle) >= consensus.cycle_deadline(cycle)
    assert consensus.valid_from_cycle(cycle) == cycle + 2


@settings(max_examples=40, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=40), min_size=1, max_size=24))
def test_merkle_proofs_verify_for_all_leaves(leaves):
    tree = MerkleTree(leaves, hash_function=fast_hash)
    for index, leaf in enumerate(leaves):
        assert tree.proof(index).verify(leaf, tree.root, fast_hash)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(st.text(max_size=6), st.integers(min_value=0, max_value=10**6), max_size=5),
    st.floats(min_value=0, max_value=10**6),
)
def test_envelope_roundtrip_verifies_for_both_schemes(data, timestamp):
    for signer in (ECDSA_SIGNER, SIM_SIGNER):
        envelope = Envelope.create(
            signer=signer, recipient=CELLS[0], operation=Opcode.TX_SUBMIT,
            data={"args": data}, timestamp=timestamp, nonce="0x01",
        )
        restored = Envelope.from_wire(canonical_json.dump_bytes(envelope.to_wire()))
        assert restored.verify()
        assert restored.payload.hash() == envelope.payload.hash()


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=1, max_size=100), st.binary(min_size=1, max_size=100))
def test_simulated_signatures_do_not_transfer_between_messages(a, b):
    signature = SIM_SIGNER.sign(a)
    from repro.messages.signer import verify_signature

    assert verify_signature("sim", SIM_SIGNER.address, a, signature)
    if a != b:
        assert not verify_signature("sim", SIM_SIGNER.address, b, signature)
