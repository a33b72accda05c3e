"""Signed and wire bytes are what they were before the fields were declared.

``golden_wire.json`` was written by ``wire_samples.py`` running on the
commit whose body classes still spelled out ``_signed_fields`` / ``to_wire``
/ ``to_data`` by hand.  A change of the bytes a statement signs, of its
signature or of any wire form fails here by the sample's name, not only as
a moved ``sim_digest``; so does a renamed opcode (the ``opcodes``
section).  The ``replies`` section holds what the cell's and the gateway's
dict literals produced before the reply bodies were declared (see
``wire_samples.py`` for how it was recorded).
"""

import json

import pytest

from repro.messages import Opcode
from tests.messages.wire_samples import GOLDEN, build, record

GOLD = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def recorded():
    return record()


def as_json(value) -> str:
    """Text, so that ``5`` and ``5.0`` (equal in Python) are told apart."""
    return json.dumps(value, sort_keys=True)


def test_the_samples_and_the_golden_table_name_the_same_things(recorded):
    assert {section: sorted(entries) for section, entries in recorded.items()} == {
        section: sorted(entries) for section, entries in GOLD.items()
    }


@pytest.mark.parametrize("part", ["body", "signature", "wire"])
@pytest.mark.parametrize("name", sorted(GOLD["statements"]))
def test_a_statement_signs_and_sends_the_recorded_bytes(name, part, recorded):
    assert as_json(recorded["statements"][name][part]) == as_json(GOLD["statements"][name][part])


@pytest.mark.parametrize("name", sorted(GOLD["bodies"]))
def test_a_body_sends_the_recorded_data_field(name, recorded):
    assert as_json(recorded["bodies"][name]) == as_json(GOLD["bodies"][name])


@pytest.mark.parametrize("name", sorted(GOLD["opcodes"]))
def test_an_opcode_travels_under_its_recorded_name(name, recorded):
    assert recorded["opcodes"][name] == GOLD["opcodes"][name]


@pytest.mark.parametrize("name", sorted(GOLD["replies"]))
def test_a_reply_sends_the_recorded_data_field(name, recorded):
    assert as_json(recorded["replies"][name]) == as_json(GOLD["replies"][name])


def test_every_reply_opcode_has_a_recorded_shape_and_reads_back():
    from repro.core.routes import REPLIES

    _statements, _bodies, replies = build()
    assert {name.partition("/")[0] for name in GOLD["replies"]} == {
        opcode.name for opcode in REPLIES
    }
    for name, reply in replies.items():
        assert REPLIES[Opcode[name.partition("/")[0]]] is type(reply), name
        # (The samples hold unrounded times, so compare what is sent again.)
        read = type(reply).from_data(GOLD["replies"][name])
        assert as_json(read.to_data()) == as_json(GOLD["replies"][name]), name


def test_every_recorded_statement_parses_back_and_verifies():
    statements, _bodies, _replies = build()
    for name, statement in statements.items():
        parsed = type(statement).from_wire(GOLD["statements"][name]["wire"])
        assert parsed.verify(), name
        assert parsed.body().decode() == GOLD["statements"][name]["body"], name
