"""Equality goldens of the chaos engine, recorded by the pre-table code.

``golden_faults.json`` was written by this module run against the commit
*before* the fault kinds moved into the ``FaultKind`` table
(``PYTHONPATH=<parent>/src python tests/chaos/goldens.py <repo root>``,
with the exercised seeds written out: that commit had no
``EXERCISED_SEEDS``).  It pins what a behaviour-preserving rewrite of the
fault machinery must not move:

* ``specs`` — a digest of ``sample_scenario(seed).to_data()`` for seeds
  0–499 and of ``sample_byzantine_scenario(seed).to_data()`` for seeds
  0–47 (the RNG draw order of both samplers);
* ``runs`` — per pinned seed, a digest of the ``fault_log`` (times,
  action strings, details) and of the run's artifacts;
* ``search`` — the covered-tuple count and ``new_tuples_by_iteration`` of
  the search at its pinned budget.

Never re-record it from the current tree to make a test pass: a moved
digest means a sampler draw, an action string or an artifact moved.

Two sections have since been re-recorded deliberately, by the change that
made the batch quantum a rate bound instead of a delay (a destination idle
for a quantum is flushed at once), each from that change's own tree:

* ``runs`` — the 32 recoverable seeds 4, 6, 8, 10, 16, 18, 20, 22, 24, 28,
  30, 32, 34, 42, 44, 46, 52, 54, 56, 58, 64, 66, 68, 70, 76, 78, 80, 82,
  102, 124, 142 and 172 and the 5 Byzantine seeds 0, 4, 6, 8 and 10: every
  one runs with batching on, and only its artifacts moved (its fault log
  did not), because batched flushes now leave earlier.  Every batching-off
  run and every ``specs`` entry is as the pre-table code recorded it.
* ``search`` — after the flush change alone had left it at 577 tuples,
  ``run_signals`` stopped filtering out the passing differential, which
  the pinned map had left out only because it predates the differential
  oracle in the search; re-recorded at 650 tuples, the new floor.

The ``runs`` section was re-recorded once more, by the change that made
the aggregated receipt state its transaction once (each co-signer travels
as cell, timestamp and signature), from that change's own tree: the
artifacts of 58 of the 88 recoverable runs and 8 of the 12 Byzantine runs
moved, because every receipt is smaller on the wire and so arrives a few
microseconds sooner.  No fault log moved and every oracle verdict still
passes; ``specs`` and ``search`` are untouched.

And once more, by the change that made the cell↔cell link state each
confirmation once (a ``LinkConfirmation`` leaves out the cell, scheme and
called contract its receiver holds) and gave forwards and confirmations
one opcode each (``tx_forward`` / ``tx_confirm``, 6 B shorter names than
the batch opcodes), from that change's own tree: the artifacts of 58 of
the 88 recoverable runs (4–11, 16–23, 28–35, 41–46, 52–59, 64–71, 76–83,
102, 124, 142, 172) and 9 of the 12 Byzantine runs (0, 3–6, 8–11) moved,
because those messages are smaller and arrive sooner.  No fault log
moved and every oracle verdict still passes; ``specs`` and ``search`` are
untouched.

And once more, by the change that sends a receipt to the client that
signed its transaction without what that client's request and the reply
envelope state (a ``CompactReceipt``), from that change's own tree: the
artifacts of the same 58 recoverable runs and 8 of the 12 Byzantine runs
(3–6, 8–11) moved, because each receipt reply is ~350 B shorter, so it
arrives sooner and a closed-loop client signs its next transaction at
another moment.  No fault log moved and every oracle verdict still
passes; ``specs`` and ``search`` are untouched.

And once more, by the change that sends every message in its link form,
without what its receiver supplies (the recipient, a null ``reply_to``
and the ``ecdsa`` tag; a forward item without its recipient, a
cross-shard inner transaction without its sender and recipient), from
that change's own tree: the artifacts of the same 58 recoverable runs and
9 of the 12 Byzantine runs (0, 3–6, 8–11) moved, because every message is
~75–90 B shorter and so arrives sooner.  No fault log moved and every
oracle verdict still passes; ``specs`` and ``search`` are untouched.

And once more, by the change that writes every signature and message
nonce as unpadded base64url instead of ``0x`` hex, from that change's own
tree: the artifacts of all 88 recoverable runs and all 12 Byzantine runs
moved, batching-off runs included.  A nonce is part of the signed payload,
so every transaction id and ledger digest differs, besides every message
being 45 B shorter per signature and 10 B per nonce.  No fault log moved
and every oracle verdict still passes; ``specs`` and ``search`` are
untouched.

And once more, by the change that sends a ``TX_RECEIPT`` and a
``TX_CONFIRM`` unsigned (no signature, no nonce; a receipt reply also no
sender) and a compact receipt without the fingerprint its client derives,
from that change's own tree: the artifacts of the same 58 recoverable runs
and 8 of the 12 Byzantine runs (3–6, 8–11) moved, because those messages
are 266 B and 129 B shorter, so they arrive sooner, and a cell's nonce
sequence no longer advances for them.  No fault log moved and every
oracle verdict still passes; ``specs`` and ``search`` are untouched.

And once more, by the change that sends three more statements as
signatures their reader rebuilds — a link confirmation without the
fingerprint, status and timestamp its service cell derives, a receipt
without its peer co-signers' cells where they are the consortium's other
cells, a voucher leg without the voucher its reader rebuilds and without
the outer ``xtx`` — and gives a sharded client's per-group nodes one nonce
sequence, from that change's own tree: the artifacts of 60 of the 88
recoverable runs (4–11, 16–23, 28–35, 40–47, 52–59, 64–71, 76–83, 102,
124, 142, 172) and 9 of the 12 Byzantine runs (3–11) moved, because those
messages are shorter and arrive sooner, and a sharded client's nonces,
and so its transaction ids, differ.  No fault log moved and every oracle
verdict still passes; ``specs`` and ``search`` are untouched.

And once more, by the change that sends a ``TX_FORWARD`` unsigned (no
signature, no nonce) and every unsigned message without its sender, which
the link it arrives on names, and a forward item without its opcode
(always ``tx_submit``), from that change's own tree: the artifacts of the
same 58 recoverable runs (4–11, 16–23, 28–35, 41–46, 52–59, 64–71, 76–83,
102, 124, 142, 172) and 9 of the 12 Byzantine runs (0, 3–6, 8–11) moved,
because a forward is ~207 B and a confirmation 54 B shorter, so they
arrive sooner, and a cell's nonce sequence no longer advances for a
forward.  No fault log moved and every oracle verdict still passes;
``specs`` and ``search`` are untouched.

And once more, by the change that names a confirmation's transaction by
the first 8 bytes of its id and lets a rejoin's donor build on the
rejoiner's own retained snapshot (no snapshot shipped, held entries by
position, replayed entries without the fields replay derives), from that
change's own tree: the artifacts of 36 of the 88 recoverable runs (4, 6–10,
16, 18–20, 22, 23, 28, 32, 34, 35, 42, 46, 52, 54, 56, 58, 64–66, 68, 70,
76, 78–80, 82, 83, 102, 142, 172) and 3 of the 12 Byzantine runs (4, 8,
11) moved, because confirmations are 48 B shorter and resync bundles
smaller, so they arrive sooner.  No fault log moved and every oracle
verdict still passes; ``specs`` and ``search`` are untouched.

A deliberate re-record names its sections —
``PYTHONPATH=src python tests/chaos/goldens.py <repo root> runs`` — and
rewrites nothing else; entries that did not move come out byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Iterable

GOLDEN_PATH = Path(__file__).with_name("golden_faults.json")

RECOVERABLE_SPEC_SEEDS = range(500)
BYZANTINE_SPEC_SEEDS = range(48)


def _plain(value: Any) -> Any:
    """A JSON-able, order-stable copy (tuples → lists, any key → str)."""
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    return value


def digest(value: Any) -> str:
    """64 bits of SHA-256 over the canonical JSON of ``value``."""
    encoded = json.dumps(_plain(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()[:16]


def run_digests(run: Any) -> list[str]:
    """``[fault_log digest, artifacts digest]`` of one scenario run."""
    return [digest(run.fault_log), digest(run.artifacts)]


def spec_digests() -> dict[str, dict[str, str]]:
    from repro.chaos import sample_byzantine_scenario, sample_scenario

    return {
        "recoverable": {
            str(seed): digest(sample_scenario(seed).to_data())
            for seed in RECOVERABLE_SPEC_SEEDS
        },
        "byzantine": {
            str(seed): digest(sample_byzantine_scenario(seed).to_data())
            for seed in BYZANTINE_SPEC_SEEDS
        },
    }


def load() -> dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


def run_section() -> dict[str, dict[str, list[str]]]:
    from repro.chaos import (
        EXERCISED_SEEDS,
        byzantine_corpus_seeds,
        corpus_seeds,
        run_scenario,
        sample_byzantine_scenario,
        sample_scenario,
    )

    return {
        "recoverable": {
            str(seed): run_digests(run_scenario(sample_scenario(seed)))
            for seed in (*corpus_seeds(), *EXERCISED_SEEDS)
        },
        "byzantine": {
            str(seed): run_digests(run_scenario(sample_byzantine_scenario(seed)))
            for seed in byzantine_corpus_seeds()
        },
    }


def search_section() -> dict[str, Any]:
    from repro.chaos import run_search
    from repro.chaos.search import PINNED_SEARCH_BUDGET

    search = run_search(PINNED_SEARCH_BUDGET)
    return {
        "budget": PINNED_SEARCH_BUDGET,
        "tuples": len(search.coverage),
        "new_tuples_by_iteration": [entry.new_tuples for entry in search.entries],
    }


SECTIONS = {"specs": spec_digests, "runs": run_section, "search": search_section}


def record(sections: Iterable[str] = SECTIONS) -> dict[str, Any]:
    return {name: SECTIONS[name]() for name in sections}


if __name__ == "__main__":
    target = Path(sys.argv[1]) / "tests" / "chaos" / "golden_faults.json"
    sections = sys.argv[2:]
    if sections:
        # Re-record only the named sections; keep the rest as committed.
        recorded = {**json.loads(target.read_text()), **record(sections)}
    else:
        recorded = record()
    target.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {target}: {', '.join(sections) or 'every section'}")
