"""One run of one workload: timed repeats, the gates, and the metrics.

A run builds fresh deployments one after another until ``seconds`` have
passed.  Repeat ``i`` uses the deployment seed
``seed + (i mod K) * SUB_SEED_STRIDE`` — the workload's ``K`` *sub-seeds*.
The simulated-clock metrics pool exactly the first ``K`` repeats (one per
sub-seed), so they are a pure function of ``--seed`` however fast the
host is; later repeats add host-clock samples and must reproduce the
``sim_digest`` of the repeat that shared their sub-seed.

Host-clock metrics pool the same way: the median CPU time of each
sub-seed's repeats, summed over the sub-seeds (their work differs), in
units of the run's calibration — the median of all its slices.

With tracing on, every repeat runs on sub-seed 0 and is followed by a
traced twin, so per-layer counts are those of one deployment seed and
``trace.overhead_ratio`` compares like with like.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.messages.signer import SimulatedSigner
from repro.sim.metrics import SampleSeries

from . import manifest
from .hostclock import CALIB_ROUNDS, calibration_slice, iqr_share, reference_seconds, timed
from .tracer import LAYERS, Tracer, TraceSummary
from .workloads import (
    SCHEMA_VERSION,
    SUB_SEED_STRIDE,
    BenchFailure,
    Observation,
    Workload,
    digest_of,
)

#: Sub-seeds of a ``--smoke`` run (sizes are the workload's smoke sizes),
#: and how much shorter its calibration slices are: it checks plumbing,
#: not time.
SMOKE_SUB_SEEDS = 2
SMOKE_SLICE_DIVISOR = 10


@dataclass
class Repeat:
    """One fresh deployment, built, driven and checked."""

    sub_seed: int
    observation: Observation
    setup_cpu_s: float
    drive_cpu_s: float
    drive_wall_s: float
    #: The calibration slices run right before and right after.
    calib_slices_s: tuple[float, float]
    trace: Optional[TraceSummary] = None


def run_id(workload: Workload, seed: int, smoke: bool) -> str:
    """Deterministic identifier of (workload config, seed, schema version)."""
    material = {"config": workload.config(smoke), "seed": seed, "schema": SCHEMA_VERSION}
    return "bench-" + digest_of(material)[:16]


def one_repeat(workload: Workload, seed: int, smoke: bool, traced: bool = False) -> Repeat:
    """Build, drive and check one fresh deployment.

    Only ``build`` and ``drive`` are timed; the oracles and digests of
    ``observe`` run after the clocks stopped.  Everything a previous
    repeat left behind is dropped first: without that, three in-process
    4000-transaction repeats took 3.37 -> 4.03 -> 4.55 s.
    """
    gc.collect()
    if not smoke:
        # The registry is process-wide.  A smoke run shares its process
        # with the test suite, whose module-level signers must stay
        # registered; a full-size run has a process of its own.
        SimulatedSigner.clear_registry()
    divisor = SMOKE_SLICE_DIVISOR if smoke else 1
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        before = calibration_slice(CALIB_ROUNDS // divisor) * divisor
        deployment, setup_cpu, _wall = timed(lambda: workload.build(seed, smoke))
        if tracer is not None:
            tracer.active = True
        driven, drive_cpu, drive_wall = timed(lambda: workload.drive(deployment, smoke))
        if tracer is not None:
            tracer.active = False
        after = calibration_slice(CALIB_ROUNDS // divisor) * divisor
    finally:
        if tracer is not None:
            tracer.active = False
            tracer.uninstall()
    return Repeat(
        sub_seed=seed,
        observation=workload.observe(deployment, driven),
        setup_cpu_s=setup_cpu,
        drive_cpu_s=drive_cpu,
        drive_wall_s=drive_wall,
        calib_slices_s=(before, after),
        trace=tracer.summary() if tracer is not None else None,
    )


def _peak_rss_mib() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _check_same_digest(workload: Workload, first: Repeat, again: Repeat) -> None:
    if first.observation.sim_digest != again.observation.sim_digest:
        raise BenchFailure(
            f"{workload.name}: sub-seed {again.sub_seed} gave sim_digest "
            f"{again.observation.sim_digest}, earlier {first.observation.sim_digest}: "
            "the simulation is not deterministic"
        )


def _calibration(repeats: list[Repeat]) -> float:
    """The run's calibration: the median of all its slices.

    A single 0.1 s slice is itself noisy (95-150 ms in one sizing run);
    the ratio of medians was steadier across seeds than the median of
    per-repeat ratios on every workload (bench/README.md has the table).
    """
    return statistics.median(s for repeat in repeats for s in repeat.calib_slices_s)


def _by_sub_seed(repeats: list[Repeat], cost: Callable[[Repeat], float]) -> list[list[float]]:
    """``cost`` of every repeat, grouped by the sub-seed it ran on."""
    groups: dict[int, list[float]] = {}
    for repeat in repeats:
        groups.setdefault(repeat.sub_seed, []).append(cost(repeat))
    return list(groups.values())


def _pooled_seconds(repeats: list[Repeat], cost: Callable[[Repeat], float]) -> float:
    """Sum over the sub-seeds of the median ``cost`` of each one's repeats."""
    return sum(statistics.median(costs) for costs in _by_sub_seed(repeats, cost))


def _relative_spread(repeats: list[Repeat], cost: Callable[[Repeat], float]) -> float:
    """IQR share of ``cost``, each repeat relative to its sub-seed's median."""
    return iqr_share([
        value / statistics.median(costs)
        for costs in _by_sub_seed(repeats, cost) for value in costs
    ])


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    import_s: float = 0.0,
) -> dict[str, Any]:
    """Measure one workload; returns its result record.

    Raises :class:`BenchFailure` when the correctness or determinism
    gate is violated — the caller then prints no metrics.
    """
    sub_seeds = 1 if trace else (SMOKE_SUB_SEEDS if smoke else workload.sub_seeds)
    deadline = time.perf_counter() + seconds
    plain: list[Repeat] = []
    traced: list[Repeat] = []
    first_of: dict[int, Repeat] = {}
    peak_rss = 0.0
    while len(plain) < sub_seeds or time.perf_counter() < deadline:
        sub_seed = seed + (len(plain) % sub_seeds) * SUB_SEED_STRIDE
        repeat = one_repeat(workload, sub_seed, smoke)
        if not plain:
            # ru_maxrss never falls, so one repeat's peak is read here.
            peak_rss = _peak_rss_mib()
        plain.append(repeat)
        _check_same_digest(workload, first_of.setdefault(sub_seed, repeat), repeat)
        if trace:
            twin = one_repeat(workload, sub_seed, smoke, traced=True)
            _check_same_digest(workload, repeat, twin)
            if traced and twin.trace.calls != traced[0].trace.calls:
                raise BenchFailure(f"{workload.name}: traced call counts differ between repeats")
            traced.append(twin)

    pooled = plain[:sub_seeds]
    attempted = sum(repeat.observation.attempted for repeat in pooled)
    committed = sum(repeat.observation.committed for repeat in pooled)
    if trace:
        values = _per_layer(_calibration(plain + traced), plain, traced, import_s)
    else:
        values = _end_to_end(
            _calibration(plain), plain, pooled, attempted, committed, peak_rss)
    return {
        "run_id": run_id(workload, seed, smoke),
        "schema_version": SCHEMA_VERSION,
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "config": workload.config(smoke),
        "correct": True,
        "attempted": attempted,
        "failed": attempted - committed,
        "metrics": manifest.with_units(values, "per_layer" if trace else "end_to_end"),
        "sim_digest": digest_of([repeat.observation.sim_digest for repeat in pooled]),
        "repeats": len(plain),
        "latency_samples": sum(len(repeat.observation.latencies) for repeat in pooled),
        #: IQR, as a share of the median, of the per-repeat host samples.
        "spread": {
            "host_us_per_tx": _relative_spread(plain, lambda r: r.drive_cpu_s),
            "setup_s": _relative_spread(plain, lambda r: r.setup_cpu_s),
        },
        "raw": {
            "sub_seed": [r.sub_seed for r in plain],
            "attempted": [r.observation.attempted for r in plain],
            "setup_cpu_s": [r.setup_cpu_s for r in plain],
            "drive_cpu_s": [r.drive_cpu_s for r in plain],
            "calib_slices_s": [s for r in plain for s in r.calib_slices_s],
        },
        "sub_seeds": [
            {
                "seed": repeat.sub_seed,
                "attempted": repeat.observation.attempted,
                "sim_tps": repeat.observation.committed / repeat.observation.sim_seconds,
                "sim_digest": repeat.observation.sim_digest,
            }
            for repeat in pooled
        ],
    }


def _end_to_end(
    calib: float,
    plain: list[Repeat],
    pooled: list[Repeat],
    attempted: int,
    committed: int,
    peak_rss: float,
) -> dict[str, float]:
    observations = [repeat.observation for repeat in pooled]
    latencies = SampleSeries("pooled")
    for observation in observations:
        latencies.extend(observation.latencies)
    drive_s = _pooled_seconds(plain, lambda r: r.drive_cpu_s)
    return {
        "sim_tps": committed / sum(o.sim_seconds for o in observations),
        "sim_p50_s": latencies.p50(),
        "sim_p99_s": latencies.p99(),
        "wire_bytes_per_tx": sum(o.wire_bytes for o in observations) / attempted,
        "committed_share": committed / attempted,
        "host_us_per_tx": reference_seconds(drive_s, calib) * 1e6 / attempted,
        "peak_rss_mb": peak_rss,
        "setup_s": reference_seconds(
            statistics.median(r.setup_cpu_s for r in plain), calib),
    }


def _per_layer(
    calib: float, plain: list[Repeat], traced: list[Repeat], import_s: float
) -> dict[str, float]:
    first = traced[0]
    attempted = first.observation.attempted
    trace = first.trace
    calls = trace.calls

    def per_tx(*targets: str) -> float:
        return sum(calls[target] for target in targets) / attempted

    def reference_us_per_tx(seconds: Callable[[Repeat], float]) -> float:
        return reference_seconds(
            statistics.median(seconds(r) for r in traced), calib) * 1e6 / attempted

    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.calls_per_tx"] = trace.layer_calls[layer] / attempted
        values[f"{layer}.self_us_per_tx"] = reference_us_per_tx(
            lambda r, layer=layer: r.trace.layer_self_s[layer])
    store = "repro.contracts.state_store:KeyValueStore."
    plain_cpu_s = statistics.median(r.drive_cpu_s for r in plain)
    values.update({
        "encoding.canonical_encodes_per_tx": per_tx("repro.encoding.canonical_json:dumps"),
        "encoding.encoded_bytes_per_tx": trace.sized_bytes / attempted,
        "crypto.hashes_per_tx": per_tx(
            "repro.crypto.hashing:fast_hash", "repro.crypto.keccak:keccak256"),
        "crypto.ecdsa_signs_per_tx": per_tx("repro.crypto.keys:PrivateKey.sign"),
        "crypto.ecdsa_recovers_per_tx": per_tx("repro.crypto.keys:recover_address"),
        "messages.envelopes_created_per_tx": per_tx("repro.messages.envelope:Envelope.create"),
        "messages.envelope_verifies_per_tx": per_tx("repro.messages.envelope:Envelope.verify"),
        "messages.from_wire_per_tx": per_tx("repro.messages.envelope:Envelope.from_wire"),
        "sim.events_per_tx":
            trace.counted["repro.sim.environment:Environment.step"] / attempted,
        "contracts.state_writes_per_tx": per_tx(store + "put", store + "increment",
                                                store + "delete"),
        # One entry digest is folded into a store's fingerprint per hash
        # made from inside the contracts layer.
        "contracts.fingerprint_updates_per_tx":
            trace.calls_under[("repro.crypto.hashing:fast_hash", "contracts")] / attempted,
        "core.receipts.confirmations_per_tx": per_tx("repro.core.receipts:Confirmation.create"),
        "core.snapshot.snapshots_taken":
            calls["repro.core.snapshot:SnapshotEngine.take_snapshot"],
        "other.self_us_per_tx": reference_us_per_tx(
            lambda r: r.drive_wall_s - r.trace.attributed_s),
        "trace.attributed_share": statistics.median(
            r.trace.attributed_s / r.drive_wall_s for r in traced),
        "trace.overhead_ratio":
            statistics.median(r.drive_cpu_s for r in traced) / plain_cpu_s,
        "trace.missing_targets": trace.missing_targets,
        "host.calib_ms": calib * 1e3,
        "host.cpu_us_per_tx_raw": plain_cpu_s * 1e6 / attempted,
        "host.import_s": import_s,
        "host.spread_iqr_pct": _relative_spread(plain, lambda r: r.drive_cpu_s) * 100,
    })
    values.update(first.observation.layer_stats)
    return values
