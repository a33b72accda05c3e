"""Smoke test of the benchmark itself, collected by the tier-1 run.

Runs every workload at its ``--smoke`` size in this process and checks
what the benchmark promises: the printed names are exactly those of
``BENCHMARK.json``, a re-run reproduces every simulated-clock metric and
the ``sim_digest``, and tracing leaves no wrapper behind.
"""

import inspect
import json

import pytest

from bench import manifest, measure
from bench import run as bench_run
from bench.compare import is_exact
from bench.tracer import Tracer
from bench.workloads import WORKLOADS

DECLARED = manifest.load()
SEED = 2021


def _printed_run(capsys, name: str, trace: int) -> tuple[dict, dict]:
    """Run ``bench/run.py`` in-process; returns (printed result, its record)."""
    code = bench_run.main(
        ["--workload", name, "--seed", str(SEED), "--seconds", "0",
         "--trace", str(trace), "--smoke"]
    )
    assert code == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    record_id = measure.run_id(WORKLOADS[name], SEED, smoke=True)
    record = json.loads(bench_run._record_path(record_id, trace).read_text())
    return printed, record


def test_manifest_names_the_workloads_the_benchmark_has():
    assert [workload["name"] for workload in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_prints_the_declared_metrics_and_repeats_exactly(name, capsys):
    printed, record = _printed_run(capsys, name, trace=0)
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] is True and printed["attempted"] >= 1
    assert printed["failed"] == 0
    assert {n: m["unit"] for n, m in printed["metrics"].items()} == {
        m["name"]: m["unit"] for m in DECLARED["end_to_end"]
    }
    assert all(metric["value"] > 0 for metric in printed["metrics"].values())

    again = measure.run_workload(WORKLOADS[name], SEED, seconds=0, trace=False, smoke=True)
    assert again["sim_digest"] == record["sim_digest"]
    for metric, value in printed["metrics"].items():
        if is_exact(metric):
            assert again["metrics"][metric]["value"] == value["value"], metric

    layers, traced = _printed_run(capsys, name, trace=1)
    assert {n: m["unit"] for n, m in layers["metrics"].items()} == {
        m["name"]: m["unit"] for m in DECLARED["per_layer"]
    }
    # Tracing must not change what the simulation does.
    assert traced["sub_seeds"][0]["sim_digest"] == record["sub_seeds"][0]["sim_digest"]
    assert layers["metrics"]["trace.missing_targets"]["value"] == 0


def test_tracer_restores_every_wrapped_attribute():
    tracer = Tracer()
    tracer.install()
    wrapped = tracer.wrapped_attributes()
    tracer.uninstall()
    assert wrapped
    for _holder, name, original in wrapped:
        call = getattr(original, "__func__", original)
        assert not inspect.isgeneratorfunction(call), name

    measure.one_repeat(WORKLOADS["burst_sim"], SEED, smoke=True, traced=True)
    for holder, name, original in wrapped:
        assert vars(holder)[name] is original, (holder, name)
