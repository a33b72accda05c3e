"""Rejoining under open-loop load: the first recovery round should readmit.

At 6 tx/s, a cell that was excluded and crashed late in a run often fails
its first ``recover_cell`` round with "readmission quorum not reached"
(after every retry the round allows), and keeps failing every later round
until the donor's next report-cycle boundary.  That is a liveness bug, not
noise: the consortium is healthy, the donor is live, and the rejoiner
re-synced from it.

This test pins two deployment seeds on which the bug shows, built like the
``openloop_crash`` benchmark workload (3 cells, Poisson arrivals at 6 tx/s,
exclude at 195 s, crash at 197 s, recover from 225 s) through the public
API only.  Seed 1,002,024 is that workload's second sub-seed at its
default seed (2021 + 1,000,003): its first round fails after three
attempts, and no later round of the benchmark readmits the victim.  Both
are strict ``xfail`` until the cause is fixed, so the fix has to flip
both.
"""

import pytest

from repro.core import DeploymentConfig, ShardedDeployment
from repro.loadgen import EndurancePlan, run_endurance
from repro.sim import CellServiceModel, ConstantLatency

VICTIM = 2
EXCLUDE_AT, CRASH_AT, RECOVER_FROM = 195.0, 197.0, 225.0


def open_loop_deployment(seed: int) -> ShardedDeployment:
    return ShardedDeployment(DeploymentConfig(
        consortium_size=3,
        signature_scheme="sim",
        report_period=60.0,
        forwarding_deadline=900.0,
        max_inflight=64,
        eth_block_interval=3.0,
        message_batching=True,
        # Constant service times with contract execution the serial
        # bottleneck (~20 tx/s per group).
        service_model=CellServiceModel(
            invoke_overhead=ConstantLatency(0.05),
            auth_overhead=ConstantLatency(0.002),
            aggregate_overhead_per_cell=0.001,
            invoke_cpu=0.0005,
            forward_cpu_per_cell=0.0002,
            cpu_workers=8,
            max_parallel_invocations=1,
        ),
        client_cell_latency=ConstantLatency(0.01),
        cell_cell_latency=ConstantLatency(0.005),
        seed=seed,
    ))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="rejoin under load: the first round misses its readmission quorum",
)
@pytest.mark.parametrize("seed", [1, 1_002_024])
def test_the_first_rejoin_round_under_open_loop_load_readmits(seed):
    deployment = open_loop_deployment(seed=seed)
    env = deployment.env
    rounds = []

    def operator():
        yield env.timeout(EXCLUDE_AT - env.now)
        deployment.exclude_cell(0, VICTIM)
        yield env.timeout(CRASH_AT - env.now)
        deployment.crash_cell(0, VICTIM)
        yield env.timeout(RECOVER_FROM - env.now)
        rounds.append((yield deployment.recover_cell(0, VICTIM)))

    env.process(operator())
    run_endurance(deployment, EndurancePlan(
        users=10_000, process="poisson", rate=6.0, horizon=300.0, drain=60.0, pools=2,
    ))

    first = rounds[0]
    assert first.ok, f"{first.reason} after {first.attempts} attempts"
