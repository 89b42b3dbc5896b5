"""Bit-identity pins for the cluster simulator.

Each scenario runs one small job set through
:class:`~repro.datacenter.cluster.ClusterSimulator` and hashes every
:class:`~repro.datacenter.energy.RunResult` field (unrounded ``repr``),
with ``fault_trace`` flattened to ``(time, kind, node, detail)`` tuples
and ``metrics`` included.  The traced scenario also hashes every span.
A refactor of the simulator must leave every digest unchanged.

The scenarios cover the fault-free sustained (Fig. 12) and periodic
(Fig. 13) loops, and each recovery path the fault machinery has:
detector-driven two-phase evacuation, checkpoint/restart, fail-stop, a
partition the detector falsely confirms (fence, then rejoin), an
interconnect degradation window, a permanent crash whose jobs park and
are abandoned, and a node that dies while fenced.

Print fresh digests (after a deliberate behaviour change) with::

    PYTHONPATH=src python tests/test_cluster_golden.py
"""

import dataclasses
import hashlib

import pytest

from repro.datacenter import (
    ClusterSimulator,
    make_policy,
    periodic_waves,
    sustained_backfill,
)
from repro.faults import (
    CheckpointRestart,
    DetectorConfig,
    EvacuateLive,
    FailStop,
    FailureDetector,
    FaultSchedule,
    LinkDegradation,
    NetworkPartition,
    NodeCrash,
)
from repro.machine import make_xeon_e5_1650v2, make_xgene1
from repro.sim.rng import DeterministicRng
from repro.telemetry.spans import Tracer


def _het():
    return [make_xgene1("arm"), make_xeon_e5_1650v2("x86")]


def _three():
    return [
        make_xgene1("arm"),
        make_xeon_e5_1650v2("x86-1"),
        make_xeon_e5_1650v2("x86-2"),
    ]


def _sustained(seed=11, jobs=16, concurrency=4):
    return "sustained", sustained_backfill(DeterministicRng(seed), jobs, concurrency)


def _scenario(name):
    """(machines, policy, simulator kwargs, workload) for one scenario."""
    policy = "dynamic-balanced"
    kwargs = {}
    workload = _sustained()
    machines = _three()
    if name.startswith("sustained/"):
        policy = name.split("/", 1)[1]
        machines = _het()
    elif name == "periodic/dynamic-balanced":
        machines = _het()
        workload = "periodic", periodic_waves(
            DeterministicRng(3), waves=3, max_jobs_per_wave=8
        )
    elif name == "detector-evacuate":
        kwargs = dict(
            faults=FaultSchedule([NodeCrash(4.0, "x86-1", repair_seconds=10.0)]),
            recovery=EvacuateLive(),
            detector=FailureDetector(DetectorConfig()),
        )
    elif name == "checkpoint-restart":
        kwargs = dict(
            faults=FaultSchedule([
                NodeCrash(6.0, "x86-1", repair_seconds=20.0),
                NodeCrash(9.0, "arm", repair_seconds=15.0),
            ]),
            recovery=CheckpointRestart(interval_s=2.0),
        )
    elif name == "fail-stop":
        kwargs = dict(
            faults=FaultSchedule([NodeCrash(5.0, "x86-2", repair_seconds=10.0)]),
            recovery=FailStop(),
        )
    elif name == "false-confirm":
        # The isolated node's lease expires while it is alive: it is
        # fenced, its jobs evacuate, and it rejoins after the heal.
        kwargs = dict(
            faults=FaultSchedule(
                [NetworkPartition(3.0, island=("x86-2",), duration=6.0)]
            ),
            recovery=EvacuateLive(),
            detector=FailureDetector(DetectorConfig()),
        )
    elif name == "degraded-link":
        kwargs = dict(
            faults=FaultSchedule([
                LinkDegradation(2.0, duration=8.0, bandwidth_factor=0.1,
                                latency_factor=3.0),
                NodeCrash(4.0, "x86-1", repair_seconds=12.0),
            ]),
            recovery=EvacuateLive(),
        )
    elif name == "permanent-crash":
        # The only ARM node dies for good: checkpoints of ARM jobs can
        # never be restored, so they park and are abandoned at the end.
        kwargs = dict(
            faults=FaultSchedule([NodeCrash(5.0, "arm", permanent=True)]),
            recovery=CheckpointRestart(interval_s=2.0),
        )
    elif name == "crash-while-fenced":
        kwargs = dict(
            faults=FaultSchedule([
                NetworkPartition(3.0, island=("x86-2",), duration=10.0),
                NodeCrash(7.0, "x86-2", repair_seconds=5.0),
            ]),
            recovery=EvacuateLive(),
            detector=FailureDetector(DetectorConfig()),
        )
    elif name == "traced":
        kwargs = dict(
            faults=FaultSchedule([NodeCrash(4.0, "x86-1", repair_seconds=30.0)]),
            recovery=EvacuateLive(),
            detector=FailureDetector(DetectorConfig()),
            tracer=Tracer(),
        )
    else:
        raise KeyError(name)
    return machines, policy, kwargs, workload


def run(name):
    """Run one scenario; returns (result, tracer or None)."""
    machines, policy, kwargs, (pattern, workload) = _scenario(name)
    sim = ClusterSimulator(machines, make_policy(policy), **kwargs)
    if pattern == "sustained":
        specs, concurrency = workload
        result = sim.run_sustained(list(specs), concurrency)
    else:
        result = sim.run_periodic(workload)
    return result, kwargs.get("tracer")


def digest(name):
    """sha256 over every RunResult field (and spans, when traced)."""
    result, tracer = run(name)
    h = hashlib.sha256()
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if f.name == "fault_trace":
            value = [(e.time, e.kind, e.node, e.detail) for e in value]
        h.update(f"{f.name}={value!r}\n".encode())
    if tracer is not None:
        for span in tracer.spans:
            h.update(repr(span.key()).encode())
    return h.hexdigest()


GOLDEN = {
    "sustained/static-het-balanced": "6d039458c54ed2f2ad3105ed5e6e9c4655d0981210727049fcda842d0b40b12a",
    "sustained/dynamic-balanced": "e0155c876300958e8cc2d2f4174ad3537d31b51b1b07ae59302cd329d23dadc7",
    "sustained/dynamic-unbalanced": "93887ff4fc99b39962fe1a5d7539e9f0acf3cb6d512e00c4131b07ba4feb3d2d",
    "periodic/dynamic-balanced": "4d6ad619bb25e56138de3d1722b320c7975f8824100fd117f7ad34483ee9c428",
    "detector-evacuate": "71cf5034e3eb9f0f45ff66bb3a59bb801299f3863a493a06cd482048054e8855",
    "checkpoint-restart": "81379dc0cc5628f9874475bb7ff33630ce6ad2f9cc03efdd144c766e41a718d3",
    "fail-stop": "15672c8b3df14b957e716d73411e6e1bc5257200644f8e33d691521a7aa33ece",
    "false-confirm": "731fdffd954c03c16ca494f6cadab0b188fe07099a673cb4a94a45d34773ff88",
    "degraded-link": "a039420b2505c031f5e21eb1daa13304bbc5bb34f5363809af06fceeeaaef723",
    "permanent-crash": "bc8f8225f0200c1699ff90e83bc9b16aa090c26c027d3746a6a6800712c87d11",
    "crash-while-fenced": "73ca92b7dd05afbae9fc7d52558d229d6c0b3b54a4d374b32ef92f3b6004cc1c",
    "traced": "07d5dc4cef24a158ef3d62612dfb2cd67cc5db18ea13c8f4ace13d37638726fb",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cluster_run_is_bit_identical(name):
    assert digest(name) == GOLDEN[name]


def test_scenarios_are_distinct():
    """Each scenario pins a run of its own."""
    assert len(set(GOLDEN.values())) == len(GOLDEN)


if __name__ == "__main__":
    for name in GOLDEN:
        print(f'    "{name}": "{digest(name)}",')
