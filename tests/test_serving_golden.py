"""Bit-identity pins for the serving engine.

Each scenario runs one small trace (2000 requests) through
:class:`~repro.serving.engine.ServingEngine` with a tracer attached and
hashes everything the run produced: every :class:`RunResult` field
except ``metrics`` (unrounded ``repr``), the completed-request index
list, the failed requests with their reasons, and every span.  A
refactor of the engine must leave every digest unchanged.

The scenarios cover the eight fault-free shape x policy cells and the
two faulted cells of ``BENCH_serving.json``, plus the paths those cells
never reach: link degradation during a hand-off, a partition that the
detector falsely confirms, both machines crashing for good (the
``no-capacity`` dead end), and chaos-mode hand-off phase stepping.

Print fresh digests (after a deliberate behaviour change) with::

    PYTHONPATH=src python tests/test_serving_golden.py
"""

import dataclasses
import hashlib

import pytest

from repro.faults import (
    DetectorConfig,
    FailureDetector,
    FaultSchedule,
    LinkDegradation,
    NetworkPartition,
    NodeCrash,
)
from repro.serving import (
    ServingEngine,
    default_resilience,
    make_serving_policy,
    make_trace,
)
from repro.sim.rng import DeterministicRng
from repro.telemetry.spans import Tracer

SEED = 7
REQUESTS = 2000
HORIZON_S = 5.0
SLO_S = 0.010
X86, ARM = "x86-server", "arm-server"
SHAPES = {
    "flash-crowd": {},
    "diurnal": {"peak_to_trough": 6.0, "periods": 2.0},
}
POLICIES = ("static-x86", "static-arm", "queue-reactive", "latency-aware")


def _fast_detector():
    """Detects within ~0.6 s, so verdicts land inside the 5 s trace."""
    return FailureDetector(
        DetectorConfig(heartbeat_period_s=0.1, lease_s=0.3)
    )


class _NoopChaos:
    """A chaos hook that never crashes: only turns on phase stepping."""

    def at_step(self, step, roles):
        pass


def _scenario(name):
    """(policy, shape, engine kwargs, chaos hook) for one scenario."""
    if "/" in name and name.split("/")[0] in SHAPES:
        shape, policy = name.split("/")
        return policy, shape, {}, None
    faulted = dict(rng=DeterministicRng(SEED))
    if name.startswith("faulted/"):
        # The surge host crashes mid-surge and is repaired after the
        # detector has already driven a failover.
        faulted.update(
            faults=FaultSchedule(
                [NodeCrash(time=2.3, node=X86, repair_seconds=1.25)]
            ),
            detector=_fast_detector(),
            resilience=(
                default_resilience(SLO_S)
                if name == "faulted/resilient"
                else None
            ),
        )
    elif name == "degraded-link":
        # Two overlapping windows compound; the surge hand-off's
        # TRANSFER runs at the degraded bandwidth.
        faulted.update(
            faults=FaultSchedule([
                LinkDegradation(time=1.5, duration=2.0,
                                bandwidth_factor=0.05, latency_factor=2.0),
                LinkDegradation(time=2.5, duration=2.0,
                                bandwidth_factor=0.5, latency_factor=2.0),
            ]),
            detector=FailureDetector(DetectorConfig()),
        )
    elif name == "false-confirm":
        faulted.update(
            faults=FaultSchedule([
                NetworkPartition(time=1.8, duration=1.5, island=(X86,))
            ]),
            detector=_fast_detector(),
            resilience=default_resilience(SLO_S),
        )
    elif name == "no-capacity":
        faulted.update(
            faults=FaultSchedule([
                NodeCrash(time=2.2, node=X86, permanent=True),
                NodeCrash(time=3.0, node=ARM, permanent=True),
            ]),
            resilience=default_resilience(SLO_S),
        )
    elif name == "chaos-stepping":
        return "latency-aware", "flash-crowd", faulted, _NoopChaos()
    else:
        raise KeyError(name)
    return "latency-aware", "flash-crowd", faulted, None


def digest(name):
    """sha256 over one scenario's result, outcomes and spans."""
    policy, shape, kwargs, chaos = _scenario(name)
    trace = make_trace(
        shape, DeterministicRng(SEED), requests=REQUESTS,
        horizon_s=HORIZON_S, **SHAPES[shape],
    )
    tracer = Tracer()
    engine = ServingEngine(
        make_serving_policy(policy), trace, slo_s=SLO_S, tracer=tracer,
        **kwargs,
    )
    engine.chaos = chaos
    result = engine.run()
    h = hashlib.sha256()
    for f in dataclasses.fields(result):
        if f.name != "metrics":
            h.update(f"{f.name}={getattr(result, f.name)!r}\n".encode())
    h.update(repr([r.index for r in engine.completed]).encode())
    h.update(repr([(r.index, r.failed_reason) for r in engine.failed]).encode())
    for span in tracer.spans:
        h.update(repr(span.key()).encode())
    return h.hexdigest()


GOLDEN = {
    "flash-crowd/static-x86": "9f599484a86eda31e67cce07aa6cf3e10ea6935a5d14d0879be547a518a1065e",
    "flash-crowd/static-arm": "1c843c57f107f028be71b49c93bec4ed94b3ec21691070dd2ec47d960e76a8c8",
    "flash-crowd/queue-reactive": "3f12e23aa41dd4c717804f630ce45fecc5d610fe21ff93b16f9be0408a337722",
    "flash-crowd/latency-aware": "e17d850a406a81140de61b7beb70b668df2d55be53cadd9ab4abda074b2ecfff",
    "diurnal/static-x86": "a118d65fd0e823cc87c62287015ebbbfed874312a76c7c10733fdeecf61bda32",
    "diurnal/static-arm": "81f2270745c4e500d6faea29b92f953dbfdd50f70c52e2ef20f6289e5cdea3c3",
    "diurnal/queue-reactive": "a9ef6d9f6635d75b45b68fc9f768dbd80bdc28175862695f0a36de5dfcd44489",
    "diurnal/latency-aware": "b5db7bbfb0a5143bcefe1dbb4bf3c8fcb1f8fd37f534821f29ba2ce5d4677057",
    "faulted/failover-only": "6a61f06029595638d81e62fa80cad80a0dd8b6b5e6c6caba59788d6fa3df90ff",
    "faulted/resilient": "dd675c885643516be158a45a14204e4f7e5313ff3459b97a64c4b7657cf632d3",
    "degraded-link": "40fb3ba079eeea9d6ecdf2c6584de71c0757c7d31442638bec482d0c55b4fd2f",
    "false-confirm": "514440de388acdcf8cfb95453d9b4def82db4b09e14ce07db8cd0b19ab5a4f76",
    "no-capacity": "92e963bdb763dafd6c38dcc825d46c24eb391194ff7d9bc607bbe0c12ac70c20",
    "chaos-stepping": "cee91c8169daabf57cfc1b6f818433d113e263f8c3ed5c029fff391b9f94b7ba",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_serving_run_is_bit_identical(name):
    assert digest(name) == GOLDEN[name]


def test_scenarios_are_distinct():
    """Each fault scenario changes the run (it pins a path of its own)."""
    assert len(set(GOLDEN.values())) == len(GOLDEN)


if __name__ == "__main__":
    names = [f"{s}/{p}" for s in SHAPES for p in POLICIES] + [
        "faulted/failover-only", "faulted/resilient", "degraded-link",
        "false-confirm", "no-capacity", "chaos-stepping",
    ]
    for name in names:
        print(f'    "{name}": "{digest(name)}",')
