#!/usr/bin/env python
"""Perf baselines for the interp, serving and fleet suites.

Each suite runs and rewrites its ``BENCH_<suite>.json``, which holds
deterministic ``facts``, bit-identical on every machine, and wall-clock
``timing``/``throughput``, recorded but not compared.  ``--check``
diffs the facts cell by cell: a changed value, a committed cell the run
no longer produces (``missing``) and a new cell (``unexpected``) are
all drift.  ``interp`` runs every registry workload under the exact
and the fast-forward engine, whose facts must agree, and the
dispatch-bound stress kernel, whose speedup ``--check`` holds above
``SPEEDUP_FLOOR``; ``serving`` is the policy sweep plus a mid-surge
crash; ``fleet`` the 1k-node / 1M-job x86→ARM wave plus a faulted
smaller fleet.

Exit codes: 0 ok, 1 drift or speedup below the floor, 2 baseline
missing, 3 the engines disagree or the stress kernel is
nondeterministic.  Usage::

    PYTHONPATH=src python tools/bench.py                  # rewrite all
    PYTHONPATH=src python tools/bench.py --check          # CI: diff all
    PYTHONPATH=src python tools/bench.py --check serving  # one suite
"""

import argparse
import functools
import json
import pathlib
import statistics
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.compiler import Toolchain  # noqa: E402
from repro.faults import (  # noqa: E402
    DetectorConfig, FailureDetector, FaultSchedule, LinkDegradation, NodeCrash,
)
from repro.fleet import (  # noqa: E402
    FleetConfig, FleetSimulator, WavePolicy, node_name,
)
from repro.kernel import boot_testbed  # noqa: E402
from repro.runtime.execution import make_engine  # noqa: E402
from repro.serving import (  # noqa: E402
    ServingEngine, default_resilience, make_serving_policy, make_trace,
)
from repro.sim.rng import DeterministicRng  # noqa: E402
from repro.workloads import build_workload, workload_names  # noqa: E402
from repro.workloads.golden import GOLDEN_CLASS, GOLDEN_SCALE  # noqa: E402
from repro.workloads.interp_stress import interp_stress_module  # noqa: E402

THREADS = (1, 4)
STRESS_ITERATIONS = 300_000
STRESS_REPEATS = 3
# Floor enforced by CI on the stress-kernel speedup.  Deliberately far
# below the measured value so shared-runner noise cannot trip it while
# a real regression (fast path degrading to stepping) still does.
SPEEDUP_FLOOR = 3.0


def _run_program(module, kind):
    """Build + run ``module`` with engine ``kind``; return (facts, wall)."""
    binary = Toolchain().build(module)
    system = boot_testbed()
    process = system.exec_process(binary, "x86-server")
    engine = make_engine(system, process, engine=kind)
    start = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - start
    facts = {
        "output": [repr(v) for v in process.output],
        "exit_code": process.exit_code,
        "slices": engine.steps,
        "sim_seconds": repr(system.clock.now),
        "dsm_page_transfers": process.dsm.stats.page_transfers,
    }
    return facts, wall


def _run_registry():
    """Every registry workload under both engines; facts must agree."""
    facts, wall = {}, {"exact": 0.0, "fast": 0.0}
    for bench in sorted(workload_names()):
        for threads in THREADS:
            cell, runs = f"{bench}/t{threads}", {}
            for kind in wall:
                module = build_workload(bench, GOLDEN_CLASS, threads,
                                        GOLDEN_SCALE)
                runs[kind], seconds = _run_program(module, kind)
                wall[kind] += seconds
            if runs["exact"] != runs["fast"]:
                print(f"error: {cell}: engines disagree\n"
                      f"  exact: {runs['exact']}\n  fast:  {runs['fast']}",
                      file=sys.stderr)
                raise SystemExit(3)
            facts[cell] = runs["exact"]
    return facts, wall


def _run_stress():
    """Dispatch-bound kernel, median-of-N wall time per engine."""
    walls = {"exact": [], "fast": []}
    reference = None
    for kind, kind_walls in walls.items():
        for _ in range(STRESS_REPEATS):
            module = interp_stress_module(STRESS_ITERATIONS)
            facts, wall = _run_program(module, kind)
            kind_walls.append(wall)
            reference = reference or facts
            if facts != reference:
                print(f"error: stress kernel: {kind} run differs from the "
                      f"first\n  exact: {reference}\n  {kind}: {facts}",
                      file=sys.stderr)
                raise SystemExit(3)
    exact_wall, fast_wall = map(statistics.median, walls.values())
    return reference, {
        "exact_wall_seconds": round(exact_wall, 3),
        "fast_wall_seconds": round(fast_wall, 3),
        "speedup": round(exact_wall / fast_wall, 2),
    }


def interp_document():
    """Run the registry under both engines and the stress kernel."""
    registry_facts, registry_wall = _run_registry()
    stress_facts, stress_timing = _run_stress()
    return {
        "benchmark": "interpreter fast-forward",
        "config": {
            "workload_class": GOLDEN_CLASS,
            "scale": GOLDEN_SCALE,
            "threads": list(THREADS),
            "stress_iterations": STRESS_ITERATIONS,
            "stress_repeats": STRESS_REPEATS,
            "speedup_floor": SPEEDUP_FLOOR,
        },
        "facts": {"registry": registry_facts, "stress": stress_facts},
        "timing": {
            "registry_exact_wall_seconds": round(registry_wall["exact"], 3),
            "registry_fast_wall_seconds": round(registry_wall["fast"], 3),
            "stress": stress_timing,
        },
    }


def interp_cells(facts):
    """The registry cells by name, plus the stress kernel as ``stress``."""
    stress = {"stress": facts["stress"]} if "stress" in facts else {}
    return {**facts.get("registry", {}), **stress}


def interp_gate(document) -> Optional[str]:
    """The stress-kernel speedup floor; an error message when it fails."""
    speedup = document["timing"]["stress"]["speedup"]
    if speedup < SPEEDUP_FLOOR:
        return f"fast-forward speedup {speedup}x below {SPEEDUP_FLOOR}x"
    return None


SERVE_SEED = 7
REQUESTS = 8000
SLO_S = 0.010
SWEEP = [
    ("flash-crowd", {}),
    ("diurnal", {"peak_to_trough": 6.0, "periods": 2.0}),
]
POLICIES = ("static-x86", "static-arm", "queue-reactive", "latency-aware")

#: Faulted cells ``faulted/<mode>``: the same flash crowd with the surge
#: host crashing mid-surge (detector-driven failover), bare vs resilient.
FAULT_CRASH_AT = 8.5  # mid-surge, after the policy moved to x86
FAULT_REPAIR_S = 5.0
FAULT_NODE = "x86-server"
FAULT_MODES = ("failover-only", "resilient")


def _timed(runs, completed, unit):
    """Time ``run()`` for each ``(cell, trace, run, facts_of)``; return the
    cells' facts and the throughput in ``completed`` simulated ``unit``."""
    facts, wall = {}, 0.0
    for cell, trace, run, facts_of in runs:
        start = time.perf_counter()
        result = run()
        wall += time.perf_counter() - start
        facts[cell] = facts_of(result, trace)
    work = sum(values[completed] for values in facts.values())
    return facts, {
        "wall_seconds": round(wall, 3),
        f"simulated_{unit}": work,
        f"{unit}_per_wall_second": round(work / wall),
    }


def _sweep_facts(result, trace):
    """Facts of one fault-free (shape, policy) serving cell."""
    return {
        "trace_checksum": trace.checksum(),
        "requests": result.requests,
        "completed": result.requests_completed,
        "p50_us": round(result.p50_latency_s * 1e6, 3),
        "p99_us": round(result.p99_latency_s * 1e6, 3),
        "p999_us": round(result.p999_latency_s * 1e6, 3),
        "slo_violations": result.slo_violations,
        "slo_violation_seconds": round(result.slo_violation_seconds, 6),
        "handoffs": result.migrations,
        "migration_stall_ms": round(result.migration_stall_seconds * 1e3, 6),
        "energy_joules": round(result.total_energy, 3),
    }


def _faulted_facts(result, trace):
    """Facts of one faulted serving cell."""
    return {
        "trace_checksum": trace.checksum(),
        "requests": result.requests,
        "completed": result.requests_completed,
        "shed": result.requests_shed,
        "failed": result.requests_failed,
        "retried": result.requests_retried,
        "hedged": result.requests_hedged,
        "failovers": result.failovers,
        "mttd_ms": round(result.mttd * 1e3, 3),
        "goodput_rps": round(result.goodput_rps, 3),
        "slo_attainment": round(result.slo_attainment, 6),
        "slo_violation_seconds": round(result.slo_violation_seconds, 6),
    }


def _serving_runs():
    """Every (shape, policy) cell, then the faulted cells."""
    for shape, kwargs in SWEEP:
        trace = make_trace(shape, DeterministicRng(SERVE_SEED),
                           requests=REQUESTS, **kwargs)
        for policy in POLICIES:
            engine = ServingEngine(make_serving_policy(policy), trace,
                                   slo_s=SLO_S)
            yield f"{shape}/{policy}", trace, engine.run, _sweep_facts
    for mode in FAULT_MODES:
        trace = make_trace("flash-crowd", DeterministicRng(SERVE_SEED),
                           requests=REQUESTS)
        resilient = mode == "resilient"
        engine = ServingEngine(
            make_serving_policy("latency-aware"), trace, slo_s=SLO_S,
            faults=FaultSchedule([NodeCrash(time=FAULT_CRASH_AT,
                                            node=FAULT_NODE,
                                            repair_seconds=FAULT_REPAIR_S)]),
            detector=FailureDetector(DetectorConfig()),
            resilience=default_resilience(SLO_S) if resilient else None,
            rng=DeterministicRng(SERVE_SEED),
        )
        yield f"faulted/{mode}", trace, engine.run, _faulted_facts


def serving_document():
    """Run the serving policy sweep and its faulted cells."""
    facts, throughput = _timed(_serving_runs(), "completed", "requests")
    return {
        "benchmark": "serving policy sweep",
        "config": {
            "seed": SERVE_SEED,
            "requests": REQUESTS,
            "slo_ms": SLO_S * 1e3,
            "shapes": [shape for shape, _ in SWEEP],
            "policies": list(POLICIES),
        },
        "facts": facts,
        "throughput": throughput,
    }


FLEET_SEED = 11

#: The 1k-node / 1M-job headline cell: a simulated day migrated x86→ARM.
#: Steady arrivals: the diurnal sampler inverts its rate integral
#: numerically per arrival, which is fine at serving scale but not at
#: 10^6 jobs.
BIG = {
    "nodes": {"x86-64": 512, "arm64": 512},
    "slots": 4,
    "services": 1500,
    "jobs": 1_000_000,
    "horizon_s": 86_400.0,
    "policy": WavePolicy(canary_fraction=0.05, ramp=(0.25, 0.5, 1.0),
                         wave_interval_s=600.0, bake_s=1800.0),
}

#: Fault-plane coverage cell: two crashes (one while the canary bakes,
#: one mid-ramp) and a degraded interconnect across the second crash.
#: ``slo_factor`` is raised above the default so ep's queueing delay on
#: ARM fits inside the SLO at this load and the pause-on-regression
#: gate reacts to the injected faults, not to steady-state queueing.
FAULTED = {
    "nodes": {"x86-64": 64, "arm64": 64},
    "slots": 4,
    "services": 192,
    "jobs": 60_000,
    "horizon_s": 7200.0,
    "slo_factor": 16.0,
    "policy": WavePolicy(canary_fraction=0.05, ramp=(0.25, 0.5, 1.0),
                         wave_interval_s=300.0, bake_s=600.0),
    "faults": lambda: FaultSchedule([
        NodeCrash(time=400.0, node=node_name(3), repair_seconds=900.0),
        NodeCrash(time=2500.0, node=node_name(70), repair_seconds=600.0),
        LinkDegradation(time=2400.0, duration=1200.0, bandwidth_factor=0.25),
    ]),
}
FLEET_CELLS = {"wave/1k-nodes": BIG, "wave/faulted": FAULTED}


def _fleet_facts(result, trace):
    """Facts of one fleet cell."""
    return {
        "trace_checksum": trace.checksum(),
        "result_checksum": result.checksum(),
        "jobs_offered": result.jobs_offered,
        "jobs_completed": result.jobs_completed,
        "jobs_shed": result.jobs_shed,
        "p50_latency_ms": round(result.p50_latency_s * 1e3, 6),
        "p99_latency_ms": round(result.p99_latency_s * 1e3, 6),
        "slo_attainment": round(result.slo_attainment, 6),
        "services_migrated": result.services_migrated,
        "migrations": result.migrations,
        "migration_stall_s": round(result.migration_stall_seconds, 6),
        "paused_waves": result.paused_waves,
        "deferred_migrations": result.deferred_migrations,
        "waves": len(result.waves),
        "crashes": result.crashes,
        "evacuations": result.evacuations,
        "failovers": result.failovers,
        "energy_mj": round(result.total_energy / 1e6, 6),
        "makespan_s": round(result.makespan, 6),
    }


def _fleet_runs():
    """Both fleet cells, each built just before it runs."""
    for name, params in FLEET_CELLS.items():
        config = FleetConfig(
            nodes=params["nodes"], slots_per_node=params["slots"],
            services=params["services"],
            slo_factor=params.get("slo_factor", 8.0),
        )
        faults = params["faults"]() if "faults" in params else None
        sim = FleetSimulator(config, params["policy"],
                             DeterministicRng(FLEET_SEED), faults=faults)
        trace = make_trace("steady", DeterministicRng(FLEET_SEED),
                           requests=params["jobs"],
                           horizon_s=params["horizon_s"])
        yield name, trace, functools.partial(sim.run, trace), _fleet_facts


def fleet_document():
    """Run both fleet cells."""
    facts, throughput = _timed(_fleet_runs(), "jobs_completed", "jobs")
    return {
        "benchmark": "fleet migration wave",
        "config": {
            "seed": FLEET_SEED,
            "cells": {
                name: {key: params[key]
                       for key in ("nodes", "services", "jobs", "horizon_s")}
                for name, params in FLEET_CELLS.items()
            },
        },
        "facts": facts,
        "throughput": throughput,
    }


class Suite(NamedTuple):
    """One baseline file and how to produce and judge it."""

    name: str  # the baseline is BENCH_<name>.json at the repo root
    build: Callable[[], dict]  # run the suite; return the whole document
    summary: str  # the headline rate, formatted from the document
    cells: Callable[[dict], dict] = dict  # facts -> {cell: values}
    gate: Optional[Callable[[dict], Optional[str]]] = None  # --check error


SUITES: Dict[str, Suite] = {suite.name: suite for suite in (
    Suite("interp", interp_document,
          "{timing[stress][speedup]}x dispatch speedup",
          interp_cells, interp_gate),
    Suite("serving", serving_document,
          "{throughput[requests_per_wall_second]} req/s wall"),
    Suite("fleet", fleet_document,
          "{throughput[jobs_per_wall_second]} jobs/s wall"),
)}


def drift(run: dict, committed: dict) -> List[str]:
    """Every difference between two ``{cell: values}`` maps: changed
    values, cells only the run has and cells only the baseline has."""
    lines = []
    for cell, values in run.items():
        if cell not in committed:
            lines.append(f"unexpected: {cell}")
        elif committed[cell] != values:
            lines.append(f"{cell}: {committed[cell]} -> {values}")
    lines.extend(f"missing: {cell}" for cell in committed if cell not in run)
    return lines


def check(suite: Suite, document: dict, path: pathlib.Path) -> int:
    """Diff ``document``'s facts against the baseline at ``path``, then
    apply the suite's gate; return the exit code."""
    if not path.exists():
        print(f"error: {path.name} missing; run without --check",
              file=sys.stderr)
        return 2
    committed = json.loads(path.read_text())
    cells = suite.cells(document["facts"])
    lines = drift(cells, suite.cells(committed.get("facts", {})))
    if lines:
        print(f"{suite.name} baseline drift:", *lines, sep="\n  ")
        return 1
    error = suite.gate(document) if suite.gate else None
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"{path.name}: {len(cells)} cells match "
          f"({suite.summary.format_map(document)})")
    return 0


def write(suite: Suite, document: dict, path: pathlib.Path) -> int:
    """Rewrite the baseline at ``path`` with ``document``."""
    path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {path.name}: {len(suite.cells(document['facts']))} "
          f"cells, {suite.summary.format_map(document)}")
    return 0


def main(argv=None) -> int:
    """Run the named suites (default: all); rewrite or check each."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare deterministic facts against the "
                        "committed baselines instead of rewriting them, "
                        "and enforce the stress-kernel speedup floor")
    parser.add_argument("suites", nargs="*", metavar="suite",
                        help=f"suites to run: {', '.join(SUITES)} "
                        "(default: all)")
    args = parser.parse_args(argv)
    for name in args.suites:
        if name not in SUITES:
            parser.error(f"unknown suite {name!r} "
                         f"(choose from {', '.join(SUITES)})")
    act = check if args.check else write
    status = 0
    for name in args.suites or SUITES:
        path = ROOT / f"BENCH_{name}.json"
        status = max(status, act(SUITES[name], SUITES[name].build(), path))
    return status


if __name__ == "__main__":
    sys.exit(main())
