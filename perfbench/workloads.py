"""The benchmark's four workloads, driven through the calls the CLI makes.

Each workload splits one pass into units (a registry program, a fleet cell,
a serving cell).  A unit is first *set up* — everything before its first
simulated instruction, job or request — and later *run*.  ``setup`` and
``run`` call the program through module and class attributes looked up at
call time, so the span hooks in :mod:`perfbench.layers` see every call.

Outputs are checked against the references the repository commits, read
at run time:

* ``registry`` / ``migrate``: ``repro.workloads.golden`` checksums (they
  hold across ISAs and migrations by construction) and exit code 0;
* ``fleet`` / ``serve``: the ``facts`` of ``BENCH_fleet.json`` and
  ``BENCH_serving.json``, computed here the way ``tools/bench_fleet.py``
  and ``tools/bench_serving.py`` compute them.  Those facts were produced
  at the default seeds; at any other seed a cell is checked for request
  (job) conservation and for bit-identical facts across the passes of
  one run, traced and untraced.
"""

import json
import pathlib
from typing import Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Registry programs run at the golden size (``repro.workloads.golden``).
THREADS = 4
REGISTRY_SCALE = 0.02
REGISTRY_CLASS = "A"


class Unit:
    """One program or cell of a pass: its name and set-up simulator state."""

    def __init__(self, name: str, state):
        self.name = name
        self.state = state


class Workload:
    """Base: ``specs`` lists a pass's units, ``setup``/``run`` drive one."""

    name = ""
    default_seed = 0
    #: The fact counting a unit's simulated work, for ``sim_work_per_s``.
    work_key = ""

    def load(self) -> None:
        """Import the program modules the workload calls."""
        raise NotImplementedError

    def specs(self, seed: int) -> List[str]:
        raise NotImplementedError

    def setup(self, spec: str, seed: int, shared: Dict) -> Unit:
        raise NotImplementedError

    def run(self, unit: Unit):
        """Run a set-up unit (the timed part); return its raw result."""
        raise NotImplementedError

    def facts(self, unit: Unit, result) -> Dict:
        """The checked facts of a unit's run, ``work_key`` included."""
        raise NotImplementedError

    def check(self, name: str, facts: Dict, seed: int,
              first: Optional[Dict]) -> List[str]:
        """Problems with unit ``name``'s ``facts`` (empty when correct).
        ``first`` is its facts from the run's first pass, for determinism."""
        raise NotImplementedError


# ---------------------------------------------------------------- registry

class Registry(Workload):
    """All registry programs under the fast engine on the x86 server,
    without migration: hDSM first-touch bookkeeping dominates."""

    name = "registry"
    default_seed = 1
    work_key = "instructions"
    engine = "fast"
    migration_points = ()

    def load(self) -> None:
        import repro.compiler
        import repro.compiler.migration_points
        import repro.kernel.testbed
        import repro.runtime.execution
        import repro.runtime.fastforward
        import repro.workloads
        import repro.workloads.golden

        self.api = repro

    def specs(self, seed: int) -> List[str]:
        return sorted(self.api.workloads.workload_names())

    def setup(self, spec: str, seed: int, shared: Dict) -> Unit:
        repro = self.api
        gap = repro.compiler.migration_points.DEFAULT_TARGET_GAP
        # The toolchain exactly as ``repro run --scale`` configures it.
        toolchain = repro.compiler.Toolchain(
            target_gap=max(int(gap * REGISTRY_SCALE), 1000)
        )
        binary = toolchain.build(repro.workloads.build_workload(
            spec, REGISTRY_CLASS, THREADS, REGISTRY_SCALE
        ))
        system = repro.kernel.testbed.boot_testbed()
        process = system.exec_process(binary, "x86-server")
        hooks = repro.runtime.execution.EngineHooks()
        points = self.migration_points
        hits = [0]

        def maybe_migrate(thread, fn, point_id, instrs):
            # The ``repro run --migrate-at`` hook, at each listed point.
            hits[0] += 1
            if hits[0] in points:
                other = [m for m in system.machine_order
                         if m != thread.machine_name][0]
                system.request_migration(process, other)

        hooks.on_migration_point = maybe_migrate
        engine = repro.runtime.execution.make_engine(
            system, process, hooks, engine=self.engine
        )
        return Unit(spec, (system, process, engine))

    def run(self, unit: Unit):
        return unit.state[2].run()

    def facts(self, unit: Unit, result) -> Dict:
        system, process, engine = unit.state
        return {
            "checksum": int(process.output[0]) if process.output else None,
            "exit_code": process.exit_code,
            "instructions": sum(m.instructions_retired
                                for m in system.machines.values()),
            "slices": engine.steps,
            "page_transfers": process.dsm.stats.page_transfers,
            "messages": sum(system.messaging.counts.values()),
            "threads_migrated": engine.migration.migrations,
        }

    def check(self, name: str, facts: Dict, seed: int,
              first: Optional[Dict]) -> List[str]:
        golden = self.api.workloads.golden
        key = golden.golden_key(name, THREADS)
        expected = golden.GOLDEN_CHECKSUMS[key]
        problems = []
        if facts["exit_code"] != 0:
            problems.append(f"exit code {facts['exit_code']}")
        if facts["checksum"] != expected:
            problems.append(
                f"checksum {facts['checksum']} != golden {expected}"
            )
        if first is not None and facts != first:
            problems.append("facts differ between passes")
        return problems


class Migrate(Registry):
    """The registry programs under the exact engine (the CLI default),
    migrated x86 -> ARM at the 4th migration point and back at the 8th.

    The points do not depend on the seed.  Where a program is when it
    migrates decides how many pages move: drawing the points from the seed
    (first point 3..5, second 3..5 later) changed a pass's host time from
    3.9 s to 5.6 s between seeds, more than any regression bound, so every
    seed runs the same points and the same inputs.
    """

    name = "migrate"
    engine = "exact"

    #: ``repro run --migrate-at`` points; see the class docstring.
    migration_points = (4, 8)

    def check(self, name: str, facts: Dict, seed: int,
              first: Optional[Dict]) -> List[str]:
        problems = super().check(name, facts, seed, first)
        if facts["threads_migrated"] < THREADS:
            problems.append(
                f"only {facts['threads_migrated']} threads migrated"
            )
        return problems


# ------------------------------------------------------------------- fleet

def _committed_facts(filename: str) -> Dict[str, Dict]:
    """The ``facts`` section of a committed ``BENCH_*.json`` baseline."""
    path = ROOT / filename
    document = json.loads(path.read_text())
    facts = document.get("facts")
    if not isinstance(facts, dict) or not facts:
        raise ValueError(f"{filename} has no facts section")
    return facts


class Fleet(Workload):
    """The two ``BENCH_fleet.json`` cells (``tools/bench_fleet.py``)."""

    name = "fleet"
    default_seed = 11
    work_key = "jobs"
    reference = "BENCH_fleet.json"

    def load(self) -> None:
        import repro.faults
        import repro.fleet
        import repro.serving.traffic
        import repro.sim.rng

        self.api = repro
        self.committed = _committed_facts(self.reference)

    def specs(self, seed: int) -> List[str]:
        return ["wave/1k-nodes", "wave/faulted"]

    def _params(self, spec: str) -> Dict:
        fleet, faults = self.api.fleet, self.api.faults
        if spec == "wave/1k-nodes":
            return {
                "nodes": {"x86-64": 512, "arm64": 512}, "slots": 4,
                "services": 1500, "jobs": 1_000_000, "horizon_s": 86_400.0,
                "policy": fleet.WavePolicy(
                    canary_fraction=0.05, ramp=(0.25, 0.5, 1.0),
                    wave_interval_s=600.0, bake_s=1800.0,
                ),
            }
        return {
            "nodes": {"x86-64": 64, "arm64": 64}, "slots": 4,
            "services": 192, "jobs": 60_000, "horizon_s": 7200.0,
            "slo_factor": 16.0,
            "policy": fleet.WavePolicy(
                canary_fraction=0.05, ramp=(0.25, 0.5, 1.0),
                wave_interval_s=300.0, bake_s=600.0,
            ),
            "faults": faults.FaultSchedule([
                faults.NodeCrash(time=400.0, node=fleet.node_name(3),
                                 repair_seconds=900.0),
                faults.NodeCrash(time=2500.0, node=fleet.node_name(70),
                                 repair_seconds=600.0),
                faults.LinkDegradation(time=2400.0, duration=1200.0,
                                       bandwidth_factor=0.25),
            ]),
        }

    def setup(self, spec: str, seed: int, shared: Dict) -> Unit:
        repro = self.api
        params = self._params(spec)
        config = repro.fleet.FleetConfig(
            nodes=params["nodes"], slots_per_node=params["slots"],
            services=params["services"],
            slo_factor=params.get("slo_factor", 8.0),
        )
        rng = repro.sim.rng.DeterministicRng
        sim = repro.fleet.FleetSimulator(
            config, params["policy"], rng(seed), faults=params.get("faults")
        )
        trace = repro.serving.traffic.make_trace(
            "steady", rng(seed), requests=params["jobs"],
            horizon_s=params["horizon_s"],
        )
        return Unit(spec, (sim, trace))

    def run(self, unit: Unit):
        sim, trace = unit.state
        return sim.run(trace)

    def facts(self, unit: Unit, result) -> Dict:
        trace = unit.state[1]
        return {
            "jobs": result.jobs_completed,
            # offered = completed + shed
            "balance": (result.jobs_offered,
                        (result.jobs_completed, result.jobs_shed)),
            "facts": {
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
                "migration_stall_s": round(
                    result.migration_stall_seconds, 6
                ),
                "paused_waves": result.paused_waves,
                "deferred_migrations": result.deferred_migrations,
                "waves": len(result.waves),
                "crashes": result.crashes,
                "evacuations": result.evacuations,
                "failovers": result.failovers,
                "energy_mj": round(result.total_energy / 1e6, 6),
                "makespan_s": round(result.makespan, 6),
            },
        }

    def check(self, name: str, facts: Dict, seed: int,
              first: Optional[Dict]) -> List[str]:
        problems = []
        cell = facts["facts"]
        total, parts = facts["balance"]
        if total != sum(parts):
            problems.append(f"conservation: {total} != sum of {parts}")
        if seed == self.default_seed:
            expected = self.committed.get(name)
            if cell != expected:
                problems.append(f"facts {cell} != {self.reference} "
                                f"{expected}")
        if first is not None and facts != first:
            problems.append("facts differ between passes")
        return problems


# ------------------------------------------------------------------- serve

SERVE_REQUESTS = 8000
SERVE_SLO_S = 0.010
SERVE_SHAPES = {
    "flash-crowd": {},
    "diurnal": {"peak_to_trough": 6.0, "periods": 2.0},
}
SERVE_POLICIES = ("static-x86", "static-arm", "queue-reactive",
                  "latency-aware")
SERVE_FAULT_MODES = ("failover-only", "resilient")


class Serve(Fleet):
    """The ten ``BENCH_serving.json`` cells (``tools/bench_serving.py``)
    with a ``Tracer`` attached, as ``repro serve`` attaches one."""

    name = "serve"
    default_seed = 7
    work_key = "requests"
    reference = "BENCH_serving.json"

    def load(self) -> None:
        import repro.faults
        import repro.serving
        import repro.serving.traffic
        import repro.sim.rng
        import repro.telemetry.spans

        self.api = repro
        self.committed = _committed_facts(self.reference)

    def specs(self, seed: int) -> List[str]:
        return [f"{shape}/{policy}" for shape in SERVE_SHAPES
                for policy in SERVE_POLICIES] + [
            f"faulted/{mode}" for mode in SERVE_FAULT_MODES
        ]

    def setup(self, spec: str, seed: int, shared: Dict) -> Unit:
        repro = self.api
        serving, faults = repro.serving, repro.faults
        rng = repro.sim.rng.DeterministicRng
        group, variant = spec.split("/")
        tracer = repro.telemetry.spans.Tracer()
        if group in SERVE_SHAPES:
            # One trace per shape, shared by its policy cells as the
            # serving bench shares it.
            if group not in shared:
                shared[group] = repro.serving.traffic.make_trace(
                    group, rng(seed), requests=SERVE_REQUESTS,
                    **SERVE_SHAPES[group],
                )
            trace = shared[group]
            engine = serving.ServingEngine(
                serving.make_serving_policy(variant), trace,
                slo_s=SERVE_SLO_S, tracer=tracer,
            )
        else:
            # The surge host crashes mid-surge (8.5 s) and is repaired
            # 5 s later; the detector drives failover.
            trace = repro.serving.traffic.make_trace(
                "flash-crowd", rng(seed), requests=SERVE_REQUESTS
            )
            engine = serving.ServingEngine(
                serving.make_serving_policy("latency-aware"), trace,
                slo_s=SERVE_SLO_S, tracer=tracer,
                faults=faults.FaultSchedule([faults.NodeCrash(
                    time=8.5, node="x86-server", repair_seconds=5.0,
                )]),
                detector=faults.FailureDetector(faults.DetectorConfig()),
                resilience=(serving.default_resilience(SERVE_SLO_S)
                            if variant == "resilient" else None),
                rng=rng(seed),
            )
        return Unit(spec, (engine, trace, tracer))

    def run(self, unit: Unit):
        return unit.state[0].run()

    def facts(self, unit: Unit, result) -> Dict:
        engine, trace, tracer = unit.state
        if unit.name.startswith("faulted/"):
            cell = {
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
                "slo_violation_seconds": round(
                    result.slo_violation_seconds, 6
                ),
            }
        else:
            cell = {
                "trace_checksum": trace.checksum(),
                "requests": result.requests,
                "completed": result.requests_completed,
                "p50_us": round(result.p50_latency_s * 1e6, 3),
                "p99_us": round(result.p99_latency_s * 1e6, 3),
                "p999_us": round(result.p999_latency_s * 1e6, 3),
                "slo_violations": result.slo_violations,
                "slo_violation_seconds": round(
                    result.slo_violation_seconds, 6
                ),
                "handoffs": result.migrations,
                "migration_stall_ms": round(
                    result.migration_stall_seconds * 1e3, 6
                ),
                "energy_joules": round(result.total_energy, 3),
            }
        return {
            "requests": result.requests_completed,
            "facts": cell,
            # requests = completed + shed + failed
            "balance": (result.requests,
                        (result.requests_completed, result.requests_shed,
                         result.requests_failed)),
            "tracer_spans": len(tracer.spans),
        }


WORKLOADS = {w.name: w for w in (Registry, Migrate, Fleet, Serve)}
