"""Which repro functions the traced run wraps, and the per-layer metrics.

Layer names follow the package's modules.  Every function below is public
API of its layer; :func:`hooks` lists them for :class:`~spans.SpanRecorder`.
A workload that never calls a layer reports zero for its metrics.
"""

from typing import Dict, List

from spans import Hook, SpanRecorder

#: Span name -> layer (module) it times, for the self-time shares.
LAYERS = {
    "ir.build": "workloads+ir",
    "compiler.build": "compiler+linker",
    "kernel.boot": "kernel (boot)",
    "runtime.run": "runtime (engine)",
    "dsm.ensure_range": "kernel.dsm",
    "dsm.access": "kernel.dsm",
    "migration.migrate_thread": "kernel.migration",
    "transform": "runtime.transform",
    "traffic.make_trace": "serving.traffic",
    "fleet.init": "fleet",
    "fleet.run": "fleet",
    "sim.queue": "sim",
    "serving.run": "serving",
    "policy.decide": "serving.policies",
    "resilience.admit": "serving.resilience",
    "detector.observe": "faults.detector",
    "telemetry.span": "telemetry",
}

#: Per-layer metrics: name -> (unit, better).  ``run.py`` reports all.
METRICS = {
    "check.mismatch_rate": ("ratio", "lower"),
    "calibration.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "dsm.ensure_range_s": ("s", "lower"),
    "dsm.ensure_range_calls": ("count", "lower"),
    "dsm.pages_classified": ("count", "lower"),
    "dsm.page_transfers": ("count", "lower"),
    "dsm.transfer_ratio": ("ratio", "higher"),
    "dsm.access_s": ("s", "lower"),
    "dsm.access_calls": ("count", "lower"),
    "dsm.self_s": ("s", "lower"),
    "runtime.run_s": ("s", "lower"),
    "runtime.self_s": ("s", "lower"),
    "runtime.slices": ("count", "lower"),
    "runtime.instructions": ("count", "higher"),
    "migration.migrate_thread_s": ("s", "lower"),
    "migration.self_s": ("s", "lower"),
    "migration.threads_migrated": ("count", "higher"),
    "transform.s": ("s", "lower"),
    "transform.calls": ("count", "lower"),
    "messages.count": ("count", "lower"),
    "ir.build_s": ("s", "lower"),
    "compiler.build_s": ("s", "lower"),
    "kernel.boot_s": ("s", "lower"),
    "fleet.init_s": ("s", "lower"),
    "fleet.run_s": ("s", "lower"),
    "fleet.self_s": ("s", "lower"),
    "fleet.jobs": ("count", "higher"),
    "fleet.us_per_job": ("us", "lower"),
    "sim.events": ("count", "lower"),
    "sim.queue_s": ("s", "lower"),
    "traffic.make_trace_s": ("s", "lower"),
    "traffic.arrivals": ("count", "higher"),
    "serving.run_s": ("s", "lower"),
    "serving.self_s": ("s", "lower"),
    "serving.requests": ("count", "higher"),
    "serving.us_per_request": ("us", "lower"),
    "policy.decide_s": ("s", "lower"),
    "policy.decisions": ("count", "lower"),
    "resilience.admit_calls": ("count", "lower"),
    "detector.observe_s": ("s", "lower"),
    "detector.observe_calls": ("count", "lower"),
    "telemetry.spans": ("count", "lower"),
    "telemetry.span_s": ("s", "lower"),
}


def _note_range(counts, args, result) -> None:
    """Pages an ``ensure_range(kernel, base, span, write)`` classified."""
    base, span = args[2], args[3]
    if span > 0:
        pages = ((base + span - 1) >> 12) - (base >> 12) + 1
        counts["dsm.pages_classified"] = (
            counts.get("dsm.pages_classified", 0) + pages
        )


def _note_trace(counts, args, result) -> None:
    counts["traffic.arrivals"] = (
        counts.get("traffic.arrivals", 0) + result.requests
    )


def hooks() -> List[Hook]:
    """Every wrapped function, imported lazily so a workload pays only
    for the modules it would import anyway."""
    import repro.compiler.toolchain as toolchain
    import repro.faults.detector as detector
    import repro.fleet.simulator as fleet
    import repro.kernel.dsm as dsm
    import repro.kernel.kernel as kernel
    import repro.kernel.migration as migration
    import repro.kernel.testbed as testbed
    import repro.runtime.execution as execution
    import repro.runtime.transform as transform
    import repro.serving.engine as serving
    import repro.serving.policies as policies
    import repro.serving.resilience as resilience
    import repro.serving.traffic as traffic
    import repro.sim.events as events
    import repro.telemetry.spans as telemetry
    import repro.workloads as workloads

    deciders = [policies.ServingPolicy]
    for klass in deciders:
        deciders.extend(klass.__subclasses__())
    return [
        Hook(workloads, "build_workload", "ir.build"),
        Hook(toolchain.Toolchain, "build", "compiler.build"),
        Hook(testbed, "boot_testbed", "kernel.boot"),
        Hook(kernel.PopcornSystem, "exec_process", "kernel.boot"),
        Hook(execution.ExecutionEngine, "run", "runtime.run"),
        Hook(dsm.DsmService, "ensure_range", "dsm.ensure_range",
             note=_note_range),
        Hook(dsm.DsmService, "access", "dsm.access"),
        Hook(migration.MigrationService, "migrate_thread",
             "migration.migrate_thread"),
        Hook(transform.StackTransformer, "transform", "transform"),
        Hook(traffic, "make_trace", "traffic.make_trace", note=_note_trace),
        Hook(fleet.FleetSimulator, "__init__", "fleet.init"),
        Hook(fleet.FleetSimulator, "run", "fleet.run"),
        Hook(events.EventQueue, "push", "sim.queue", hot=True),
        Hook(events.EventQueue, "pop", "sim.queue", hot=True),
        Hook(events.EventQueue, "pop_due", "sim.queue", hot=True),
        Hook(serving.ServingEngine, "run", "serving.run"),
        *[Hook(klass, "decide", "policy.decide", hot=True)
          for klass in deciders if "decide" in vars(klass)],
        Hook(resilience.AdmissionController, "admit", "resilience.admit",
             hot=True),
        Hook(detector.FailureDetector, "observe", "detector.observe",
             hot=True),
        *[Hook(telemetry.Tracer, attr, "telemetry.span", hot=True)
          for attr in ("begin", "end", "complete", "instant")],
    ]


def layer_metrics(rec: SpanRecorder, facts: List[Dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (``facts``: its units' facts)."""
    def total(key):
        return sum(f.get(key, 0) for f in facts)

    def calls(span):
        return sum(v for k, v in rec.counts.items()
                   if k.startswith(span + "/"))

    pages = rec.count("dsm.pages_classified")
    transfers = total("page_transfers")
    fleet_jobs = total("jobs")
    fleet_run = rec.inclusive("fleet.run")
    requests = total("requests")
    serving_run = rec.inclusive("serving.run")
    return {
        "trace.spans": len(rec.spans),
        "dsm.ensure_range_s": rec.inclusive("dsm.ensure_range"),
        "dsm.ensure_range_calls": calls("dsm.ensure_range"),
        "dsm.pages_classified": pages,
        "dsm.page_transfers": transfers,
        "dsm.transfer_ratio": transfers / pages if pages else 0.0,
        "dsm.access_s": rec.inclusive("dsm.access"),
        "dsm.access_calls": calls("dsm.access"),
        "dsm.self_s": (rec.self_time("dsm.ensure_range")
                       + rec.self_time("dsm.access")),
        "runtime.run_s": rec.inclusive("runtime.run"),
        "runtime.self_s": rec.self_time("runtime.run"),
        "runtime.slices": total("slices"),
        "runtime.instructions": total("instructions"),
        "migration.migrate_thread_s": rec.inclusive(
            "migration.migrate_thread"),
        "migration.self_s": rec.self_time("migration.migrate_thread"),
        "migration.threads_migrated": total("threads_migrated"),
        "transform.s": rec.inclusive("transform"),
        "transform.calls": calls("transform"),
        "messages.count": total("messages"),
        "ir.build_s": rec.inclusive("ir.build"),
        "compiler.build_s": rec.inclusive("compiler.build"),
        "kernel.boot_s": rec.inclusive("kernel.boot"),
        "fleet.init_s": rec.inclusive("fleet.init"),
        "fleet.run_s": fleet_run,
        "fleet.self_s": rec.self_time("fleet.run"),
        "fleet.jobs": fleet_jobs,
        "fleet.us_per_job": fleet_run / fleet_jobs * 1e6 if fleet_jobs
        else 0.0,
        "sim.events": rec.count("sim.queue/push"),
        "sim.queue_s": rec.inclusive("sim.queue"),
        "traffic.make_trace_s": rec.inclusive("traffic.make_trace"),
        "traffic.arrivals": rec.count("traffic.arrivals"),
        "serving.run_s": serving_run,
        "serving.self_s": rec.self_time("serving.run"),
        "serving.requests": requests,
        "serving.us_per_request": serving_run / requests * 1e6 if requests
        else 0.0,
        "policy.decide_s": rec.inclusive("policy.decide"),
        "policy.decisions": calls("policy.decide"),
        "resilience.admit_calls": calls("resilience.admit"),
        "detector.observe_s": rec.inclusive("detector.observe"),
        "detector.observe_calls": calls("detector.observe"),
        "telemetry.spans": total("tracer_spans"),
        "telemetry.span_s": rec.inclusive("telemetry.span"),
    }


def layer_shares(rec: SpanRecorder, pass_s: float) -> Dict[str, float]:
    """Share of a traced pass's host time spent in each layer's own code
    (self time); what no wrapped layer covers is ``benchmark+other``."""
    shares: Dict[str, float] = {}
    for span, layer in LAYERS.items():
        shares[layer] = shares.get(layer, 0.0) + rec.self_time(span)
    covered = sum(shares.values())
    shares["benchmark+other"] = max(pass_s - covered, 0.0)
    return {layer: seconds / pass_s for layer, seconds in shares.items()}
