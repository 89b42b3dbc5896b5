#!/usr/bin/env python3
"""Benchmark the simulator's host time, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload registry --seed 1 --seconds 25 --trace 0

``--workload`` is one of ``registry``, ``migrate``, ``fleet`` and ``serve``
(see ``perfbench/README.md``).  A run repeats *passes* — set up every
program or cell of the workload, then run them all — until ``--seconds``
have passed (an untimed warm-up pass, then at least three timed ones),
checks every output, and prints one JSON object as its last line of
output.

``--trace 0`` reports the end-to-end metrics as medians over the passes.
``--trace 1`` alternates untraced passes with passes that wrap each layer's
public functions (:mod:`layers`), reports the per-layer metrics as medians
over the traced passes, the tracing overhead against the untraced passes,
and writes the last traced pass's spans under ``perfbench/out/``.

The benchmark is single-process and single-threaded.  It measures the
simulator's own speed on this host; the simulated results are checked for
bit-identity only and are not validated against hardware.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from calibrate import REFERENCE_S, calibrate  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 3

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_work_per_s": "1/s",
}

_clock = time.perf_counter


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the seed the "
                        "committed references were made with)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Pass:
    """One pass's per-unit timings and facts, in unit order.

    ``calibrations`` holds the calibration kernel's time before each
    unit's run and after the last one (see :mod:`calibrate`).
    """

    def __init__(self):
        self.names = []
        self.setup_s = []
        self.run_s = []
        self.facts = []
        self.calibrations = []

    @property
    def scale(self) -> float:
        """Reference-host seconds per raw second in this pass: the median
        calibration, so one disturbed calibration moves nothing."""
        return REFERENCE_S / statistics.median(self.calibrations)


def one_pass(workload, seed, recorder=None) -> Pass:
    """Set up every unit of the workload, then run them all once.

    Root spans are opened outside the timed regions, so tracing adds to
    the timings only the wrapped calls' own cost.
    """
    def root(unit_name, phase):
        if recorder is None:
            return nullcontext()
        return recorder.trace(f"{workload.name}/{unit_name}", phase)

    shared = {}
    units = []
    result = Pass()
    for spec in workload.specs(seed):
        with root(spec, "setup"):
            start = _clock()
            units.append(workload.setup(spec, seed, shared))
            result.setup_s.append(_clock() - start)
    for unit in units:
        result.calibrations.append(calibrate())
        with root(unit.name, "run"):
            start = _clock()
            outcome = workload.run(unit)
            result.run_s.append(_clock() - start)
            facts = workload.facts(unit, outcome)
        # Free the finished program's simulator state before the next
        # one runs, so peak memory is one run's, not the whole pass's.
        unit.state = None
        result.names.append(unit.name)
        result.facts.append(facts)
    result.calibrations.append(calibrate())
    return result


def typical(passes, field) -> float:
    """Reference-host seconds of a typical pass: the sum over units of
    each unit's median scaled time across passes.  A burst of host noise
    during one unit of one pass then moves nothing."""
    per_unit = zip(*(
        [t * p.scale for t in getattr(p, field)] for p in passes
    ))
    return sum(statistics.median(times) for times in per_unit)


class Checker:
    """Counts checked outputs and mismatches; reports each mismatch."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.first = {}
        self.attempted = 0
        self.failed = 0

    def check(self, result: Pass) -> None:
        for name, facts in zip(result.names, result.facts):
            problems = self.workload.check(
                name, facts, self.seed, self.first.get(name)
            )
            self.first.setdefault(name, facts)
            self.attempted += 1
            if problems:
                self.failed += 1
                for problem in problems:
                    print(f"mismatch: {self.workload.name}/{name}: "
                          f"{problem}", file=sys.stderr)


def checked_pass(workload, seed, checker, recorder=None) -> Pass:
    result = one_pass(workload, seed, recorder)
    checker.check(result)
    # Collect the pass's garbage now, not during the next timed region.
    gc.collect()
    return result


def warm_up(workload, seed, checker) -> None:
    """Run and check one pass without timing it.  A process's first pass
    ran 15-40% slower than the rest on ``registry`` (the heap grows, lazy
    imports and caches fill); with four to eight timed passes per run it
    would move the medians."""
    checked_pass(workload, seed, checker)


def measure(workload, seed, seconds, checker, import_s):
    """End-to-end metrics over untraced passes.  ``import_s``, the
    program's import time, is paid once per process and counts as set-up.
    """
    start = _clock()
    warm_up(workload, seed, checker)
    passes = []
    while len(passes) < MIN_PASSES or _clock() - start < seconds:
        passes.append(checked_pass(workload, seed, checker))
    wall_s = typical(passes, "run_s")
    work = sum(facts[workload.work_key] for facts in passes[0].facts)
    return {
        "wall_s": wall_s,
        "setup_s": typical(passes, "setup_s") + import_s * passes[0].scale,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_work_per_s": work / wall_s,
    }


def measure_layers(workload, seed, seconds, checker, spans_path):
    """Per-layer metrics: untraced and traced passes alternate; each
    per-layer figure is the median over the traced passes."""
    import layers
    from spans import SpanRecorder

    hooks = layers.hooks()
    start = _clock()
    warm_up(workload, seed, checker)
    plain, traced, per_pass = [], [], []
    while len(traced) < MIN_PASSES or _clock() - start < seconds:
        plain.append(checked_pass(workload, seed, checker))
        recorder = SpanRecorder(hooks)
        with recorder:
            result = checked_pass(workload, seed, checker, recorder)
        traced.append(result)
        metrics = layers.layer_metrics(recorder, result.facts)
        for name, value in metrics.items():
            if layers.METRICS[name][0] in ("s", "us"):
                metrics[name] = value * result.scale
        metrics["calibration.s"] = statistics.median(result.calibrations)
        metrics["shares"] = layers.layer_shares(
            recorder, sum(result.setup_s) + sum(result.run_s)
        )
        per_pass.append(metrics)
    report = {
        name: statistics.median(m[name] for m in per_pass)
        for name in per_pass[0] if name != "shares"
    }
    report["trace.overhead_s"] = (
        typical(traced, "run_s") - typical(plain, "run_s")
    )
    shares = {
        layer: statistics.median(m["shares"][layer] for m in per_pass)
        for layer in per_pass[0]["shares"]
    }
    spans_path.parent.mkdir(exist_ok=True)
    recorder.write(spans_path, {"layer_shares": shares})
    return report, shares


def report(workload, seed, seconds, trace, import_s=0.0, out=OUT):
    """Measure a loaded workload; return the result object to print.

    ``import_s`` (the program's import time, paid once per process) is
    added to the set-up time of an untraced run.
    """
    from layers import METRICS

    checker = Checker(workload, seed)
    if trace:
        spans_path = out / f"spans-{workload.name}-seed{seed}.json"
        values, shares = measure_layers(
            workload, seed, seconds, checker, spans_path
        )
        values["check.mismatch_rate"] = checker.failed / checker.attempted
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            if share:
                print(f"layer share {layer:<22} {share * 100:6.2f}%")
        print(f"wrote {os.path.relpath(spans_path)}")
        units = {name: unit for name, (unit, _) in METRICS.items()}
    else:
        values = measure(workload, seed, seconds, checker, import_s)
        units = END_TO_END
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Measure the defaults the CLI runs with, whatever the caller's
    # environment selects.
    for name in ("REPRO_TRACE", "REPRO_VALIDATE", "REPRO_ENGINE"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    seed = workload.default_seed if args.seed is None else args.seed
    workload.load()
    import_s = _clock() - _START
    print(json.dumps(
        report(workload, seed, args.seconds, args.trace, import_s)
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
