"""Self-tests for the benchmark (not part of the repository's test suite).

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

They check that wrapping the layers changes no simulated fact, that every
workload completes a reduced-size run traced and untraced, that the
correctness gate counts a mismatch, and that ``BENCHMARK.json`` names
exactly the metrics and workloads the benchmark reports.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: One small unit per workload for the reduced-size runs.
SMOKE = {
    "registry": "redis",
    "migrate": "redis",
    "fleet": "wave/faulted",
    "serve": "faulted/resilient",
}


def reduced(name):
    """The workload ``name`` cut down to its smoke unit."""
    class Reduced(WORKLOADS[name]):
        def specs(self, seed):
            return [SMOKE[name]]

    workload = Reduced()
    workload.load()
    return workload


def run_unit(workload, seed, recorder=None):
    result = run.one_pass(workload, seed, recorder)
    return result.facts[0]


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrappers_leave_facts_bit_identical(name):
    workload = reduced(name)
    seed = workload.default_seed
    plain = run_unit(workload, seed)
    hooks = layers.hooks()
    originals = [vars(h.owner)[h.attr] for h in hooks]
    with SpanRecorder(hooks) as recorder:
        traced = run_unit(workload, seed, recorder)
    assert traced == plain
    assert [vars(h.owner)[h.attr] for h in hooks] == originals
    assert workload.check(SMOKE[name], traced, seed, plain) == []


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reduced_run_reports_every_metric(name, trace, tmp_path):
    workload = reduced(name)
    result = run.report(workload, workload.default_seed, 0.01, trace,
                        out=tmp_path)
    expected = benchmark_json()["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0
    # One warm-up pass, then MIN_PASSES timed (or traced/untraced pairs).
    assert result["attempted"] == 1 + run.MIN_PASSES * (2 if trace else 1)
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        assert list(tmp_path.glob("spans-*.json"))
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_idle_layers_report_zero(tmp_path):
    result = run.report(reduced("fleet"), 11, 0.01, 1, out=tmp_path)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["fleet.jobs"] == 60_000
    assert metrics["sim.events"] > 0
    for idle in ("dsm.ensure_range_calls", "runtime.slices",
                 "serving.requests", "telemetry.spans"):
        assert metrics[idle] == 0


@pytest.mark.parametrize("name", ["fleet", "serve"])
def test_other_seed_is_checked_for_conservation_only(name):
    workload = reduced(name)
    facts = run_unit(workload, 3)
    assert facts["facts"] != workload.committed[SMOKE[name]]
    assert workload.check(SMOKE[name], facts, 3, None) == []


def test_mismatch_is_counted(capsys):
    workload = reduced("fleet")
    cell = SMOKE["fleet"]
    workload.committed = {
        cell: {**workload.committed[cell], "jobs_completed": -1}
    }
    checker = run.Checker(workload, workload.default_seed)
    checker.check(run.one_pass(workload, workload.default_seed))
    assert (checker.attempted, checker.failed) == (1, 1)
    assert "mismatch: fleet/wave/faulted" in capsys.readouterr().err


def test_names_and_benchmark_json_agree():
    spec = benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    assert names == list(WORKLOADS)
    assert {n: m["unit"] for n, m in end_to_end.items()} == run.END_TO_END
    assert {n: (m["unit"], m["better"]) for n, m in per_layer.items()} \
        == layers.METRICS
    assert end_to_end["setup_s"]["bound"] == max(
        m["bound"] for m in spec["end_to_end"]
    )
    for name in [*names, *end_to_end, *per_layer]:
        assert NAME.fullmatch(name), name


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
