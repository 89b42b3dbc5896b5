"""tools/bench.py: the symmetric drift check on synthetic baselines, and
one real end-to-end ``--check`` of the cheap serving suite."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench", ROOT / "tools" / "bench.py"
)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SERVING = bench.SUITES["serving"]
INTERP = bench.SUITES["interp"]


def serving_doc(facts):
    return {"facts": facts, "throughput": {"requests_per_wall_second": 1}}


def interp_doc(registry, stress, speedup=6.0):
    return {
        "facts": {"registry": registry, "stress": stress},
        "timing": {"stress": {"speedup": speedup}},
    }


def check(suite, run, committed, tmp_path):
    path = tmp_path / "BENCH_test.json"
    path.write_text(json.dumps(committed))
    return bench.check(suite, run, path)


class TestDrift:
    BASE = {"a/x": {"p99": 1.0}, "b/y": {"p99": 2.0}}

    def test_identical_facts_pass(self, tmp_path, capsys):
        doc = serving_doc(self.BASE)
        assert check(SERVING, doc, doc, tmp_path) == 0
        assert "2 cells match" in capsys.readouterr().out

    def test_changed_value_is_drift(self, tmp_path, capsys):
        run = serving_doc({**self.BASE, "b/y": {"p99": 2.5}})
        assert check(SERVING, run, serving_doc(self.BASE), tmp_path) == 1
        assert "b/y: {'p99': 2.0} -> {'p99': 2.5}" in capsys.readouterr().out

    def test_committed_cell_the_run_lost_is_drift(self, tmp_path, capsys):
        run = serving_doc({"a/x": self.BASE["a/x"]})
        assert check(SERVING, run, serving_doc(self.BASE), tmp_path) == 1
        assert "missing: b/y" in capsys.readouterr().out

    def test_new_cell_never_committed_is_drift(self, tmp_path, capsys):
        run = serving_doc({**self.BASE, "c/z": {"p99": 3.0}})
        assert check(SERVING, run, serving_doc(self.BASE), tmp_path) == 1
        assert "unexpected: c/z" in capsys.readouterr().out

    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        path = tmp_path / "BENCH_absent.json"
        assert bench.check(SERVING, serving_doc(self.BASE), path) == 2
        assert "BENCH_absent.json missing" in capsys.readouterr().err


class TestInterpCells:
    REGISTRY = {"is/t1": {"slices": 9}, "is/t4": {"slices": 12}}
    STRESS = {"slices": 3}

    @pytest.mark.parametrize("run, committed, line", [
        ({"is/t1": {"slices": 9}}, REGISTRY, "missing: is/t4"),
        ({**REGISTRY, "cg/t1": {"slices": 1}}, REGISTRY, "unexpected: cg/t1"),
    ])
    def test_registry_cells_are_symmetric(self, run, committed, line,
                                          tmp_path, capsys):
        rc = check(INTERP, interp_doc(run, self.STRESS),
                   interp_doc(committed, self.STRESS), tmp_path)
        assert rc == 1
        assert line in capsys.readouterr().out

    def test_stress_facts_are_a_cell(self, tmp_path, capsys):
        committed = {"facts": {"registry": self.REGISTRY}}
        run = interp_doc(self.REGISTRY, self.STRESS)
        assert check(INTERP, run, committed, tmp_path) == 1
        assert "unexpected: stress" in capsys.readouterr().out

    def test_speedup_floor_gates_after_facts_match(self, tmp_path, capsys):
        slow = interp_doc(self.REGISTRY, self.STRESS,
                          speedup=bench.SPEEDUP_FLOOR - 0.1)
        assert check(INTERP, slow, slow, tmp_path) == 1
        assert "below" in capsys.readouterr().err


class TestMain:
    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            bench.main(["--check", "nope"])
        assert exc.value.code == 2
        assert "unknown suite 'nope'" in capsys.readouterr().err

    def test_check_serving_end_to_end(self):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "bench.py"), "--check",
             "serving"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "BENCH_serving.json: 10 cells match" in proc.stdout
