"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402

SEED = 7


def _bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _tiny(workload, trace):
    code, lines = _bench(
        "--workload", workload, "--seed", str(SEED), "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert code == 0
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code(spec):
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_tiny_traced_and_untraced(workload, spec):
    plain_detail, plain = _tiny(workload, 0)
    traced_detail, traced = _tiny(workload, 1)
    for result, metrics in ((plain, spec["end_to_end"]), (traced, spec["per_layer"])):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in metrics
        }
    # Same seed, traced or not: every count and every verdict repeats.
    assert plain_detail["counts"] == traced_detail["counts"] == traced_detail["traced_counts"]
    assert plain_detail["verdict_digest"] == traced_detail["verdict_digest"]
    assert plain_detail["unwrapped"] == []

    values = {k: v["value"] for k, v in traced["metrics"].items()}
    wall = values["trace.wall_s"]
    layer_self = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert 0 < layer_self <= wall
    spans = [json.loads(line) for line in (ROOT / traced_detail["spans_file"]).open()]
    by_id = {s[0]: s for s in spans}
    for sid, name, start, end, parent, job in spans:
        assert start <= end
        if parent is not None:
            assert by_id[parent][2] <= start and end <= by_id[parent][3]
            assert by_id[parent][5] == job
    roots = [s for s in spans if s[4] is None]
    assert {s[1] for s in roots} == {tracer.JOB_SPAN}
    assert sum(s[3] - s[2] for s in roots) <= wall


def test_wall_cal_sums_each_jobs_median_over_passes():
    passes = [{"job_cal": [1.0, 10.0]}, {"job_cal": [3.0, 12.0]}, {"job_cal": [2.0, 50.0]}]
    assert run.wall_cal(passes) == 2.0 + 12.0


def test_calibration_leaves_probes_out_and_scales_each_stretch():
    cal = run.Calibration()
    cal.probes = [(0.0, 1.0), (2.0, 3.0), (5.0, 7.0)]  # probe times 1, 1, 2
    # a job from 0.5 to 6: stretches [1, 2] at 1 s a unit, [3, 5] at 1.5 s
    assert cal.measure(0.5, 6.0) == (3.0, 1.0 + 2.0 / 1.5)


def test_unwrapped_layer_reads_zero(monkeypatch):
    gone = (("dmlab.graph", "no_such_function", "graph.gone", None),)
    monkeypatch.setattr(tracer, "WRAPPED", gone)
    assert tracer.install(tracer.Recorder()) == ["dmlab.graph.no_such_function"]
    values = tracer.layer_metrics(tracer.Recorder(), 1.0, 1.0)
    assert set(values) == {name for name, _ in tracer.PER_LAYER}
    assert all(v == 0 for k, v in values.items() if not k.startswith("trace."))


def test_fails_without_the_program():
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, lines = _bench(
            "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0",
            cwd=bare, script=bare / "perfbench" / "run.py",
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
