"""Tests of the benchmark itself, on the weight <= 4 smoke inputs.

Run from the repository root with ``python3 -m pytest pipebench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import extbar  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "pipebench" / "run.py"), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_spec_lists_the_workloads_and_layer_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_METRICS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", 5, "--seconds", 1, "--trace", 0, "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_REPS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced_run_reports_every_layer_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", 5, "--seconds", 1, "--trace", 1, "--smoke"))
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == list(run.LAYER_METRICS)
    assert metrics["verify.checks"] > 0
    uses_bar = workload != "predict_twisted"
    assert (metrics["bar.basis_dim"] > 0) == uses_bar
    assert (metrics["homology.snf_calls"] > 0) == (workload == "integral_snf")
    assert (metrics["modp.rank_calls"] > 0) == (workload in ("field_crosscheck", "wide_rank2"))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "pipebench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "integral_snf", "--seed", 1, "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_rebuilt_homology_matches_the_library():
    for n in (1, 2):
        algebra = extbar.bar_source_algebra(n, 1)
        tr = tracing.Tracer()
        tr.count_calls(algebra)
        for d in range(5):
            assert tracing.homology_over_Z(tr, algebra, d) == extbar.homology_over_Z(algebra, d)
            assert tracing.homology_over_Fp(tr, algebra, d, 2) == extbar.homology_over_Fp(algebra, d, 2)
    assert all(s["end"] >= s["start"] for s in tr.spans)
    assert tr.counts["bar.diff_evals"] > 0 and tr.counts["bar.inner_calls"] > 0


def test_a_disagreeing_route_is_a_mismatch(monkeypatch):
    real = workloads.cli
    monkeypatch.setattr(workloads, "cli", lambda *a: real(*a) + ("x" if "predict" in a else ""))
    with pytest.raises(workloads.Mismatch):
        workloads._integral_run(("Lambda", 1, 3))


def test_changed_digest_or_count_fails_the_repetition():
    def rep(kind, digest, calls=1):
        return {"kind": kind, "ok": True, "digest": digest, "counts": {"modp.rank_calls": calls}}

    reps = [rep("untraced", "a"), rep("traced", "a"), rep("traced", "b"), rep("traced", "a", calls=2)]
    run.check_reps(reps)
    assert [r["ok"] for r in reps] == [True, True, False, False]


def test_times_are_scaled_by_the_mean_reference_time():
    slow = {"wall_s": 2.0, "ref_s": [2 * run.REFERENCE_S, 2 * run.REFERENCE_S]}
    fast = {"wall_s": 1.1, "ref_s": [0.5 * run.REFERENCE_S, 1.5 * run.REFERENCE_S]}
    assert run.scaled([slow], "wall_s") == pytest.approx(1.0)
    assert run.scaled([slow, fast, fast], "wall_s") == pytest.approx(1.1)
