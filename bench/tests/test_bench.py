"""Tests of the benchmark itself, on tiny work sets.

    python3 -m pytest bench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run._import_package()

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_untraced(workload):
    result = run.measure(workload, 0, 0, False, size="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_traced(workload, tmp_path):
    result = run.measure(workload, 3, 0, True, size="tiny", trace_path=tmp_path / "spans.npz")
    assert result["correct"], result
    metrics = result["metrics"]
    assert set(metrics) == _names("per_layer")
    assert metrics["trace.absent_boundaries"]["value"] == 0
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    assert (tmp_path / "spans.npz").stat().st_size > 0
    quad = metrics["quadrature.adaptive_simpson.calls"]["value"]
    assert (quad > 0) == (workload == "star_certificates")
    assert (metrics["scans.cells"]["value"] > 0) == (workload == "grid_scans")


def _tampered(summary):
    """The same summary with its first number changed."""
    for key, value in summary.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        return {**summary, key: value + 1 if isinstance(value, int) else value * 1.5 + 1.0}
    raise AssertionError(f"no number in {summary}")


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_wrong_reference_fails(workload, tmp_path):
    recorder = run.Runner(workload, 0, "tiny", None, str(tmp_path / "record"))
    recorder.rep()
    reference = {"ops": dict(recorder.last_summaries), "csv": recorder.last_digests}
    good = run.measure(workload, 0, 0, True, size="tiny", reference=reference,
                          trace_path=tmp_path / "good.npz")
    assert good["failed"] == 0 and good["metrics"]["fail_frac"]["value"] == 0

    name = next(iter(reference["ops"]))
    reference["ops"][name] = _tampered(reference["ops"][name])
    bad = run.measure(workload, 0, 0, True, size="tiny", reference=reference,
                         trace_path=tmp_path / "bad.npz")
    assert not bad["correct"] and bad["failed"] > 0
    assert bad["metrics"]["fail_frac"]["value"] > 0


def test_wrong_scan_fails_on_unshipped_seed(monkeypatch):
    """Without a reference, re-run cells and sweep rows still catch wrong results."""
    scan_convergence, best_fixed_stepsize = workloads.scans.scan_convergence, workloads.scans.best_fixed_stepsize

    def flipped(*args, **kwargs):
        res = scan_convergence(*args, **kwargs)
        res.converged = ~res.converged & ~res.error
        return res

    def slower(*args, **kwargs):
        res = best_fixed_stepsize(*args, **kwargs)
        res.rows = [(alpha, iters + 1, gn, ok) for alpha, iters, gn, ok in res.rows]
        return res

    monkeypatch.setattr(workloads.scans, "scan_convergence", flipped)
    monkeypatch.setattr(workloads.scans, "best_fixed_stepsize", slower)
    result = run.measure("grid_scans", 12345, 0, False, size="tiny")
    n_conv, n_sweep = 6, 4
    assert result["failed"] == n_conv + n_sweep


def test_checks_are_not_traced(tmp_path):
    """Per-layer counts hold only the operations' own calls, not the re-runs
    the checks make."""
    result = run.measure("grid_scans", 7, 0, True, size="tiny", trace_path=tmp_path / "spans.npz")
    sz = workloads.SIZES["tiny"]
    n_alphas = len(np.arange(sz["alpha_step"], 4.50001, sz["alpha_step"]))
    assert result["metrics"]["newton.run_newton.calls"]["value"] == 6 * sz["conv_n"] ** 2 + 4 * n_alphas


def test_exception_counts_as_failure(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(workloads.newton, "lm_invariance_residual", broken)
    result = run.measure("trajectories", 0, 0, False, size="tiny")
    assert result["failed"] == 1 and result["metrics"]["ok_frac"]["value"] < 1


def test_removed_boundary_reported_absent(monkeypatch):
    from newton_transforms import linalg

    monkeypatch.delattr(linalg, "dual_norm_sq")
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.absent == ["linalg.dual_norm_sq"]


def test_install_restores_every_binding():
    from newton_transforms import linalg, newton, scans

    before = (linalg.symmetrize, newton.symmetrize, scans.symmetrize, newton.ConstantSchedule.__call__)
    tr = tracer.Tracer()
    tr.install()
    assert newton.symmetrize is scans.symmetrize is not before[0]
    tr.uninstall()
    assert (linalg.symmetrize, newton.symmetrize, scans.symmetrize, newton.ConstantSchedule.__call__) == before


def test_fails_without_package(tmp_path):
    """In a directory holding only the benchmark, the run stops with an error."""
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "trajectories", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
