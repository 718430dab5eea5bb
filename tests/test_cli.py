import os
import subprocess
import sys
from pathlib import Path

import pytest

from newton_transforms.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(tmp_path, *argv):
    return main(["--out-dir", str(tmp_path), *argv])


class TestRun:
    def test_divergent_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli(tmp_path, "run", "--loss", "cauchy1d", "--schedule", "const:1.0",
                       "--x0", "0.8", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,x_0,f,grad_norm,alpha,scaling,dual_sq,termination"
        assert lines[-1].endswith("diverged")

    def test_induced_schedule_converges(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli(tmp_path, "run", "--loss", "cauchy1d", "--transform", "star:cauchy",
                       "--schedule", "induced:1.0", "--x0", "0.8", "--out", str(out))
        assert code == 0
        assert out.read_text().splitlines()[-1].endswith("converged")

    def test_transformed_run_on_composed_loss(self, tmp_path):
        code = run_cli(tmp_path, "run", "--loss", "rosenbrock", "--transform", "exp:a=0.1",
                       "--schedule", "armijo", "--x0=-0.5,0.5", "--max-iters", "60",
                       "--out", str(tmp_path / "t.csv"))
        assert code == 0

    def test_usage_error_exit_2(self, tmp_path):
        assert run_cli(tmp_path, "run", "--loss", "nosuch", "--x0", "1.0") == 2

    def test_bad_schedule_exit_2(self, tmp_path):
        assert run_cli(tmp_path, "run", "--loss", "cauchy1d", "--schedule", "magic",
                       "--x0", "0.5") == 2


class TestScans:
    def test_scan_flip_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code = run_cli(tmp_path, "scan-flip", "--loss", "beale", "--transform", "poly:r=0.25",
                           "--grid=-4:4:30x-4:4:30", "--seed", "3", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_scan_conv_1d(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = run_cli(tmp_path, "scan-conv", "--loss", "cauchy1d", "--grid=-3:3:31",
                       "--max-iters", "40", "--out", str(out))
        assert code == 0
        body = out.read_text().splitlines()
        assert body[0] == "ix,iy,x,y,converged,iterations,final_value,error"
        assert len(body) == 32

    def test_sweep_alpha_polytope(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(tmp_path, "sweep-alpha", "--loss", "polytope:p=3:seed=1",
                       "--alphas", "1.5:2.5:0.05", "--out", str(out))
        assert code == 0
        assert out.read_text().startswith("alpha,iterations,final_grad_norm,converged")


class TestAnalysis:
    def test_radius(self, tmp_path):
        out = tmp_path / "radius.txt"
        code = run_cli(tmp_path, "radius", "--loss", "cauchy1d", "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert "empirical_basin_radius=0.577" in text
        assert "convexity_radius=1" in text

    def test_radius_transformed_infinite_convexity(self, tmp_path):
        out = tmp_path / "radius.txt"
        code = run_cli(tmp_path, "radius", "--loss", "cauchy1d", "--transformed",
                       "--bracket", "2.0", "--out", str(out))
        assert code == 0
        assert "convexity_radius=inf" in out.read_text()

    def test_starcheck(self, tmp_path):
        out = tmp_path / "check.csv"
        code = run_cli(tmp_path, "starcheck", "--loss", "welsh1d", "--points", "20",
                       "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 21

    def test_convexify_report(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run_cli(tmp_path, "convexify", "--loss", "cauchy1d", "--x0", "2.0",
                       "--grid=-2:2:0.01", "--out", str(out))
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "x,f,r,min_eig_before,min_eig_after,c"

    @pytest.mark.parametrize("grid", ["--grid=1e200:3e200:1e200", "--grid=-1e200:3e200:1e200"])
    def test_convexify_overflowing_grid_exit_2(self, tmp_path, grid):
        # Runs under the suite's error::RuntimeWarning: an overflow warning
        # from the loss would end the command with an exception, not exit 2.
        assert run_cli(tmp_path, "convexify", "--loss", "cauchy1d", "--x0", "2", grid) == 2


class TestRecipes:
    def test_fig1_recipe_files(self, tmp_path):
        code = run_cli(tmp_path, "recipe", "fig1")
        assert code == 0
        for name in ("trace_f_diverges.csv", "trace_L.csv", "trace_induced.csv", "fig1_summary.txt"):
            assert (tmp_path / name).exists(), name

    def test_lemma3_recipe(self, tmp_path):
        assert run_cli(tmp_path, "recipe", "lemma3_demo") == 0
        assert "residual=" in (tmp_path / "lemma3_demo.txt").read_text()

    def test_unknown_recipe_usage_error(self, tmp_path):
        assert run_cli(tmp_path, "recipe", "fig9") == 2


def test_help_lists_zoo(capsys):
    code = main(["--help"])
    out = capsys.readouterr().out
    assert code == 0
    for token in ("rosenbrock", "cauchy1d", "poly:r=<R>", "star:cauchy", "armijo", "table3", "fig1"):
        assert token in out


def test_io_error_exit_4(tmp_path):
    code = run_cli(tmp_path, "run", "--loss", "cauchy1d", "--x0", "0.5",
                   "--out", str(tmp_path / "missing_dir" / "trace.csv"))
    assert code == 4


def test_fig1_recipe_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert main(["--out-dir", str(d), "recipe", "fig1"]) == 0
    for name in ("trace_f_diverges.csv", "trace_L.csv", "trace_induced.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


MALFORMED = [
    "scan-flip --grid 1:2",
    "scan-flip --loss beale --transform poly:r=0.5 --grid 1:2",
    "scan-conv --loss beale --grid 1:2:x",
    "run --transform poly:r=abc --x0 1,1",
    "run --loss beale --transform poly:r=abc --x0 1,1",
    "run --loss beale --transform poly:a=1 --x0 1,1",
    "run --loss beale --transform sigmoid:x --x0 1,1",
    "run --loss polynorm:p=x --x0 1,1",
    "run --loss polynorm:d=0 --x0 1",
    "run --loss polynorm:d=100000 --x0 1,1",
    "run --loss polynorm:d=100000000000000000000 --x0 1,1",
    "run --loss beale --schedule const:zz --x0 1,1",
    "sweep-alpha --loss polytope:p=2 --alphas 1:2",
    "sweep-alpha --loss polytope:p=2 --alphas 1:2:0",
    "convexify --loss cauchy1d --x0 2 --grid 1:2",
    "radius --loss cauchy1d --bracket=-1",
]


@pytest.mark.parametrize("argv", MALFORMED)
def test_malformed_input_exit_2_without_traceback(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "newton_transforms.cli", "--out-dir", str(tmp_path), *argv.split()],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
