import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from newton_transforms.cli import main
from newton_transforms.errors import InputError
from newton_transforms.losses import known_loss_names, loss_from_spec
from newton_transforms.transforms import known_transform_specs, transform_from_spec

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

    @pytest.mark.parametrize("grid", ["--grid=1e200:3e200:1e200"])
    def test_convexify_overflowing_grid_exit_2(self, tmp_path, grid):
        # Runs under the suite's error::RuntimeWarning: an overflow warning
        # from the loss would end the command with an exception, not exit 2.
        # No point of the grid lies in the sublevel set of f(2).
        assert run_cli(tmp_path, "convexify", "--loss", "cauchy1d", "--x0", "2", grid) == 2

    def test_convexify_grid_past_the_square_overflow(self, tmp_path):
        # x * x overflows at |x| = 1e200; the Cauchy profile's asymptotic
        # forms keep every row finite, with no warning
        out = tmp_path / "report.csv"
        assert run_cli(tmp_path, "convexify", "--loss", "cauchy1d", "--x0", "2",
                       "--grid=-1e200:3e200:1e200", "--out", str(out)) == 0
        rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 5 and all(math.isfinite(v) for row in rows for v in row)
        assert rows[2][1] == pytest.approx(2.0 * math.log(1e200), rel=1e-15)


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
    "run --loss beale --schedule const:nan --x0 1,1.2",
    "run --loss beale --schedule const:-inf --x0 1,1.2",
    "run --loss beale --transform log:a=1 --schedule induced:inf --x0 1,1.2",
    "sweep-alpha --loss polytope:p=2 --alphas 1:2",
    "sweep-alpha --loss polytope:p=2 --alphas 1:2:0",
    "convexify --loss cauchy1d --x0 2 --grid 1:2",
    "convexify --loss cauchy1d --x0 2 --grid 0:1:1e-300",
    "sweep-alpha --loss polytope:p=2 --alphas 0.1:1:1e-300",
    "radius --loss cauchy1d --bracket=-1",
    "run --loss beale --x0 1,1 --gtol nan",
    # an option the head does not declare, or a head that is not declared:
    # each once exited 0, reading the options it knew and ignoring the rest
    "sweep-alpha --loss polytope:p=3:sed=7",
    "run --loss polynorm:p=4:dim=3 --x0 1,1",
    "run --loss cauchy1d:x --x0 0.8",
    "run --loss beale:p=9 --x0 1,1",
    "run --loss counterexample:q=1 --x0 0.5",
    "run --loss cauchy1d --transform star:cauchy:x --x0 0.8",
    # a key stated twice once kept the last value and exited 0
    "run --loss beale --transform poly:r=1:r=2 --x0 1,1",
    "sweep-alpha --loss polytope:p=3:p=4",
    "run --loss beale --transform polynomial:r=2 --x0 1,1",
    "run --loss beale --schedule armijo:0.25 --x0 1,1",
]


def _cli_process(tmp_path, argv):
    """The CLI in a fresh interpreter where a RuntimeWarning is an error."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "newton_transforms.cli",
                           "--out-dir", str(tmp_path), *argv.split()],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("argv", MALFORMED)
def test_malformed_input_exit_2_without_traceback(argv, tmp_path):
    proc = _cli_process(tmp_path, argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(("error: usage:", "usage:")), proc.stderr  # the CLI's usage error or argparse's


#: A value for each placeholder of the spec grammar that every head accepts.
PLACEHOLDERS = {"P": "3", "D": "2", "S": "1", "A": "2", "B": "1", "R": "0.5"}


def _filled(entry, keep_optional):
    """A help entry such as 'polytope:p=<P>[:seed=<S>]' with its placeholders
    filled in and its optional parts kept or dropped."""
    entry = re.sub(r"\[([^\]]*)\]", lambda m: m.group(1) if keep_optional else "", entry)
    return re.sub(r"<([A-Z])>", lambda m: PLACEHOLDERS[m.group(1)], entry)


GRAMMAR = ([(loss_from_spec, entry) for entry in known_loss_names()]
           + [(transform_from_spec, entry) for entry in known_transform_specs()])


@pytest.mark.parametrize("build,entry", GRAMMAR, ids=[entry for _, entry in GRAMMAR])
def test_spec_grammar(build, entry):
    # every spec help lists builds, with and without its optional parts, and
    # an undeclared key or a bare extra part is a usage error on every head
    for keep_optional in (True, False):
        build(_filled(entry, keep_optional))
    for extra in (":zz=1", ":x"):
        with pytest.raises(InputError):
            build(_filled(entry, True) + extra)


#: Starts where the transform's powers overflow or underflow: Python-float
#: arithmetic once raised OverflowError (ZeroDivisionError for the last) out
#: of these, exiting 1 with a traceback.
POWER_OVERFLOW = [
    "run --loss polynorm:p=4 --transform poly:r=0.25 --x0=1e-60,1e-60",
    "run --loss rosenbrock --transform log:a=1 --x0=1e50,0",
    "scan-conv --loss rosenbrock --transform log:a=1 --grid=1e50:2e50:2x0:1:2",
    "run --loss rosenbrock --transform log:a=1e-200 --x0=1,1",
]


@pytest.mark.parametrize("argv", POWER_OVERFLOW)
def test_power_overflow_exits_without_traceback(argv, tmp_path):
    proc = _cli_process(tmp_path, argv)
    assert proc.returncode in (0, 2), proc.stderr
    assert "Traceback" not in proc.stderr


def test_sweep_alpha_keeps_stepsizes_whose_rounding_overflows(tmp_path):
    # rounding to 12 decimals multiplies by 1e12, which took these alphas to inf
    out = tmp_path / "sweep.csv"
    proc = _cli_process(tmp_path, f"sweep-alpha --loss beale --x0 1,1 --alphas 1e300:1.2e300:1e299 --out {out}")
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    alphas = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    assert alphas == pytest.approx([1e300, 1.1e300, 1.2e300], rel=1e-15)
    assert proc.stdout.startswith("best_alpha=") and float(proc.stdout.split()[0][11:]) == alphas[0]


def test_import_and_star_table_leave_numpy_polynomial_unloaded():
    # numpy.polynomial adds about 1.75 MB of resident memory to every process
    code = ("import sys, newton_transforms, newton_transforms.cli\n"
            "from newton_transforms.transforms import transform_from_spec\n"
            "transform_from_spec('star:cauchy').phi(1.0)\n"
            "assert 'numpy.polynomial' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
