"""Hypothesis properties: the CLI contract over generated argv, and the
stepsize-rescaling theorem over generated Table-1 transforms and starts.

Examples are derandomized and few, so the suite stays deterministic and fast.
"""

import argparse
import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from newton_transforms.cli import build_parser, main
from newton_transforms.errors import InputError
from newton_transforms.linalg import dual_norm_sq
from newton_transforms.losses import known_loss_names, loss_from_spec, make_benchmark
from newton_transforms.newton import ConstantSchedule, InducedSchedule, NewtonConfig, run_newton
from newton_transforms.transforms import (
    compose,
    forward_stepsize,
    induced_stepsize,
    known_transform_specs,
    make_table1,
    scaling_factor,
)

SETTINGS = dict(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])

# ----------------------------------------------------------------------------
# CLI argv fuzz
# ----------------------------------------------------------------------------


def mostly(valid, malformed):
    """Draws from valid about four times as often as from malformed."""
    return st.integers(0, 4).flatmap(lambda i: st.sampled_from(malformed if i == 4 else valid))


#: Fillers for registry placeholders such as <P>; <D> and <S> take integers.
#: All are small, so no example allocates much.
NUMBERS = mostly(["2", "3", "0.5", "1"], ["0", "-1", "1e308", "nan", "inf", "abc", ""])
INTEGERS = mostly(["1", "2", "3"], ["0", "-1", "0.5", "abc", ""])


@st.composite
def from_registry(draw, names, malformed):
    """A registry entry with each optional [...] part kept or dropped and each
    <placeholder> filled in, or a malformed spec."""
    name = draw(mostly(names, malformed))
    name = re.sub(r"\[([^\]]*)\]", lambda m: m.group(1) if draw(st.booleans()) else "", name)
    return re.sub(r"<([A-Z]+)>", lambda m: draw(INTEGERS if m.group(1) in "DS" else NUMBERS), name)


LOSS = from_registry(known_loss_names(), ["nosuch", "cauchy1d:x", "polytope:p=3:q=1"])
RADIAL_LOSS = from_registry([name for name in known_loss_names() if name.endswith("1d")],
                            ["beale", "cauchy", "welsh1d:x"])
TRANSFORM = from_registry(known_transform_specs(), ["star", "star:nosuch", "cubic", "exp:a"])
SCHEDULE = mostly(["const:1", "const:0.5", "induced:1", "forwarded:0.5", "armijo"], ["const:zz", "magic", "induced:0"])
GRID = mostly(["-4:4:3x-4:4:3", "-1:1:4x-1.5:1:3", "-2:2:3", "-3:3:5", "0.5:2:2x-1:1:2"],
              ["1:2", "", "1:2:3x", "1:2:x", "4:-4:3", "-1:1:0", "nan:1:3x-1:1:2", "-1:1:-2"])
STEP_RANGE = mostly(["-2:2:0.5", "0.5:1.5:0.25", "1:2:0.5", "1.5:2.5:0.5"],
                    ["1:2", "1:2:0", "2:1:0.5", "nan:1:0.5", "1:2:abc", "1:1:0.5"])
MAX_ITERS = mostly(["1", "8"], ["0", "-3", "x"])
COMMANDS = ["run", "convexify", "radius", "starcheck", "scan-flip", "scan-conv", "sweep-alpha", "recipe"]


def _opt(draw, flag, strategy):
    return [f"{flag}={draw(strategy)}"] if draw(st.booleans()) else []


def _point(draw, loss_spec):
    """A start point of the loss's dimension, or a malformed one."""
    try:
        d = loss_from_spec(loss_spec).dimension
    except InputError:
        d = 2
    coordinates = st.sampled_from(["0.8", "-1.2", "1", "0.1", "-0.9", "2.5", "0"])
    return draw(mostly([",".join(draw(coordinates) for _ in range(d))], ["abc", "nan", "1e308,1e308", "", "1,2,3"]))


@st.composite
def argv(draw):
    """argv for one subcommand, with drawn values that are mostly valid.

    `radius --transformed` is left out: one bisection over the quadrature
    loss takes 1-10 s.
    """
    command = draw(st.sampled_from(COMMANDS))
    if command == "recipe":
        return [command, draw(st.sampled_from(["fig1", "lemma3_demo", "table1_check", "nosuch"]))]  # fast ones
    loss = draw(RADIAL_LOSS if command in ("convexify", "radius", "starcheck") else LOSS)
    args = [command, f"--loss={loss}"]
    if command in ("run", "scan-flip", "scan-conv"):
        args += [f"--transform={draw(TRANSFORM)}"]
    if command == "run":
        args += [f"--schedule={draw(SCHEDULE)}", f"--x0={_point(draw, loss)}", f"--max-iters={draw(MAX_ITERS)}"]
        args += _opt(draw, "--gtol", NUMBERS) + _opt(draw, "--xtol", NUMBERS)
    elif command == "convexify":
        args += [f"--x0={_point(draw, loss)}", f"--grid={draw(STEP_RANGE)}"]
    elif command == "radius":
        args += _opt(draw, "--bracket", NUMBERS)
    elif command == "starcheck":
        args += [f"--points={draw(mostly(['0', '2'], ['-1', 'x']))}"] + _opt(draw, "--seed", INTEGERS)
    elif command in ("scan-flip", "scan-conv"):
        args += [f"--grid={draw(GRID)}"]
        args += _opt(draw, "--seed", INTEGERS) if command == "scan-flip" else [f"--max-iters={draw(MAX_ITERS)}"]
    else:
        x0 = "auto" if draw(st.booleans()) else _point(draw, loss)
        args += [f"--x0={x0}", f"--alphas={draw(STEP_RANGE)}", f"--max-iters={draw(MAX_ITERS)}"]
    return args


@settings(max_examples=60, **SETTINGS)
@given(args=argv(), out=st.sampled_from(["default", "file", "missing_dir"]))
def test_cli_exit_codes_without_traceback(args, out, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("argv")
    if out == "file" and args[0] != "recipe":
        args = args + ["--out", str(out_dir / "out.csv")]
    elif out == "missing_dir" and args[0] != "recipe":
        args = args + ["--out", str(out_dir / "missing" / "out.csv")]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        code = main(["--out-dir", str(out_dir), *args])
    assert code in (0, 2, 3, 4), (args, code)
    assert "Traceback" not in printed.getvalue()


def test_argv_fuzz_covers_every_subcommand():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(COMMANDS)


# ----------------------------------------------------------------------------
# Stepsize rescaling
# ----------------------------------------------------------------------------

TABLE1_PARAMS = st.one_of(
    st.tuples(st.just("linear"), st.fixed_dictionaries({"a": st.floats(0.1, 5.0), "b": st.floats(-2.0, 2.0)})),
    st.tuples(st.just("polynomial"), st.fixed_dictionaries({"r": st.floats(0.2, 3.0)})),
    st.tuples(st.just("exponential"), st.fixed_dictionaries({"a": st.floats(0.01, 0.5)})),
    st.tuples(st.just("logarithmic"), st.fixed_dictionaries({"a": st.floats(0.1, 3.0)})),
    st.tuples(st.just("sigmoid"), st.just({})),
)
START = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@settings(max_examples=150, **SETTINGS)
@given(lname=st.sampled_from(["rosenbrock", "beale", "goldstein_price"]), kind_params=TABLE1_PARAMS, x0=START,
       alpha=st.floats(0.1, 2.0))
def test_induced_step_on_f_equals_constant_step_on_phi_f(lname, kind_params, x0, alpha):
    """Whenever grad f is in Range(hess f) and the scaling factor is away from
    zero, the stepsize alpha / scaling on f takes the same first step as alpha
    on phi(f)."""
    loss = make_benchmark(lname)
    t = make_table1(kind_params[0], **kind_params[1])
    L = compose(loss, t)
    f, g, H = loss.evaluate(x0)
    if not t.contains(f):
        return
    with np.errstate(over="ignore", invalid="ignore"):
        _, gL, HL = L.evaluate(x0)
    if not (np.all(np.isfinite(HL)) and np.any(gL != 0.0)):
        return  # phi'(f) overflows or underflows in floating point
    dual = dual_norm_sq(H, g)
    if not (dual.in_range and abs(scaling_factor(t, f, dual.value)) > 1e-6):
        return
    cfg = NewtonConfig(max_iters=1, gtol=1e-300, xtol=1e-300)  # grad phi(f) may be tiny but is not zero
    x_f = run_newton(loss, InducedSchedule(alpha, t), x0, cfg).xs[1]
    x_L = run_newton(L, ConstantSchedule(alpha), x0, cfg).xs[1]
    assert np.linalg.norm(x_f - x_L) <= 1e-10 * (1.0 + np.linalg.norm(x_L))


@settings(max_examples=200, **SETTINGS)
@given(alpha=st.floats(-1e6, 1e6, allow_subnormal=False),
       scaling=st.floats(-1e6, 1e6).filter(lambda s: abs(s) > 1e-10))
def test_forward_and_induced_stepsizes_round_trip(alpha, scaling):
    assert forward_stepsize(induced_stepsize(alpha, scaling), scaling) == pytest.approx(alpha, rel=1e-15, abs=1e-300)
    assert induced_stepsize(forward_stepsize(alpha, scaling), scaling) == pytest.approx(alpha, rel=1e-15, abs=1e-300)
