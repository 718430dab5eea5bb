"""Command line entry point.

Subcommands: run, convexify, radius, starcheck, scan-flip, scan-conv,
sweep-alpha, recipe. Exit codes: 0 success, 2 usage error, 3 numerical
failure (a reproduction assertion failed), 4 I/O error.

The default output directory is $NEWTON_TRANSFORMS_OUTDIR (falling back to
the current directory); all emitted CSVs are deterministic given --seed.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .convexify import compact_constant, exp_convexifier, strict_schaible_batch, verify_convexified
from .errors import CapabilityError, DomainError, InputError, SingularScalingError
from .linalg import symmetrize_batch
from .losses import as_1d_loss, known_loss_names, loss_from_spec, radial_1d, spec_number
from .newton import (
    BacktrackingSchedule,
    ConstantSchedule,
    ForwardedSchedule,
    InducedSchedule,
    NewtonConfig,
    _fmt,
    run_newton,
    write_csv,
)
from .recipes import RECIPES, RecipeError, run_recipe, write_lines
from .scans import best_fixed_stepsize, scan_convergence, scan_sign_flip
from .starconvex import convergence_radius, convexity_radius, radial_star_loss, star_value
from .transforms import compose, known_transform_specs, transform_from_spec

USAGE_ERROR, NUMERICAL_ERROR, IO_ERROR = 2, 3, 4

#: The --schedule specs.
SCHEDULES = ("const:<a>", "induced:<a>", "forwarded:<a>", "armijo")


def _count(text):
    """argparse type of --points and --seed: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _parse_point(text):
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise InputError(f"cannot parse point '{text}'") from None


def _parse_grid(text):
    """'lo:hi:n' or 'lo:hi:nxlo:hi:n' (n = node count)."""
    def axis(part):
        lo, hi, n = part.split(":")
        return float(lo), float(hi), int(n)

    parts = text.split("x")
    try:
        if len(parts) == 1:
            return axis(parts[0]), None
        if len(parts) == 2:
            return axis(parts[0]), axis(parts[1])
    except ValueError:
        pass
    raise InputError(f"cannot parse grid '{text}' (lo:hi:n or lo:hi:nxlo:hi:n)")


def _parse_range(text, what):
    """'lo:hi:step', three finite floats with step > 0 and hi >= lo, as
    (lo, hi, the points lo, lo + step, ... up to hi)."""
    try:
        lo, hi, step = (float(t) for t in text.split(":"))
    except ValueError:
        raise InputError(f"cannot parse {what} '{text}' (lo:hi:step)") from None
    if not (np.all(np.isfinite([lo, hi, step])) and step > 0 and hi >= lo):
        raise InputError(f"bad {what} '{text}'")
    try:
        return lo, hi, np.arange(lo, hi + 0.5 * step, step)
    except ValueError:  # NumPy refuses a point count beyond its maximum array size
        raise InputError(f"{what} '{text}' has too many points") from None


def _parse_step_grid(text):
    """'lo:hi:step' to a 1D array of points."""
    lo, hi, grid = _parse_range(text, "grid")
    if hi == lo:
        raise InputError(f"bad grid '{text}'")
    return grid


def _parse_alphas(text):
    alphas = _parse_range(text, "alphas")[2]
    with np.errstate(over="ignore"):  # rounding to 12 decimals multiplies by 1e12: keep the alphas it overflows
        rounded = np.round(alphas, 12)
    return np.where(np.isfinite(rounded), rounded, alphas)


def _out_path(args, name):
    return getattr(args, "out", None) or os.path.join(args.out_dir, name)


def _config(args):
    """NewtonConfig from the --max-iters, --gtol and --xtol a command was given."""
    given = {key: getattr(args, key, None) for key in ("max_iters", "gtol", "xtol")}
    return NewtonConfig(**{key: value for key, value in given.items() if value is not None})


def _schedule(spec, loss, t):
    """The schedule a --schedule spec names and the loss it drives: phi(f)
    when a transform is given, except that an induced schedule drives f."""
    head, _, rest = spec.partition(":")
    if head == "armijo":
        schedule = BacktrackingSchedule()
    else:
        if head not in ("const", "induced", "forwarded"):
            raise InputError(f"unknown schedule '{spec}' ({', '.join(SCHEDULES)})")
        alpha = spec_number({"stepsize": rest or "1"}, "stepsize", None)
        if head == "const":
            schedule = ConstantSchedule(alpha)
        elif t is None:
            raise InputError(f"{head} schedule needs --transform")
        elif head == "induced":
            return InducedSchedule(alpha, t), loss
        else:
            schedule = ForwardedSchedule(alpha, t, loss)
    return schedule, loss if t is None else compose(loss, t)


def _radial(spec, command):
    radial = radial_1d(spec)
    if radial is None:
        raise InputError(f"{command} needs a radial 1D loss (<name>1d), got '{spec}'")
    return radial


def cmd_run(args):
    loss = loss_from_spec(args.loss)
    schedule, driven = _schedule(args.schedule, loss, transform_from_spec(args.transform))
    trace = run_newton(driven, schedule, _parse_point(args.x0), _config(args))
    path = _out_path(args, "trace.csv")
    trace.write_csv(path)
    print(f"termination={trace.termination} iterations={trace.iterations} "
          f"final_x={','.join(map(_fmt, trace.final_x))} -> {path}")
    return 0


@np.errstate(over="ignore", invalid="ignore")
def cmd_convexify(args):
    loss = loss_from_spec(args.loss)
    if loss.dimension != 1:
        raise InputError("convexify report supports one-dimensional losses")
    grid = _parse_step_grid(args.grid).reshape(-1, 1)
    x0 = _parse_point(args.x0)
    stack = loss.evaluate_batch(grid)
    c = compact_constant(loss, x0, grid, stack)
    t = exp_convexifier(c, loss.min_value if loss.min_value is not None else 0.0)
    f, G, H, skip = stack
    x, f, G, H = grid[~skip, 0], f[~skip], G[~skip], H[~skip]
    Hs, Hc = symmetrize_batch(H), symmetrize_batch(H + c * (G[:, :, None] * G[:, None, :]))
    cols = (x, f, strict_schaible_batch(G, Hs), np.linalg.eigvalsh(Hs)[:, 0], np.linalg.eigvalsh(Hc)[:, 0])
    path = _out_path(args, "convexify_report.csv")
    write_csv(path, "x,f,r,min_eig_before,min_eig_after,c", ((*row, c) for row in zip(*cols)))
    rep = verify_convexified(loss, t, grid, stack)
    print(f"c={c:.17g} min_eig_after={rep.min_eig:.17g} passed={rep.passed} -> {path}")
    return 0 if rep.passed else NUMERICAL_ERROR


def cmd_radius(args):
    radial = _radial(args.loss, "radius")
    loss = radial_star_loss(radial)[0] if args.transformed else as_1d_loss(radial)
    basin = convergence_radius(loss, bracket_hi=args.bracket)
    convex = convexity_radius(loss, bracket_hi=args.bracket)

    lines = [
        f"loss={loss.name}",
        f"empirical_basin_radius={basin.radius:.6g}",
        f"basin_monotone={basin.monotone}",
        f"convexity_radius={convex.radius:.6g}",
    ]
    path = _out_path(args, "radius.txt")
    write_lines(path, lines)
    print("\n".join(lines))
    return 0


def cmd_starcheck(args):
    radial = _radial(args.loss, "starcheck")
    base = as_1d_loss(radial)
    loss, t = radial_star_loss(radial)
    rng = np.random.default_rng(args.seed)
    xs = rng.uniform(-2.5, 2.5, size=args.points)
    rows = []
    worst_gap = 0.0
    worst_slack = np.inf
    for x in xs:
        li = star_value(base, [x])
        closed = loss.value([x])
        tv = t.phi(base.value([x]))
        slack = min(
            (1 - lam) * loss.min_value + lam * closed - loss.value([lam * x])
            for lam in np.arange(0.1, 0.95, 0.1)
        )
        worst_gap = max(worst_gap, abs(li - closed), abs(tv - closed))
        worst_slack = min(worst_slack, slack)
        rows.append((x, li, closed, tv, slack))
    path = _out_path(args, "starcheck.csv")
    write_csv(path, "x,line_integral,closed_profile,transform_of_value,star_slack_min", rows)
    ok = worst_gap <= 1e-6 and worst_slack >= -1e-10
    print(f"max_gap={worst_gap:.3g} min_star_slack={worst_slack:.3g} passed={ok} -> {path}")
    return 0 if ok else NUMERICAL_ERROR


def cmd_scan_flip(args):
    loss = loss_from_spec(args.loss)
    t = transform_from_spec(args.transform)
    if t is None:
        raise InputError("scan-flip needs --transform")
    x_range, y_range = _parse_grid(args.grid)
    scan = scan_sign_flip(loss, t, x_range, y_range, seed=args.seed)
    path = _out_path(args, "flip.csv")
    scan.write_csv(path)
    neg = int(np.sum(scan.scaling_sign == -1))
    print(f"negative_cells={neg} cross_check_mismatches={scan.cross_check_mismatches} -> {path}")
    return 0 if scan.cross_check_mismatches == 0 else NUMERICAL_ERROR


def cmd_scan_conv(args):
    loss = loss_from_spec(args.loss)
    t = transform_from_spec(args.transform)
    x_range, y_range = _parse_grid(args.grid)
    scan = scan_convergence(loss, t, x_range, y_range, cfg=_config(args))
    path = _out_path(args, "conv.csv")
    scan.write_csv(path)
    print(f"converged_cells={int(np.sum(scan.converged))}/{scan.converged.size} -> {path}")
    return 0


def cmd_sweep_alpha(args):
    loss = loss_from_spec(args.loss)
    if args.x0 == "auto":
        if not args.loss.startswith("polytope"):
            raise InputError("--x0 auto only applies to polytope instances")
        x0 = 10.0 * np.ones(loss.dimension)
    else:
        x0 = _parse_point(args.x0)
    res = best_fixed_stepsize(loss, x0, _parse_alphas(args.alphas), _config(args))
    path = _out_path(args, "sweep.csv")
    res.write_csv(path)
    print(f"best_alpha={res.best_alpha:.17g} iterations={res.best_iterations} -> {path}")
    return 0


def cmd_recipe(args):
    result = run_recipe(args.name, args.out_dir)
    print(f"recipe {args.name}: OK {result}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="newton-transforms",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "losses: " + ", ".join(known_loss_names()) + "\n"
            "transforms: " + ", ".join(known_transform_specs()) + "\n"
            "schedules: " + ", ".join(SCHEDULES) + "\n"
            "recipes: " + ", ".join(sorted(RECIPES))
        ),
    )
    parser.add_argument("--out-dir", default=os.environ.get("NEWTON_TRANSFORMS_OUTDIR", "."),
                        help="default output directory (env NEWTON_TRANSFORMS_OUTDIR)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("run", cmd_run, help="single Newton run with trace CSV")
    p.add_argument("--loss", required=True)
    p.add_argument("--transform", default="none")
    p.add_argument("--schedule", default="const:1.0",
                   help=" | ".join(SCHEDULES) + "; with --transform, induced drives f and the others phi(f)")
    p.add_argument("--x0", required=True)
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--gtol", type=float)
    p.add_argument("--xtol", type=float)
    p.add_argument("--out")

    p = add("convexify", cmd_convexify, help="Schaible r(x) report and exponential-convexifier certificate")
    p.add_argument("--loss", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--grid", required=True, help="lo:hi:step")
    p.add_argument("--out")

    p = add("radius", cmd_radius, help="empirical basin radius and convexity radius of a 1D loss")
    p.add_argument("--loss", required=True)
    p.add_argument("--transformed", action="store_true")
    p.add_argument("--bracket", type=float, default=4.0)
    p.add_argument("--out")

    p = add("starcheck", cmd_starcheck, help="star-convexification consistency samples")
    p.add_argument("--loss", required=True)
    p.add_argument("--points", type=_count, default=50)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--out")

    p = add("scan-flip", cmd_scan_flip, help="sign of the scaling factor per grid cell")
    p.add_argument("--loss", required=True)
    p.add_argument("--transform", required=True)
    p.add_argument("--grid", default="-4:4:200x-4:4:200")
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--out")

    p = add("scan-conv", cmd_scan_conv, help="unit-step Newton convergence per grid cell")
    p.add_argument("--loss", required=True)
    p.add_argument("--transform", default="none")
    p.add_argument("--grid", default="-4:4:50x-4:4:50")
    p.add_argument("--max-iters", type=int, dest="max_iters", default=40)
    p.add_argument("--out")

    p = add("sweep-alpha", cmd_sweep_alpha, help="best fixed stepsize over an alpha grid")
    p.add_argument("--loss", required=True)
    p.add_argument("--x0", default="auto")
    p.add_argument("--alphas", default="0.1:4.5:0.05")
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--out")

    p = add("recipe", cmd_recipe, help="reproduce a named experiment")
    p.add_argument("name", choices=sorted(RECIPES))

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.fn(args)
    except (InputError, DomainError, CapabilityError, SingularScalingError) as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RecipeError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
