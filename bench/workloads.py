"""The benchmark's three workloads, as lists of operations built from a seed.

An operation is one top-level public call into the package. Each carries
three pure functions of its result:

* ``summarize`` -- the figures recorded as the reference for a shipped seed;
* ``invariant`` -- a check that holds for every seed (``None`` when it holds);
* ``csv`` -- the path of a CSV the call wrote through ``write_csv``, if any.

Why each workload exists:

* ``grid_scans``: per-cell Python loops -- about 700 short Newton runs
  (convergence scans at d = 2, stepsize sweeps at d = 10) and 3600 sign-flip
  cells of one evaluation and one pseudoinverse each. The loop in
  scans -> newton -> losses/transforms/linalg dominates; quadrature never
  runs.
* ``star_certificates``: basin and convexity radii of the star-transformed
  radial losses, induced-schedule runs through ``star:cauchy`` and the
  convexification certificates. Adaptive Simpson on every star-loss
  evaluation dominates; no scan runs.
* ``trajectories``: serial runs whose schedule depends on the transform
  (equivalence runs over the Table-1 zoo, Armijo backtracking, induced
  schedules, the LM residual). Per-iteration overhead dominates; nothing can
  be batched and no quadrature runs.

Seed 0 reproduces the recipe inputs (at reduced sizes); any other seed
shifts grids by a sub-cell offset, moves start points and radial centres and
changes the polytope instance, so that invariant checks see fresh inputs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from newton_transforms import convexify, losses, newton, scans, starconvex, transforms

#: Sizes of the fixed work set. "full" is what the benchmark measures; "tiny"
#: is for the benchmark's own smoke tests.
SIZES = {
    "full": dict(conv_n=10, flip_n=30, alpha_step=0.2, radial_names=("geman_mcclure", "welsh", "cauchy"),
                 induced_starts=4, cert_step=2e-3, starts_per_loss=5, lm_points=4),
    "tiny": dict(conv_n=3, flip_n=5, alpha_step=1.0, radial_names=("geman_mcclure",),
                 induced_starts=1, cert_step=0.1, starts_per_loss=1, lm_points=1),
}

#: Radii of the star-transformed radial losses at centre 0 (convergence basin,
#: convexity neighbourhood). They do not depend on the centre.
STAR_RADII = {
    "geman_mcclure": (0.5076582099843556, 1.0),
    "welsh": (0.6459987823510731, 1.0),
    "cauchy": (0.8172149223523142, math.inf),
}
RADIUS_TOL = 1e-6
EQUIVALENCE_TOL = 1e-8
#: Scalings at or below this disqualify an equivalence run, as in
#: ``EquivalenceResult.qualified``.
QUALIFIED_SCALING = 1e-6
#: Relative start perturbation whose effect bounds rounding-level deviations.
SHADOW_STEP = 1e-12
#: Largest deviation the shadow run can excuse; above it a run fails outright.
ROUNDING_CAP = 1e-6
#: Cells of each convergence scan re-run one by one with plain ``run_newton``.
RECHECKED_CELLS = 4

EQUIVALENCE_STARTS = {"rosenbrock": (-1.2, 1.0), "beale": (1.0, 1.2), "goldstein_price": (0.1, -0.9)}
EQUIVALENCE_PARAMS = {
    "linear": dict(a=2.0, b=1.0),
    "polynomial": dict(r=2.0),
    "exponential": dict(a=0.02),
    "logarithmic": dict(a=1.0),
    "sigmoid": {},
}
EQUIVALENCE_ALPHAS = (0.25, 0.5, 1.0)
TERMINATIONS = {newton.CONVERGED, newton.DIVERGED, newton.MAX_ITERS, newton.SINGULAR_SCALING, newton.DOMAIN_ERROR}


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    summarize: Callable[[object], dict]
    invariant: Callable[[object], Optional[str]] = lambda result: None
    #: Relative tolerance for float fields when comparing with the reference.
    rtol: float = 0.0
    csv: Optional[str] = None


def _rng(seed, salt):
    return np.random.default_rng([seed, salt])


def compare(summary, ref, rtol):
    """Differences between a summary and its reference, as messages."""
    out = []
    for key, want in ref.items():
        got = summary.get(key)
        if isinstance(want, float) or isinstance(got, float):
            if got is None or want is None:
                ok = got == want
            else:
                g, w = float(got), float(want)
                ok = g == w or abs(g - w) <= rtol * max(1.0, abs(w))
        else:
            ok = got == want
        if not ok:
            out.append(f"{key}: got {got!r}, reference {want!r}")
    return out


def _finite_float(v):
    v = float(v)
    return v if math.isfinite(v) else repr(v)


def _trace_deviation(xs_a, xs_b):
    """Worst normalized iterate gap over the common finite prefix."""
    dev = 0.0
    for xa, xb in zip(xs_a, xs_b):
        if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(xb))):
            break
        dev = max(dev, float(np.linalg.norm(xa - xb) / (1.0 + np.linalg.norm(xa))))
    return dev


def _within_rounding(dev, xs, rerun):
    """None when two runs that should coincide deviate by at most
    EQUIVALENCE_TOL, or by at most ROUNDING_CAP and no more than the reference
    run moves when its start moves by SHADOW_STEP (relative): some
    Goldstein-Price runs amplify a rounding-sized difference a billionfold
    within 12 iterations, so EQUIVALENCE_TOL alone would flag rounding as a
    failed equivalence."""
    if dev <= EQUIVALENCE_TOL:
        return None
    if dev > ROUNDING_CAP:
        return f"qualified run deviates by {dev}, more than {ROUNDING_CAP:g}"
    shadow = _trace_deviation(xs, rerun(xs[0] * (1.0 + SHADOW_STEP)).xs)
    if dev <= shadow:
        return None
    return f"qualified run deviates by {dev}, a start moved by {SHADOW_STEP:g} only by {shadow}"


# ----------------------------------------------------------------------------
# grid_scans
# ----------------------------------------------------------------------------

def grid_scans(seed, size, out_dir):
    sz = SIZES[size]
    rng = _rng(seed, 1)
    ops = []
    conv_cfg = newton.NewtonConfig(max_iters=40)

    def axes(n):
        h = 8.0 / (n - 1)
        dx, dy = (0.0, 0.0) if seed == 0 else rng.uniform(-0.5, 0.5, 2) * h
        return (-4.0 + dx, 4.0 + dx, n), (-4.0 + dy, 4.0 + dy, n)

    def scan_op(name, fn, path, summarize, invariant):
        def call():
            res = fn()
            res.write_csv(path)
            return res
        return Op(name, call, summarize, invariant, csv=path)

    def convergence_check(loss, t, cells):
        """Re-run the given cells with plain run_newton, as scan_convergence
        defines them, and compare converged flag, iteration count and error."""
        cell_cfg = newton.NewtonConfig(max_iters=conv_cfg.max_iters, gtol=1e-300, xtol=1e-6)
        xstar = np.asarray(loss.minimizer, dtype=float)

        def check(s):
            if np.any(s.converged & s.error):
                return "cell both converged and errored"
            for ix, iy in cells:
                tr = newton.run_newton(transforms.compose(loss, t), newton.ConstantSchedule(1.0),
                                       [s.xs[ix], s.ys[iy]], cell_cfg)
                converged = any(np.linalg.norm(x - xstar) <= 1e-6 for x in tr.xs if np.all(np.isfinite(x)))
                want = (converged, tr.iterations, tr.termination == newton.DOMAIN_ERROR)
                got = (bool(s.converged[ix, iy]), int(s.iterations[ix, iy]), bool(s.error[ix, iy]))
                if got != want:
                    return f"cell {(ix, iy)}: (converged, iterations, error) {got}, a single run gives {want}"
            return None
        return check

    conv_x, conv_y = axes(sz["conv_n"])
    cell_rng = _rng(seed, 4)
    for lname in ("beale", "goldstein_price"):
        loss = losses.make_benchmark(lname)
        for r in (0.5, 1.0, 2.0):
            t = transforms.make_table1("polynomial", r=r)
            path = os.path.join(out_dir, f"conv_{lname}_r{r:g}.csv")
            cells = cell_rng.integers(0, sz["conv_n"], (RECHECKED_CELLS, 2))
            ops.append(scan_op(
                f"conv/{lname}/r={r:g}",
                lambda loss=loss, t=t: scans.scan_convergence(loss, t, conv_x, conv_y, cfg=conv_cfg),
                path,
                lambda s: {"converged": int(np.sum(s.converged)), "error": int(np.sum(s.error))},
                convergence_check(loss, t, cells),
            ))

    flip_x, flip_y = axes(sz["flip_n"])
    for tname, t in (("poly0.25", transforms.make_table1("polynomial", r=0.25)),
                     ("log1", transforms.make_table1("logarithmic", a=1.0))):
        for lname in ("beale", "goldstein_price"):
            loss = losses.make_benchmark(lname)
            path = os.path.join(out_dir, f"flip_{tname}_{lname}.csv")
            ops.append(scan_op(
                f"flip/{tname}/{lname}",
                lambda loss=loss, t=t: scans.scan_sign_flip(loss, t, flip_x, flip_y, seed=seed),
                path,
                lambda s: {"negative": int(np.sum(s.scaling_sign == -1)), "cross_checked": s.cross_check_cells},
                lambda s: None if s.cross_check_mismatches == 0 else f"{s.cross_check_mismatches} sign cross-check mismatches",
            ))

    alphas = np.round(np.arange(sz["alpha_step"], 4.50001, sz["alpha_step"]), 10)
    # The fastest stepsizes converge in under 10 iterations; a 25-iteration cap
    # keeps the slow and divergent ones, whose share varies with the instance,
    # from dominating the sweep.
    sweep_cfg = newton.NewtonConfig(max_iters=25)

    def sweep_check(loss, x0):
        """Re-run the best stepsize and its neighbours with plain run_newton:
        each row must match, and no neighbour may rank above the best."""
        def check(s):
            if len(s.rows) != len(alphas) or s.best_alpha not in alphas:
                return "malformed sweep"
            i = int(np.flatnonzero(alphas == s.best_alpha)[0])
            keys = {}
            for j in range(max(i - 1, 0), min(i + 2, len(alphas))):
                tr = newton.run_newton(loss, newton.ConstantSchedule(alphas[j]), x0, sweep_cfg)
                ok = tr.termination == newton.CONVERGED
                _, iterations, _, converged = s.rows[j]
                if (iterations, converged) != (tr.iterations, ok):
                    return f"alpha {alphas[j]}: (iterations, converged) {(iterations, converged)}, " \
                           f"a single run gives {(tr.iterations, ok)}"
                keys[j] = (not ok, tr.iterations if ok else math.inf)
            if s.best_iterations != s.rows[i][1] or min(keys.values()) < keys[i]:
                return f"best alpha {s.best_alpha} is not the fastest of its neighbours"
            return None
        return check

    for p in (2, 3, 4, 5):
        loss, x0 = losses.make_polytope_instance(p, seed=1 + seed)
        path = os.path.join(out_dir, f"sweep_p{p}.csv")
        ops.append(scan_op(
            f"sweep/p={p}",
            lambda loss=loss, x0=x0: scans.best_fixed_stepsize(loss, x0, alphas, cfg=sweep_cfg),
            path,
            lambda s: {"best_alpha": s.best_alpha, "best_iterations": s.best_iterations},
            sweep_check(loss, x0),
        ))
    return ops


# ----------------------------------------------------------------------------
# star_certificates
# ----------------------------------------------------------------------------

def _cauchy_bound(y):
    """h(f) >= -f''/f'^2 for ln(1+x^2), written in value space: with
    x^2 = e^f - 1 the 1D coefficient is 1/2 - 1/(2 x^2) beyond |x| = 1."""
    x_sq = math.expm1(y)
    return 0.0 if x_sq <= 1.0 else 0.5 - 0.5 / x_sq


def star_certificates(seed, size, out_dir):
    sz = SIZES[size]
    rng = _rng(seed, 2)
    ops = []
    # 30 iterations decide every start the bisection probes: the radii agree
    # with those of the recipe's 100-iteration runs to 1e-13.
    basin_cfg = newton.NewtonConfig(max_iters=30)

    for name in sz["radial_names"]:
        centre = 0.0 if seed == 0 else float(rng.uniform(-2.0, 2.0))
        star_loss, _ = starconvex.radial_star_loss(losses.make_radial(name, center=centre))
        basin_ref, convex_ref = STAR_RADII[name]

        def radius_check(want):
            def check(res):
                r = res.radius
                ok = r == want or abs(r - want) <= RADIUS_TOL
                return None if ok else f"radius {r!r} differs from {want!r} by more than {RADIUS_TOL}"
            return check

        ops.append(Op(f"convexity_radius/{name}",
                         lambda loss=star_loss: starconvex.convexity_radius(loss, bracket_hi=4.0),
                         lambda res: {"radius": _finite_float(res.radius)}, radius_check(convex_ref), rtol=1e-12))
        ops.append(Op(f"convergence_radius/{name}",
                         lambda loss=star_loss: starconvex.convergence_radius(
                             loss, bracket_hi=4.0, cfg=basin_cfg, verify_monotone=False),
                         lambda res: {"radius": _finite_float(res.radius)}, radius_check(basin_ref), rtol=1e-12))

    # Induced schedule on ln(1+x^2) through star:cauchy reproduces the unit-step
    # run on the star-transformed loss (the fig1 experiment).
    centre = 0.0 if seed == 0 else float(rng.uniform(-2.0, 2.0))
    radial = losses.make_radial("cauchy", center=centre)
    base = losses.as_1d_loss(radial)
    star_loss, _ = starconvex.radial_star_loss(radial)
    star_t = transforms.transform_from_spec("star:cauchy")
    cfg = newton.NewtonConfig(max_iters=100)
    offsets = [0.8] if seed == 0 else []
    while len(offsets) < sz["induced_starts"]:
        offsets.append(float(rng.uniform(0.1, 0.8)) * (1.0 if rng.uniform() < 0.5 else -1.0))
    for i, u in enumerate(offsets):
        x0 = [centre + u]
        runs = {}

        def star_run(x0=x0, runs=runs):
            runs["star"] = newton.run_newton(star_loss, newton.ConstantSchedule(1.0), x0, cfg)
            return runs["star"]

        def induced_run(x0=x0, runs=runs):
            return newton.run_newton(base, newton.InducedSchedule(1.0, star_t), x0, cfg)

        def induced_check(tr, runs=runs):
            if tr.termination != newton.CONVERGED:
                return f"induced run ended {tr.termination}"
            dev = _trace_deviation(runs["star"].xs, tr.xs)
            return None if dev <= EQUIVALENCE_TOL else f"induced run deviates from star-loss run by {dev}"

        trace_summary = lambda tr: {"termination": tr.termination, "iterations": tr.iterations,
                                    "final_x": float(tr.final_x[0])}
        ops.append(Op(f"star_run/{i}", star_run, trace_summary,
                         lambda tr: None if tr.termination == newton.CONVERGED else f"star run ended {tr.termination}",
                         rtol=1e-12))
        ops.append(Op(f"induced_run/{i}", induced_run, trace_summary, induced_check, rtol=1e-12))

    # Convexification certificates for ln(1+x^2) on a shifted grid over [-2, 2].
    cauchy = losses.as_1d_loss(losses.make_radial("cauchy"))
    step = sz["cert_step"]
    shift = 0.0 if seed == 0 else float(rng.uniform(-0.5, 0.5)) * step
    grid = (np.arange(-2.0, 2.0 + 1e-9, step) + shift).reshape(-1, 1)
    state = {}

    def compact():
        state["c"] = convexify.compact_constant(cauchy, [2.0], grid)
        return state["c"]

    def certificate_check(rep):
        return None if rep.passed else f"convexified min eigenvalue {rep.min_eig} below {rep.threshold}"

    report_summary = lambda rep: {"min_eig": float(rep.min_eig), "evaluated": rep.n_evaluated}
    ops.append(Op("compact_constant", compact, lambda c: {"c": float(c)},
                     lambda c: None if c >= 0.0 and math.isfinite(c) else f"bad constant {c}", rtol=1e-12))
    ops.append(Op("verify_exp_convexifier",
                     lambda: convexify.verify_convexified(cauchy, convexify.exp_convexifier(state["c"], 0.0), grid),
                     report_summary, certificate_check, rtol=1e-9))

    y_max = math.log1p(2.5 ** 2)

    def nested():
        state["nested"] = convexify.nested_bound_convexifier(_cauchy_bound, 0.0, y_max)
        return state["nested"]

    ops.append(Op("nested_bound_convexifier", nested,
                     lambda t: {"phi_at_1": float(t.phi(1.0))},
                     lambda t: None if abs(t.phi_prime(0.0) - 1.0) <= 1e-12 else "phi'(f*) != 1", rtol=1e-9))
    ops.append(Op("verify_nested_convexifier",
                     lambda: convexify.verify_convexified(cauchy, state["nested"], grid),
                     report_summary, certificate_check, rtol=1e-9))
    return ops


# ----------------------------------------------------------------------------
# trajectories
# ----------------------------------------------------------------------------

def _starts(seed, rng, k):
    """k start points per benchmark loss; seed 0 leads with the recipe start."""
    out = {}
    for lname, base in EQUIVALENCE_STARTS.items():
        pts = [np.array(base)] if seed == 0 else []
        while len(pts) < k:
            pts.append(np.array(base) + rng.uniform(-0.05, 0.05, 2))
        out[lname] = pts
    return out


def trajectories(seed, size, out_dir):
    sz = SIZES[size]
    rng = _rng(seed, 3)
    ops = []
    cfg = newton.NewtonConfig(max_iters=12)
    starts = _starts(seed, rng, sz["starts_per_loss"])
    zoo = {tname: transforms.make_table1(tname, **params) for tname, params in EQUIVALENCE_PARAMS.items()}
    bench = {lname: losses.make_benchmark(lname) for lname in EQUIVALENCE_STARTS}

    def equivalence_check(loss, alpha, x0):
        def check(res):
            if not res.qualified:
                return None
            return _within_rounding(res.max_deviation, res.trace_f.xs, lambda x: newton.run_newton(
                loss, newton.ConstantSchedule(alpha), x, cfg))
        return check

    for tname, t in zoo.items():
        for lname, loss in bench.items():
            for j, x0 in enumerate(starts[lname]):
                for alpha in EQUIVALENCE_ALPHAS:
                    ops.append(Op(
                        f"equivalence/{tname}/{lname}/{j}/{alpha}",
                        lambda loss=loss, t=t, alpha=alpha, x0=x0: newton.run_equivalence(
                            loss, t, newton.ConstantSchedule(alpha), x0, cfg),
                        lambda res: {"n_common": res.n_common, "qualified": bool(res.qualified),
                                     "max_deviation": res.max_deviation},
                        equivalence_check(loss, alpha, x0), rtol=1e-8,
                    ))

    # Induced schedules: driving f with alpha / scaling reproduces the
    # constant-step run on phi(f).
    for tname, t in zoo.items():
        for lname, loss in bench.items():
            for j, x0 in enumerate(starts[lname]):
                runs = {}

                def composed_run(loss=loss, t=t, x0=x0, runs=runs):
                    runs["L"] = newton.run_newton(transforms.compose(loss, t), newton.ConstantSchedule(0.5), x0, cfg)
                    return runs["L"]

                def induced_check(tr, loss=loss, t=t, runs=runs):
                    if tr.termination == newton.SINGULAR_SCALING or tr.min_abs_scaling <= QUALIFIED_SCALING:
                        return None
                    return _within_rounding(_trace_deviation(runs["L"].xs, tr.xs), runs["L"].xs, lambda x: newton.run_newton(
                        transforms.compose(loss, t), newton.ConstantSchedule(0.5), x, cfg))

                trace_summary = lambda tr: {"termination": tr.termination, "iterations": tr.iterations,
                                            "final_value": _finite_float(tr.values[-1])}
                ops.append(Op(f"composed/{tname}/{lname}/{j}", composed_run, trace_summary, rtol=1e-8))
                ops.append(Op(
                    f"induced/{tname}/{lname}/{j}",
                    lambda loss=loss, t=t, x0=x0: newton.run_newton(loss, newton.InducedSchedule(0.5, t), x0, cfg),
                    trace_summary, induced_check, rtol=1e-8,
                ))

    # With the default 60 backtracks about one perturbed Goldstein-Price start
    # in four stalls: each iteration backtracks to a step near 1e-18 and the
    # run ends at the iteration cap, at fifty times the cost of a converging
    # run. Capped at 20 backtracks those runs converge, so a seed's work does
    # not hinge on whether it drew such a start.
    armijo_cfg = newton.NewtonConfig(max_iters=30)
    for lname, loss in bench.items():
        for j, x0 in enumerate(starts[lname]):
            ops.append(Op(
                f"armijo/{lname}/{j}",
                lambda loss=loss, x0=x0: newton.run_newton(loss, newton.BacktrackingSchedule(max_backtracks=20), x0,
                                                          armijo_cfg),
                lambda tr: {"termination": tr.termination, "iterations": tr.iterations,
                            "final_value": _finite_float(tr.values[-1])},
                lambda tr: None if tr.termination in TERMINATIONS and all(np.isfinite(tr.values[:-1]))
                else f"run ended {tr.termination} with a non-finite value before its last row",
                rtol=1e-8,
            ))

    rosen = bench["rosenbrock"]
    exp1 = transforms.make_table1("exponential", a=1.0)
    points = [np.array([-0.5, 0.5])] if seed == 0 else []
    while len(points) < sz["lm_points"]:
        points.append(np.array([-0.5, 0.5]) + rng.uniform(-0.05, 0.05, 2))
    for j, x in enumerate(points):
        ops.append(Op(
            f"lm_residual/{j}",
            lambda x=x: newton.lm_invariance_residual(rosen, exp1, x, 0.1),
            lambda r: {"residual": float(r)},
            lambda r: None if r > 1e-6 else f"LM residual {r} not above 1e-6",
            rtol=1e-8,
        ))
    return ops


WORKLOADS = {"grid_scans": grid_scans, "star_certificates": star_certificates, "trajectories": trajectories}


def build(name, seed, size, out_dir):
    """The workload's operations, with every fixture it needs built."""
    return WORKLOADS[name](seed, size, out_dir)
