"""Named experiment recipes: each writes deterministic CSV files and raises
RecipeError when a reproduction assertion fails.

fig1            divergence / surrogate / induced-schedule traces on ln(1+x^2)
fig2, fig5      sign-flip region maps (polynomial resp. logarithmic transform)
fig3            convergence-region maps under polynomial transformations
table1_check    transform-zoo equivalence deviations
table3          convergence-neighborhood radii (convexity + empirical basin)
polytope_sweep  best fixed stepsizes on the seeded feasibility instance
lemma3_demo     Levenberg-Marquardt non-invariance residual
"""

from __future__ import annotations

import os

import numpy as np

from .convexify import compact_constant, exp_convexifier, verify_convexified
from .losses import RADIAL, as_1d_loss, make_benchmark, make_polytope_instance, make_radial
from .newton import (
    CONVERGED,
    DIVERGED,
    ConstantSchedule,
    InducedSchedule,
    NewtonConfig,
    lm_invariance_residual,
    lm_step,
    run_equivalence,
    run_newton,
)
from .scans import best_fixed_stepsize, scan_convergence, scan_sign_flip
from .starconvex import convergence_radius, convexity_radius, radial_star_loss
from .transforms import compose, make_table1

EQUIVALENCE_STARTS = {
    "rosenbrock": (-1.2, 1.0),
    "beale": (1.0, 1.2),
    "goldstein_price": (0.1, -0.9),
}

EQUIVALENCE_PARAMS = {
    "linear": dict(a=2.0, b=1.0),
    "polynomial": dict(r=2.0),
    "exponential": dict(a=0.02),
    "logarithmic": dict(a=1.0),
    "sigmoid": {},
}


class RecipeError(RuntimeError):
    """A reproduction assertion failed (CLI exit code 3)."""


def _require(cond, message):
    if not cond:
        raise RecipeError(message)


def _path(out_dir, name):
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def write_lines(path, lines):
    with open(path, "w", newline="") as fh:
        for line in lines:
            fh.write(line + "\n")


def recipe_fig1(out_dir):
    """Unit Newton diverges on ln(1+x^2) from 0.8; on 2x arctan x it
    converges; the induced schedule transfers that run back to the base."""
    radial = make_radial("cauchy")
    base = as_1d_loss(radial)
    star_loss, star_t = radial_star_loss(radial)
    cfg = NewtonConfig(max_iters=100)

    tr_f = run_newton(base, ConstantSchedule(1.0), [0.8], cfg)
    tr_L = run_newton(star_loss, ConstantSchedule(1.0), [0.8], cfg)
    tr_ind = run_newton(base, InducedSchedule(1.0, star_t), [0.8], cfg)

    tr_f.write_csv(_path(out_dir, "trace_f_diverges.csv"))
    tr_L.write_csv(_path(out_dir, "trace_L.csv"))
    tr_ind.write_csv(_path(out_dir, "trace_induced.csv"))

    _require(tr_f.termination == DIVERGED, f"base run should diverge, got {tr_f.termination}")
    _require(abs(tr_f.xs[1][0] + 2.844444444444444) <= 1e-3, f"first step {tr_f.xs[1][0]} != -2.844")
    _require(tr_L.termination == CONVERGED and abs(tr_L.final_x[0]) <= 1e-8, "surrogate run did not converge")
    _require(tr_ind.termination == CONVERGED, "induced-schedule run did not converge")
    n = min(len(tr_L.xs), len(tr_ind.xs))
    dev = max(abs(tr_L.xs[k][0] - tr_ind.xs[k][0]) / (1 + abs(tr_L.xs[k][0])) for k in range(n))
    _require(dev <= 1e-8, f"induced trace deviates from surrogate trace by {dev}")
    write_lines(_path(out_dir, "fig1_summary.txt"), [
        f"base_termination={tr_f.termination}",
        f"first_step={tr_f.xs[1][0]:.17g}",
        f"surrogate_final={tr_L.final_x[0]:.17g}",
        f"induced_vs_surrogate_max_deviation={dev:.17g}",
    ])
    return {"max_deviation": dev}


def _flip_recipe(out_dir, transform, stem, n=200):
    results = {}
    for lname in ("beale", "goldstein_price"):
        loss = make_benchmark(lname)
        scan = scan_sign_flip(loss, transform, (-4, 4, n), (-4, 4, n), seed=0)
        scan.write_csv(_path(out_dir, f"{stem}_{lname}.csv"))
        neg = int(np.sum(scan.scaling_sign == -1))
        _require(neg > 0, f"{stem} on {lname}: no negative-scaling cells found")
        _require(scan.cross_check_mismatches == 0,
                 f"{stem} on {lname}: {scan.cross_check_mismatches} sign cross-check mismatches")
        results[lname] = neg
    return results


def recipe_fig2(out_dir, n=200):
    return _flip_recipe(out_dir, make_table1("polynomial", r=0.25), "flip_poly_r0.25", n=n)


def recipe_fig5(out_dir, n=200):
    return _flip_recipe(out_dir, make_table1("logarithmic", a=1.0), "flip_log_a1", n=n)


def recipe_fig3(out_dir, n=50):
    """Convergence regions of unit-step Newton under f^r for r in {0.5, 1, 2}."""
    cfg = NewtonConfig(max_iters=40)
    counts = {}
    for lname in ("beale", "goldstein_price"):
        loss = make_benchmark(lname)
        per_r = {}
        for r in (0.5, 1.0, 2.0):
            scan = scan_convergence(loss, make_table1("polynomial", r=r), (-4, 4, n), (-4, 4, n), cfg=cfg)
            scan.write_csv(_path(out_dir, f"conv_{lname}_r{r:g}.csv"))
            per_r[r] = int(np.sum(scan.converged))
        _require(len(set(per_r.values())) > 1,
                 f"fig3 on {lname}: converged-cell counts identical across r: {per_r}")
        counts[lname] = per_r
    write_lines(_path(out_dir, "fig3_summary.txt"),
                [f"{lname} r={r:g} converged_cells={c}" for lname, per in counts.items() for r, c in per.items()])
    return counts


def recipe_table1_check(out_dir):
    """Per-transform equivalence deviations over the benchmark runs."""
    cfg = NewtonConfig(max_iters=12)
    rows = ["transform,loss,alpha,n_common,max_deviation,qualified"]
    worst = 0.0
    for tname, params in EQUIVALENCE_PARAMS.items():
        for lname, x0 in EQUIVALENCE_STARTS.items():
            for alpha in (0.25, 0.5, 1.0):
                res = run_equivalence(make_benchmark(lname), make_table1(tname, **params),
                                      ConstantSchedule(alpha), x0, cfg)
                rows.append(f"{tname},{lname},{alpha},{res.n_common},{res.max_deviation:.17g},{int(res.qualified)}")
                if res.qualified:
                    worst = max(worst, res.max_deviation)
                    _require(res.max_deviation <= 1e-8,
                             f"{tname} on {lname} (alpha={alpha}) deviates by {res.max_deviation}")
    write_lines(_path(out_dir, "table1_check.csv"), rows)
    return {"worst_deviation": worst}


def recipe_table3(out_dir):
    """Six radii: convexity radii reproduce the reported table (1/sqrt3,
    1/sqrt2, 1; 1, 1, inf); the empirical unit-step Newton basins are also
    reported (they are strictly smaller wherever the profile leaves its
    convexity neighborhood; see the package README)."""
    reported = {
        ("geman_mcclure", "original"): 1 / np.sqrt(3),
        ("welsh", "original"): 1 / np.sqrt(2),
        ("cauchy", "original"): 1.0,
        ("geman_mcclure", "transformed"): 1.0,
        ("welsh", "transformed"): 1.0,
        ("cauchy", "transformed"): np.inf,
    }
    rows = ["loss,variant,convexity_radius,empirical_basin_radius,basin_monotone"]
    out = {}
    for name in RADIAL:
        radial = make_radial(name)
        for variant, loss in (("original", as_1d_loss(radial)), ("transformed", radial_star_loss(radial)[0])):
            conv = convexity_radius(loss, bracket_hi=4.0)
            basin = convergence_radius(loss, bracket_hi=4.0)
            rows.append(f"{name},{variant},{conv.radius:.17g},{basin.radius:.17g},{int(basin.monotone)}")
            want = reported[(name, variant)]
            if np.isinf(want):
                _require(np.isinf(conv.radius), f"{name} {variant}: convexity radius {conv.radius}, expected inf")
            else:
                _require(abs(conv.radius - want) <= 1e-3,
                         f"{name} {variant}: convexity radius {conv.radius} vs reported {want}")
            out[(name, variant)] = (conv.radius, basin.radius)
    write_lines(_path(out_dir, "table3_radii.csv"), rows)
    return out


def recipe_polytope_sweep(out_dir):
    """Best fixed stepsizes on the seeded feasibility instance, p = 2..5."""
    alphas = np.round(np.arange(0.1, 4.50001, 0.05), 10)
    rows = ["p,best_alpha,iterations"]
    stars = []
    for p in (2, 3, 4, 5):
        loss, x0 = make_polytope_instance(p, seed=1)
        res = best_fixed_stepsize(loss, x0, alphas)
        res.write_csv(_path(out_dir, f"sweep_p{p}.csv"))
        rows.append(f"{p},{res.best_alpha:.17g},{res.best_iterations}")
        _require(p - 1 - 0.15 <= res.best_alpha <= p - 1 + 0.1,
                 f"p={p}: best alpha {res.best_alpha} outside [{p - 1 - 0.15}, {p - 1 + 0.1}]")
        stars.append(res.best_alpha)
    _require(all(a <= b for a, b in zip(stars, stars[1:])), f"best alphas not non-decreasing: {stars}")
    write_lines(_path(out_dir, "polytope_sweep.csv"), rows)
    return dict(zip((2, 3, 4, 5), stars))


def recipe_lemma3_demo(out_dir):
    """No scalar LM schedule on exp(f) reproduces the regularized step on
    Rosenbrock at (-0.5, 0.5): the best residual stays above 1e-6."""
    loss = make_benchmark("rosenbrock")
    t = make_table1("exponential", a=1.0)
    x = np.array([-0.5, 0.5])
    lam = 0.1
    residual = lm_invariance_residual(loss, t, x, lam)

    # dense-scan oracle over the same lambda range
    L = compose(loss, t)
    target = lm_step(loss, x, lam)
    _, gL, HL = L.evaluate(x)
    eye = np.eye(2)

    def res_at(lphi):
        try:
            return float(np.linalg.norm(np.linalg.solve(HL + lphi * eye, gL) - target))
        except np.linalg.LinAlgError:
            return np.inf

    grid = np.concatenate([-np.logspace(-8, 6, 4001)[::-1], [0.0], np.logspace(-8, 6, 4001)])
    vals = [res_at(l) for l in grid]
    i = int(np.argmin(vals))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if res_at(m1) < res_at(m2):
            hi = m2
        else:
            lo = m1
        if hi - lo < 1e-12:
            break
    oracle = res_at(0.5 * (lo + hi))

    _require(residual > 1e-6, f"LM residual {residual} unexpectedly small")
    _require(abs(residual - oracle) <= 1e-8, f"golden-section {residual} vs dense oracle {oracle}")
    write_lines(_path(out_dir, "lemma3_demo.txt"), [
        f"residual={residual:.17g}",
        f"dense_scan_oracle={oracle:.17g}",
        f"lambda={lam}",
    ])
    return {"residual": residual, "oracle": oracle}


def recipe_convexify_cauchy(out_dir):
    """Compact-set convexification certificate for ln(1+x^2) on [-2, 2]."""
    loss = as_1d_loss(make_radial("cauchy"))
    grid = np.arange(-2.0, 2.0 + 1e-9, 1e-3).reshape(-1, 1)
    c = compact_constant(loss, [2.0], grid)
    rep = verify_convexified(loss, exp_convexifier(c, 0.0), grid)
    _require(rep.min_eig >= -1e-8, f"convexified min eigenvalue {rep.min_eig} below tolerance")
    write_lines(_path(out_dir, "convexify_cauchy.txt"), [
        f"c={c:.17g}",
        f"min_eig={rep.min_eig:.17g}",
        f"threshold={rep.threshold:.17g}",
    ])
    return {"c": c, "min_eig": rep.min_eig}


RECIPES = {
    "fig1": recipe_fig1,
    "fig2": recipe_fig2,
    "fig3": recipe_fig3,
    "fig5": recipe_fig5,
    "table1_check": recipe_table1_check,
    "table3": recipe_table3,
    "polytope_sweep": recipe_polytope_sweep,
    "lemma3_demo": recipe_lemma3_demo,
    "convexify_cauchy": recipe_convexify_cauchy,
}


def run_recipe(name, out_dir):
    try:
        fn = RECIPES[name]
    except KeyError:
        raise RecipeError(f"unknown recipe '{name}'; choose from {sorted(RECIPES)}") from None
    return fn(out_dir)
