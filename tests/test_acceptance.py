"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 asserts the radii reported in the source table against actual
unit-stepsize Newton runs. Those reported values are the convexity radii of
the loss profiles, not basins of attraction of the Newton map (the text and
its own table disagree: ln(1+x^2) is stated to diverge for |x0| >= 1/sqrt(3)
while the table claims radius 1). Bisection on real runs therefore cannot
return them, and that test is a strict expected failure; the companion test
reproduces all six table values via the convexity-radius semantics, and
tests/test_starconvex.py pins the true empirical basins.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from checks import check_loss, check_transform
from newton_transforms.convexify import compact_constant, exp_convexifier, verify_convexified
from newton_transforms.linalg import dual_norm_sq, pinv_solve, symmetrize
from newton_transforms.losses import (
    as_1d_loss,
    make_benchmark,
    make_counterexample,
    make_polynorm,
    make_polytope,
    make_polytope_instance,
    make_radial,
)
from newton_transforms.newton import (
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
from newton_transforms.quadrature import adaptive_simpson
from newton_transforms.recipes import EQUIVALENCE_PARAMS, EQUIVALENCE_STARTS
from newton_transforms.scans import best_fixed_stepsize
from newton_transforms.starconvex import (
    convergence_radius,
    convexity_radius,
    make_star_transform,
    radial_star_loss,
    star_value,
)
from newton_transforms.transforms import compose, linear, make_table1, scaling_factor

RADIALS = ("geman_mcclure", "welsh", "cauchy")


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({elapsed:.2f}s, budget {budget_seconds:g}s)")
    assert elapsed < budget_seconds, f"runtime {elapsed:.2f}s over budget {budget_seconds}s"


def spd(rng, d):
    M = rng.standard_normal((d, d))
    return M @ M.T + d * np.eye(d)


def test_criterion_1_one_step_polynomial():
    with criterion(1, "one-step polynomial convergence", 1.0):
        rng = np.random.default_rng(2024)
        for p in (2, 3, 4, 5):
            for _ in range(3):
                d = int(rng.integers(2, 6))
                loss = make_polynorm(spd(rng, d), p)
                x0 = rng.standard_normal(d)
                tr = run_newton(loss, ConstantSchedule(p - 1.0), x0)
                assert tr.termination == CONVERGED
                assert tr.iterations == 1
                assert np.linalg.norm(tr.final_x) <= 1e-10
        # alpha = 1, p = 4: one step contracts by exactly 2/3
        loss = make_polynorm(spd(rng, 4), 4)
        x0 = rng.standard_normal(4)
        tr = run_newton(loss, ConstantSchedule(1.0), x0, NewtonConfig(max_iters=1))
        np.testing.assert_allclose(tr.xs[1], (2.0 / 3.0) * x0, rtol=1e-10)


def test_criterion_2_equivalence_suite():
    with criterion(2, "transformation-equivalence suite", 10.0):
        cfg = NewtonConfig(max_iters=12)
        qualified = 0
        for lname, x0 in EQUIVALENCE_STARTS.items():
            loss = make_benchmark(lname)
            for tname, params in EQUIVALENCE_PARAMS.items():
                for alpha in (0.25, 0.5, 1.0):
                    res = run_equivalence(loss, make_table1(tname, **params),
                                          ConstantSchedule(alpha), x0, cfg)
                    if res.qualified:
                        qualified += 1
                        assert res.max_deviation <= 1e-8, (lname, tname, alpha, res.max_deviation)
        assert qualified >= 30


def test_criterion_3_figure1_reproduction():
    with criterion(3, "divergence / surrogate / induced schedule", 1.0):
        radial = make_radial("cauchy")
        base = as_1d_loss(radial)
        star_loss, _ = radial_star_loss(radial)

        tr_f = run_newton(base, ConstantSchedule(1.0), [0.8])
        assert tr_f.termination == DIVERGED
        assert tr_f.xs[1][0] == pytest.approx(-2.844444444, abs=1e-3)

        tr_L = run_newton(star_loss, ConstantSchedule(1.0), [0.8])
        assert tr_L.termination == CONVERGED
        assert abs(tr_L.final_x[0]) <= 1e-8

        tr_ind = run_newton(base, InducedSchedule(1.0, make_star_transform("cauchy")), [0.8])
        assert tr_ind.termination == CONVERGED
        n = min(len(tr_L.xs), len(tr_ind.xs))
        for k in range(n):
            assert abs(tr_L.xs[k][0] - tr_ind.xs[k][0]) / (1 + abs(tr_L.xs[k][0])) <= 1e-8


TABLE3_REPORTED = {
    ("geman_mcclure", "original"): 1 / np.sqrt(3),
    ("welsh", "original"): 1 / np.sqrt(2),
    ("cauchy", "original"): 1.0,
    ("geman_mcclure", "transformed"): 1.0,
    ("welsh", "transformed"): 1.0,
    ("cauchy", "transformed"): np.inf,
}


@pytest.mark.xfail(
    strict=True,
    reason="the reported radii are convexity radii, not unit-step Newton basins; "
    "bisection on actual runs yields 1/sqrt(7), 0.5, 1/sqrt(3) (orig) and "
    "~0.508, ~0.646, ~0.817 (transformed). See notes in the module docstring.",
)
def test_criterion_4_radii_as_specified():
    with criterion(4, "reported radii via convergence_radius (as specified)", 5.0):
        for name in RADIALS:
            radial = make_radial(name)
            for variant, loss in (("original", as_1d_loss(radial)),
                                  ("transformed", radial_star_loss(radial)[0])):
                res = convergence_radius(loss, bracket_hi=4.0, verify_monotone=False)
                want = TABLE3_REPORTED[(name, variant)]
                if np.isinf(want):
                    assert np.isinf(res.radius), (name, variant, res.radius)
                else:
                    assert res.radius == pytest.approx(want, abs=1e-3), (name, variant, res.radius)


def test_criterion_4_radii_convexity_semantics():
    with criterion(4, "reported radii via convexity_radius (corrected)", 5.0):
        for name in RADIALS:
            radial = make_radial(name)
            for variant, loss in (("original", as_1d_loss(radial)),
                                  ("transformed", radial_star_loss(radial)[0])):
                res = convexity_radius(loss, bracket_hi=4.0)
                want = TABLE3_REPORTED[(name, variant)]
                if np.isinf(want):
                    assert np.isinf(res.radius), (name, variant, res.radius)
                else:
                    assert res.radius == pytest.approx(want, abs=1e-3), (name, variant, res.radius)


def test_criterion_5_convexification_certificate():
    with criterion(5, "convexification certificate and negative control", 5.0):
        cauchy = as_1d_loss(make_radial("cauchy"))
        grid = np.arange(-2.0, 2.0 + 1e-9, 1e-3).reshape(-1, 1)
        c = compact_constant(cauchy, [2.0], grid)
        rep = verify_convexified(cauchy, exp_convexifier(c, 0.0), grid)
        assert rep.min_eig >= -1e-8

        counter = make_counterexample()
        counter_grid = (np.arange(-0.5, 1.5, 1e-3) + 5e-4).reshape(-1, 1)
        for t in (linear(1.0), make_table1("polynomial", r=0.5), make_table1("polynomial", r=3.0),
                  make_table1("exponential", a=1.0), make_table1("logarithmic", a=1.0),
                  make_table1("sigmoid")):
            bad = verify_convexified(counter, t, counter_grid)
            assert bad.min_eig < -1e-4, t.name


def test_criterion_6_star_convexity_suite():
    with criterion(6, "star-convexity property suite", 5.0):
        rng = np.random.default_rng(7)
        lambdas = np.arange(0.1, 0.95, 0.1)
        for name in RADIALS:
            radial = make_radial(name)
            base = as_1d_loss(radial)
            loss, t = radial_star_loss(radial)
            xs = rng.uniform(-2.5, 2.5, size=50)
            for x in xs:
                Lx = loss.value([x])
                # star-convexity inequality with slack >= -1e-10
                for lam in lambdas:
                    assert loss.value([lam * x]) <= (1 - lam) * loss.min_value + lam * Lx + 1e-10
                # line integral vs closed form
                assert star_value(base, [x]) == pytest.approx(Lx, abs=1e-6)
                # phi(psi(x)) = L(x)
                assert t.phi(base.value([x])) == pytest.approx(Lx, abs=1e-8)


def test_criterion_7_sign_flip_consistency():
    with criterion(7, "sign-flip consistency on Beale grids", 30.0):
        loss = make_benchmark("beale")
        xs = np.linspace(-4, 4, 50)
        for t in (make_table1("polynomial", r=0.25), make_table1("logarithmic", a=1.0)):
            L = compose(loss, t)
            negatives = 0
            for x in xs:
                for y in xs:
                    pt = np.array([x, y])
                    try:
                        f, g, H = loss.evaluate(pt)
                        H = symmetrize(H)
                        s = scaling_factor(t, f, dual_norm_sq(H, g).value)
                    except Exception:
                        continue
                    if abs(s) <= 1e-6:
                        continue
                    step_f = pinv_solve(H, g)
                    _, gL, HL = L.evaluate(pt)
                    step_L = pinv_solve(symmetrize(HL), gL)
                    assert np.sign(float(step_f @ step_L)) == np.sign(s), (t.name, pt, s)
                    negatives += s < 0
            assert negatives > 0, t.name


def test_criterion_8_polytope_sweep():
    with criterion(8, "polytope best fixed stepsizes", 60.0):
        alphas = np.round(np.arange(0.1, 4.50001, 0.05), 10)
        stars = []
        for p in (2, 3, 4, 5):
            loss, x0 = make_polytope_instance(p, seed=1)
            res = best_fixed_stepsize(loss, x0, alphas)
            assert p - 1 - 0.15 <= res.best_alpha <= p - 1 + 0.1, (p, res.best_alpha)
            stars.append(res.best_alpha)
        assert all(a <= b for a, b in zip(stars, stars[1:])), stars


def test_criterion_9_lm_non_invariance():
    with criterion(9, "Levenberg-Marquardt non-invariance", 5.0):
        loss = make_benchmark("rosenbrock")
        t = make_table1("exponential", a=1.0)
        x = np.array([-0.5, 0.5])
        residual = lm_invariance_residual(loss, t, x, 0.1)
        assert residual > 1e-6

        # independent dense-scan oracle
        L = compose(loss, t)
        target = lm_step(loss, x, 0.1)
        _, gL, HL = L.evaluate(x)
        eye = np.eye(2)

        def res_at(lphi):
            try:
                r = np.linalg.norm(np.linalg.solve(HL + lphi * eye, gL) - target)
            except np.linalg.LinAlgError:
                return np.inf
            return float(r) if np.isfinite(r) else np.inf

        grid = np.concatenate([-np.logspace(-8, 6, 3001)[::-1], [0.0], np.logspace(-8, 6, 3001)])
        vals = [res_at(l) for l in grid]
        i = int(np.argmin(vals))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        for _ in range(300):
            m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
            if res_at(m1) < res_at(m2):
                hi = m2
            else:
                lo = m1
            if hi - lo < 1e-12:
                break
        oracle = res_at(0.5 * (lo + hi))
        assert abs(residual - oracle) <= 1e-8


def test_criterion_10_numerical_hygiene():
    with criterion(10, "finite-difference hygiene and erf accuracy", 10.0):
        rng = np.random.default_rng(99)

        # losses: gradient rel 1e-5, Hessian rel 1e-4 at random points in [-2, 2]^d
        losses = [make_benchmark(n) for n in ("rosenbrock", "beale", "goldstein_price")]
        losses += [as_1d_loss(make_radial(n)) for n in RADIALS]
        losses.append(make_polynorm(spd(rng, 3), 4))
        losses.append(make_counterexample())
        for loss in losses:
            pts = rng.uniform(-2, 2, size=(100, loss.dimension))
            if loss.name == "counterexample":
                pts = pts[np.abs(pts[:, 0]) > 1e-2]  # exclude the kink
            failures = check_loss(loss, pts, rtol_grad=1e-5, rtol_hess=1e-4)
            assert failures == [], failures[:3]

        # polytope penalty, excluding points near activation boundaries
        rows = rng.standard_normal((6, 3))
        poly = make_polytope(rows, np.ones(6), 3)
        pts = [x for x in rng.uniform(-2, 2, size=(150, 3))
               if np.min(np.abs(rows @ x - 1.0)) > 1e-2][:100]
        assert check_loss(poly, pts, rtol_grad=1e-5, rtol_hess=5e-4) == []

        # transforms: phi' and phi'' against finite differences
        table1 = [linear(2.0, 1.0), make_table1("polynomial", r=0.5),
                  make_table1("polynomial", r=3.0), make_table1("exponential", a=0.7),
                  make_table1("logarithmic", a=1.0), make_table1("sigmoid"),
                  exp_convexifier(0.8, 0.0)]
        for t in table1:
            lo, hi = t.valid_interval
            ys = np.linspace(max(lo + 0.05, -4.0), min(hi, 4.0) - 0.05, 20)
            assert check_transform(t, ys) == [], t.name
        for name in RADIALS:
            radial = make_radial(name)
            t = make_star_transform(name)
            ys = [radial.psi(r) for r in np.linspace(0.1, 2.0, 12)]
            assert check_transform(t, ys) == [], t.name

        # erf against quadrature of its defining integral at 20 points
        for x in np.linspace(-3.8, 3.8, 20):
            oracle = 2.0 / np.sqrt(np.pi) * adaptive_simpson(lambda s: np.exp(-s * s), 0.0, x, 1e-13)
            assert math.erf(x) == pytest.approx(oracle, abs=1e-12)
