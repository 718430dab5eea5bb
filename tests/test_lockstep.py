"""The batched scan engine against the scalar path it replaces.

Every cell of scan_convergence must end as a per-cell run_newton does, and
every cell of scan_sign_flip as the scalar evaluate -> dual_norm_sq ->
scaling_factor chain does, bit for bit.
"""

import numpy as np
import pytest

from newton_transforms.errors import DomainError, EvaluationError
from newton_transforms.linalg import dual_norm_sq, norm_exceeds, symmetrize
from newton_transforms.losses import as_1d_loss, make_benchmark, make_polynorm, make_radial
from newton_transforms.newton import DOMAIN_ERROR, ConstantSchedule, NewtonConfig, run_newton
from newton_transforms.scans import (
    grid_axes,
    lockstep_unit_newton,
    scan_convergence,
    scan_sign_flip,
)
from newton_transforms.transforms import SCALING_ZERO_TOL, compose, make_table1, scaling_factor, transform_from_spec

TRANSFORMS = [("polynomial", dict(r=0.5)), ("polynomial", dict(r=1.0)), ("polynomial", dict(r=2.0)),
              ("logarithmic", dict(a=1.0))]
GRIDS = {"beale": ((-3.87, 4.13, 7), (-4.21, 3.79, 7)), "goldstein_price": ((-2.07, 1.93, 7), (-1.88, 2.12, 7))}
CFG = NewtonConfig(max_iters=40)


def _cells(x_range, y_range):
    xs, ys = grid_axes(x_range, y_range)
    if ys is None:
        return [(ix, 0, np.array([x])) for ix, x in enumerate(xs)]
    return [(ix, iy, np.array([x, y])) for ix, x in enumerate(xs) for iy, y in enumerate(ys)]


def _bits(v):
    return np.float64(v).tobytes()


def _scalar_convergence(driven, x, radius_tol=1e-6, max_iters=CFG.max_iters):
    """What the per-cell scan recorded: (converged, iterations, error, final_value)."""
    cfg = NewtonConfig(max_iters=max_iters, gtol=1e-300, xtol=radius_tol)
    tr = run_newton(driven, ConstantSchedule(1.0), x, cfg)
    with np.errstate(over="ignore"):
        dists = [np.linalg.norm(xk - driven.minimizer) for xk in tr.xs if np.all(np.isfinite(xk))]
    finite = [v for v in tr.values if np.isfinite(v)]
    return (bool(dists and min(dists) <= radius_tol), tr.iterations, tr.termination == DOMAIN_ERROR,
            _bits(finite[-1] if finite else np.nan)), tr


def _assert_convergence_matches(loss, t, x_range, y_range, cfg=CFG):
    driven = loss if t is None else compose(loss, t)
    scan = scan_convergence(loss, t, x_range, y_range, cfg=cfg)
    for ix, iy, x in _cells(x_range, y_range):
        want, _ = _scalar_convergence(driven, x, max_iters=cfg.max_iters)
        got = (bool(scan.converged[ix, iy]), int(scan.iterations[ix, iy]), bool(scan.error[ix, iy]),
               _bits(scan.final_value[ix, iy]))
        assert got == want, (ix, iy)
    return scan


def _assert_sign_flip_matches(loss, t, x_range, y_range):
    scan = scan_sign_flip(loss, t, x_range, y_range)
    assert scan.cross_check_mismatches == 0
    for ix, iy, x in _cells(x_range, y_range):
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # as in scan_sign_flip
                f, g, H = loss.evaluate(x)
                q = dual_norm_sq(symmetrize(H), g).value
                s = scaling_factor(t, f, q)
        except (DomainError, EvaluationError):
            assert scan.error[ix, iy] and scan.scaling_sign[ix, iy] == 0, (ix, iy)
            continue
        sign = 0 if abs(s) <= SCALING_ZERO_TOL else (1 if s > 0 else -1)
        assert not scan.error[ix, iy], (ix, iy)
        assert (scan.scaling_sign[ix, iy], _bits(scan.final_value[ix, iy])) == (sign, _bits(f)), (ix, iy)


@pytest.mark.parametrize("lname", sorted(GRIDS))
@pytest.mark.parametrize("kind,params", TRANSFORMS)
def test_convergence_scan_matches_run_newton(lname, kind, params):
    _assert_convergence_matches(make_benchmark(lname), make_table1(kind, **params), *GRIDS[lname])


@pytest.mark.parametrize("lname", sorted(GRIDS))
def test_convergence_scan_untransformed(lname):
    _assert_convergence_matches(make_benchmark(lname), None, *GRIDS[lname])


@pytest.mark.parametrize("lname", sorted(GRIDS))
@pytest.mark.parametrize("kind,params", TRANSFORMS + [("polynomial", dict(r=0.25))])
def test_sign_flip_scan_matches_scalar_chain(lname, kind, params):
    _assert_sign_flip_matches(make_benchmark(lname), make_table1(kind, **params), *GRIDS[lname])


def test_sign_flip_domain_error_cells():
    # f = 0 at the grid's centre node, where f^0.5 has no scaling factor.
    quadratic = make_polynorm(np.eye(2), 2)
    _assert_sign_flip_matches(quadratic, make_table1("polynomial", r=0.5), (-1.0, 1.0, 5), (-1.0, 1.0, 5))
    assert scan_sign_flip(quadratic, make_table1("polynomial", r=0.5), (-1.0, 1.0, 5), (-1.0, 1.0, 5)).error.sum() == 1


def test_star_transform_overflow_cells():
    # psi^{-1}(f) of star:cauchy overflows for f above about 709, which Beale
    # exceeds on most of [-4, 4]^2: runs end at domain_error and both scans
    # record error cells, as the scalar path does. Every star evaluation runs
    # quadrature, so the grids and the iteration cap stay small.
    beale, t = make_benchmark("beale"), transform_from_spec("star:cauchy")
    tr = run_newton(compose(beale, t), ConstantSchedule(1.0), [-4, 4])
    assert (tr.termination, tr.iterations) == (DOMAIN_ERROR, 0)
    grid = (-4.0, 4.0, 3)  # f > 709 at the four corners only
    corners = [[True, False, True], [False, False, False], [True, False, True]]
    _assert_sign_flip_matches(beale, t, grid, grid)
    assert scan_sign_flip(beale, t, grid, grid).error.tolist() == corners
    assert _assert_convergence_matches(beale, t, grid, grid, NewtonConfig(max_iters=3)).error.tolist() == corners


def test_fallback_loss_without_batch_formula():
    cauchy = as_1d_loss(make_radial("cauchy", center=0.3))
    assert cauchy._eval_batch is None
    _assert_convergence_matches(cauchy, None, (-2.9, 3.1, 31), None)
    _assert_convergence_matches(cauchy, make_table1("exponential", a=0.5), (-2.9, 3.1, 31), None)
    _assert_sign_flip_matches(cauchy, make_table1("polynomial", r=0.5), (-2.9, 3.1, 31), None)


def test_lockstep_terminations_match_run_newton():
    # Beale under log(1 + f) converges, diverges and hits the cap; Newton on
    # the quadratic lands exactly on its minimizer, where f^1 is undefined.
    quadratic = make_polynorm(np.eye(2), 2)
    cases = [(compose(make_benchmark("beale"), make_table1("logarithmic", a=1.0)), GRIDS["beale"]),
             (compose(quadratic, make_table1("polynomial", r=1.0)), ((-1.0, 1.0, 4), (-0.7, 1.3, 4)))]
    cfg = NewtonConfig(max_iters=CFG.max_iters, gtol=1e-300, xtol=1e-6)
    seen = set()
    for driven, grid in cases:
        X = np.array([x for _, _, x in _cells(*grid)])
        runs = lockstep_unit_newton(driven, X, cfg)
        for i, x in enumerate(X):
            _, tr = _scalar_convergence(driven, x)
            assert (runs.termination[i], runs.iterations[i]) == (tr.termination, tr.iterations), i
            seen.add(tr.termination)
    assert seen == {"converged", "diverged", "max_iters", "domain_error"}
    _assert_convergence_matches(quadratic, make_table1("polynomial", r=1.0), (-1.0, 1.0, 4), (-0.7, 1.3, 4))


@pytest.mark.parametrize("loss", [make_benchmark("beale"), make_benchmark("goldstein_price"),
                                  compose(make_benchmark("beale"), make_table1("polynomial", r=0.5)),
                                  as_1d_loss(make_radial("welsh"))], ids=lambda loss: loss.name)
def test_evaluate_batch_matches_evaluate(loss):
    rng = np.random.default_rng(0)
    X = rng.uniform(-4.0, 4.0, (200, loss.dimension))
    X[0] = loss.minimizer  # a domain error under the polynomial transform (f = 0)
    f, G, H, err = loss.evaluate_batch(X)
    for i, x in enumerate(X):
        try:
            want = loss.evaluate(x)
        except (DomainError, EvaluationError):
            assert err[i]
            continue
        assert not err[i]
        assert f[i].tobytes() == np.float64(want[0]).tobytes()
        assert G[i].tobytes() == want[1].tobytes() and H[i].tobytes() == want[2].tobytes()
    assert err[0] == ("poly" in loss.name)


def test_norm_exceeds_matches_norm_without_overflow():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((500, 3)) * 10.0 ** rng.uniform(-3, 3, (500, 1))
    want = np.array([np.linalg.norm(x) > 10.0 for x in X])
    assert np.array_equal(norm_exceeds(X, 10.0), want)
    assert all(norm_exceeds(x, 10.0) == w for x, w in zip(X, want))
    with np.errstate(over="raise"):
        assert norm_exceeds(np.array([1e300, 1e300]), 1e6)
        assert not norm_exceeds(np.array([1e300, 1e300]) - 1e300, 1e6)
