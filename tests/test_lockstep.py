"""The lockstep engine against the scalar path it replaces.

Every cell of scan_convergence and every row of best_fixed_stepsize must end
as a per-cell or per-stepsize run_newton does, and every cell of
scan_sign_flip as the scalar evaluate -> dual_norm_sq -> scaling_factor chain
does, bit for bit.
"""

import numpy as np
import pytest

from newton_transforms.errors import DomainError, EvaluationError, InputError
from newton_transforms.linalg import dual_norm_sq, norm_exceeds, symmetrize
from newton_transforms.losses import (SmoothLoss, as_1d_loss, loss_from_spec, make_benchmark, make_counterexample,
                                     make_polynorm, make_polytope_instance, make_radial)
from newton_transforms.newton import (CONVERGED, DIVERGED, DOMAIN_ERROR, ConstantSchedule, NewtonConfig,
                                      lockstep_newton, run_newton)
from newton_transforms.starconvex import radial_star_loss
from newton_transforms.scans import best_fixed_stepsize, grid_axes, scan_convergence, scan_sign_flip
from newton_transforms.transforms import SCALING_ZERO_TOL, compose, make_table1, scaling_factor, transform_from_spec

TRANSFORMS = [("polynomial", dict(r=0.5)), ("polynomial", dict(r=1.0)), ("polynomial", dict(r=2.0)),
              ("logarithmic", dict(a=1.0))]
GRIDS = {"beale": ((-3.87, 4.13, 7), (-4.21, 3.79, 7)), "goldstein_price": ((-2.07, 1.93, 7), (-1.88, 2.12, 7))}
CFG = NewtonConfig(max_iters=40)
SHIFTED_BEALE = compose(make_benchmark("beale"), make_table1("linear", a=1.0, b=-5.0))  # f - 5


def _cells(x_range, y_range):
    xs, ys = grid_axes(x_range, y_range)
    if ys is None:
        return [(ix, 0, np.array([x])) for ix, x in enumerate(xs)]
    return [(ix, iy, np.array([x, y])) for ix, x in enumerate(xs) for iy, y in enumerate(ys)]


def _bits(v):
    return np.float64(v).tobytes()


def _near_any(tr, xstar, tol):
    """Some iterate of a run_newton trace lies within tol of xstar."""
    with np.errstate(over="ignore", invalid="ignore"):
        return any(not norm_exceeds(xk - xstar, tol) for xk in tr.xs)


def _near_final(runs, xstar, tol):
    """Per row, the lockstep run's final_x lies within tol of xstar: the
    convergence flag scan_convergence derives."""
    return (~norm_exceeds(runs.final_x - xstar, tol)).tolist()


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
    # log(1 + y) is undefined at y = f - 5 <= -1, on the cells where Beale is below 4
    _assert_sign_flip_matches(SHIFTED_BEALE, make_table1("logarithmic", a=1.0), *GRIDS["beale"])
    assert 0 < scan_sign_flip(SHIFTED_BEALE, make_table1("logarithmic", a=1.0), *GRIDS["beale"]).error.sum() < 49
    # the counterexample's kink is the only cell: no row reaches the stacked solve
    _assert_sign_flip_matches(make_counterexample(), make_table1("polynomial", r=0.5), (0.0, 1.0, 1), None)


def test_star_transform_overflow_cells():
    # psi^{-1}(f) of star:cauchy overflows for f above about 709, which Beale
    # exceeds on most of [-4, 4]^2: runs end at domain_error and both scans
    # record error cells, as the scalar path does.
    beale, t = make_benchmark("beale"), transform_from_spec("star:cauchy")
    tr = run_newton(compose(beale, t), ConstantSchedule(1.0), [-4, 4])
    assert (tr.termination, tr.iterations) == (DOMAIN_ERROR, 0)
    grid = (-4.0, 4.0, 3)  # f > 709 at the four corners only
    corners = [[True, False, True], [False, False, False], [True, False, True]]
    _assert_sign_flip_matches(beale, t, grid, grid)
    assert scan_sign_flip(beale, t, grid, grid).error.tolist() == corners
    assert _assert_convergence_matches(beale, t, grid, grid, NewtonConfig(max_iters=3)).error.tolist() == corners


def test_fallback_loss_without_batch_formula():
    radial = as_1d_loss(make_radial("cauchy", center=0.3))
    cauchy = SmoothLoss("cauchy1d-scalar", 1, radial._eval, minimizer=radial.minimizer)  # evaluate only
    assert cauchy._eval_batch is None
    _assert_convergence_matches(cauchy, None, (-2.9, 3.1, 31), None)
    _assert_convergence_matches(cauchy, make_table1("exponential", a=0.5), (-2.9, 3.1, 31), None)
    _assert_sign_flip_matches(cauchy, make_table1("polynomial", r=0.5), (-2.9, 3.1, 31), None)


def test_lockstep_terminations_match_run_newton():
    # Beale under log(1 + f) converges, diverges and hits the cap; under
    # log(1 + f - 5) runs also step off the domain (Beale below 4); Newton on
    # the quadratic lands exactly on its minimizer, where f^1 is undefined:
    # that run has converged.
    quadratic = make_polynorm(np.eye(2), 2)
    cases = [(compose(make_benchmark("beale"), make_table1("logarithmic", a=1.0)), GRIDS["beale"]),
             (compose(SHIFTED_BEALE, make_table1("logarithmic", a=1.0)), GRIDS["beale"]),
             (compose(quadratic, make_table1("polynomial", r=1.0)), ((-1.0, 1.0, 4), (-0.7, 1.3, 4)))]
    cfg = NewtonConfig(max_iters=CFG.max_iters, gtol=1e-300, xtol=1e-6)
    seen = set()
    for driven, grid in cases:
        X = np.array([x for _, _, x in _cells(*grid)])
        runs = lockstep_newton(driven, X, np.ones(len(X)), cfg)
        for i, x in enumerate(X):
            _, tr = _scalar_convergence(driven, x)
            assert (runs.termination[i], runs.iterations[i]) == (tr.termination, tr.iterations), i
            assert runs.final_x[i].tobytes() == tr.final_x.tobytes(), i
            seen.add(tr.termination)
    assert seen == {"converged", "diverged", "max_iters", "domain_error"}
    _assert_convergence_matches(quadratic, make_table1("polynomial", r=1.0), (-1.0, 1.0, 4), (-0.7, 1.3, 4))


def test_rows_landing_on_a_minimizer_without_hessian_converge():
    # ||x||^1.5 has no Hessian at 0: the step with alpha = p - 1 = 0.5 lands there
    loss = make_polynorm(np.eye(2), 1.5)
    X, alphas = np.array([[1.0, 0.0], [0.0, -2.0], [1.0, 1.0]]), np.array([0.5, 0.5, 0.25])
    for xstar, want in ((loss.minimizer, CONVERGED), (np.ones(2), DOMAIN_ERROR)):
        moved = SmoothLoss(loss.name, 2, loss._eval, minimizer=xstar)  # the same error away from the minimizer
        runs = lockstep_newton(moved, X, alphas, CFG)
        assert runs.termination[:2].tolist() == [want, want] and runs.iterations[:2].tolist() == [1, 1]
        near = _near_final(runs, xstar, CFG.xtol)
        assert near[:2] == [want == CONVERGED] * 2
        for i, (x, alpha) in enumerate(zip(X, alphas)):
            tr = run_newton(moved, ConstantSchedule(alpha), x, CFG)
            assert (runs.termination[i], runs.iterations[i]) == (tr.termination, tr.iterations), i
            assert near[i] == _near_any(tr, xstar, CFG.xtol), i
    # the scan's x = 0 cell is converged and not an error
    scan = scan_convergence(make_polynorm(np.eye(1), 1.5), None, (-1.0, 1.0, 3))
    assert scan.converged[:, 0].tolist() == [False, True, False] and not scan.error.any()
    _assert_convergence_matches(make_polynorm(np.eye(1), 1.5), None, (-1.0, 1.0, 3), None)


def test_converged_cell_whose_run_diverges():
    # f = x0^2 + x1^2 cannot be evaluated to finite values within 1e-3 of its
    # minimizer 0. From any grid node the unit step lands on 0 exactly, where
    # the run ends diverged; the iterate is within RADIUS_TOL all the same, so
    # the cell converged, as the per-cell run_newton reference has it.
    def ev(x):
        if np.hypot(*x) < 1e-3:
            return np.nan, np.full(2, np.nan), np.full((2, 2), np.nan)
        return float(x @ x), 2.0 * x, 2.0 * np.eye(2)

    loss = SmoothLoss("unfinite-bowl", 2, ev, minimizer=np.zeros(2))
    tr = run_newton(loss, ConstantSchedule(1.0), [1.0, 1.0])
    assert (tr.termination, tr.iterations, tr.final_x.tolist()) == (DIVERGED, 1, [0.0, 0.0])
    grid = (1.0, 2.0, 2)
    scan = _assert_convergence_matches(loss, None, grid, grid)
    assert scan.converged.all() and not scan.error.any()
    runs = lockstep_newton(loss, np.array([[1.0, 1.0]]), [1.0], NewtonConfig(gtol=1e-300, xtol=1e-6))
    assert (runs.termination[0], runs.iterations[0]) == (DIVERGED, 1)


def _runs_reference(loss, X, cfg):
    """LockstepRuns of per-row run_newton traces, field by field, as bytes."""
    rows = []
    for x in X:
        tr = run_newton(loss, ConstantSchedule(1.0), x, cfg)
        finite = [v for v in tr.values if np.isfinite(v)]
        rows.append((tr.termination, tr.iterations, _bits(finite[-1] if finite else np.nan),
                     _bits(tr.grad_norms[-1]), _near_any(tr, loss.minimizer, cfg.xtol), tr.final_x.tobytes()))
    return rows


def _runs_rows(runs, loss, cfg):
    """LockstepRuns field by field, as bytes, with the derived convergence flag."""
    near = _near_final(runs, loss.minimizer, cfg.xtol)
    return [(runs.termination[i], int(runs.iterations[i]), _bits(runs.final_value[i]), _bits(runs.grad_norm[i]),
             near[i], runs.final_x[i].tobytes()) for i in range(len(near))]


@pytest.mark.parametrize("name", ["welsh", "geman_mcclure"])
@pytest.mark.parametrize("center", [0.0, 0.7])
def test_fixed_point_rows_retire_as_run_newton_ends_them(name, center):
    # Welsh's rows at 4 and -4 step far out, where the star Hessian
    # underflows: the step is 0 and the row stands still until the cap. At
    # 2e6 the first step stands still too, outside the divergence radius:
    # divergence wins. Geman-McClure's far rows diverge; 0.5 converges.
    loss = radial_star_loss(make_radial(name, center=center))[0]
    X = center + np.array([[4.0], [2e6], [0.5], [-4.0]])
    cfg = NewtonConfig(max_iters=30)
    want = _runs_reference(loss, X, cfg)
    assert _runs_rows(lockstep_newton(loss, X, np.ones(len(X)), cfg), loss, cfg) == want
    stalled = ("max_iters", 30) if name == "welsh" else ("diverged", 2)
    assert [row[:2] for row in want] == [stalled, ("diverged", 1), ("converged", want[2][1]), stalled]


def test_fixed_point_row_stops_its_batch():
    # the one-row Welsh probe at 4 stands still after its first step: two
    # evaluations decide it, where stepping on to the cap took 31
    star = radial_star_loss(make_radial("welsh"))[0]
    calls = []

    def counted(X):
        calls.append(len(X))
        return star.evaluate_batch(X)

    loss = SmoothLoss("counted-star", 1, star._eval, minimizer=star.minimizer, _eval_batch=counted)
    runs = lockstep_newton(loss, [[4.0]], [1.0], NewtonConfig(max_iters=30))
    assert (runs.termination[0], runs.iterations[0]) == ("max_iters", 30)
    assert calls == [1, 1]


def test_rows_whose_sums_overflow_end_as_run_newton_ends_them():
    # Where the first coordinate exceeds 5, every gradient and Hessian entry is
    # finite but they sum to +inf or -inf, so each batch takes the exact
    # finiteness test; below -4 a row holds a NaN or an inf entry and diverges.
    # The unit step moves the far rows down into the quadratic bowl, where
    # they converge.
    def ev(x):
        a, b = x
        if a > 5.0:
            s = 1e308 if b >= 0.0 else -1e308
            return 1.0, np.array([s, s]), np.diag([s, s])
        if a < -5.0:
            return 1.0, np.array([np.nan, 1.0]), np.eye(2)
        if a < -4.0:
            return 1.0, np.array([1.0, 1.0]), np.diag([np.inf, 1.0])
        return 0.5 * (a * a + b * b), np.array([a, b]), np.eye(2)

    loss = SmoothLoss("overflowing-sums", 2, ev, minimizer=np.zeros(2))
    X = np.array([[7.0, 1.0], [6.5, -2.0], [-6.0, 0.5], [-4.5, 0.0], [1.0, 1.0], [9.0, 0.0]])
    cfg = NewtonConfig(max_iters=30)
    for rows in (X, X[[0, 1, 5]]):  # mixed with non-finite rows, and the finite rows alone
        runs = lockstep_newton(loss, rows, np.ones(len(rows)), cfg)
        assert _runs_rows(runs, loss, cfg) == _runs_reference(loss, rows, cfg)
    assert lockstep_newton(loss, X, np.ones(len(X)), cfg).termination.tolist() == [
        "converged", "converged", "diverged", "diverged", "converged", "converged"]


def _sweep_reference(loss, x0, alphas, cfg):
    """best_fixed_stepsize as a per-alpha run_newton loop: its rows (with the
    gradient norm as bytes), (best alpha, best iterations) and terminations."""
    rows, best, terminations = [], None, []
    for alpha in alphas:
        tr = run_newton(loss, ConstantSchedule(alpha), x0, cfg)
        ok = tr.termination == CONVERGED
        gn = tr.grad_norms[-1] if np.isfinite(tr.grad_norms[-1]) else np.inf
        rows.append((float(alpha), tr.iterations, _bits(gn), ok))
        key = (0 if ok else 1, tr.iterations if ok else np.inf, gn, float(alpha))
        if best is None or key < best[0]:
            best = (key, float(alpha), tr.iterations)
        terminations.append(tr.termination)
    return rows, best[1:], terminations


SWEEP_STARTS = {"beale": (1.0, 1.2), "goldstein_price": (0.1, -0.9), "rosenbrock": (-1.2, 1.0)}
POLYTOPE_ALPHAS = np.round(np.arange(0.2, 4.50001, 0.2), 10)


def _sweep_cases(polytope_seeds, n_starts, n_polynorm, alphas):
    """(loss, x0, alphas, cfg) sweeps: polytope instances (no minimizer) at a
    cap of 25; perturbed benchmark starts, the same under f^0.5, a quadratic
    under f^1 whose unit step lands on f = 0 at the minimizer (converged),
    Beale under star:cauchy, whose psi^-1(f) overflows on some runs (a domain
    error), and random polynorm losses at d = 3, each at the default cap and
    at 10."""
    cases = [(*make_polytope_instance(p, seed=seed), POLYTOPE_ALPHAS, NewtonConfig(max_iters=25))
             for seed in polytope_seeds for p in (2, 3, 4, 5)]
    rng = np.random.default_rng(0)
    sqrt = make_table1("polynomial", r=0.5)
    smooth = [(compose(make_polynorm(np.eye(2), 2), make_table1("polynomial", r=1.0)), np.array([0.7, -0.4])),
              (compose(make_benchmark("beale"), transform_from_spec("star:cauchy")), np.array([2.0, 2.0]))]
    for name, start in SWEEP_STARTS.items():
        smooth += [(make_benchmark(name), start + rng.normal(0.0, 0.3, 2)) for _ in range(n_starts)]
        smooth += [(compose(make_benchmark(name), sqrt), start + rng.normal(0.0, 0.3, 2))
                   for _ in range(max(1, n_starts // 2))]
    for j in range(n_polynorm):
        M = rng.standard_normal((3, 3))
        smooth.append((make_polynorm(M @ M.T + 3.0 * np.eye(3), 3 + j % 3), rng.standard_normal(3)))
    caps = (NewtonConfig(), NewtonConfig(max_iters=10))
    return cases + [(loss, x0, alphas, cfg) for loss, x0 in smooth for cfg in caps]


def _assert_sweeps_match(cases):
    """Every sweep matches the per-alpha reference; returns the terminations seen."""
    seen = set()
    for loss, x0, alphas, cfg in cases:
        want_rows, want_best, terminations = _sweep_reference(loss, x0, alphas, cfg)
        res = best_fixed_stepsize(loss, x0, alphas, cfg)
        assert all(type(v) is kind for row in res.rows for v, kind in zip(row, (float, int, float, bool)))
        got_rows = [(alpha, iters, _bits(gn), ok) for alpha, iters, gn, ok in res.rows]
        assert (got_rows, (res.best_alpha, res.best_iterations)) == (want_rows, want_best), (loss.name, x0, cfg)
        seen.update(terminations)
    return seen


def test_sweep_matches_per_alpha_run_newton():
    cases = _sweep_cases(polytope_seeds=(1, 2), n_starts=2, n_polynorm=2,
                         alphas=np.round(np.arange(0.25, 3.00001, 0.25), 10))
    assert _assert_sweeps_match(cases) == {"converged", "diverged", "max_iters", "domain_error"}


@pytest.mark.slow
def test_sweep_matches_per_alpha_run_newton_full():
    """120 polytope instances (seeds 1-30, p = 2..5) and 92 smooth sweeps."""
    cases = _sweep_cases(polytope_seeds=range(1, 31), n_starts=8, n_polynorm=9,
                         alphas=np.round(np.arange(0.1, 3.00001, 0.1), 10))
    assert _assert_sweeps_match(cases) == {"converged", "diverged", "max_iters", "domain_error"}


def test_lockstep_without_minimizer_converges_on_gtol():
    loss, x0 = make_polytope_instance(3, seed=1)
    assert loss.minimizer is None
    alphas = np.array([0.4, 1.8, 4.4])
    cfg = NewtonConfig(max_iters=25)
    runs = lockstep_newton(loss, np.tile(x0, (len(alphas), 1)), alphas, cfg)
    for i, alpha in enumerate(alphas):
        tr = run_newton(loss, ConstantSchedule(alpha), x0, cfg)
        assert (runs.termination[i], runs.iterations[i]) == (tr.termination, tr.iterations)
        assert _bits(runs.grad_norm[i]) == _bits(tr.grad_norms[-1])
        assert runs.final_x[i].tobytes() == tr.final_x.tobytes()
    assert runs.termination[1] == CONVERGED and runs.grad_norm[1] <= cfg.gtol
    # the same loss with its gtol point as the minimizer: the derived flag is
    # whether some iterate of each row's run came within cfg.xtol of it
    xstar = runs.final_x[1].copy()
    moved = SmoothLoss(loss.name, loss.dimension, loss._eval, minimizer=xstar, _eval_batch=loss._eval_batch)
    runs = lockstep_newton(moved, np.tile(x0, (len(alphas), 1)), alphas, cfg)
    near = _near_final(runs, xstar, cfg.xtol)
    assert near[1]
    assert near == [_near_any(run_newton(moved, ConstantSchedule(alpha), x0, cfg), xstar, cfg.xtol)
                    for alpha in alphas]


def test_sweep_rejects_wrong_dimension_start():
    loss, x0 = make_polytope_instance(2, seed=1)
    with pytest.raises(InputError):
        best_fixed_stepsize(loss, x0[:3], [1.0, 2.0])
    with pytest.raises(InputError):
        best_fixed_stepsize(make_polynorm(np.eye(2), 2), [1.0, 1.0, 1.0], [1.0])


def _batch_cases():
    """(loss, whether evaluate raises at its minimizer, a point whose value
    overflows or None) for every loss factory."""
    star = [radial_star_loss(make_radial(name))[0] for name in ("welsh", "cauchy", "geman_mcclure")]
    cases = ([(loss, False, None) for loss in map(make_benchmark, ("rosenbrock", "beale", "goldstein_price"))]
            # f = 0 under f^0.5, f - 5 = -5 under log(1 + y)
            + [(compose(make_benchmark("beale"), make_table1("polynomial", r=0.5)), True, None),
               (compose(SHIFTED_BEALE, make_table1("logarithmic", a=1.0)), True, None)]
            + [(as_1d_loss(make_radial(name)), False, None) for name in ("welsh", "cauchy", "geman_mcclure")]
            + [(loss, False, [1.5e308]) for loss in star]  # r I(r) passes the float maximum
            # no minimizer; no Hessian at 0 for p = 1.5; the counterexample's kink is its minimizer
            + [(make_polytope_instance(3.0)[0], False, None), (loss_from_spec("polynorm:p=1.5"), True, None),
               (loss_from_spec("polynorm:p=3"), False, None), (make_counterexample(), True, None)])
    return [pytest.param(*case, id=case[0].name) for case in cases]


@pytest.mark.parametrize("loss,raises_at_minimizer,far", _batch_cases())
def test_evaluate_batch_matches_evaluate(loss, raises_at_minimizer, far):
    rng = np.random.default_rng(0)
    X = rng.uniform(-4.0, 4.0, (200, loss.dimension))
    if loss.minimizer is not None:
        X[0] = loss.minimizer
    if far is not None:
        X[1] = far
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
    assert err[0] == raises_at_minimizer
    assert far is None or err[1]
    assert err.sum() < len(X)


def test_norm_exceeds_matches_norm_without_overflow():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((500, 3)) * 10.0 ** rng.uniform(-3, 3, (500, 1))
    want = np.array([np.linalg.norm(x) > 10.0 for x in X])
    assert np.array_equal(norm_exceeds(X, 10.0), want)
    assert all(norm_exceeds(x, 10.0) == w for x, w in zip(X, want))
    with np.errstate(over="raise"):
        assert norm_exceeds(np.array([1e300, 1e300]), 1e6)
        assert not norm_exceeds(np.array([1e300, 1e300]) - 1e300, 1e6)
