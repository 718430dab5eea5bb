from dataclasses import replace

import numpy as np
import pytest

from checks import reference_iterate_deviation
from newton_transforms.cli import _schedule
from newton_transforms.errors import InputError
from newton_transforms.losses import (
    SmoothLoss,
    as_1d_loss,
    make_benchmark,
    make_polynorm,
    make_radial,
)
from newton_transforms.newton import (
    CONVERGED,
    DIVERGED,
    DIVERGENCE_RADIUS,
    DOMAIN_ERROR,
    BacktrackingSchedule,
    ConstantSchedule,
    ForwardedSchedule,
    InducedSchedule,
    NewtonConfig,
    iterate_deviation,
    lm_invariance_residual,
    lm_residuals,
    lm_step,
    run_equivalence,
    run_newton,
)
from newton_transforms.transforms import compose, exponential, linear, make_table1


def spd(rng, d, shift=None):
    M = rng.standard_normal((d, d))
    return M @ M.T + (shift if shift is not None else d) * np.eye(d)


class TestRunNewton:
    def test_quadratic_one_step(self):
        rng = np.random.default_rng(0)
        loss = make_polynorm(spd(rng, 3), 2)
        tr = run_newton(loss, ConstantSchedule(1.0), rng.standard_normal(3))
        assert tr.termination == CONVERGED
        assert tr.iterations == 1
        assert np.linalg.norm(tr.final_x) <= 1e-12

    @pytest.mark.parametrize("field, value", [("gtol", np.nan), ("xtol", np.nan), ("max_iters", np.nan),
                                              ("max_iters", 2.5), ("gtol", 0.0)])
    def test_config_rejects_non_positive_nan_and_fractional_fields(self, field, value):
        # min() passes over a NaN that is not its first argument: a NaN tolerance must not slip through
        with pytest.raises(InputError):
            NewtonConfig(**{field: value})

    def test_cauchy_unit_step_diverges_from_0p8(self):
        loss = as_1d_loss(make_radial("cauchy"))
        tr = run_newton(loss, ConstantSchedule(1.0), [0.8])
        assert tr.termination == DIVERGED
        # first iterate: -2x^3/(1-x^2) at 0.8
        assert tr.xs[1][0] == pytest.approx(-2.8444444444, abs=1e-9)

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_polynorm_one_step_with_matched_alpha(self, p):
        rng = np.random.default_rng(p)
        loss = make_polynorm(spd(rng, 4), p)
        tr = run_newton(loss, ConstantSchedule(p - 1.0), rng.standard_normal(4))
        assert tr.termination == CONVERGED
        assert tr.iterations == 1

    def test_landing_on_a_minimizer_without_hessian_converges(self):
        # ||x||^1.5 has no Hessian at 0, where the step with alpha = p - 1 lands exactly
        loss = make_polynorm(np.eye(2), 1.5)
        tr = run_newton(loss, ConstantSchedule(0.5), [1.0, 0.0])
        assert (tr.termination, tr.iterations, tr.final_x.tolist()) == (CONVERGED, 1, [0.0, 0.0])
        # the same evaluation error away from the known minimizer stays a domain error
        tr = run_newton(replace(loss, minimizer=np.ones(2)), ConstantSchedule(0.5), [1.0, 0.0])
        assert (tr.termination, tr.iterations) == (DOMAIN_ERROR, 1)

    def test_trace_invariants(self):
        loss = make_benchmark("rosenbrock")
        x0 = [-1.2, 1.0]
        tr = run_newton(loss, ConstantSchedule(1.0), x0)
        assert len(tr.xs) == tr.iterations + 1
        np.testing.assert_allclose(tr.xs[0], x0)
        assert tr.termination == CONVERGED
        assert tr.grad_norms[-1] <= 1e-10 or np.linalg.norm(tr.final_x - loss.minimizer) <= 1e-10

    def test_polynomial_contraction_identity(self):
        # x+ = (1 - alpha/(p-1)) x, any A > 0, any x != 0
        rng = np.random.default_rng(3)
        for p in [2, 3, 4, 5]:
            for _ in range(5):
                loss = make_polynorm(spd(rng, 3), p)
                x0 = rng.standard_normal(3)
                alpha = rng.uniform(0.2, 2.5)
                tr = run_newton(loss, ConstantSchedule(alpha), x0, NewtonConfig(max_iters=1))
                expected = (1.0 - alpha / (p - 1.0)) * x0
                np.testing.assert_allclose(tr.xs[1], expected, rtol=1e-10, atol=1e-12)

    def test_backtracking_monotone_descent_on_convex_transformed(self):
        base = make_benchmark("rosenbrock")
        L = compose(base, exponential(0.1))
        tr = run_newton(L, BacktrackingSchedule(), [-0.5, 0.5], NewtonConfig(max_iters=60))
        vals = [v for v in tr.values if np.isfinite(v)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_divergence_radius_cutoff(self):
        loss = as_1d_loss(make_radial("cauchy"))
        tr = run_newton(loss, ConstantSchedule(1.0), [0.9])
        assert (tr.termination, tr.iterations) == (DIVERGED, 18)
        assert np.linalg.norm(tr.final_x) > DIVERGENCE_RADIUS
        assert all(np.linalg.norm(x) <= DIVERGENCE_RADIUS for x in tr.xs[:-1])
        assert tr.final_x[0] == pytest.approx(-1.03e6, rel=1e-2)


class TestSignReversal:
    def test_negative_scaling_flips_direction(self):
        # wherever the factor is negative, the induced step opposes the base step
        base = make_benchmark("beale")
        t = make_table1("polynomial", r=0.25)
        rng = np.random.default_rng(5)
        from newton_transforms.linalg import dual_norm_sq, pinv_solve
        from newton_transforms.transforms import scaling_factor

        found = 0
        for x in rng.uniform(-3, 3, size=(300, 2)):
            f, g, H = base.evaluate(x)
            if f <= 0:
                continue
            q = dual_norm_sq(H, g).value
            s = scaling_factor(t, f, q)
            if s >= -1e-6:
                continue
            found += 1
            step_f = pinv_solve(H, g)
            L = compose(base, t)
            _, gL, HL = L.evaluate(x)
            step_L = pinv_solve(HL, gL)
            assert float(step_f @ step_L) < 0.0
        assert found >= 10

    def test_induced_schedule_records_negative_alpha(self):
        base = make_benchmark("beale")
        t = make_table1("polynomial", r=0.25)
        x = np.array([1.2, 1.8])
        f, g, H = base.evaluate(x)
        from newton_transforms.linalg import dual_norm_sq
        from newton_transforms.transforms import scaling_factor

        s = scaling_factor(t, f, dual_norm_sq(H, g).value)
        assume_negative = s < 0
        tr = run_newton(base, InducedSchedule(1.0, t), x, NewtonConfig(max_iters=1))
        if assume_negative:
            assert tr.alphas[0] < 0


class TestEquivalence:
    def test_linear_transform_trivial(self):
        loss = make_benchmark("rosenbrock")
        res = run_equivalence(loss, linear(3.0, -2.0), ConstantSchedule(1.0), [-1.2, 1.0], NewtonConfig(max_iters=20))
        assert res.max_deviation <= 1e-10
        for s in res.trace_L.scalings[:-1]:
            assert s == pytest.approx(1.0)

    def test_rosenbrock_exponential(self):
        loss = make_benchmark("rosenbrock")
        res = run_equivalence(loss, exponential(0.1), ConstantSchedule(0.5), [-0.5, 0.5], NewtonConfig(max_iters=20))
        assert res.n_common >= 10
        assert res.max_deviation <= 1e-8
        assert res.qualified

    def test_iterate_deviation_matches_the_loop_bit_for_bit(self):
        # equivalence traces of the recipe's transforms, then traces of unequal
        # length, with non-finite heads and tails, one-dimensional, and with
        # under- and overflowing terms
        cases = []
        for tname, params in (("polynomial", dict(r=2.0)), ("exponential", dict(a=0.02)), ("sigmoid", {})):
            for lname, x0 in (("rosenbrock", (-1.2, 1.0)), ("goldstein_price", (0.1, -0.9))):
                res = run_equivalence(make_benchmark(lname), make_table1(tname, **params), ConstantSchedule(1.0),
                                      x0, NewtonConfig(max_iters=12))
                cases.append((res.trace_f.xs, res.trace_L.xs))
        rng = np.random.default_rng(7)
        for d in (1, 2, 5):
            a = list(rng.standard_normal((9, d)) * 10.0 ** rng.uniform(-3, 3, (9, 1)))
            b = [x * (1.0 + 1e-9 * rng.standard_normal(d)) for x in a]
            nan, inf = np.full(d, np.nan), np.where(np.arange(d) == 0, -np.inf, 1.0)
            cases += [(a, b), (a, b[:4]), (a[:3], b), (a[:5] + [nan] + a[6:], b), (a, b[:7] + [inf, b[8]]),
                      ([nan] + a, [inf] + b), (a[:1], b[:1]), (a, [x + 1e-170 for x in a]),
                      ([1e200 * x for x in a], [-1e200 * x for x in a]), (a + [np.full(d, 1e308)], b + [-a[0]])]
        for xs_a, xs_b in cases:
            with np.errstate(over="ignore", invalid="ignore"):  # the loop's squares overflow at 1e200
                want = reference_iterate_deviation(xs_a, xs_b)
            got = iterate_deviation(xs_a, xs_b)
            assert (type(got), np.float64(got).tobytes()) == (type(want), np.float64(want).tobytes())

    def test_star_cauchy_induced_matches_unit_L_run(self):
        # Newton on f with alpha = 1/scaling reproduces unit Newton on 2x arctan x
        from newton_transforms.starconvex import make_star_transform, radial_star_loss

        radial = make_radial("cauchy")
        f1d = as_1d_loss(radial)
        star_loss, star_t = radial_star_loss(radial)
        cfg = NewtonConfig(max_iters=60)
        tr_L = run_newton(star_loss, ConstantSchedule(1.0), [0.8], cfg)
        tr_ind = run_newton(f1d, InducedSchedule(1.0, make_star_transform("cauchy")), [0.8], cfg)
        assert tr_L.termination == CONVERGED
        assert tr_ind.termination == CONVERGED
        n = min(len(tr_L.xs), len(tr_ind.xs))
        for k in range(n):
            assert abs(tr_L.xs[k][0] - tr_ind.xs[k][0]) / (1 + abs(tr_L.xs[k][0])) <= 1e-8


class TestLM:
    def test_zero_lambda_is_newton_step(self):
        rng = np.random.default_rng(1)
        loss = make_polynorm(spd(rng, 3), 2)
        x = rng.standard_normal(3)
        step = lm_step(loss, x, 0.0)
        f, g, H = loss.evaluate(x)
        np.testing.assert_allclose(step, np.linalg.solve(H, g), rtol=1e-12)

    def test_large_lambda_limit(self):
        # the identity term dominates: step -> g / lam (loss with O(1) Hessian)
        loss = make_polynorm(np.eye(2), 2)
        x = np.array([0.7, -0.4])
        _, g, _ = loss.evaluate(x)
        step = lm_step(loss, x, 1e8)
        np.testing.assert_allclose(step, g / 1e8, rtol=1e-6)

    def test_diagonal_hand_value(self):
        # H = diag(1,2), g = (1,1), lam = 1 -> (1/2, 1/3)
        loss = SmoothLoss("fixture", 2, lambda x: (0.0, np.array([1.0, 1.0]), np.diag([1.0, 2.0])))
        np.testing.assert_allclose(lm_step(loss, [0.0, 0.0], 1.0), [0.5, 1.0 / 3.0], rtol=1e-14)

    def test_singular_regularized_hessian_rejected_without_warning(self):
        # H + lam I = diag(0, 2): LAPACK finds the zero pivot
        loss = SmoothLoss("saddle", 2, lambda x: (0.0, np.array([1.0, 1.0]), np.diag([-1.0, 1.0])))
        with pytest.raises(InputError, match="singular at lambda = 1"):
            lm_step(loss, [0.0, 0.0], 1.0)

    def test_step_equals_numpy_solve_bit_for_bit(self):
        loss = make_benchmark("rosenbrock")
        rng = np.random.default_rng(5)
        for x, lam in zip(rng.uniform(-2, 2, (20, 2)), rng.uniform(-5, 5, 20)):
            _, g, H = loss.evaluate(x)
            assert lm_step(loss, x, lam).tobytes() == np.linalg.solve(H + lam * np.eye(2), g).tobytes()

    def test_linear_transform_residual_zero(self):
        loss = make_benchmark("rosenbrock")
        res = lm_invariance_residual(loss, linear(2.0, 0.0), [-0.5, 0.5], 0.1)
        assert res <= 1e-9  # lambda_phi = a * lambda reproduces the step exactly

    def test_nonlinear_transform_residual_positive(self):
        loss = make_benchmark("rosenbrock")
        res = lm_invariance_residual(loss, exponential(1.0), [-0.5, 0.5], 0.1)
        assert res > 1e-6

    def test_stacked_residuals_match_one_solve_per_candidate_bit_for_bit(self):
        # the per-candidate loop that lm_invariance_residual and the lemma3_demo oracle ran
        def residual(HL, gL, target, lam):
            try:
                r = np.linalg.norm(np.linalg.solve(HL + lam * np.eye(len(gL)), gL) - target)
            except np.linalg.LinAlgError:
                return np.inf
            return r if np.isfinite(r) else np.inf

        loss = make_benchmark("rosenbrock")
        rng = np.random.default_rng(7)
        decades = np.logspace(-8, 6, 113)
        lams = np.concatenate([-decades[::-1], [0.0], decades, rng.uniform(-1e3, 1e3, 50), [-2.0, -3.0]])
        for x in ([-0.5, 0.5], [0.9, 0.7], [0.1, 0.2]):
            target = lm_step(loss, x, 0.1)
            _, gL, HL = compose(loss, exponential(1.0)).evaluate(x)
            for H in (HL, np.diag([2.0, 3.0])):  # H - 2 I and H - 3 I are singular: those rows read inf
                want = np.array([residual(H, gL, target, lam) for lam in lams])
                got = lm_residuals(H, gL, target, lams)
                assert got.tobytes() == want.tobytes()
                assert all(lm_residuals(H, gL, target, np.array([lam]))[0] == w for lam, w in zip(lams, want))
        assert np.isinf(lm_residuals(np.diag([2.0, 3.0]), gL, target, np.array([-2.0, -3.0]))).all()

    def test_dimension_guard(self):
        loss = as_1d_loss(make_radial("cauchy"))
        with pytest.raises(InputError):
            lm_invariance_residual(loss, exponential(1.0), [0.5], 0.1)

    def test_overflowing_transformed_loss_rejected_without_warning(self):
        # e^f overflows at f(-4, -3.66) = 38677: the transformed Hessian is not finite
        with pytest.raises(InputError, match="non-finite"):
            lm_invariance_residual(make_benchmark("rosenbrock"), exponential(1.0), [-4.0, -3.66], 0.1)

    def test_eigenvector_geometry_rejected(self):
        # radial loss in 2D: gradient is always an eigenvector of the Hessian
        def ev(x):
            r2 = float(x @ x)
            return 0.25 * r2**2, r2 * x, r2 * np.eye(2) + 2.0 * np.outer(x, x)

        loss = SmoothLoss("radial4", 2, ev)
        with pytest.raises(InputError):
            lm_invariance_residual(loss, exponential(1.0), [0.3, 0.4], 0.1)


class TestSingularScaling:
    def test_induced_schedule_terminates_singular(self):
        # sqrt transform of a quadratic: scaling = 1 - 0.5 * (dual/f) = 0 exactly
        loss = make_polynorm(np.eye(2), 2)
        t = make_table1("polynomial", r=0.5)
        tr = run_newton(loss, InducedSchedule(1.0, t), [1.0, -0.5])
        assert tr.termination == "singular_scaling"
        assert tr.iterations == 0

    def test_forwarded_schedule_truncates_equivalence(self):
        from newton_transforms.newton import SINGULAR_SCALING

        loss = make_polynorm(np.eye(2), 2)
        t = make_table1("polynomial", r=0.5)
        res = run_equivalence(loss, t, ConstantSchedule(1.0), [1.0, -0.5], NewtonConfig(max_iters=5))
        assert res.trace_L.termination == SINGULAR_SCALING
        assert res.n_common == 1
        assert not res.qualified


class TestForwardedIterationCost:
    """A forwarded run evaluates the base loss once per iterate, and the
    per-iterate checks still fire at any iterate."""

    @staticmethod
    def counted(loss):
        calls = []

        def ev(x):
            calls.append(1)
            return loss._eval(x)

        return replace(loss, _eval=ev), calls

    def test_run_equivalence_evaluates_base_once_per_iterate(self):
        loss, calls = self.counted(make_benchmark("rosenbrock"))
        res = run_equivalence(loss, make_table1("exponential", a=0.02), ConstantSchedule(1.0), [-1.2, 1.0])
        assert (res.trace_f.termination, res.trace_L.termination) == (CONVERGED, CONVERGED)
        assert res.trace_L.iterations > 3
        assert len(calls) == len(res.trace_f.xs) + len(res.trace_L.xs)

    def test_cli_forwarded_schedule_evaluates_base_once_per_iterate(self):
        loss, calls = self.counted(make_benchmark("beale"))
        schedule, driven = _schedule("forwarded:0.5", loss, make_table1("polynomial", r=2.0))
        tr = run_newton(driven, schedule, [1.0, 1.2], NewtonConfig(max_iters=12))
        assert tr.iterations == 12
        assert len(calls) == len(tr.xs)

    @staticmethod
    def run_turning(forwarded, max_iters=100, H_late=None, g_late=None):
        """A half-step run on 0.5 ||x||^2 from (1, 1), or the forwarded run on
        exp of it, where the Hessian or gradient is replaced from iterate 3 on
        (the first with ||x|| < 0.25)."""

        def ev(x):
            late = np.linalg.norm(x) < 0.25
            g = g_late if late and g_late is not None else np.array(x)
            H = H_late if late and H_late is not None else np.eye(2)
            return 0.5 * float(x @ x), g, H

        loss, cfg = SmoothLoss("turning", 2, ev), NewtonConfig(max_iters=max_iters)
        if not forwarded:
            return run_newton(loss, ConstantSchedule(0.5), [1.0, 1.0], cfg)
        t = exponential(0.1)
        return run_newton(compose(loss, t), ForwardedSchedule(0.5, t, loss), [1.0, 1.0], cfg)

    @pytest.mark.parametrize("forwarded", [False, True])
    def test_hessian_turning_asymmetric_raises(self, forwarded):
        H_late = np.array([[1.0, 0.5], [0.0, 1.0]])
        assert self.run_turning(forwarded, max_iters=2, H_late=H_late).iterations == 2
        with pytest.raises(InputError, match="asymmetry"):
            self.run_turning(forwarded, H_late=H_late)

    @pytest.mark.parametrize("forwarded", [False, True])
    def test_gradient_turning_misshapen_raises(self, forwarded):
        assert self.run_turning(forwarded, max_iters=2, g_late=np.ones(3)).iterations == 2
        with pytest.raises(InputError, match="gradient shape"):
            self.run_turning(forwarded, g_late=np.ones(3))

    @pytest.mark.parametrize("forwarded", [False, True])
    def test_hessian_turning_non_finite_diverges(self, forwarded):
        H_late = np.array([[1.0, np.nan], [np.nan, 1.0]])
        assert self.run_turning(forwarded, max_iters=2, H_late=H_late).iterations == 2
        tr = self.run_turning(forwarded, H_late=H_late)
        assert (tr.termination, tr.iterations) == (DIVERGED, 3)
