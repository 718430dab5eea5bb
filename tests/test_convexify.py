import numpy as np
import pytest

from checks import check_transform
from newton_transforms.cli import main
from newton_transforms.convexify import (
    bordered_hessian,
    check_pseudoconvex,
    compact_constant,
    exp_convexifier,
    nested_bound_convexifier,
    schaible_r,
    strict_schaible_batch,
    verify_convexified,
)
from newton_transforms.errors import DomainError, EvaluationError, InputError
from newton_transforms.linalg import symmetrize
from newton_transforms.losses import (
    SmoothLoss,
    as_1d_loss,
    as_point,
    make_benchmark,
    make_counterexample,
    make_radial,
)
from newton_transforms.newton import ConstantSchedule, NewtonConfig, run_equivalence
from newton_transforms.transforms import exponential, linear, make_table1


def quadratic(A):
    A = np.asarray(A, dtype=float)

    def ev(x):
        return 0.5 * float(x @ A @ x), A @ x, A.copy()

    return SmoothLoss("quadratic", A.shape[0], ev, minimizer=np.zeros(A.shape[0]), min_value=0.0)


def saddle():
    def ev(x):
        return x[0] ** 2 - x[1] ** 2, np.array([2 * x[0], -2 * x[1]]), np.diag([2.0, -2.0])

    return SmoothLoss("saddle", 2, ev)


CAUCHY_1D = as_1d_loss(make_radial("cauchy"))


class TestCheckPseudoconvex:
    def test_convex_quadratic_clean(self):
        rep = check_pseudoconvex(quadratic([[2.0, 0.5], [0.5, 1.0]]), ([-2, -2], [2, 2]))
        assert rep.ok

    def test_cauchy_1d_clean(self):
        rep = check_pseudoconvex(CAUCHY_1D, ([-3.0], [3.0]), n_samples=400)
        assert rep.ok

    def test_saddle_violations(self):
        rep = check_pseudoconvex(saddle(), ([-1, -1], [1, 1]))
        assert not rep.ok

    def test_counterexample_not_pseudoconvex(self):
        # gradient vanishes at x = 1 although f(1) = 1 > 0: condition 2 fails
        rep = check_pseudoconvex(make_counterexample(), ([-0.5], [1.5]), n_samples=600, seed=3)
        assert not rep.ok


class TestSchaibleR:
    def test_convex_quadratic_zero(self):
        loss = quadratic([[3.0, 1.0], [1.0, 2.0]])
        assert schaible_r(loss, [0.7, -0.4], mode="strict") == 0.0
        assert schaible_r(loss, [0.7, -0.4], mode="general") == 0.0

    def test_cauchy_at_one_both_branches_zero(self):
        assert schaible_r(CAUCHY_1D, [1.0], mode="strict") == 0.0
        assert schaible_r(CAUCHY_1D, [1.0], mode="general") == 0.0

    def test_cauchy_at_two_strict_value(self):
        # -1/(g^2 f'') = 625/96
        assert schaible_r(CAUCHY_1D, [2.0], mode="strict") == pytest.approx(625.0 / 96.0, rel=1e-12)

    def test_cauchy_at_two_general_value(self):
        # M_1/D_1 = f''/(-g^2) = (x^2-1)/(2x^2)
        assert schaible_r(CAUCHY_1D, [2.0], mode="general") == pytest.approx(3.0 / 8.0, rel=1e-12)

    def test_zero_on_psd_points_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            M = rng.standard_normal((3, 3))
            loss = quadratic(M @ M.T + 3 * np.eye(3))
            x = rng.standard_normal(3)
            assert schaible_r(loss, x, mode="strict") == 0.0
            assert schaible_r(loss, x, mode="general") == 0.0

    def test_general_makes_hessian_psd_on_cauchy(self):
        from newton_transforms.linalg import min_eigenvalue

        for x in np.linspace(-2.5, 2.5, 41):
            if abs(x) < 1e-9:
                continue
            r = schaible_r(CAUCHY_1D, [x], mode="general")
            f, g, H = CAUCHY_1D.evaluate([x])
            assert min_eigenvalue(H + r * np.outer(g, g)) >= -1e-10

    def test_bordered_hessian_layout(self):
        B = bordered_hessian([1.0, 2.0], np.diag([3.0, 4.0]))
        assert B[0, 0] == 0.0
        np.testing.assert_allclose(B[0, 1:], [1.0, 2.0])
        np.testing.assert_allclose(B, B.T)


class TestCompactConstant:
    def test_convex_loss_zero(self):
        loss = quadratic(np.diag([1.0, 2.0]))
        grid = [np.array([a, b]) for a in np.linspace(-1, 1, 9) for b in np.linspace(-1, 1, 9)]
        assert compact_constant(loss, [1.0, 0.0], grid) == 0.0

    def test_cauchy_golden_value(self):
        # strict-branch max over the grid sits at the point nearest |x| = 1;
        # independent oracle: maximize -1/(f'^2 f'') = (1+x^2)^4/(8x^2(x^2-1))
        grid = np.arange(-2.0, 2.0 + 1e-9, 1e-3).reshape(-1, 1)
        c = compact_constant(CAUCHY_1D, [2.0], grid)

        def r_strict(x):
            return (1 + x * x) ** 4 / (8 * x * x * (x * x - 1)) if x * x > 1 else 0.0

        oracle = max(r_strict(x) for x in grid[:, 0])
        assert c == pytest.approx(oracle, rel=1e-12)
        assert c > 100.0  # blows up near |x| = 1

    def test_geman_mcclure_finite(self):
        loss = as_1d_loss(make_radial("geman_mcclure"))
        grid = np.arange(-0.9, 0.9 + 1e-9, 1e-3).reshape(-1, 1)
        c = compact_constant(loss, [0.9], grid)
        assert np.isfinite(c) and c >= 0.0

    def test_empty_sublevel_error(self):
        with pytest.raises(InputError):
            compact_constant(CAUCHY_1D, [0.0], np.array([[2.0], [-2.0]]))


class TestExpConvexifier:
    def test_normalization(self):
        for c in [1e-8, 0.5, 3.0]:
            t = exp_convexifier(c, 1.7)
            assert t.phi(1.7) == pytest.approx(0.0, abs=1e-15)
            assert t.phi_prime(1.7) == pytest.approx(1.0)

    def test_small_c_limit_is_shift(self):
        t = exp_convexifier(1e-8, 0.0)
        for y in [0.1, 1.0, 2.5]:
            assert t.phi(y) == pytest.approx(y, abs=1e-6)

    def test_unit_value(self):
        assert exp_convexifier(1.0, 0.0).phi(1.0) == pytest.approx(np.e - 1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(InputError):
            exp_convexifier(-0.5, 0.0)

    def test_zero_rate_is_linear_shift(self):
        t = exp_convexifier(0.0, 2.0)
        assert t.phi(3.0) == pytest.approx(1.0)
        assert t.ratio(3.0) == 0.0

    def test_domain(self):
        t = exp_convexifier(1.0, 0.0)
        assert t.contains(0.0) and not t.contains(-0.1)
        with pytest.raises(DomainError):
            t.require(-0.1)

    def test_derivative_consistency(self):
        assert check_transform(exp_convexifier(0.7, 0.2), np.linspace(0.2, 3, 12)) == []

    def test_equivalence_harness_with_exp_convexifier(self):
        # scaling factor 1 + c * dual_sq matches the Table-1 exponential row:
        # shifting y -> y - f* leaves phi''/phi' = c unchanged
        loss = make_benchmark("rosenbrock")
        c = 0.08
        res = run_equivalence(loss, exp_convexifier(c, 0.0), ConstantSchedule(0.5),
                              [-0.5, 0.5], NewtonConfig(max_iters=15))
        ref = run_equivalence(loss, exponential(c), ConstantSchedule(0.5),
                              [-0.5, 0.5], NewtonConfig(max_iters=15))
        assert res.max_deviation <= 1e-8
        sc = [s for s in res.trace_L.scalings if np.isfinite(s)]
        sc_ref = [s for s in ref.trace_L.scalings if np.isfinite(s)]
        np.testing.assert_allclose(sc, sc_ref, rtol=1e-9)


class TestNestedBoundConvexifier:
    def test_zero_bound_is_identity_shift(self):
        t = nested_bound_convexifier(lambda s: 0.0, 0.0, 5.0)
        for y in [0.0, 0.3, 2.0, 4.9]:
            assert t.phi(y) == pytest.approx(y, abs=1e-9)
            assert t.phi_prime(y) == pytest.approx(1.0, abs=1e-10)

    def test_constant_bound_matches_exp_convexifier(self):
        c = 0.8
        t = nested_bound_convexifier(lambda s: c, 0.0, 3.0)
        ref = exp_convexifier(c, 0.0)
        for y in np.linspace(0.0, 3.0, 13):
            assert t.phi(y) == pytest.approx(ref.phi(y), abs=1e-8)
            assert t.phi_prime(y) == pytest.approx(ref.phi_prime(y), rel=1e-8)

    def test_hand_integrated_bound(self):
        # h(s) = 1/(1+s): phi'(y) = 1 + y, phi(y) = y + y^2/2
        t = nested_bound_convexifier(lambda s: 1.0 / (1.0 + s), 0.0, 4.0)
        for y in [0.2, 1.0, 3.5]:
            assert t.phi_prime(y) == pytest.approx(1.0 + y, rel=1e-9)
            assert t.phi(y) == pytest.approx(y + 0.5 * y * y, rel=1e-9)

    def test_beyond_ymax_raises(self):
        t = nested_bound_convexifier(lambda s: 1.0, 0.0, 2.0)
        with pytest.raises(DomainError):
            t.phi(2.5)

    def test_derivative_consistency(self):
        t = nested_bound_convexifier(lambda s: 1.0 / (1.0 + s), 0.0, 4.0)
        assert check_transform(t, np.linspace(0.1, 3.9, 10), rtol=1e-5) == []


class TestVerifyConvexified:
    def test_cauchy_certificate(self):
        grid = np.arange(-2.0, 2.0 + 1e-9, 1e-3).reshape(-1, 1)
        c = compact_constant(CAUCHY_1D, [2.0], grid)
        rep = verify_convexified(CAUCHY_1D, exp_convexifier(c, 0.0), grid)
        assert rep.min_eig >= -1e-8
        assert rep.passed

    def test_compact_constant_pointwise_psd(self):
        grid = np.arange(-2.0, 2.0 + 1e-9, 1e-3).reshape(-1, 1)
        c = compact_constant(CAUCHY_1D, [2.0], grid)
        from newton_transforms.linalg import min_eigenvalue

        for x in np.linspace(-2, 2, 101):
            f, g, H = CAUCHY_1D.evaluate([x])
            A = H + c * np.outer(g, g)
            assert min_eigenvalue(A) >= -1e-8 * (1.0 + np.abs(np.linalg.eigvalsh(H)).max())

    def test_counterexample_defeats_every_table1_transform(self):
        loss = make_counterexample()
        grid = (np.arange(-0.5, 1.5, 1e-3) + 5e-4).reshape(-1, 1)  # offset avoids the kink
        transforms = [linear(1.0), make_table1("polynomial", r=0.5), make_table1("polynomial", r=3.0),
                      exponential(1.0), make_table1("logarithmic", a=1.0), make_table1("sigmoid")]
        for t in transforms:
            rep = verify_convexified(loss, t, grid)
            assert rep.min_eig < -1e-4, t.name

    def test_convex_quadratic_linear_min_eig(self):
        A = np.array([[2.0, 0.3], [0.3, 1.0]])
        loss = quadratic(A)
        grid = [np.array([a, b]) for a in np.linspace(-1, 1, 7) for b in np.linspace(-1, 1, 7)]
        rep = verify_convexified(loss, linear(5.0, 1.0), grid)
        from newton_transforms.linalg import min_eigenvalue

        assert rep.min_eig == pytest.approx(min_eigenvalue(A), rel=1e-12)


# ----------------------------------------------------------------------------
# The batched grid pass against the per-point loops it replaced
# ----------------------------------------------------------------------------

def _loop_strict_r(loss, x):
    f, g, H = loss.evaluate(x)
    H = symmetrize(H)
    if float(np.linalg.det(H)) < 0.0:
        quad = float(g @ H @ g)
        if quad != 0.0:
            return max(0.0, -1.0 / quad)
    return 0.0


@np.errstate(over="ignore", invalid="ignore")
def _loop_compact_constant(loss, x0, grid):
    f0 = loss.value(x0)
    cands = []
    for x in grid:
        x = as_point(x, loss.dimension)
        try:
            if loss.value(x) <= f0:
                cands.append(_loop_strict_r(loss, x))
        except (DomainError, EvaluationError):
            continue
    return max(0.0, max(cands))


@np.errstate(over="ignore", invalid="ignore")
def _loop_verify_convexified(loss, t, grid):
    best, worst_norm, argmin, n_eval, n_skip = np.inf, 0.0, None, 0, 0
    for x in grid:
        x = as_point(x, loss.dimension)
        try:
            f, g, H = loss.evaluate(x)
            r = t.ratio(f)
        except (DomainError, EvaluationError):
            n_skip += 1
            continue
        A = symmetrize(symmetrize(H) + r * np.outer(g, g))
        lam = float(np.linalg.eigvalsh(A)[0])
        worst_norm = max(worst_norm, float(np.max(np.abs(np.linalg.eigvalsh(A)))))
        n_eval += 1
        if lam < best:
            best, argmin = lam, x
    return best, worst_norm, argmin, n_eval, n_skip


def _loop_check_pseudoconvex(loss, sample_box, n_samples=200, seed=0):
    lo, hi = (np.asarray(b, dtype=float) for b in sample_box)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n_samples, loss.dimension))
    evals = []
    for x in pts:
        try:
            evals.append((x, *loss.evaluate(x)))
        except (DomainError, EvaluationError):
            continue
    f_min = min(e[1] for e in evals)
    violations = []
    for x, f, g, H in evals:
        gnorm = np.linalg.norm(g)
        hnorm = max(float(np.max(np.abs(np.linalg.eigvalsh(symmetrize(H))))), 1e-30)
        stationary = gnorm < 1e-8
        if stationary:
            if f > f_min + 1e-6:
                violations.append((x, f"stationary with f = {f} > sampled min {f_min}"))
            directions = rng.standard_normal((8, loss.dimension))
        else:
            raw = rng.standard_normal((8, loss.dimension))
            directions = raw - np.outer(raw @ g, g) / gnorm**2
        for v in directions:
            vn = np.linalg.norm(v)
            if vn <= 1e-12:
                continue
            v = v / vn
            if not stationary and abs(v @ g) > 1e-12 * gnorm:
                continue
            curv = float(v @ H @ v)
            if curv < -1e-8 * hnorm:
                violations.append((x, f"tangent curvature {curv} at gradient norm {gnorm}"))
    return violations


def _bits(v):
    return np.float64(v).tobytes()


def _assert_same_certificates(loss, x0, grid, transforms):
    """compact_constant and verify_convexified equal the per-point loops bit
    for bit, on the grid and on its evaluated stack, which they leave as it
    was; returns the reports."""
    stack = loss.evaluate_batch(grid)
    err = stack[3].copy()
    c = compact_constant(loss, x0, grid)
    assert _bits(c) == _bits(_loop_compact_constant(loss, x0, grid)) == _bits(compact_constant(loss, x0, grid, stack))
    reports = []
    for t in transforms(c):
        rep = verify_convexified(loss, t, grid)
        best, worst_norm, argmin, n_eval, n_skip = _loop_verify_convexified(loss, t, grid)
        assert _bits(rep.min_eig) == _bits(best), t.name
        assert _bits(rep.max_norm) == _bits(worst_norm), t.name
        assert rep.argmin.tobytes() == argmin.tobytes(), t.name
        assert (rep.n_evaluated, rep.n_skipped) == (n_eval, n_skip), t.name
        on_stack = verify_convexified(loss, t, grid, stack)
        assert (_bits(on_stack.min_eig), _bits(on_stack.max_norm), on_stack.argmin.tobytes(), on_stack.n_evaluated,
                on_stack.n_skipped) == (_bits(best), _bits(worst_norm), argmin.tobytes(), n_eval, n_skip), t.name
        reports.append(rep)
    assert stack[3].tobytes() == err.tobytes()
    return reports


def test_convexify_command_evaluates_its_grid_once(monkeypatch, tmp_path):
    calls = []
    evaluate_batch = SmoothLoss.evaluate_batch
    monkeypatch.setattr(SmoothLoss, "evaluate_batch", lambda loss, X: calls.append(len(X)) or evaluate_batch(loss, X))
    assert main(["--out-dir", str(tmp_path), "convexify", "--loss", "cauchy1d", "--x0", "2", "--grid=-2:2:0.01"]) == 0
    assert calls == [401]


def _asymmetric_loss():
    def ev(x):
        return float(x @ x), 2.0 * x, np.array([[2.0, 1.0], [0.0, 2.0]])

    return SmoothLoss("asymmetric", 2, ev)


class TestBatchedGridOracle:
    @pytest.mark.parametrize("name", ["geman_mcclure", "welsh", "cauchy"])
    @pytest.mark.parametrize("shift", [0.0, 3.1e-3, -4.7e-3])
    def test_radial_losses_exp_and_nested(self, name, shift):
        loss = as_1d_loss(make_radial(name))
        grid = (np.arange(-2.0, 2.0 + 1e-9, 1e-2) + shift).reshape(-1, 1)
        y_max = 1.5 * loss.value([2.0])
        _assert_same_certificates(loss, [2.0], grid, lambda c: [
            exp_convexifier(c, 0.0), nested_bound_convexifier(lambda y: 1.0 / (1.0 + y), 0.0, y_max)])

    def test_nested_skips_points_past_y_max(self):
        grid = np.arange(-2.0, 2.0 + 1e-9, 1e-2).reshape(-1, 1)
        t = nested_bound_convexifier(lambda y: 2.0, 0.0, 1.0)
        rep, = _assert_same_certificates(CAUCHY_1D, [2.0], grid, lambda c: [t])
        past = int(np.sum(np.log1p(grid[:, 0] ** 2) >= 1.0))
        assert past > 0 and rep.n_skipped == past
        assert rep.n_evaluated + rep.n_skipped == len(grid)

    def test_counterexample_kink_is_skipped(self):
        grid = np.arange(-0.5, 1.5 + 1e-9, 0.125).reshape(-1, 1)
        assert 0.0 in grid[:, 0]
        reports = _assert_same_certificates(make_counterexample(), [2.0], grid, lambda c: [
            exp_convexifier(c, 0.0), linear(1.0), exponential(1.0), make_table1("logarithmic", a=1.0)])
        assert all(rep.n_skipped == 1 for rep in reports)

    @pytest.mark.parametrize("loss, x0, positive", [
        (quadratic([[1.0, 2.0], [2.0, 1.0]]), [1.0, 0.5], True),
        (make_benchmark("rosenbrock"), [-1.2, 1.0], False),
    ], ids=["quadratic", "rosenbrock"])
    def test_two_dimensional_grids(self, loss, x0, positive):
        # indefinite Hessians: the strict branch's row-wise det and g^T H g
        grid = [np.array([a, b]) for a in np.linspace(-1.5, 1.5, 31) for b in np.linspace(-0.5, 2.0, 26)]
        assert any(np.linalg.det(loss.evaluate(x)[2]) < 0.0 for x in grid)
        assert (compact_constant(loss, x0, grid) > 0.0) == positive
        *_, log_rep = _assert_same_certificates(loss, x0, grid, lambda c: [
            exp_convexifier(c, 0.0), linear(1.0), make_table1("logarithmic", a=1.0)])
        assert log_rep.n_skipped == sum(loss.value(x) <= -1.0 for x in grid)  # log(1 + f) needs f > -1

    def test_schaible_strict_equals_per_point_formula(self):
        loss = make_benchmark("rosenbrock")
        for x in ([0.3, 0.5], [-1.0, 1.4], [1.0, 1.0], [0.0, 0.2]):
            assert _bits(schaible_r(loss, x, mode="strict")) == _bits(_loop_strict_r(loss, as_point(x)))

    def test_strict_schaible_batch_edge_rows(self):
        # -1/(g H g) = 0.5; g = 0 gives no coefficient; det(H) > 0 gives
        # none either; -1/(g H g) overflows to inf, without a warning
        G = np.array([[1.0], [0.0], [1.0], [1e-161]])
        H = np.array([[[-2.0]], [[-1.0]], [[3.0]], [[-1.0]]])
        assert strict_schaible_batch(G, H).tolist() == [0.5, 0.0, 0.0, np.inf]

    def test_no_evaluable_point_raises(self):
        loss = make_counterexample()
        with pytest.raises(InputError):
            verify_convexified(loss, linear(1.0), np.array([[0.0]]))
        with pytest.raises(InputError):  # f(0) = 0 is in the sublevel set, its Hessian is not
            compact_constant(loss, [2.0], np.array([[0.0]]))
        with pytest.raises(InputError):  # every point lies past y_max
            verify_convexified(CAUCHY_1D, nested_bound_convexifier(lambda y: 1.0, 0.0, 0.5), [[2.0], [-2.0]])

    def test_asymmetric_hessian_raises(self):
        loss = _asymmetric_loss()
        grid = np.array([[0.5, 0.5], [-0.5, 0.25]])
        with pytest.raises(InputError):
            compact_constant(loss, [1.0, 1.0], grid)
        with pytest.raises(InputError):
            verify_convexified(loss, linear(1.0), grid)
        with pytest.raises(InputError):
            check_pseudoconvex(loss, ([-1, -1], [1, 1]), n_samples=4)

    @pytest.mark.parametrize("loss, box, n, seed", [
        (saddle(), ([-1, -1], [1, 1]), 200, 0),
        (make_counterexample(), ([-0.5], [1.5]), 600, 3),
        (make_benchmark("rosenbrock"), ([-1.5, -0.5], [1.5, 2.0]), 100, 5),
    ], ids=["saddle", "counterexample", "rosenbrock"])
    def test_check_pseudoconvex_same_violations(self, loss, box, n, seed):
        got = check_pseudoconvex(loss, box, n_samples=n, seed=seed).violations
        want = _loop_check_pseudoconvex(loss, box, n_samples=n, seed=seed)
        assert got and [(x.tobytes(), msg) for x, msg in got] == [(x.tobytes(), msg) for x, msg in want]
