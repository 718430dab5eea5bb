import numpy as np
import pytest

from newton_transforms.checks import check_loss
from newton_transforms.errors import DomainError, EvaluationError, InputError
from newton_transforms.losses import (
    as_1d_loss,
    loss_from_spec,
    make_benchmark,
    make_counterexample,
    make_polynorm,
    make_polytope,
    make_radial,
)


def sample_points(loss, n=100, lo=-2.0, hi=2.0, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(n, loss.dimension))


class TestBenchmarks:
    def test_rosenbrock_minimum(self):
        loss = make_benchmark("rosenbrock")
        f, g, _ = loss.evaluate([1.0, 1.0])
        assert f == 0.0
        np.testing.assert_allclose(g, [0.0, 0.0], atol=1e-14)

    def test_rosenbrock_origin(self):
        f, g, _ = make_benchmark("rosenbrock").evaluate([0.0, 0.0])
        assert f == pytest.approx(1.0)
        np.testing.assert_allclose(g, [-2.0, 0.0], atol=1e-14)

    def test_beale_minimum(self):
        loss = make_benchmark("beale")
        assert loss.value([3.0, 0.5]) == pytest.approx(0.0, abs=1e-14)

    def test_goldstein_price_minimum(self):
        loss = make_benchmark("goldstein_price")
        f, g, _ = loss.evaluate([0.0, -1.0])
        assert f == pytest.approx(3.0, rel=1e-14)
        np.testing.assert_allclose(g, [0.0, 0.0], atol=1e-10)

    def test_unknown_name(self):
        with pytest.raises(InputError):
            make_benchmark("himmelblau")

    @pytest.mark.parametrize("name", ["rosenbrock", "beale", "goldstein_price"])
    def test_finite_difference_consistency(self, name):
        loss = make_benchmark(name)
        assert check_loss(loss, sample_points(loss)) == []


class TestPolynorm:
    def test_quadratic_identity(self):
        loss = make_polynorm(np.eye(2), 2)
        f, g, H = loss.evaluate([1.0, 0.0])
        assert f == pytest.approx(0.5)
        np.testing.assert_allclose(g, [1.0, 0.0])
        np.testing.assert_allclose(H, np.eye(2))

    def test_quartic_unit_vector(self):
        f, g, _ = make_polynorm(np.eye(2), 4).evaluate([1.0, 0.0])
        assert f == pytest.approx(0.25)
        np.testing.assert_allclose(g, [1.0, 0.0])

    def test_weighted_quadratic(self):
        assert make_polynorm(np.diag([4.0, 1.0]), 2).value([1.0, 1.0]) == pytest.approx(2.5)

    def test_p_one_rejected(self):
        with pytest.raises(InputError):
            make_polynorm(np.eye(2), 1)

    def test_non_pd_rejected(self):
        with pytest.raises(InputError):
            make_polynorm(np.diag([1.0, 0.0]), 2)

    def test_hessian_error_at_zero_for_small_p(self):
        loss = make_polynorm(np.eye(2), 1.5)
        with pytest.raises(EvaluationError):
            loss.evaluate([0.0, 0.0])

    @pytest.mark.parametrize("p", [1.5, 2, 3, 4.5])
    def test_finite_differences(self, p):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((3, 3))
        loss = make_polynorm(M @ M.T + 3 * np.eye(3), p)
        pts = [x for x in sample_points(loss, 50, seed=2) if np.linalg.norm(x) > 1e-3]
        assert check_loss(loss, pts) == []


class TestPolytope:
    def test_one_sided_quadratic(self):
        loss = make_polytope([[1.0, 0.0]], [0.0], 2)
        f, g, _ = loss.evaluate([2.0, 0.0])
        assert f == pytest.approx(4.0)
        np.testing.assert_allclose(g, [4.0, 0.0])

    def test_feasible_point_flat(self):
        loss = make_polytope([[1.0, 0.0]], [0.0], 2)
        f, g, H = loss.evaluate([-1.0, 0.0])
        assert f == 0.0
        np.testing.assert_allclose(g, 0.0)
        np.testing.assert_allclose(H, 0.0)

    def test_two_rows_cubic(self):
        loss = make_polytope([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], 3)
        f, g, _ = loss.evaluate([1.0, 1.0])
        assert f == pytest.approx(2.0)
        np.testing.assert_allclose(g, [3.0, 3.0])

    def test_p_below_two_rejected(self):
        with pytest.raises(InputError):
            make_polytope([[1.0]], [0.0], 1.5)

    def test_value_zero_iff_feasible(self):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((5, 3))
        loss = make_polytope(rows, np.ones(5), 2)
        for x in rng.uniform(-3, 3, size=(200, 3)):
            feasible = bool(np.all(rows @ x - 1.0 <= 0.0))
            value = loss.value(x)
            assert (value == 0.0) == feasible
            assert value >= 0.0

    def test_finite_differences_off_boundary(self):
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((6, 2))
        loss = make_polytope(rows, np.ones(6), 3)
        # keep away from activation boundaries where C2 smoothness degrades
        pts = [x for x in sample_points(loss, 80, seed=3)
               if np.min(np.abs(rows @ x - 1.0)) > 1e-2]
        assert pts and check_loss(loss, pts, rtol_hess=5e-4) == []


class TestRadial:
    def test_cauchy_inverse_pair(self):
        r = make_radial("cauchy")
        assert r.psi(1.0) == pytest.approx(np.log(2.0))
        assert r.psi_inverse(np.log(2.0)) == pytest.approx(1.0)

    def test_welsh_at_zero(self):
        r = make_radial("welsh")
        assert r.psi(0.0) == 0.0
        assert r.psi_prime(0.0) == 0.0

    def test_geman_mcclure_inverse(self):
        r = make_radial("geman_mcclure")
        assert r.psi_inverse(0.5) == pytest.approx(1.0)

    @pytest.mark.parametrize("name", ["geman_mcclure", "welsh", "cauchy"])
    def test_inverse_round_trip(self, name):
        r = make_radial(name)
        for rad in np.linspace(0.01, 3.0, 40):
            assert r.psi_inverse(r.psi(rad)) == pytest.approx(rad, abs=1e-10)

    def test_inverse_domain_errors(self):
        r = make_radial("welsh")
        with pytest.raises(DomainError):
            r.psi_inverse(1.0)
        with pytest.raises(DomainError):
            r.psi_inverse(-0.1)

    def test_inverse_overflow_is_an_evaluation_error(self):
        # sqrt(expm1(c)) overflows for c above about 709.78
        r = make_radial("cauchy")
        assert np.isfinite(r.psi_inverse(709.0))
        with pytest.raises(EvaluationError):
            r.psi_inverse(710.0)

    @pytest.mark.parametrize("name", ["geman_mcclure", "welsh", "cauchy"])
    def test_1d_loss_derivatives(self, name):
        loss = as_1d_loss(make_radial(name))
        assert check_loss(loss, sample_points(loss, 80, seed=4)) == []

    def test_cauchy_1d_values(self):
        loss = as_1d_loss(make_radial("cauchy"))
        f, g, _ = loss.evaluate([0.8])
        assert f == pytest.approx(np.log(1.64))
        assert g[0] == pytest.approx(1.6 / 1.64)

    def test_gradient_zero_at_center(self):
        for name in ["geman_mcclure", "welsh", "cauchy"]:
            loss = as_1d_loss(make_radial(name))
            np.testing.assert_allclose(loss.gradient([0.0]), 0.0)

    def test_welsh_value_at_one(self):
        assert as_1d_loss(make_radial("welsh")).value([1.0]) == pytest.approx(1.0 - np.exp(-1.0))


class TestCounterexample:
    def test_values_from_the_construction(self):
        loss = make_counterexample()
        f, g, _ = loss.evaluate([1.0])
        assert f == pytest.approx(1.0)
        assert g[0] == 0.0
        assert loss.value([1.0 - 2.0 ** (1.0 / 5.0)]) == pytest.approx(1.0)

    def test_kink(self):
        loss = make_counterexample()
        assert loss.value([0.0]) == 0.0
        with pytest.raises(EvaluationError):
            loss.evaluate([0.0])

    def test_finite_differences_away_from_kink(self):
        loss = make_counterexample()
        pts = [x for x in sample_points(loss, 100, seed=6) if abs(x[0]) > 1e-2]
        assert check_loss(loss, pts) == []


class TestSpecParsing:
    @pytest.mark.parametrize("spec,dim", [
        ("rosenbrock", 2), ("beale", 2), ("goldstein_price", 2),
        ("cauchy1d", 1), ("welsh1d", 1), ("geman_mcclure1d", 1),
        ("counterexample", 1), ("polynorm:p=4:d=3", 3), ("polytope:p=2:seed=1", 10),
    ])
    def test_round_trip(self, spec, dim):
        assert loss_from_spec(spec).dimension == dim

    def test_bad_spec(self):
        with pytest.raises(InputError):
            loss_from_spec("nope")
