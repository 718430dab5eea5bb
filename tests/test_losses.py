import numpy as np
import pytest

from checks import REFERENCE_BENCHMARKS, check_loss, reference_polytope
from newton_transforms.errors import DomainError, EvaluationError, InputError
from newton_transforms.losses import (
    _pow,
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

    @pytest.mark.parametrize("name", sorted(REFERENCE_BENCHMARKS))
    def test_evaluate_and_batch_rows_equal_the_reference_formula(self, name):
        # Points of both signs and zeros of both signs, out to |x| = 1e80
        # where powers overflow to inf and inf - inf gives NaN.
        rng = np.random.default_rng(3)
        near = rng.uniform(-5.0, 5.0, (1000, 2))
        far = rng.choice([-1.0, 1.0], (1500, 2)) * 10.0 ** rng.uniform(-20.0, 80.0, (1500, 2))
        zeros = np.where(rng.uniform(size=(500, 2)) < 0.5, rng.choice([-0.0, 0.0], (500, 2)), far[:500])
        X = np.concatenate([near, far, zeros])
        loss, reference = make_benchmark(name), REFERENCE_BENCHMARKS[name]
        with np.errstate(over="ignore", invalid="ignore"):
            batch = loss.evaluate_batch(X)
            assert not batch[3].any()
            for i, x in enumerate(X):
                want = [np.asarray(v, dtype=float).tobytes() for v in reference(x)]
                assert [np.asarray(v, dtype=float).tobytes() for v in loss.evaluate(x)] == want, x
                assert [v[i].tobytes() for v in batch[:3]] == want, x
        assert np.signbit(X[X == 0.0]).any() and not np.isfinite(batch[0]).all()


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

    @pytest.mark.parametrize("p", [2, 2.5, 3, 4, 5])
    def test_batch_rows_equal_the_scalar_formula_bit_for_bit(self, p):
        # Offsets 1 leave no row active at 0; offsets -1 make all 20 active
        # near 0. Far points overflow s^p.
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            rows = rng.standard_normal((20, 10))
            scales = (1e-3, 0.1, 1.0, 10.0, 100.0, 1e80, 1e150, 1e300)
            X = np.concatenate([rng.standard_normal((40, 10)) * sc for sc in scales] + [np.zeros((1, 10)),
                               10.0 * np.ones((1, 10))])
            seen = set()
            for offsets in (np.ones(20), -np.ones(20)):
                loss = make_polytope(rows, offsets, p)
                loss.evaluate = None  # evaluate_batch must not fall back to the per-row loop
                with np.errstate(over="ignore", invalid="ignore"):
                    batch = loss.evaluate_batch(X)
                    assert not batch[3].any()
                    seen.update(np.count_nonzero(rows @ x - offsets > 0.0) for x in X)
                    for i, x in enumerate(X):
                        want = [np.asarray(v, dtype=float).tobytes() for v in reference_polytope(rows, offsets, p, x)]
                        assert [np.asarray(v).tobytes() for v in loss.evaluate_point(x)] == want, (seed, i)
                        assert [v[i].tobytes() for v in batch[:3]] == want, (seed, i)
                assert not np.isfinite(batch[0]).all()
            assert {0, 20} <= seen and len(seen) > 5


class TestPowIdentity:
    """_pow's array branch (np.float_power) equals the scalar power of each
    element bit for bit, Python float and float64 alike."""

    @staticmethod
    def edge_values():
        rng = np.random.default_rng(0)
        sign = rng.choice([-1.0, 1.0], 200_000)
        with np.errstate(over="ignore"):
            logs = sign * 10.0 ** rng.uniform(-320.0, 310.0, 200_000)
        tiny = np.finfo(float).smallest_subnormal * np.arange(1, 1001)
        subnormals = np.concatenate([tiny, np.finfo(float).smallest_normal - tiny, [0.0, 2.0**-1074, 2.0**-1022]])
        edges = np.finfo(float).max ** (1.0 / np.array([2.0, 3.0, 4.0]))  # where squares, cubes, 4th powers overflow
        near = np.concatenate([edges[:, None] * (1.0 + 1e-15 * np.arange(-500, 501)),
                               np.nextafter(edges, 0.0)[:, None], np.nextafter(edges, np.inf)[:, None]], axis=None)
        values = np.concatenate([logs, subnormals, near, [1.0, 2.0, 0.5]])
        return np.concatenate([values, -values])

    @pytest.mark.parametrize("e", [2, 3, 4])
    def test_array_power_equals_scalar_power(self, e):
        v = self.edge_values()
        assert {0.0, 1.0, -1.0} <= set(v.tolist()) and np.signbit(v[v == 0.0]).any()
        with np.errstate(over="ignore", under="ignore"):
            got = _pow(v, e)
            as_python = np.array([_pow(vi, e) for vi in v.tolist()])
            as_float64 = np.array([vi ** e for vi in v])
        assert got.dtype == float and not np.isfinite(got).all()
        assert got.tobytes() == as_python.tobytes()
        assert got.tobytes() == as_float64.tobytes()


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
            np.testing.assert_allclose(loss.evaluate([0.0])[1], 0.0)

    @pytest.mark.parametrize("x", [1e160, -1e160, 1e300])
    def test_cauchy_far_radii_finite_without_warning(self, x):
        # Runs under the suite's error::RuntimeWarning: x * x overflows past 2^512.
        # evaluate_point, as evaluate would hide a warning of the formulas.
        from newton_transforms.starconvex import radial_star_loss

        radial = make_radial("cauchy")
        f, g, H = as_1d_loss(radial).evaluate_point(np.array([x]))
        assert f == pytest.approx(2.0 * np.log(abs(x)), rel=1e-15)
        assert g[0] == pytest.approx(2.0 / x, rel=1e-15)
        assert H[0, 0] == pytest.approx(-2.0 / x / x, rel=1e-15, abs=1e-320)
        f, g, H = radial_star_loss(radial)[0].evaluate_point(np.array([x]))
        assert f == pytest.approx(np.pi * abs(x), rel=1e-14)  # I(r) -> 2 arctan(inf) = pi
        assert g[0] == pytest.approx(np.pi * np.sign(x), rel=1e-14)
        assert np.isfinite(H).all()

    def test_cauchy_bits_below_the_far_radius(self):
        # the exact forms, as before the asymptotic branch, for scalars and arrays
        from newton_transforms.losses import CAUCHY_FAR_RADIUS

        radial = make_radial("cauchy")
        r = np.append(np.logspace(-3, 150, 200), np.nextafter(CAUCHY_FAR_RADIUS, 0.0))
        exact = (np.log1p(r * r), 2.0 * r / (1.0 + r * r), 2.0 * (1.0 - r * r) / (1.0 + r * r) / (1.0 + r * r))
        for fn, want in zip((radial.psi, radial.psi_prime, radial.psi_double_prime), exact):
            assert fn(r).tobytes() == want.tobytes()
            assert np.array([fn(v) for v in r]).tobytes() == want.tobytes()
        far = np.array([CAUCHY_FAR_RADIUS, 1e200])
        np.testing.assert_array_equal(radial.psi_prime(np.append(r, far))[-2:], 2.0 / far)

    def test_welsh_value_at_one(self):
        assert as_1d_loss(make_radial("welsh")).value([1.0]) == pytest.approx(1.0 - np.exp(-1.0))

    @pytest.mark.parametrize("name", ["geman_mcclure", "welsh", "cauchy"])
    @pytest.mark.parametrize("center", [0.0, -1.3])
    def test_1d_batch_rows_equal_evaluate_bit_for_bit(self, name, center):
        # rows on both sides of the centre, the centre itself (r = 0) and far
        # radii; each also equals the per-point formula the batch form replaced
        radial = make_radial(name, center=center)
        loss = as_1d_loss(radial)
        rng = np.random.default_rng(3)
        t = np.concatenate([[0.0, 1e-300, -1e-300, 1e160, -1e300], rng.uniform(-6.0, 6.0, 60)])
        X = (center + t)[:, None]
        X[0, 0] = center
        with np.errstate(over="ignore", invalid="ignore"):  # r * r overflows in psi at the far radii
            f, G, H, err = loss.evaluate_batch(X)
            rows = [loss.evaluate(x) for x in X]
        assert not err.any()
        for i, (x, got) in enumerate(zip(X, rows)):
            r = abs(x[0] - center)
            with np.errstate(over="ignore", invalid="ignore"):
                if r == 0.0:
                    want = radial.psi(0.0), np.zeros(1), np.array([[radial.psi_double_prime(0.0)]])
                else:
                    sgn = 1.0 if x[0] > center else -1.0
                    want = (radial.psi(r), np.array([radial.psi_prime(r) * sgn]),
                            np.array([[radial.psi_double_prime(r)]]))
            for row in ((f[i], G[i], H[i]), got):
                assert [np.asarray(v, dtype=float).tobytes() for v in row] == \
                    [np.asarray(v, dtype=float).tobytes() for v in want], (name, x)


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
