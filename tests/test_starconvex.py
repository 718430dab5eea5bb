import math

import numpy as np
import pytest

from newton_transforms.checks import check_loss, check_transform
from newton_transforms.errors import InputError
from newton_transforms.losses import (
    SmoothLoss,
    as_1d_loss,
    make_polynorm,
    make_radial,
)
from newton_transforms.newton import NewtonConfig
from newton_transforms.quadrature import adaptive_simpson
from newton_transforms.starconvex import (
    convergence_radius,
    convexity_neighborhood,
    convexity_radius,
    make_star_transform,
    radial_star_loss,
    star_value,
)

RADIALS = ["geman_mcclure", "welsh", "cauchy"]


def closed_form_L(name, x):
    x = abs(x)
    if name == "geman_mcclure":
        return x * x / (x * x + 1.0) + x * np.arctan(x)
    if name == "welsh":
        return np.sqrt(np.pi) * x * math.erf(x)
    return 2.0 * x * np.arctan(x)


def closed_form_phi(name, c):
    if name == "geman_mcclure":
        u = np.sqrt(c / (1 - c))
        return c + u * np.arctan(u)
    if name == "welsh":
        u = np.sqrt(-np.log1p(-c))
        return np.sqrt(np.pi) * u * math.erf(u)
    u = np.sqrt(np.expm1(c))
    return 2.0 * u * np.arctan(u)


class TestErf:
    def test_zero(self):
        assert math.erf(0.0) == 0.0

    def test_asymptote(self):
        assert math.erf(6.0) == pytest.approx(1.0, abs=1e-12)

    def test_reference_point(self):
        assert math.erf(1.0) == pytest.approx(0.8427007929497149, abs=1e-9)

    def test_quadrature_oracle_20_points(self):
        for x in np.linspace(-3.8, 3.8, 20):
            oracle = 2.0 / np.sqrt(np.pi) * adaptive_simpson(lambda t: np.exp(-t * t), 0.0, x, 1e-13)
            assert math.erf(x) == pytest.approx(oracle, abs=1e-12)


class TestStarValue:
    def test_quadratic_doubles(self):
        # f = ||x||^2/2: integrand is constant ||x||^2, so g = 2f
        loss = make_polynorm(np.eye(2), 2)
        for x in [np.array([0.7, -0.3]), np.array([1.5, 2.0])]:
            assert star_value(loss, x) == pytest.approx(float(x @ x), rel=1e-7)

    def test_at_minimizer(self):
        loss = make_polynorm(np.eye(2), 2)
        assert star_value(loss, [0.0, 0.0]) == 0.0

    def test_cauchy_at_one_pi_over_two(self):
        loss = as_1d_loss(make_radial("cauchy"))
        assert star_value(loss, [1.0]) == pytest.approx(math.pi / 2.0, abs=1e-6)

    @pytest.mark.parametrize("name", RADIALS)
    def test_line_integral_matches_closed_form(self, name):
        loss = as_1d_loss(make_radial(name))
        rng = np.random.default_rng(8)
        for x in rng.uniform(-2.5, 2.5, size=50):
            assert star_value(loss, [x]) == pytest.approx(closed_form_L(name, x), abs=1e-6)


class TestRadialStarLoss:
    @pytest.mark.parametrize("name", RADIALS)
    def test_loss_view_matches_closed_form(self, name):
        loss, _ = radial_star_loss(make_radial(name))
        for x in np.linspace(-3, 3, 25):
            assert loss.value([x]) == pytest.approx(closed_form_L(name, x), abs=1e-8)

    @pytest.mark.parametrize("name", RADIALS)
    def test_transform_view_matches_closed_form(self, name):
        _, t = radial_star_loss(make_radial(name))
        radial = make_radial(name)
        for r in np.linspace(0.05, 2.5, 30):
            c = radial.psi(r)
            assert t.phi(c) == pytest.approx(closed_form_phi(name, c), abs=1e-8)

    @pytest.mark.parametrize("name", RADIALS)
    def test_transform_of_value_equals_loss(self, name):
        # phi(psi(x)) = L(x)
        loss, t = radial_star_loss(make_radial(name))
        base = as_1d_loss(make_radial(name))
        for x in np.linspace(0.05, 2.8, 30):
            assert t.phi(base.value([x])) == pytest.approx(loss.value([x]), abs=1e-8)

    @pytest.mark.parametrize("name", RADIALS)
    def test_loss_derivatives_fd(self, name):
        loss, _ = radial_star_loss(make_radial(name))
        rng = np.random.default_rng(4)
        pts = [[x] for x in rng.uniform(-2.5, 2.5, size=40) if abs(x) > 1e-3]
        assert check_loss(loss, pts, rtol_grad=1e-4, rtol_hess=1e-4) == []

    @pytest.mark.parametrize("name", RADIALS)
    def test_transform_derivatives_fd(self, name):
        radial = make_radial(name)
        _, t = radial_star_loss(radial)
        cs = [radial.psi(r) for r in np.linspace(0.1, 2.0, 12)]
        assert check_transform(t, cs, rtol=1e-5) == []

    @pytest.mark.parametrize("name", RADIALS)
    def test_appendix_phi_prime_formula(self, name):
        # phi'(c) = 1 + (psi^{-1})'(c) * integral_0^c dv/psi^{-1}(v),
        # with the closed forms of the inner integral as oracle
        radial = make_radial(name)
        _, t = radial_star_loss(radial)
        for r in np.linspace(0.1, 2.0, 15):
            c = radial.psi(r)
            if name == "geman_mcclure":
                inner = np.arcsin(np.sqrt(c)) + np.sqrt(c * (1 - c))
                dinv = 1.0 / (2.0 * np.sqrt(c * (1 - c) ** 3))
            elif name == "welsh":
                inner = np.sqrt(np.pi) * math.erf(np.sqrt(-np.log1p(-c)))
                dinv = 1.0 / (2.0 * (1 - c) * np.sqrt(-np.log1p(-c)))
            else:
                inner = 2.0 * np.arctan(np.sqrt(np.expm1(c)))
                dinv = np.exp(c) / (2.0 * np.sqrt(np.expm1(c)))
            assert t.phi_prime(c) == pytest.approx(1.0 + dinv * inner, rel=1e-8)

    @pytest.mark.parametrize("name", RADIALS)
    def test_star_convexity_inequality(self, name):
        # L(x* + lam (x - x*)) <= (1 - lam) L(x*) + lam L(x)
        loss, _ = radial_star_loss(make_radial(name))
        rng = np.random.default_rng(11)
        for x in rng.uniform(-3.0, 3.0, size=50):
            Lx = loss.value([x])
            for lam in np.arange(0.1, 0.95, 0.1):
                lhs = loss.value([lam * x])
                assert lhs <= (1 - lam) * loss.min_value + lam * Lx + 1e-10

    def test_phi_prime_at_zero_is_two(self):
        for name in RADIALS:
            _, t = radial_star_loss(make_radial(name))
            assert t.phi_prime(0.0) == pytest.approx(2.0)
            assert t.phi(0.0) == 0.0


class TestConvexityNeighborhood:
    def test_cauchy_everywhere(self):
        assert convexity_neighborhood(make_radial("cauchy"), 100.0, grid_step=0.05)

    def test_quadratic_profile(self):
        from newton_transforms.losses import RadialLoss

        quad = RadialLoss("half_square", lambda r: 0.5 * r * r, lambda r: r, lambda r: 1.0,
                          lambda c: np.sqrt(2 * c), np.inf)
        assert convexity_neighborhood(quad, 50.0, grid_step=0.1)

    def test_welsh_original_profile_fails_for_large_M(self):
        # psi'' + psi'/r = 4 e^{-r^2} (1 - r^2) < 0 at r = 2
        assert not convexity_neighborhood(make_radial("welsh"), 2.5, grid_step=0.05)
        assert convexity_neighborhood(make_radial("welsh"), 0.9, grid_step=0.01)


class TestRadii:
    """Empirical basin radii (actual Newton runs) and convexity radii.

    The reported radii in the source table are the convexity radii; the
    actual unit-step Newton basins are strictly smaller except for the
    fully convex transformed Cauchy profile.
    """

    def test_empirical_basin_radii_originals(self):
        expected = {"geman_mcclure": 1 / np.sqrt(7), "welsh": 0.5, "cauchy": 1 / np.sqrt(3)}
        for name, want in expected.items():
            res = convergence_radius(as_1d_loss(make_radial(name)), bracket_hi=4.0)
            assert res.monotone
            assert res.radius == pytest.approx(want, abs=1e-3), name

    def test_empirical_basin_radii_transformed(self):
        # frozen from bisection of the closed-form Newton maps of the three
        # transformed profiles (independent scalar iteration, 60 rounds)
        expected = {"geman_mcclure": 0.5077, "welsh": 0.6460, "cauchy": 0.8172}
        for name, want in expected.items():
            loss, _ = radial_star_loss(make_radial(name))
            res = convergence_radius(loss, bracket_hi=4.0)
            assert res.radius == pytest.approx(want, abs=2e-3), name

    def test_convexity_radii_match_reported_table(self):
        # originals: 1/sqrt(3), 1/sqrt(2), 1; transformed: 1, 1, +inf
        for name, want in {"geman_mcclure": 1 / np.sqrt(3), "welsh": 1 / np.sqrt(2), "cauchy": 1.0}.items():
            res = convexity_radius(as_1d_loss(make_radial(name)), bracket_hi=8.0)
            assert res.radius == pytest.approx(want, abs=1e-3), name
        for name, want in {"geman_mcclure": 1.0, "welsh": 1.0}.items():
            loss, _ = radial_star_loss(make_radial(name))
            res = convexity_radius(loss, bracket_hi=8.0)
            assert res.radius == pytest.approx(want, abs=1e-3), name
        loss, _ = radial_star_loss(make_radial("cauchy"))
        assert convexity_radius(loss, bracket_hi=8.0).radius == np.inf

    def test_unit_newton_on_transformed_cauchy_converges_from_0p8(self):
        from newton_transforms.newton import CONVERGED, ConstantSchedule, run_newton

        loss, _ = radial_star_loss(make_radial("cauchy"))
        tr = run_newton(loss, ConstantSchedule(1.0), [0.8], NewtonConfig(max_iters=80))
        assert tr.termination == CONVERGED
        assert abs(tr.final_x[0]) <= 1e-8

    def test_broken_loss_raises(self):
        def ev(x):
            return float(x[0]), np.array([1.0]), np.array([[0.0]])

        loss = SmoothLoss("linear1d", 1, ev, minimizer=np.array([0.0]))
        with pytest.raises(InputError):
            convergence_radius(loss, bracket_hi=1.0)


def test_make_star_transform_names():
    for name in RADIALS:
        t = make_star_transform(name)
        assert t.name == f"star({name})"
    with pytest.raises(InputError):
        make_star_transform("tukey")
