import math
import re
import warnings

import numpy as np
import pytest

from checks import check_loss, check_transform
from newton_transforms.errors import EvaluationError, InputError
from newton_transforms.losses import (
    SmoothLoss,
    as_1d_loss,
    make_polynorm,
    make_radial,
)
from newton_transforms.newton import ConstantSchedule, NewtonConfig, run_newton
from newton_transforms.quadrature import adaptive_simpson
from newton_transforms.starconvex import (
    BISECT_PASS_ROUNDS,
    PROBE_FACTORS,
    _bisect,
    _bisect_predicate,
    _radial_integrals,
    convergence_radius,
    convexity_radius,
    make_star_transform,
    radial_star_loss,
    star_value,
)
from newton_transforms.transforms import scaling_factor, transform_from_spec

RADIALS = ["geman_mcclure", "welsh", "cauchy"]


def closed_form_I(name, r):
    """I(r) = integral_0^r psi'(t)/t dt."""
    if name == "geman_mcclure":
        return r / (r * r + 1.0) + np.arctan(r)
    if name == "welsh":
        return np.sqrt(np.pi) * math.erf(r)
    return 2.0 * np.arctan(r)


def closed_form_L(name, x):
    return abs(x) * closed_form_I(name, abs(x))


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

    @pytest.mark.parametrize("name", RADIALS)
    def test_loss_at_the_centre_warns_nowhere(self, name):
        # psi'(r) / r was divided at r = 0 as well, where 2 psi''(0) replaces it,
        # and warned outside np.errstate (RuntimeWarnings are errors in this suite)
        f, g, H = radial_star_loss(make_radial(name))[0].evaluate_point(np.array([0.0]))
        assert (f, g.tolist(), H.tolist()) == (0.0, [0.0], [[4.0]])


class TestRadialIntegralTable:
    @pytest.mark.parametrize("name", RADIALS)
    def test_profile_integral_matches_closed_form(self, name):
        integrals = _radial_integrals(make_radial(name))[1]
        for r in np.geomspace(1e-6, 1e20, 300):
            assert integrals(r)[0] == pytest.approx(closed_form_I(name, r), abs=1e-14)

    def test_star_cauchy_far_out(self):
        # f up to 700 puts r = psi^{-1}(f) near 1e152, close to where psi^{-1} overflows
        t, h = make_star_transform("cauchy"), 1e-3
        for c in np.linspace(1.0, 700.0, 120):
            r = np.sqrt(np.expm1(c))
            assert t.phi(c) == pytest.approx(2.0 * r * np.arctan(r), rel=1e-12)
            assert t.phi_prime(c) == pytest.approx(1.0 + np.arctan(r) * (1.0 + r * r) / r, rel=1e-12)
            central = (t.phi_prime(c + h) - t.phi_prime(c - h)) / (2.0 * h)
            assert t.phi_double_prime(c) == pytest.approx(central, rel=1e-6)

    def test_star_cauchy_scaling_factor_warns_nowhere(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.isfinite(scaling_factor(transform_from_spec("star:cauchy"), 377.0, 1.0))

    @pytest.mark.parametrize("name", RADIALS)
    def test_star_loss_overflow_is_an_evaluation_error(self, name):
        # at r = 1.7e308, f* + r I(r) overflows for cauchy (I tends to pi), and
        # I(r) is NaN for geman_mcclure and welsh, whose psi' overflows
        loss = radial_star_loss(make_radial(name))[0]
        with pytest.raises(EvaluationError):
            loss.evaluate([1.7e308])
        f, G, H, err = loss.evaluate_batch([[1.7e308], [1.0], [-1.7e308]])
        assert err.tolist() == [True, False, True] and np.isnan(f[[0, 2]]).all()
        assert f[1] == loss.value([1.0])
        tr = run_newton(loss, ConstantSchedule(1.0), [1.7e308])
        assert (tr.termination, tr.iterations) == ("domain_error", 0)

    @pytest.mark.parametrize("name", RADIALS)
    @pytest.mark.parametrize("center", [0.0, 0.7])
    def test_star_batch_rows_equal_evaluate_and_the_point_formula(self, name, center):
        # both sides of the centre, r = 0 and far radii (f* + r I(r) is not
        # finite at 1.7e308); every row also equals the per-point formula the
        # batch form replaced, which raised where the value was not finite
        radial = make_radial(name, center=center)
        loss, (integral, integrals) = radial_star_loss(radial)[0], _radial_integrals(radial)
        # the batch reads I alone from the table: I(r) of [I(r), K(r)] bit for
        # bit, at r = 0, at panel edges, far out and at random radii
        rs = np.concatenate([[0.0, 1.0 / 16, 1.0, 1e300, 1.7e308], 2.0 ** np.arange(-4, 997, 7),
                             np.random.default_rng(3).uniform(0, 50, 60)])
        with np.errstate(over="ignore", invalid="ignore"):
            assert integral(rs).tobytes() == integrals(rs)[0].tobytes()
            assert all(np.float64(integral(r)).tobytes() == np.float64(integrals(r)[0]).tobytes() for r in rs)
        t = np.concatenate([[0.0, 1e-300, -1e-12, 1e300, 1.7e308, -1.7e308],
                            np.random.default_rng(2).uniform(-5, 5, 60)])
        X = (center + t)[:, None]
        X[0, 0] = center
        with np.errstate(over="ignore", invalid="ignore"):  # psi' squares the far radii
            f, G, H, err = loss.evaluate_batch(X)
        assert err.sum() == 2
        for i, x in enumerate(X):
            with np.errstate(over="ignore", invalid="ignore"):
                d = x[0] - center
                r = abs(d)
                I = integrals(r)[0]
                value = radial.psi(0.0) + float(r) * float(I)
                curv = 2.0 * radial.psi_double_prime(0.0) if r == 0.0 else \
                    radial.psi_double_prime(r) + radial.psi_prime(r) / r
                want = (value, np.array([(I + radial.psi_prime(r)) * np.sign(d)]), np.array([[curv]]))
                if not value < np.inf:
                    assert err[i] and np.isnan([f[i], G[i, 0], H[i, 0, 0]]).all()
                    with pytest.raises(EvaluationError):
                        loss.evaluate(x)
                    continue
                got = loss.evaluate(x)
            assert not err[i]
            for row in ((f[i], G[i], H[i]), got):
                assert [np.asarray(v, dtype=float).tobytes() for v in row] == \
                    [np.asarray(v, dtype=float).tobytes() for v in want], (name, x)


class TestConvexityNeighborhood:
    """The star-transformed profile's curvature psi'' + psi'/r, through the
    convexity radius of the transformed loss."""

    def test_cauchy_everywhere(self):
        assert convexity_radius(radial_star_loss(make_radial("cauchy"))[0]).radius == np.inf

    def test_quadratic_profile(self):
        from newton_transforms.losses import RadialLoss

        quad = RadialLoss("half_square", lambda r: 0.5 * r * r, lambda r: r, lambda r: 1.0,
                          lambda c: np.sqrt(2 * c), np.inf)
        assert convexity_radius(radial_star_loss(quad)[0]).radius == np.inf

    def test_welsh_original_profile_fails_for_large_M(self):
        # psi'' + psi'/r = 4 e^{-r^2} (1 - r^2) < 0 at r = 2
        assert 0.9 < convexity_radius(radial_star_loss(make_radial("welsh"))[0]).radius < 2.5


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

    @pytest.mark.parametrize("search", [convergence_radius, convexity_radius])
    def test_both_searches_check_their_arguments_alike(self, search):
        # convexity_radius once raised TypeError on a loss without a minimizer
        loss = as_1d_loss(make_radial("cauchy"))
        with pytest.raises(InputError, match="known minimizer"):
            search(SmoothLoss("no-minimizer", 1, loss._eval), bracket_hi=1.0)
        for bracket_hi in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(InputError, match="bracket_hi"):
                search(loss, bracket_hi=bracket_hi)


def _serial_bisect(holds, lo, hi):
    """The 50-round point-by-point bisection the batched passes replace."""
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _serial_bisect_predicate(predicate, bracket_hi, min_probe=0.0):
    """The point-by-point probe and bisection search the batched one replaces."""
    if predicate(bracket_hi):
        lo = bracket_hi
        for f in PROBE_FACTORS:
            if not predicate(bracket_hi * f):
                return _serial_bisect(predicate, lo, bracket_hi * f)
            lo = bracket_hi * f
        return np.inf
    probe = bracket_hi
    for _ in range(60):
        probe *= 0.5
        if probe <= min_probe:
            break
        if predicate(probe):
            return _serial_bisect(predicate, probe, bracket_hi)
    raise InputError("predicate fails at arbitrarily small starts: broken loss")


def _batched(predicate, calls=None):
    """A point predicate asked for an array of points at once."""
    def holds(xs):
        if calls is not None:
            calls.append(len(xs))
        return np.array([predicate(x) for x in xs], dtype=bool)
    return holds


class TestBatchedBisection:
    def test_monotone_predicates_bit_for_bit(self):
        rng = np.random.default_rng(0)
        for lo, hi in [(1e-12, 4.0), (0.5, 0.5000001), (3.0, 3000.0), (-2.0, 7.5)]:
            # thresholds at random points, at the bracket ends and on visited midpoints
            visited = _serial_bisect(lambda x: x < lo + 0.3 * (hi - lo), lo, hi)
            cuts = list(rng.uniform(lo, hi, 30)) + [lo, hi, 0.5 * (lo + hi), visited]
            for cut in cuts:
                for pred in (lambda x: x <= cut, lambda x: x < cut):
                    calls = []
                    got = _bisect(_batched(pred, calls), lo, hi)
                    assert np.float64(got).tobytes() == np.float64(_serial_bisect(pred, lo, hi)).tobytes()
                    assert calls == [2 ** BISECT_PASS_ROUNDS - 1] * (50 // BISECT_PASS_ROUNDS) + \
                        [2 ** (50 % BISECT_PASS_ROUNDS) - 1]

    def test_predicates_with_holes_bit_for_bit(self):
        preds = [lambda x: math.sin(1e3 * x) > 0.0, lambda x: int(x * 1e9) % 3 != 0,
                 lambda x: hash(float(x)) % 7 < 4, lambda x: False, lambda x: True]
        for lo, hi in [(1e-12, 4.0), (0.25, 0.75), (-1.0, 1e6)]:
            for pred in preds:
                assert np.float64(_bisect(_batched(pred), lo, hi)).tobytes() == \
                    np.float64(_serial_bisect(pred, lo, hi)).tobytes()

    def test_probe_paths_bit_for_bit(self):
        # +inf (every probe passes), upward probes, downward probes, and a
        # predicate that holds only below min_probe (broken loss)
        for bracket_hi in (1.0, 4.0, 1e3):
            for cut in (np.inf, 5000.0 * bracket_hi, 50.0 * bracket_hi, 3.0 * bracket_hi, 0.3 * bracket_hi,
                        1e-6 * bracket_hi):
                pred = lambda x: x <= cut
                assert np.float64(_bisect_predicate(_batched(pred), bracket_hi)).tobytes() == \
                    np.float64(_serial_bisect_predicate(pred, bracket_hi)).tobytes()
            pred = lambda x: x <= 1e-9
            for probe_floor in (1e-8, 1e-6 * bracket_hi):
                with pytest.raises(InputError, match="broken loss"):
                    _bisect_predicate(_batched(pred), bracket_hi, min_probe=probe_floor)
                with pytest.raises(InputError, match="broken loss"):
                    _serial_bisect_predicate(pred, bracket_hi, min_probe=probe_floor)

    @pytest.mark.parametrize("name", RADIALS)
    def test_radii_equal_the_serial_searches(self, name):
        # convergence_radius with run_newton per start, as before lockstep
        cfg = NewtonConfig(max_iters=30)
        radial = make_radial(name, center=0.4)
        for loss in (as_1d_loss(radial), radial_star_loss(radial)[0]):
            def converges(r, loss=loss):
                tr = run_newton(loss, ConstantSchedule(1.0), np.array([0.4 + r]), cfg)
                return tr.termination == "converged" and abs(tr.final_x[0] - 0.4) <= 1e-6

            want = _serial_bisect_predicate(converges, 4.0, min_probe=100.0 * cfg.xtol)
            res = convergence_radius(loss, bracket_hi=4.0, cfg=cfg)
            assert np.float64(res.radius).tobytes() == np.float64(want).tobytes()
            below = np.linspace(want * 0.02, want * 0.98, 20)
            above = np.linspace(want * 1.02, min(want * 1.5, 4000.0), 20)
            assert res.monotone == (all(map(converges, below)) and not any(map(converges, above)))

    def test_convexity_radius_raises_where_the_serial_scan_did(self):
        # curvature 1 - x (negative beyond 1) and a loss that cannot be
        # evaluated on a band: before the first negative point the scan raises
        # there, after it the band is never reached
        def curved(band):
            def ev(x):
                if band[0] <= x[0] <= band[1]:
                    raise EvaluationError(f"no value at {x[0]}")
                return 0.5 * x[0] ** 2 - x[0] ** 3 / 6.0, np.array([x[0] - 0.5 * x[0] ** 2]), np.array([[1.0 - x[0]]])
            return SmoothLoss("curved", 1, ev, minimizer=np.array([0.0]))

        scan = np.linspace(0.01, 4.0, 400)
        with pytest.raises(EvaluationError, match=re.escape(f"no value at {scan[48]}")):  # first point past 0.485
            convexity_radius(curved((0.485, 0.51)), bracket_hi=4.0)
        assert convexity_radius(curved((3.0, 3.5)), bracket_hi=4.0).radius == pytest.approx(1.0, abs=1e-9)
        probe = np.linspace(0.5, 5.0, 400)  # the first upward probe scan
        with pytest.raises(EvaluationError, match=re.escape(f"no value at {probe[probe >= 0.8][0]}")):
            convexity_radius(curved((0.8, 0.85)), bracket_hi=0.5)


def test_make_star_transform_names():
    for name in RADIALS:
        t = make_star_transform(name)
        assert t.name == f"star({name})"
    with pytest.raises(InputError):
        make_star_transform("tukey")
