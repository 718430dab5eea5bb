import numpy as np
import pytest

from checks import (
    check_loss,
    check_transform,
    reference_exp_convexifier,
    reference_exponential,
    reference_linear,
    reference_logarithmic,
    reference_nested_bound_convexifier,
    reference_polynomial,
    reference_sigmoid,
    reference_star_transform,
)
from newton_transforms.convexify import exp_convexifier, nested_bound_convexifier
from newton_transforms.errors import DomainError, EvaluationError, InputError, SingularScalingError
from newton_transforms.losses import as_1d_loss, make_benchmark, make_radial
from newton_transforms.transforms import (
    compose,
    exponential,
    forward_stepsize,
    induced_stepsize,
    linear,
    logarithmic,
    make_table1,
    polynomial,
    scaling_factor,
    sigmoid,
    transform_from_spec,
)


def _sigma(y):
    return 1.0 / (1.0 + np.exp(-y))


class TestTable1Zoo:
    def test_linear_values(self):
        t = linear(2.0, 5.0)
        assert t.phi(3.0) == pytest.approx(11.0)
        assert t.phi_prime(3.0) == pytest.approx(2.0)
        assert t.phi_double_prime(3.0) == 0.0

    def test_exponential_ratio_constant(self):
        t = exponential(1.7)
        for y in [-2.0, 0.0, 3.5]:
            assert t.ratio(y) == pytest.approx(1.7)

    def test_polynomial_ratio(self):
        t = polynomial(0.5)
        for y in [0.1, 1.0, 7.0]:
            assert t.ratio(y) == pytest.approx((0.5 - 1.0) / y)

    def test_polynomial_rejects_zero_exponent(self):
        with pytest.raises(InputError):
            polynomial(0.0)

    def test_logarithmic_domain(self):
        t = logarithmic(1.0)
        with pytest.raises(DomainError):
            t.ratio(-1.0)
        assert t.ratio(0.0) == pytest.approx(-1.0)

    def test_linear_requires_positive_slope(self):
        with pytest.raises(InputError):
            linear(0.0)

    def test_make_table1_dispatch(self):
        assert make_table1("polynomial", r=2.0).name == "poly(r=2.0)"
        with pytest.raises(InputError):
            make_table1("cubic")

    @pytest.mark.parametrize("t,ys", [
        (linear(2.0, 1.0), np.linspace(-3, 3, 15)),
        (polynomial(0.5), np.linspace(0.05, 4, 15)),
        (polynomial(3.0), np.linspace(0.05, 4, 15)),
        (exponential(0.7), np.linspace(-2, 2, 15)),
        (logarithmic(1.0), np.linspace(-0.5, 4, 15)),
        (sigmoid(), np.linspace(-4, 4, 15)),
    ])
    def test_derivative_consistency(self, t, ys):
        assert check_transform(t, ys) == []

    @pytest.mark.parametrize("t,ys", [
        (polynomial(0.5), np.linspace(0.05, 4, 10)),
        (exponential(0.7), np.linspace(-2, 2, 10)),
        (logarithmic(1.0), np.linspace(-0.5, 4, 10)),
        (sigmoid(), np.linspace(-4, 4, 10)),
    ])
    def test_monotone_increasing(self, t, ys):
        assert all(t.phi_prime(y) > 0 for y in ys)


class TestScalingFactor:
    def test_linear_always_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.uniform(0.1, 5.0), rng.uniform(-5, 5)
            q = rng.uniform(0, 10)
            assert scaling_factor(linear(a, b), rng.uniform(-3, 3), q) == 1.0

    def test_exponential(self):
        assert scaling_factor(exponential(2.0), 0.3, 1.5) == pytest.approx(1.0 + 2.0 * 1.5)

    def test_logarithmic(self):
        a, f, q = 1.0, 2.0, 4.5
        assert scaling_factor(logarithmic(a), f, q) == pytest.approx(1.0 - q / (a + f))

    def test_sigmoid_identity(self):
        rng = np.random.default_rng(4)
        t = sigmoid()
        for _ in range(25):
            f, q = rng.uniform(-5, 5), rng.uniform(0, 8)
            expected = 1.0 + (1.0 - 2.0 * _sigma(f)) * q
            assert scaling_factor(t, f, q) == pytest.approx(expected, abs=1e-12)

    def test_polynomial_row(self):
        r, f, q = 0.25, 2.0, 3.0
        assert scaling_factor(polynomial(r), f, q) == pytest.approx(1.0 + (r - 1.0) / f * q)


class TestStepsizeConversion:
    def test_induced_examples(self):
        assert induced_stepsize(1.0, 2.0) == pytest.approx(0.5)
        assert induced_stepsize(1.0, 1.0) == pytest.approx(1.0)
        assert induced_stepsize(1.0, -0.5) == pytest.approx(-2.0)

    def test_forward_examples(self):
        assert forward_stepsize(1.0, 3.0) == pytest.approx(3.0)
        assert forward_stepsize(0.5, 1.0) == pytest.approx(0.5)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            alpha = rng.uniform(-3, 3)
            scaling = rng.uniform(-5, 5)
            if abs(scaling) <= 1e-6:
                continue
            back = forward_stepsize(induced_stepsize(alpha, scaling), scaling)
            assert back == pytest.approx(alpha, rel=1e-14)

    def test_singular_scaling_raises(self):
        with pytest.raises(SingularScalingError):
            induced_stepsize(1.0, 1e-13)
        with pytest.raises(SingularScalingError):
            forward_stepsize(1.0, 1e-13)


class TestCompose:
    def test_identity_transform_matches_base(self):
        base = make_benchmark("rosenbrock")
        L = compose(base, linear(1.0, 0.0))
        x = np.array([-0.4, 0.7])
        f0, g0, H0 = base.evaluate(x)
        f1, g1, H1 = L.evaluate(x)
        assert f1 == pytest.approx(f0)
        np.testing.assert_allclose(g1, g0)
        np.testing.assert_allclose(H1, H0)

    def test_exponential_of_quadratic_hand_chain_rule(self):
        # f = x^2/2, L = e^f: L'' = e^f (1 + x^2) in one dimension
        from newton_transforms.losses import make_polynorm

        base = make_polynorm(np.eye(1), 2)
        L = compose(base, exponential(1.0))
        for x in [0.3, -1.2, 2.0]:
            f, g, H = L.evaluate([x])
            e = np.exp(x * x / 2)
            assert f == pytest.approx(e)
            assert g[0] == pytest.approx(e * x)
            assert H[0, 0] == pytest.approx(e * (1 + x * x))

    def test_star_cauchy_closed_form(self):
        # phi_cauchy(ln(1+x^2)) = 2 x arctan x
        base = as_1d_loss(make_radial("cauchy"))
        L = compose(base, transform_from_spec("star:cauchy"))
        for x in np.linspace(0.1, 3.0, 12):
            assert L.value([x]) == pytest.approx(2 * x * np.arctan(x), abs=1e-8)

    def test_domain_error_propagates(self):
        base = make_benchmark("rosenbrock")
        L = compose(base, polynomial(0.5))
        with pytest.raises(DomainError):
            L.evaluate([1.0, 1.0])  # f = 0 not inside (0, inf)

    @pytest.mark.parametrize("call", ["evaluate", "evaluate_batch", "value"])
    def test_overflow_without_warning(self, call):
        # e^(0.02 f) overflows at f(-4, -3.66) = 38677; RuntimeWarnings are errors in this suite
        L = compose(make_benchmark("rosenbrock"), make_table1("exponential", a=0.02))
        x = [-4.0, -3.66]
        f = {"evaluate": lambda: L.evaluate(x)[0], "evaluate_batch": lambda: L.evaluate_batch(np.array([x]))[0][0],
             "value": lambda: L.value(x)}[call]()
        assert f == np.inf

    def test_minimizer_carried_over(self):
        base = make_benchmark("beale")
        L = compose(base, exponential(0.5))
        np.testing.assert_allclose(L.minimizer, base.minimizer)
        assert L.min_value == pytest.approx(1.0)

    @pytest.mark.parametrize("tname", ["linear", "polynomial", "exponential", "logarithmic", "sigmoid"])
    @pytest.mark.parametrize("lname", ["rosenbrock", "beale", "goldstein_price"])
    def test_chain_rule_consistency_against_finite_differences(self, tname, lname):
        params = {"linear": dict(a=2.0, b=1.0), "polynomial": dict(r=2.0),
                  "exponential": dict(a=0.05), "logarithmic": dict(a=1.0), "sigmoid": {}}[tname]
        base = make_benchmark(lname)
        t = make_table1(tname, **params)
        L = compose(base, t)
        rng = np.random.default_rng(17)
        if tname in ("sigmoid", "exponential"):
            # saturating transforms: stay where phi has representable slope
            spread = 0.12 if lname == "goldstein_price" else 0.35
            box = rng.uniform(-spread, spread, size=(80, 2)) + base.minimizer
            pts = [x for x in box if base.value(x) <= 15.0]
        else:
            pts = [x for x in rng.uniform(-1.2, 1.2, size=(50, 2)) if t.contains(base.value(x))]
        assert len(pts) >= 15
        assert check_loss(L, pts, rtol_grad=1e-4, rtol_hess=1e-4) == []


class TestSpecStrings:
    @pytest.mark.parametrize("spec", ["none", ""])
    def test_none(self, spec):
        assert transform_from_spec(spec) is None

    def test_examples(self):
        assert transform_from_spec("poly:r=0.25").ratio(1.0) == pytest.approx(-0.75)
        assert transform_from_spec("exp:a=2").ratio(0.0) == pytest.approx(2.0)
        assert transform_from_spec("log:a=1").ratio(0.0) == pytest.approx(-1.0)
        assert transform_from_spec("linear:a=2:b=1").phi(1.0) == pytest.approx(3.0)
        assert transform_from_spec("sigmoid").phi(0.0) == pytest.approx(0.5)

    def test_unknown(self):
        with pytest.raises(InputError):
            transform_from_spec("fourier:n=3")


def _bound(y):
    return 1.0 / (1.0 + y)


# Every factory: the five Table-1 kinds, both exponential-convexifier forms,
# the nested-bound convexifier and the three star transforms, each with its
# per-derivative formulas as first written.
ORACLE_PAIRS = [
    (linear(2.0, 1.0), reference_linear(2.0, 1.0)),
    *((polynomial(r), reference_polynomial(r)) for r in (0.5, -1.75, 2.0, 3.0)),
    (exponential(0.5), reference_exponential(0.5)),
    (logarithmic(1.0), reference_logarithmic(1.0)),
    (sigmoid(), reference_sigmoid()),
    *((exp_convexifier(c, 1.0), reference_exp_convexifier(c, 1.0)) for c in (0.0, 2.0)),
    (nested_bound_convexifier(_bound, 0.0, 3.0), reference_nested_bound_convexifier(_bound, 0.0, 3.0)),
    *((transform_from_spec(f"star:{name}"), reference_star_transform(name))
      for name in ("geman_mcclure", "welsh", "cauchy")),
]
ORACLE_TRANSFORMS = [t for t, _ in ORACLE_PAIRS]


def _oracle_values(t):
    """NaN, +-inf, the interval ends and their neighbours, values from 1e-300
    to 1e300 of both signs, f-values just around star:cauchy's psi^{-1}
    overflow near log(DBL_MAX), and dense sweeps of [0, 1] and [-3, 720], where
    a last-bit difference between two power routines would show."""
    lo, hi = t.valid_interval
    ends = [v for e in (lo, hi) for v in (e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf))]
    mags = 10.0 ** np.arange(-300.0, 301.0, 20.0)
    cut = np.log(np.finfo(float).max)
    return np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, cut, np.nextafter(cut, np.inf), *ends, *mags, *-mags,
                     *np.linspace(0.0, 1.0, 301), *np.linspace(-3.0, 720.0, 301)])


@pytest.mark.parametrize("t", ORACLE_TRANSFORMS, ids=lambda t: t.name)
def test_array_calls_equal_scalar_calls_bit_for_bit(t):
    """One formula per transform: an array of f-values gives, element for
    element, the bits of the scalar calls, and the domain mask is exactly
    where the scalar path raises."""
    ys = _oracle_values(t)
    fns = (t.phi, t.phi_prime, t.phi_double_prime, t.ratio)
    with np.errstate(over="ignore", invalid="ignore"):  # as in the callers: overflow is recorded, not warned
        raises = []
        for y in ys.tolist():
            try:
                t.require(y)
                [fn(y) for fn in fns]
            except (DomainError, EvaluationError):
                raises.append(True)
            else:
                raises.append(False)
        inside = t.contains(ys)
        assert inside.tolist() == [not r for r in raises]
        y = ys[inside]
        for fn in fns:
            batch = fn(y)
            assert batch.shape == y.shape
            assert batch.tobytes() == np.array([fn(v) for v in y.tolist()], dtype=float).tobytes()
    with pytest.raises(DomainError):
        t.require(ys)


@pytest.mark.parametrize("t, reference", ORACLE_PAIRS, ids=[t.name for t in ORACLE_TRANSFORMS])
def test_jet_equals_the_per_derivative_formulas_bit_for_bit(t, reference):
    """Each jet computes its shared part once, and each of its components
    stays the expression first written: phi, phi' and phi'' equal the three
    reference formulas bit for bit, on every float of the domain and on the
    array of them."""
    ys = _oracle_values(t)
    y = ys[t.contains(ys)]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for part, formula in zip(t.jet(y), reference, strict=True):
            expected = formula(y)
            assert part.shape == expected.shape == y.shape
            assert part.tobytes() == expected.tobytes()
        for v in y.tolist():
            got = [np.float64(part).tobytes() for part in t.jet(v)]
            assert got == [np.float64(formula(v)).tobytes() for formula in reference], v


def test_star_cauchy_domain_ends_where_psi_inverse_overflows():
    t, radial = transform_from_spec("star:cauchy"), make_radial("cauchy")
    top = t.valid_interval[1]
    assert np.isfinite(radial.psi_inverse(np.nextafter(top, 0.0)))
    with pytest.raises(EvaluationError):
        radial.psi_inverse(top)
    assert t.contains(np.nextafter(top, 0.0)) and not t.contains(top)
