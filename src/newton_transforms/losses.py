"""The loss zoo: 2D benchmarks, the polynomial-norm loss, polytope
feasibility, radial-symmetric robust losses, and 1D fixtures.

Every loss exposes value/gradient/Hessian through a single evaluate() call so
downstream code (Newton driver, scans, transforms) never differentiates
anything itself. The benchmarks, the 1D radial losses and the polytope are one
formula each for a point and for a stack of points (evaluate_batch), equal bit
for bit; the polytope stacks its points by their number of active constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, EvaluationError, InputError
from .linalg import min_eigenvalue

#: Largest polynorm dimension a spec may ask for (desk scale; d x d is allocated first).
POLYNORM_MAX_DIMENSION = 10


def as_point(x, dimension=None):
    """Coerce scalars/sequences to a finite float vector."""
    p = np.asarray(x, dtype=float)
    p = p.reshape(1) if p.ndim == 0 else p
    if p.ndim != 1:
        raise InputError(f"point must be one-dimensional, got shape {p.shape}")
    if dimension is not None and p.shape[0] != dimension:
        raise InputError(f"point has dimension {p.shape[0]}, expected {dimension}")
    if not np.isfinite(p).all():
        raise InputError("point has non-finite entries")
    return p


@dataclass
class SmoothLoss:
    """Twice-differentiable loss with optional known minimizer.

    evaluate(x) returns (value, gradient, hessian); the Hessian is symmetric.
    evaluate_batch(X) does the same for every row of X. It uses _eval_batch
    where a loss has a vectorized formula and loops evaluate_point otherwise.

    A vectorized loss is one formula on coordinate rows (a, b = x): x is the
    list of one point's coordinates as Python floats, or an array (d, N) for
    a stack. _batched(formula) is its _eval_batch. Integer powers go through
    _pow, which equals the scalar power of each element on arrays too, so both
    paths agree bit for bit: Python-float and float64-scalar arithmetic round alike.
    """

    name: str
    dimension: int
    _eval: Callable[[np.ndarray], tuple]
    minimizer: Optional[np.ndarray] = None
    min_value: Optional[float] = None
    _value: Optional[Callable[[np.ndarray], float]] = None
    _eval_batch: Optional[Callable[[np.ndarray], tuple]] = None

    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def evaluate(self, x):
        return self.evaluate_point(as_point(x, self.dimension))

    def evaluate_point(self, x):
        """evaluate() of a point that as_point has already checked, under the caller's np.errstate."""
        f, g, H = self._eval(x)
        return float(f), np.asarray(g, dtype=float), np.asarray(H, dtype=float)

    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def evaluate_batch(self, X):
        """evaluate() on every row of X (N, d), bit for bit.

        Returns values (N,), gradients (N, d), Hessians (N, d, d) and a mask
        of the rows where evaluate() raises DomainError or EvaluationError;
        those rows hold NaN.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dimension:
            raise InputError(f"points must have shape (N, {self.dimension}), got {X.shape}")
        if not np.isfinite(X).all():
            raise InputError("point has non-finite entries")
        if self._eval_batch is not None:
            return self._eval_batch(X)
        n, d = X.shape
        f, G, H = np.full(n, np.nan), np.full((n, d), np.nan), np.full((n, d, d), np.nan)
        err = np.zeros(n, dtype=bool)
        for i, x in enumerate(X):
            try:
                f[i], G[i], H[i] = self.evaluate_point(x)  # X is checked, and this call is guarded
            except (DomainError, EvaluationError):
                err[i] = True
        return f, G, H, err

    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def value(self, x):
        x = as_point(x, self.dimension)
        if self._value is not None:
            return float(self._value(x))
        return self.evaluate_point(x)[0]


@dataclass
class RadialLoss:
    """Radial profile psi for losses of the form f(x) = psi(||x - x*||)."""

    name: str
    psi: Callable[[float], float]
    psi_prime: Callable[[float], float]
    psi_double_prime: Callable[[float], float]
    _psi_inverse: Callable[[float], float]
    psi_sup: float  # supremum of psi; the inverse domain is [0, psi_sup)
    center: float = 0.0

    def psi_inverse(self, c):
        """The radius r >= 0 with psi(r) = c, per element; EvaluationError when an r overflows."""
        if np.asarray((c < 0.0) | (c >= self.psi_sup)).any():
            raise DomainError(f"psi_inverse of '{self.name}' defined on [0, {self.psi_sup}), got {c}")
        with np.errstate(over="ignore"):
            r = self._psi_inverse(c)
        if not np.isfinite(r).all():
            raise EvaluationError(f"psi_inverse of '{self.name}' overflows at {c}")
        return r


# ----------------------------------------------------------------------------
# 2D benchmarks
# ----------------------------------------------------------------------------

def _pow(v, e):
    """v**e per element, as the power of one float64 scalar. For arrays that is
    np.float_power: both reach the C library's pow, while np.power differs
    from it in the last bit (tests/test_losses.py checks the identity)."""
    if isinstance(v, np.ndarray):
        return np.float_power(v, float(e))
    try:
        return v**e
    except OverflowError:  # a Python float's power raises where float64's gives inf, and is otherwise the same
        return np.float64(v) ** e


def _rosenbrock(x):
    a, b = x
    r = b - a * a
    f = _pow(1.0 - a, 2) + 100.0 * r * r
    g = np.array([-2.0 * (1.0 - a) - 400.0 * a * r, 200.0 * r])
    # 200 + 0 a: the constant entry in a's shape, exactly 200 for the finite a of a point
    H = np.array([[2.0 - 400.0 * b + 1200.0 * a * a, -400.0 * a], [-400.0 * a, 200.0 + 0.0 * a]])
    return f, g, H


def _beale(x):
    a, b = x
    powers = [1.0, b, _pow(b, 2), _pow(b, 3)]
    f = ga = gb = haa = hab = hbb = 0.0
    for i, c in enumerate((1.5, 2.25, 2.625), start=1):
        t = c - a + a * powers[i]
        ta, tb = powers[i] - 1.0, i * a * powers[i - 1]
        # d2t/dx2 = 0, d2t/dxdy = i*y^(i-1), d2t/dy2 = i(i-1)*x*y^(i-2)
        # (the y^(i-2) factor carries a zero coefficient for i = 1; written
        # out explicitly so y = 0 does not evaluate 0^(-1)); t * 0.0 keeps
        # the NaN of an infinite t times the zero entry
        tyy = i * (i - 1) * a * powers[i - 2] if i >= 2 else 0.0
        f += t * t
        ga += 2.0 * t * ta
        gb += 2.0 * t * tb
        haa += 2.0 * (ta * ta + t * 0.0)
        hab += 2.0 * (ta * tb + t * (i * powers[i - 1]))
        hbb += 2.0 * (tb * tb + t * tyy)
    return f, np.array([ga, gb]), np.array([[haa, hab], [hab, hbb]])


def _goldstein_price(x):
    # Both brackets collapse to quartics in s = x+y and v = 2x-3y:
    #   A(s) = 1 + (s+1)^2 (3s^2 - 14s + 19),  B(v) = 30 + v^2 (3v^2 - 16v + 18)
    # so with u = (1, 1), w = (2, -3): g = A'B u + AB' w and
    # H = A''B uu^T + A'B' (uw^T + wu^T) + AB'' ww^T, written out entry by entry
    # (factors of +-1 are exact, so they become + and -).
    a, b = x
    s = a + b
    v = 2.0 * a - 3.0 * b
    s2, s3, s4 = _pow(s, 2), _pow(s, 3), _pow(s, 4)
    v2, v3, v4 = _pow(v, 2), _pow(v, 3), _pow(v, 4)
    A = 3 * s4 - 8 * s3 - 6 * s2 + 24 * s + 20
    Ap = 12 * s3 - 24 * s2 - 12 * s + 24
    App = 36 * s2 - 48 * s - 12
    B = 3 * v4 - 16 * v3 + 18 * v2 + 30
    Bp = 12 * v3 - 48 * v2 + 36 * v
    Bpp = 36 * v2 - 96 * v + 36
    p, q, r = App * B, Ap * Bp, A * Bpp
    g = np.array([Ap * B + A * Bp * 2.0, Ap * B + A * Bp * -3.0])
    hxy = p - q + r * -6.0
    H = np.array([[p + q * 4.0 + r * 4.0, hxy], [hxy, p + q * -6.0 + r * 9.0]])
    return A * B, g, H


def _batched(fn):
    """evaluate_batch from a formula on coordinate rows: fn(X.T), with the
    batch axis of its gradients and Hessians moved to the front."""

    def ev_batch(X):
        f, g, H = fn(X.T)
        return f, g.T.copy(), H.transpose(2, 0, 1).copy(), np.zeros(len(X), dtype=bool)

    return ev_batch


_BENCHMARKS = {
    "rosenbrock": (_rosenbrock, (1.0, 1.0), 0.0),
    "beale": (_beale, (3.0, 0.5), 0.0),
    "goldstein_price": (_goldstein_price, (0.0, -1.0), 3.0),
}


def make_benchmark(name):
    """2D benchmark loss with analytic gradient/Hessian and known minimizer."""
    try:
        fn, xstar, fstar = _BENCHMARKS[name]
    except KeyError:
        raise InputError(f"unknown benchmark '{name}'; choose from {sorted(_BENCHMARKS)}") from None
    return SmoothLoss(name=name, dimension=2, _eval=lambda x: fn(x.tolist()), minimizer=np.array(xstar),
                      min_value=fstar, _eval_batch=_batched(fn))


# ----------------------------------------------------------------------------
# Polynomial-norm loss f(x) = (1/p) ||x||_A^p
# ----------------------------------------------------------------------------

def make_polynorm(A, p):
    """f(x) = (1/p) ||x||_A^p for A > 0, p != 1.

    grad = ||x||_A^{p-2} A x,
    hess = (p-2) ||x||_A^{p-4} (Ax)(Ax)^T + ||x||_A^{p-2} A.
    The Hessian is undefined at x = 0 for p < 2.
    """
    A = np.asarray(A, dtype=float)
    if p == 1:
        raise InputError("polynomial-norm loss requires p != 1")
    if min_eigenvalue(A) <= 0.0:
        raise InputError("A must be symmetric positive definite")
    A = 0.5 * (A + A.T)
    d = A.shape[0]

    def ev(x):
        Ax = A @ x
        nsq = float(x @ Ax)
        if nsq == 0.0:
            if p < 2:
                raise EvaluationError("Hessian of ||x||_A^p undefined at x = 0 for p < 2")
            H = A.copy() if p == 2 else np.zeros((d, d))
            return 0.0, np.zeros(d), H
        n = np.sqrt(nsq)
        f = n**p / p
        g = n ** (p - 2) * Ax
        H = (p - 2) * n ** (p - 4) * np.outer(Ax, Ax) + n ** (p - 2) * A
        return f, g, H

    return SmoothLoss(name=f"polynorm(p={p})", dimension=d, _eval=ev, minimizer=np.zeros(d), min_value=0.0)


# ----------------------------------------------------------------------------
# Polytope feasibility f_p(x) = sum_i (<a_i, x> - b_i)_+^p
# ----------------------------------------------------------------------------

def make_polytope(rows, offsets, p):
    """Penalized polytope feasibility with strict active set {i : s_i > 0}."""
    A = np.atleast_2d(np.asarray(rows, dtype=float))
    b = np.asarray(offsets, dtype=float)
    if A.shape[0] != b.shape[0] or A.shape[0] < 1:
        raise InputError("rows and offsets must agree and be non-empty")
    if p < 2:
        raise InputError("polytope exponent requires p >= 2 (Hessian continuity)")
    d = A.shape[1]

    def ev_batch(X):
        # Rows with the same number k of active constraints form one stack, so
        # each slice runs the kernels of one point's k active rows.
        S = np.matmul(A, X[:, :, None])[:, :, 0] - b
        act = S > 0.0
        k = np.count_nonzero(act, axis=1)
        n = len(X)
        f, G, H = np.zeros(n), np.zeros((n, d)), np.zeros((n, d, d))
        for kk in set(k.tolist()) - {0}:  # not np.unique, whose first call imports numpy.ma (1.7 MB)
            rows = k == kk
            mask = act[rows]
            sa = S[rows][mask].reshape(-1, kk)
            Aa = A[np.nonzero(mask)[1]].reshape(-1, kk, d)
            f[rows] = (sa**p).sum(axis=1)
            G[rows] = np.matmul(p * sa[:, None, :] ** (p - 1), Aa)[:, 0]
            H[rows] = np.matmul(p * (p - 1) * (Aa * (sa ** (p - 2))[:, :, None]).transpose(0, 2, 1), Aa)
        return f, G, H, np.zeros(n, dtype=bool)

    def ev(x):
        f, G, H, _ = ev_batch(x[None])
        return f[0], G[0], H[0]

    return SmoothLoss(name=f"polytope(p={p},n={A.shape[0]},d={d})", dimension=d, _eval=ev, min_value=0.0,
                      _eval_batch=ev_batch)


def make_polytope_instance(p, seed=1):
    """The seeded feasibility experiment: 20 normal rows in d = 10, b = 1, start 10*ones."""
    rng = np.random.default_rng(seed)
    loss = make_polytope(rng.standard_normal((20, 10)), np.ones(20), p)
    loss.name = f"polytope(p={p},seed={seed})"
    return loss, 10.0 * np.ones(10)


# ----------------------------------------------------------------------------
# Radial robust losses (profiles of Table 2) and 1D views
# ----------------------------------------------------------------------------

def _gm_profile():
    return dict(
        psi=lambda r: r * r / (r * r + 1.0),
        psi_prime=lambda r: 2.0 * r / np.square(r * r + 1.0),
        psi_double_prime=lambda r: (2.0 - 6.0 * r * r) / np.power(r * r + 1.0, 3),
        _psi_inverse=lambda c: np.sqrt(c / (1.0 - c)),
        psi_sup=1.0,
    )


def _welsh_profile():
    return dict(
        psi=lambda r: -np.expm1(-r * r),
        psi_prime=lambda r: 2.0 * r * np.exp(-r * r),
        psi_double_prime=lambda r: (2.0 - 4.0 * r * r) * np.exp(-r * r),
        _psi_inverse=lambda c: np.sqrt(-np.log1p(-c)),
        psi_sup=1.0,
    )


#: Where 1 + r*r rounds to r*r (it overflows from 2^512): the Cauchy profile's asymptotic forms start.
CAUCHY_FAR_RADIUS = 2.0 ** 500


def _cauchy_far(near, far):
    """near(r) below CAUCHY_FAR_RADIUS, far(r) from there on, per element of r."""

    def fn(r):
        if np.maximum.reduce(r, None, initial=0.0) < CAUCHY_FAR_RADIUS:
            return near(r)
        return np.where(r < CAUCHY_FAR_RADIUS, near(np.minimum(r, CAUCHY_FAR_RADIUS)),
                        far(np.maximum(r, CAUCHY_FAR_RADIUS)))[()]  # neither form sees the other's radii

    return fn


def _cauchy_profile():
    return dict(
        psi=_cauchy_far(lambda r: np.log1p(r * r), lambda r: 2.0 * np.log(r)),
        psi_prime=_cauchy_far(lambda r: 2.0 * r / (1.0 + r * r), lambda r: 2.0 / r),
        # dividing by 1 + r^2 twice: its square overflows where the quotient does not
        psi_double_prime=_cauchy_far(lambda r: 2.0 * (1.0 - r * r) / (1.0 + r * r) / (1.0 + r * r),
                                     lambda r: -2.0 / r / r),
        _psi_inverse=lambda c: np.sqrt(np.expm1(c)),
        psi_sup=np.inf,
    )


#: The radial profiles by name.
RADIAL = {"geman_mcclure": _gm_profile, "welsh": _welsh_profile, "cauchy": _cauchy_profile}


def make_radial(name, center=0.0):
    """Radial profile psi with derivatives and inverse (Geman-McClure, Welsh, Cauchy)."""
    try:
        kw = RADIAL[name]()
    except KeyError:
        raise InputError(f"unknown radial loss '{name}'; choose from {sorted(RADIAL)}") from None
    return RadialLoss(name=name, center=float(center), **kw)


def as_1d_loss(radial):
    """1D SmoothLoss f(x) = psi(|x - x*|) with chain-rule derivatives."""

    c = radial.center

    def ev(x):
        t = x[0] - c
        r = np.abs(t)
        grad = np.where(r == 0.0, 0.0, radial.psi_prime(r) * np.sign(t))
        curv = np.full(r.shape, radial.psi_double_prime(r), dtype=float)  # a profile may give a constant
        return radial.psi(r), grad[None], curv[None, None]

    return SmoothLoss(
        name=f"{radial.name}1d",
        dimension=1,
        _eval=ev,
        minimizer=np.array([c]),
        min_value=float(radial.psi(0.0)),
        _eval_batch=_batched(ev),
    )


# ----------------------------------------------------------------------------
# Non-convexifiable counterexample f(x) = |1 + (x-1)^5|
# ----------------------------------------------------------------------------

def make_counterexample():
    """1D negative fixture |1 + (x-1)^5|: gradient vanishes at x = 1 although
    f(1) = 1 > 0 = f(0); the Hessian is undefined at the kink x = 0."""

    def inner(x):
        return 1.0 + (x - 1.0) ** 5

    def ev(x):
        u = inner(x[0])
        if u == 0.0:
            raise EvaluationError("Hessian of |1+(x-1)^5| undefined at the kink")
        s = np.sign(u)
        return abs(u), np.array([s * 5.0 * (x[0] - 1.0) ** 4]), np.array([[s * 20.0 * (x[0] - 1.0) ** 3]])

    return SmoothLoss(
        name="counterexample",
        dimension=1,
        _eval=ev,
        minimizer=np.array([0.0]),
        min_value=0.0,
        _value=lambda x: abs(inner(x[0])),
    )


# ----------------------------------------------------------------------------
# CLI-facing registry
# ----------------------------------------------------------------------------

def spec_options(parts, kind):
    """The 'key=value' parts of a CLI spec as a dict of strings."""
    out = {}
    for part in parts:
        key, sep, value = part.partition("=")
        if not sep:
            raise InputError(f"malformed {kind} option '{part}'")
        out[key] = value
    return out


def spec_number(options, key, default, cast=float):
    """options[key], or default, converted by cast; bad text or a value that
    is not finite is an InputError."""
    text = options.get(key, default)
    try:
        value = cast(text)
    except ValueError:
        value = np.nan
    if isinstance(value, float) and not np.isfinite(value):
        raise InputError(f"option {key}={text} is not a finite {cast.__name__}")
    return value


def radial_1d(name):
    """The radial profile a 1D loss name such as 'cauchy1d' stands for, or
    None when the name is not one of them."""
    if name.endswith("1d") and name[:-2] in RADIAL:
        return make_radial(name[:-2])
    return None


def loss_from_spec(spec):
    """Build a loss from a CLI string such as 'rosenbrock', 'cauchy1d',
    'polynorm:p=4:d=2:seed=0' or 'polytope:p=3:seed=1'."""
    head, *rest = spec.split(":")
    if head in _BENCHMARKS:
        return make_benchmark(head)
    radial = radial_1d(head)
    if radial is not None:
        return as_1d_loss(radial)
    if head == "counterexample":
        return make_counterexample()
    kv = spec_options(rest, "loss")
    if head not in ("polynorm", "polytope"):
        raise InputError(f"unknown loss spec '{spec}'")
    p = spec_number(kv, "p", 2)
    seed = spec_number(kv, "seed", 0 if head == "polynorm" else 1, int)
    if seed < 0:
        raise InputError(f"loss seed must be non-negative, got {seed}")
    if head == "polytope":
        loss, _ = make_polytope_instance(p, seed=seed)
        return loss
    d = spec_number(kv, "d", 2, int)
    if not 1 <= d <= POLYNORM_MAX_DIMENSION:
        raise InputError(f"polynorm dimension must lie in [1, {POLYNORM_MAX_DIMENSION}], got {d}")
    M = np.random.default_rng(seed).standard_normal((d, d))
    return make_polynorm(M @ M.T + d * np.eye(d), p)


def known_loss_names():
    return sorted(_BENCHMARKS) + [f"{n}1d" for n in sorted(RADIAL)] + [
        "counterexample",
        "polynorm:p=<P>[:d=<D>][:seed=<S>]",
        "polytope:p=<P>[:seed=<S>]",
    ]
