"""The loss zoo: 2D benchmarks, the polynomial-norm loss, polytope
feasibility, radial-symmetric robust losses, and 1D fixtures.

Every loss exposes value/gradient/Hessian through a single evaluate() call so
downstream code (Newton driver, scans, transforms) never differentiates
anything itself.
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
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise InputError(f"point must be one-dimensional, got shape {p.shape}")
    if dimension is not None and p.shape[0] != dimension:
        raise InputError(f"point has dimension {p.shape[0]}, expected {dimension}")
    if not np.all(np.isfinite(p)):
        raise InputError("point has non-finite entries")
    return p


@dataclass
class SmoothLoss:
    """Twice-differentiable loss with optional known minimizer.

    evaluate(x) returns (value, gradient, hessian); the Hessian is symmetric.
    evaluate_batch(X) does the same for every row of X. It uses _eval_batch
    where a loss has a vectorized formula and loops evaluate otherwise.
    """

    name: str
    dimension: int
    _eval: Callable[[np.ndarray], tuple]
    minimizer: Optional[np.ndarray] = None
    min_value: Optional[float] = None
    _value: Optional[Callable[[np.ndarray], float]] = None
    _hess: Optional[Callable[[np.ndarray], np.ndarray]] = None
    _eval_batch: Optional[Callable[[np.ndarray], tuple]] = None

    def evaluate(self, x):
        x = as_point(x, self.dimension)
        f, g, H = self._eval(x)
        return float(f), np.asarray(g, dtype=float), np.asarray(H, dtype=float)

    def evaluate_batch(self, X):
        """evaluate() on every row of X (N, d), bit for bit.

        Returns values (N,), gradients (N, d), Hessians (N, d, d) and a mask
        of the rows where evaluate() raises DomainError or EvaluationError;
        those rows hold NaN.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dimension:
            raise InputError(f"points must have shape (N, {self.dimension}), got {X.shape}")
        if not np.all(np.isfinite(X)):
            raise InputError("point has non-finite entries")
        if self._eval_batch is not None:
            return self._eval_batch(X)
        n, d = X.shape
        f, G, H = np.full(n, np.nan), np.full((n, d), np.nan), np.full((n, d, d), np.nan)
        err = np.zeros(n, dtype=bool)
        for i, x in enumerate(X):
            try:
                f[i], G[i], H[i] = self.evaluate(x)
            except (DomainError, EvaluationError):
                err[i] = True
        return f, G, H, err

    def value(self, x):
        x = as_point(x, self.dimension)
        if self._value is not None:
            return float(self._value(x))
        return self.evaluate(x)[0]

    def gradient(self, x):
        return self.evaluate(x)[1]

    def hessian(self, x):
        if self._hess is not None:
            return np.asarray(self._hess(as_point(x, self.dimension)), dtype=float)
        return self.evaluate(x)[2]


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
        """The radius r >= 0 with psi(r) = c; EvaluationError when r overflows."""
        if c < 0.0 or c >= self.psi_sup:
            raise DomainError(f"psi_inverse of '{self.name}' defined on [0, {self.psi_sup}), got {c}")
        with np.errstate(over="ignore"):
            r = self._psi_inverse(c)
        if not np.isfinite(r):
            raise EvaluationError(f"psi_inverse of '{self.name}' overflows at {c}")
        return r


# ----------------------------------------------------------------------------
# 2D benchmarks
# ----------------------------------------------------------------------------

def _rosenbrock(x):
    a, b = x
    r = b - a * a
    f = (1.0 - a) ** 2 + 100.0 * r * r
    g = np.array([-2.0 * (1.0 - a) - 400.0 * a * r, 200.0 * r])
    H = np.array([[2.0 - 400.0 * b + 1200.0 * a * a, -400.0 * a], [-400.0 * a, 200.0]])
    return f, g, H


def _beale(x):
    a, b = x
    consts = (1.5, 2.25, 2.625)
    f = 0.0
    g = np.zeros(2)
    H = np.zeros((2, 2))
    for i, c in enumerate(consts, start=1):
        t = c - a + a * b**i
        dt = np.array([b**i - 1.0, i * a * b ** (i - 1)])
        # d2t/dx2 = 0, d2t/dxdy = i*y^(i-1), d2t/dy2 = i(i-1)*x*y^(i-2)
        # (the y^(i-2) factor carries a zero coefficient for i = 1; written
        # out explicitly so y = 0 does not evaluate 0^(-1))
        tyy = i * (i - 1) * a * b ** (i - 2) if i >= 2 else 0.0
        ddt = np.array([[0.0, i * b ** (i - 1)], [i * b ** (i - 1), tyy]])
        f += t * t
        g += 2.0 * t * dt
        H += 2.0 * (np.outer(dt, dt) + t * ddt)
    return f, g, H


def _goldstein_price(x):
    # Both brackets collapse to quartics in s = x+y and v = 2x-3y:
    #   A(s) = 1 + (s+1)^2 (3s^2 - 14s + 19),  B(v) = 30 + v^2 (3v^2 - 16v + 18)
    a, b = x
    s = a + b
    v = 2.0 * a - 3.0 * b
    A = 3 * s**4 - 8 * s**3 - 6 * s**2 + 24 * s + 20
    Ap = 12 * s**3 - 24 * s**2 - 12 * s + 24
    App = 36 * s**2 - 48 * s - 12
    B = 3 * v**4 - 16 * v**3 + 18 * v**2 + 30
    Bp = 12 * v**3 - 48 * v**2 + 36 * v
    Bpp = 36 * v**2 - 96 * v + 36
    u = np.array([1.0, 1.0])
    w = np.array([2.0, -3.0])
    f = A * B
    g = Ap * B * u + A * Bp * w
    H = App * B * np.outer(u, u) + Ap * Bp * (np.outer(u, w) + np.outer(w, u)) + A * Bpp * np.outer(w, w)
    return f, g, H


# Batch formulas: the scalar ones above, operation for operation, on columns.
# Integer powers go through the scalar power of each element, because NumPy's
# vectorized array power differs from it in the last bit.

def _scalar_pow(v, e):
    return np.array([vi**e for vi in v], dtype=float)


def _beale_batch(X):
    a, b = X[:, 0], X[:, 1]
    n = len(X)
    powers = [np.ones(n), b, _scalar_pow(b, 2), _scalar_pow(b, 3)]
    f = 0.0
    G = np.zeros((n, 2))
    H = np.zeros((n, 2, 2))
    for i, c in enumerate((1.5, 2.25, 2.625), start=1):
        t = c - a + a * powers[i]
        dt = np.stack([powers[i] - 1.0, i * a * powers[i - 1]], axis=1)
        tyy = i * (i - 1) * a * powers[i - 2] if i >= 2 else np.zeros(n)
        cross = i * powers[i - 1]
        ddt = np.stack([np.stack([np.zeros(n), cross], axis=1), np.stack([cross, tyy], axis=1)], axis=1)
        f += t * t
        G += 2.0 * t[:, None] * dt
        H += 2.0 * (dt[:, :, None] * dt[:, None, :] + t[:, None, None] * ddt)
    return f, G, H, np.zeros(n, dtype=bool)


def _goldstein_price_batch(X):
    a, b = X[:, 0], X[:, 1]
    s = a + b
    v = 2.0 * a - 3.0 * b
    s2, s3, s4 = (_scalar_pow(s, e) for e in (2, 3, 4))
    v2, v3, v4 = (_scalar_pow(v, e) for e in (2, 3, 4))
    A = 3 * s4 - 8 * s3 - 6 * s2 + 24 * s + 20
    Ap = 12 * s3 - 24 * s2 - 12 * s + 24
    App = 36 * s2 - 48 * s - 12
    B = 3 * v4 - 16 * v3 + 18 * v2 + 30
    Bp = 12 * v3 - 48 * v2 + 36 * v
    Bpp = 36 * v2 - 96 * v + 36
    u = np.array([1.0, 1.0])
    w = np.array([2.0, -3.0])
    G = (Ap * B)[:, None] * u + (A * Bp)[:, None] * w
    H = ((App * B)[:, None, None] * np.outer(u, u) + (Ap * Bp)[:, None, None] * (np.outer(u, w) + np.outer(w, u))
         + (A * Bpp)[:, None, None] * np.outer(w, w))
    return A * B, G, H, np.zeros(len(X), dtype=bool)


_BENCHMARKS = {
    "rosenbrock": (_rosenbrock, None, (1.0, 1.0), 0.0),
    "beale": (_beale, _beale_batch, (3.0, 0.5), 0.0),
    "goldstein_price": (_goldstein_price, _goldstein_price_batch, (0.0, -1.0), 3.0),
}


def make_benchmark(name):
    """2D benchmark loss with analytic gradient/Hessian and known minimizer."""
    try:
        fn, batch_fn, xstar, fstar = _BENCHMARKS[name]
    except KeyError:
        raise InputError(f"unknown benchmark '{name}'; choose from {sorted(_BENCHMARKS)}") from None
    return SmoothLoss(name=name, dimension=2, _eval=fn, minimizer=np.array(xstar), min_value=fstar,
                      _eval_batch=batch_fn)


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

    def ev(x):
        s = A @ x - b
        act = s > 0.0
        if not np.any(act):
            return 0.0, np.zeros(d), np.zeros((d, d))
        sa = s[act]
        Aa = A[act]
        f = float(np.sum(sa**p))
        g = p * (sa ** (p - 1)) @ Aa
        H = p * (p - 1) * (Aa * (sa ** (p - 2))[:, None]).T @ Aa
        return f, g, H

    return SmoothLoss(name=f"polytope(p={p},n={A.shape[0]},d={d})", dimension=d, _eval=ev, min_value=0.0)


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
        psi_prime=lambda r: 2.0 * r / (r * r + 1.0) ** 2,
        psi_double_prime=lambda r: (2.0 - 6.0 * r * r) / (r * r + 1.0) ** 3,
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


def _cauchy_profile():
    return dict(
        psi=lambda r: np.log1p(r * r),
        psi_prime=lambda r: 2.0 * r / (1.0 + r * r),
        psi_double_prime=lambda r: 2.0 * (1.0 - r * r) / (1.0 + r * r) ** 2,
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
        r = abs(t)
        if r == 0.0:
            return radial.psi(0.0), np.zeros(1), np.array([[radial.psi_double_prime(0.0)]])
        sgn = 1.0 if t > 0 else -1.0
        return radial.psi(r), np.array([radial.psi_prime(r) * sgn]), np.array([[radial.psi_double_prime(r)]])

    return SmoothLoss(
        name=f"{radial.name}1d",
        dimension=1,
        _eval=ev,
        minimizer=np.array([c]),
        min_value=float(radial.psi(0.0)),
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
