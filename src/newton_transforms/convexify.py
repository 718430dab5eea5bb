"""Convexification of pseudoconvex losses.

Pieces: a sampling certificate for pseudoconvexity (tangent-space curvature),
the Schaible coefficient r(x) from bordered-Hessian minors, a compact-set
constant c = max r(x) over a sublevel grid, the exponential convexifier
phi(y) = (e^{c(y - f*)} - 1)/c, the nested-integral convexifier built from a
bound h(f(x)) >= r(x), and PSD verification of the transformed Hessian.

Verification works on the phi'-normalized Hessian
H + (phi''/phi') g g^T = hess(phi(f)) / phi'(f): same signature as hess L
(phi' > 0), and computable where e^{c f} itself would overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .errors import CapabilityError, DomainError, EvaluationError, InputError
from .linalg import min_eigenvalue, principal_minors, spectral_norm, symmetrize
from .losses import as_point
from .quadrature import CumulativeIntegral
from .transforms import ScalarTransform, linear


def bordered_hessian(g, H):
    """B = [[0, g^T], [g, H]]."""
    g = np.asarray(g, dtype=float)
    H = symmetrize(H)
    d = len(g)
    B = np.zeros((d + 1, d + 1))
    B[0, 1:] = g
    B[1:, 0] = g
    B[1:, 1:] = H
    return B


# ----------------------------------------------------------------------------
# Pseudoconvexity certificate
# ----------------------------------------------------------------------------

@dataclass
class PseudoconvexReport:
    violations: List[Tuple[np.ndarray, str]] = field(default_factory=list)
    n_points: int = 0

    @property
    def ok(self):
        return not self.violations


def check_pseudoconvex(loss, sample_box, n_samples=200, seed=0):
    """Sample the two pointwise pseudoconvexity conditions.

    1. v^T grad f = 0  =>  v^T hess f v >= -1e-8 * ||hess f||
       (8 random directions per sample, projected onto the gradient's tangent space);
    2. samples with ||grad f|| < 1e-8 must lie within 1e-6 of the sampled minimum.
    """
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    lo, hi = (np.asarray(b, dtype=float) for b in sample_box)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n_samples, loss.dimension))
    report = PseudoconvexReport(n_points=n_samples)

    evals = []
    for x in pts:
        try:
            f, g, H = loss.evaluate(x)
        except (DomainError, EvaluationError):
            continue
        evals.append((x, f, g, H))
    if not evals:
        return report
    f_min = min(e[1] for e in evals)

    for x, f, g, H in evals:
        gnorm = np.linalg.norm(g)
        hnorm = max(spectral_norm(H), 1e-30)
        stationary = gnorm < 1e-8
        if stationary:
            # condition 2: stationary points are global minima
            if f > f_min + 1e-6:
                report.violations.append((x, f"stationary with f = {f} > sampled min {f_min}"))
            directions = rng.standard_normal((8, loss.dimension))
        else:
            raw = rng.standard_normal((8, loss.dimension))
            directions = raw - np.outer(raw @ g, g) / gnorm**2
        for v in directions:
            vn = np.linalg.norm(v)
            if vn <= 1e-12:
                continue  # 1D tangent space is trivial away from stationarity
            v = v / vn
            if not stationary and abs(v @ g) > 1e-12 * gnorm:
                continue
            curv = float(v @ H @ v)
            if curv < -1e-8 * hnorm:
                report.violations.append((x, f"tangent curvature {curv} at gradient norm {gnorm}"))
    return report


# ----------------------------------------------------------------------------
# Schaible coefficient and the compact-set constant
# ----------------------------------------------------------------------------

def schaible_r(loss, x, mode="strict"):
    """Pointwise convexification coefficient r(x).

    strict:  max{0, -1/(g^T H g)} when the full minor det(H) < 0, else 0;
    general: max{0, max over nonempty index sets S of M_S/D_S with D_S < 0},
             where D_S borders the Hessian minor with the gradient.
    Either value makes H + r g g^T positive semidefinite at x for (strictly)
    pseudoconvex losses.
    """
    x = as_point(x, loss.dimension)
    if loss.dimension > 8:
        raise CapabilityError("schaible_r capped at d = 8 (exhaustive minors)")
    f, g, H = loss.evaluate(x)
    H = symmetrize(H)
    if mode == "strict":
        M_n = float(np.linalg.det(H))
        if M_n < 0.0:
            quad = float(g @ H @ g)
            if quad != 0.0:
                return max(0.0, -1.0 / quad)
        return 0.0
    if mode != "general":
        raise InputError(f"unknown mode '{mode}'")
    B = bordered_hessian(g, H)
    hess_minors = dict(principal_minors(H))
    best = 0.0
    for idx, M_S in hess_minors.items():
        rows = (0,) + tuple(i + 1 for i in idx)
        D_S = float(np.linalg.det(B[np.ix_(rows, rows)]))
        if D_S < 0.0:
            best = max(best, M_S / D_S)
    return best


@np.errstate(over="ignore", invalid="ignore")
def compact_constant(loss, x0, grid):
    """c = max of the strict schaible_r over grid points inside the sublevel set f <= f(x0)."""
    x0 = as_point(x0, loss.dimension)
    f0 = loss.value(x0)
    cands = []
    for x in grid:
        x = as_point(x, loss.dimension)
        try:
            if loss.value(x) <= f0:
                cands.append(schaible_r(loss, x))
        except (DomainError, EvaluationError):
            continue
    if not cands:
        raise InputError("grid does not intersect the sublevel set of f(x0)")
    return max(0.0, max(cands))


# ----------------------------------------------------------------------------
# Convexifying transforms
# ----------------------------------------------------------------------------

def exp_convexifier(c, f_star):
    """phi(y) = (e^{c (y - f*)} - 1)/c with phi(f*) = 0, phi'(f*) = 1.

    The ratio phi''/phi' equals c exactly, so scaling factors stay computable
    for rates where e^{c y} overflows. c = 0 degenerates to y - f*.
    """
    if c < 0:
        raise InputError("exponential convexifier requires c >= 0")
    if c == 0.0:
        t = linear(1.0, -f_star)
        t.valid_interval = (f_star, np.inf)
        t.lo_closed = True
        t.name = f"expconv(c=0,f*={f_star})"
        return t
    return ScalarTransform(
        name=f"expconv(c={c:g},f*={f_star:g})",
        phi=lambda y: np.expm1(c * (y - f_star)) / c,
        phi_prime=lambda y: np.exp(c * (y - f_star)),
        phi_double_prime=lambda y: c * np.exp(c * (y - f_star)),
        valid_interval=(f_star, np.inf),
        lo_closed=True,
        ratio_fn=lambda y: c,
    )


def nested_bound_convexifier(h, f_star, y_max):
    """Convexifier from a value-space bound h(f(x)) >= r(x):

        phi'(y) = exp(integral_{f*}^{y} h),   phi(y) = integral_{f*}^{y} phi',
        phi''   = h * phi',

    built with cached cumulative quadrature tables on [f_star, y_max].
    """
    if y_max <= f_star:
        raise InputError("y_max must exceed f_star")
    H_cum = CumulativeIntegral(h, f_star, y_max)

    def phi_prime(y):
        return float(np.exp(H_cum(y)))

    phi_cum = CumulativeIntegral(phi_prime, f_star, y_max)
    return ScalarTransform(
        name=f"nestedconv(f*={f_star:g})",
        phi=lambda y: float(phi_cum(y)),
        phi_prime=phi_prime,
        phi_double_prime=lambda y: float(h(y)) * phi_prime(y),
        valid_interval=(f_star, y_max),
        lo_closed=True,
        ratio_fn=lambda y: float(h(y)),
    )


# ----------------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------------

@dataclass
class ConvexifiedReport:
    min_eig: float
    max_norm: float
    argmin: np.ndarray
    n_evaluated: int
    n_skipped: int

    @property
    def threshold(self):
        return -1e-8 * (1.0 + self.max_norm)

    @property
    def passed(self):
        return self.min_eig >= self.threshold


@np.errstate(over="ignore", invalid="ignore")
def verify_convexified(loss, t, grid):
    """Minimum eigenvalue over the grid of the phi'-normalized transformed
    Hessian H + (phi''/phi') g g^T; also tracks its largest spectral norm for
    the pass threshold. Non-evaluable points are skipped and counted."""
    best = np.inf
    worst_norm = 0.0
    argmin = None
    n_eval = 0
    n_skip = 0
    for x in grid:
        x = as_point(x, loss.dimension)
        try:
            f, g, H = loss.evaluate(x)
            r = t.ratio(f)
        except (DomainError, EvaluationError):
            n_skip += 1
            continue
        A = symmetrize(H) + r * np.outer(g, g)
        lam = min_eigenvalue(A)
        worst_norm = max(worst_norm, spectral_norm(A))
        n_eval += 1
        if lam < best:
            best = lam
            argmin = x
    if n_eval == 0:
        raise InputError("no grid point was evaluable")
    return ConvexifiedReport(best, worst_norm, argmin, n_eval, n_skip)
