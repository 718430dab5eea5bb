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

from dataclasses import dataclass, field, replace
from typing import List, Tuple

import numpy as np

from .errors import InputError
from .linalg import principal_minors, row_dot, symmetrize, symmetrize_batch
from .losses import as_point
from .quadrature import CumulativeIntegral
from .transforms import ScalarTransform, constant, linear


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

    f, G, H, err = loss.evaluate_batch(pts)
    keep = np.flatnonzero(~err)
    if not keep.size:
        return report
    f_min = min(f[keep].tolist())
    w = np.linalg.eigvalsh(symmetrize_batch(H[keep]))
    hnorms = np.maximum(np.maximum(-w[:, 0], w[:, -1]), 1e-30)  # spectral norms, floored

    for x, fx, g, Hx, hnorm in zip(pts[keep], f[keep].tolist(), G[keep], H[keep], hnorms):
        gnorm = np.linalg.norm(g)
        stationary = gnorm < 1e-8
        if stationary:
            # condition 2: stationary points are global minima
            if fx > f_min + 1e-6:
                report.violations.append((x, f"stationary with f = {fx} > sampled min {f_min}"))
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
            curv = float(v @ Hx @ v)
            if curv < -1e-8 * hnorm:
                report.violations.append((x, f"tangent curvature {curv} at gradient norm {gnorm}"))
    return report


# ----------------------------------------------------------------------------
# Schaible coefficient and the compact-set constant
# ----------------------------------------------------------------------------

def strict_schaible_batch(G, H):
    """The strict schaible_r of every row: max{0, -1/(g^T H g)} where
    det(H) < 0, else 0, for gradients G (N, d) and symmetrized Hessians
    H (N, d, d). Row for row the scalar det and g @ H @ g."""
    quad = row_dot(np.matmul(G[:, None, :], H)[:, 0, :], G)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = -1.0 / quad
    return np.where((np.linalg.det(H) < 0.0) & (quad != 0.0) & (r > 0.0), r, 0.0)


def schaible_r(loss, x, mode="strict"):
    """Pointwise convexification coefficient r(x).

    strict:  max{0, -1/(g^T H g)} when the full minor det(H) < 0, else 0;
    general: max{0, max over nonempty index sets S of M_S/D_S with D_S < 0},
             where D_S borders the Hessian minor with the gradient.
    Either value makes H + r g g^T positive semidefinite at x for (strictly)
    pseudoconvex losses.
    """
    x = as_point(x, loss.dimension)
    f, g, H = loss.evaluate(x)
    H = symmetrize(H)
    if mode == "strict":
        return float(strict_schaible_batch(g[None], H[None])[0])
    if mode != "general":
        raise InputError(f"unknown mode '{mode}'")
    B = bordered_hessian(g, H)
    best = 0.0
    for idx, M_S in principal_minors(H):
        rows = (0,) + tuple(i + 1 for i in idx)
        D_S = float(np.linalg.det(B[np.ix_(rows, rows)]))
        if D_S < 0.0:
            best = max(best, M_S / D_S)
    return best


@np.errstate(over="ignore", invalid="ignore")
def compact_constant(loss, x0, grid, stack=None):
    """c = max of the strict schaible_r over the points of grid (N, d) inside
    the sublevel set f <= f(x0). stack, when given, is loss.evaluate_batch(grid)."""
    f0 = loss.value(x0)
    f, G, H, err = loss.evaluate_batch(grid) if stack is None else stack
    inside = ~err & (f <= f0)
    if not inside.any():
        raise InputError("grid does not intersect the sublevel set of f(x0)")
    return max(0.0, float(strict_schaible_batch(G[inside], symmetrize_batch(H[inside])).max()))


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
        return replace(linear(1.0, -f_star), name=f"expconv(c=0,f*={f_star})", valid_interval=(f_star, np.inf),
                       lo_closed=True)

    def jet(y):
        u = c * (y - f_star)
        e = np.exp(u)
        return np.expm1(u) / c, e, c * e

    return ScalarTransform(
        name=f"expconv(c={c:g},f*={f_star:g})",
        jet=jet,
        valid_interval=(f_star, np.inf),
        lo_closed=True,
        ratio_fn=constant(c),
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

    def jet(y):
        p1 = phi_prime(y)
        return phi_cum(y), p1, float(h(y)) * p1

    # h and the tables take floats: the loop over an array's elements stays here
    loop, rate = np.vectorize(jet, otypes=[float] * 3), np.vectorize(h, otypes=[float])
    return ScalarTransform(
        name=f"nestedconv(f*={f_star:g})",
        jet=lambda y: tuple(v[()] for v in loop(y)),
        valid_interval=(f_star, y_max),
        lo_closed=True,
        ratio_fn=lambda y: rate(y)[()],
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


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def verify_convexified(loss, t, grid, stack=None):
    """Minimum eigenvalue over the grid of the phi'-normalized transformed
    Hessian H + (phi''/phi') g g^T; also tracks its largest spectral norm for
    the pass threshold. Non-evaluable points of grid (N, d) are skipped and
    counted. stack, when given, is loss.evaluate_batch(grid)."""
    X = np.asarray(grid, dtype=float)
    f, G, H, err = loss.evaluate_batch(X) if stack is None else stack
    skip = err | ~t.contains(f)
    keep = ~skip
    if not keep.any():
        raise InputError("no grid point was evaluable")
    G = G[keep]
    A = symmetrize_batch(H[keep]) + t.ratio(f[keep])[:, None, None] * (G[:, :, None] * G[:, None, :])
    if not np.isfinite(A).all():
        raise InputError("matrix has non-finite entries")
    w = np.linalg.eigvalsh(A)
    i = int(np.argmin(w[:, 0]))
    worst_norm = max(0.0, float(np.maximum(-w[:, 0], w[:, -1]).max()))
    return ConvexifiedReport(float(w[i, 0]), worst_norm, X[keep][i], int(keep.sum()), int(skip.sum()))
