"""Star-convexifying transformations.

For a radial loss f(x) = psi(||x - x*||) the transformed loss

    L(x) = f(x*) + r * I(r),   I(r) = integral_0^r psi'(t)/t dt,  r = ||x - x*||

is star-convex, and the same object viewed through function values is the
scalar transform phi(c) = psi^{-1}(c) * I(psi^{-1}(c)). The integrand
psi'(t)/t extends smoothly to t = 0 (limit psi''(0)), which is how all
integrals here are evaluated; the closed forms (arcsin/arctan/erf) serve as
test oracles only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .losses import SmoothLoss, as_point, make_radial
from .newton import CONVERGED, ConstantSchedule, NewtonConfig, run_newton
from .quadrature import adaptive_simpson
from .transforms import ScalarTransform

#: Curvature at or above -CURVATURE_TOL counts as nonnegative.
CURVATURE_TOL = 1e-10

#: Multiples of bracket_hi probed before a radius is reported as +inf.
PROBE_FACTORS = (10.0, 100.0, 1000.0)


# ----------------------------------------------------------------------------
# Generic line-integral star value (any loss with known minimizer)
# ----------------------------------------------------------------------------

def star_value(base, x):
    """g(x) = f(x*) + integral_0^1 <grad f(x* + t (x - x*)), x - x*> / t dt.

    The integrand tends to <hess f(x*) d, d> as t -> 0, so [0, 1e-4] is
    integrated by that limit and [1e-4, 1] by adaptive Simpson to 1e-8.
    """
    if base.minimizer is None:
        raise InputError("star_value needs a loss with known minimizer")
    x = as_point(x, base.dimension)
    xstar = np.asarray(base.minimizer, dtype=float)
    d = x - xstar
    f_star, _, H_star = base.evaluate(xstar)
    if np.linalg.norm(d) == 0.0:
        return float(f_star)

    def integrand(t):
        g = base.evaluate(xstar + t * d)[1]
        return float(g @ d) / t

    head = 1e-4 * float(d @ (H_star @ d))
    return float(f_star) + head + adaptive_simpson(integrand, 1e-4, 1.0, 1e-8)


# ----------------------------------------------------------------------------
# Radial closed-path machinery
# ----------------------------------------------------------------------------

def _ratio_integrand(radial):
    psi2_0 = radial.psi_double_prime(0.0)

    def fn(t):
        return psi2_0 if t == 0.0 else radial.psi_prime(t) / t

    return fn


def _profile_integral(radial, r):
    """I(r) = integral_0^r psi'(t)/t dt."""
    return adaptive_simpson(_ratio_integrand(radial), 0.0, r)


def _excess_integral(radial, r):
    """psi'(r) - I(r) = integral_0^r [psi''(t) - psi'(t)/t] dt, stable near 0."""
    ratio = _ratio_integrand(radial)

    def fn(t):
        return radial.psi_double_prime(t) - ratio(t)

    return adaptive_simpson(fn, 0.0, r)


def _star_curvature(radial, r):
    """Psi''(r) = psi''(r) + psi'(r)/r of the star-transformed profile, with
    its limit 2 psi''(0) at r = 0."""
    if r == 0.0:
        return 2.0 * radial.psi_double_prime(0.0)
    return radial.psi_double_prime(r) + radial.psi_prime(r) / r


def radial_star_loss(radial):
    """Both views of the star-convexified radial loss.

    Returns (loss, transform): the 1D SmoothLoss with profile
    Psi(r) = psi(0) + r I(r) (derivatives Psi' = I + psi', Psi'' = psi'' + psi'/r)
    and the equivalent ScalarTransform acting on f-values.
    """
    if radial.psi_prime(0.0) != 0.0:
        raise InputError("radial star transform needs psi'(0) = 0")
    f_star = float(radial.psi(0.0))
    c = radial.center

    def ev(x):
        t = x[0] - c
        r = abs(t)
        if r == 0.0:
            return f_star, np.zeros(1), np.array([[_star_curvature(radial, r)]])
        sgn = 1.0 if t > 0 else -1.0
        I = _profile_integral(radial, r)
        val = f_star + r * I
        grad = (I + radial.psi_prime(r)) * sgn
        return val, np.array([grad]), np.array([[_star_curvature(radial, r)]])

    def hess(x):
        return np.array([[_star_curvature(radial, abs(x[0] - c))]])

    loss = SmoothLoss(
        name=f"star({radial.name})1d",
        dimension=1,
        _eval=ev,
        minimizer=np.array([c]),
        min_value=f_star,
        _hess=hess,
    )
    return loss, _star_transform_from_profile(radial)


def _star_transform_from_profile(radial):
    f_star = float(radial.psi(0.0))

    def phi(cval):
        r = radial.psi_inverse(cval)
        if r == 0.0:
            return f_star
        return f_star + r * _profile_integral(radial, r)

    def phi_prime(cval):
        # appendix form 1 + (psi^{-1})'(c) * I = 1 + I(r)/psi'(r)
        r = radial.psi_inverse(cval)
        if r == 0.0:
            return 2.0
        return 1.0 + _profile_integral(radial, r) / radial.psi_prime(r)

    def phi_double_prime(cval):
        # d/dc of phi' = (psi^{-1})'' I + (psi^{-1})'/psi^{-1}
        #             = [psi'^2 - r psi'' I] / (r psi'^3)
        # evaluated via I = psi' - K with K = integral of (psi'' - psi'/t),
        # which keeps the r -> 0 cancellation O(r^3) instead of O(r).
        r = radial.psi_inverse(cval)
        if r == 0.0:
            r = 1e-8  # limit -4b/(3a^2) approached smoothly; tiny r suffices
        p1 = radial.psi_prime(r)
        p2 = radial.psi_double_prime(r)
        K = _excess_integral(radial, r)
        num = p1 * (p1 - r * p2) + r * p2 * K
        return num / (r * p1**3)

    return ScalarTransform(
        name=f"star({radial.name})",
        phi=phi,
        phi_prime=phi_prime,
        phi_double_prime=phi_double_prime,
        valid_interval=(0.0, radial.psi_sup),
        lo_closed=True,
    )


def make_star_transform(name):
    """Table-2 star transform by radial-loss name (geman_mcclure/welsh/cauchy)."""
    return _star_transform_from_profile(make_radial(name))


# ----------------------------------------------------------------------------
# Convexity neighborhood and radii
# ----------------------------------------------------------------------------

def convexity_neighborhood(radial, M, grid_step=1e-3):
    """True iff psi''(r) + psi'(r)/r >= -CURVATURE_TOL on (0, M] (grid) and at r -> 0.

    This is the curvature of the star-transformed profile; nonnegativity
    certifies convexity of the transformed loss on the ball of radius M.
    """
    if M <= 0:
        raise InputError("neighborhood radius must be positive")
    rs = np.arange(grid_step, M + 0.5 * grid_step, grid_step)
    return not any(_star_curvature(radial, r) < -CURVATURE_TOL for r in (0.0, *rs))


@dataclass
class RadiusResult:
    """Outcome of a radius bisection; compares/format like its float value."""

    radius: float
    monotone: bool = True

    def __float__(self):
        return self.radius


def _check_bracket(bracket_hi):
    if not (0.0 < bracket_hi < np.inf):
        raise InputError(f"bracket_hi must be positive and finite, got {bracket_hi}")


def _bisect_predicate(predicate, bracket_hi, min_probe=0.0):
    """Largest x0 with predicate true (50 bisection rounds), assuming monotone
    predicate; +inf when the probes at bracket_hi * PROBE_FACTORS all pass. A
    predicate that only holds below min_probe counts as failing everywhere
    (broken loss)."""
    if predicate(bracket_hi):
        if all(predicate(bracket_hi * f) for f in PROBE_FACTORS):
            return np.inf, bracket_hi
        lo = bracket_hi
        hi = bracket_hi
        for f in PROBE_FACTORS:
            if predicate(bracket_hi * f):
                lo = bracket_hi * f
            else:
                hi = bracket_hi * f
                break
    else:
        lo = None
        hi = bracket_hi
        probe = bracket_hi
        for _ in range(60):
            probe *= 0.5
            if probe <= min_probe:
                break
            if predicate(probe):
                lo = probe
                break
        if lo is None:
            raise InputError("predicate fails at arbitrarily small starts: broken loss")
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), hi


def convergence_radius(loss_1d, bracket_hi=8.0, cfg=None, verify_monotone=True):
    """Empirical basin radius of the unit-stepsize Newton method on a 1D loss.

    Bisects (50 iterations) on x0 in (0, bracket_hi] with the predicate
    "run_newton(loss, constant(1), x* + x0) terminates converged within 1e-6
    of the known minimizer"; probes bracket_hi * {10, 100, 1000} before
    reporting +inf. Monotonicity of the predicate is verified post hoc on
    20 points per side.

    Note: this measures actual runs. For the convexity-neighborhood radius
    (what the transformed-loss theory bounds), see convexity_radius.
    """
    if loss_1d.minimizer is None:
        raise InputError("convergence_radius needs a loss with known minimizer")
    _check_bracket(bracket_hi)
    cfg = cfg or NewtonConfig()
    xstar = float(loss_1d.minimizer[0])

    def predicate(r):
        tr = run_newton(loss_1d, ConstantSchedule(1.0), np.array([xstar + r]), cfg)
        return tr.termination == CONVERGED and abs(tr.final_x[0] - xstar) <= 1e-6

    radius, _ = _bisect_predicate(predicate, bracket_hi, min_probe=100.0 * cfg.xtol)
    monotone = True
    if verify_monotone and np.isfinite(radius):
        below = np.linspace(radius * 0.02, radius * 0.98, 20)
        above = np.linspace(radius * 1.02, min(radius * 1.5, bracket_hi * 1000), 20)
        monotone = all(predicate(r) for r in below) and not any(predicate(r) for r in above)
    return RadiusResult(float(radius), monotone)


def convexity_radius(loss_1d, bracket_hi=8.0):
    """Largest M such that the 1D loss curvature stays >= -CURVATURE_TOL on (0, M].

    This is the radius of the convexity neighborhood; for the three radial
    losses and their star transforms it reproduces the reported radii
    (1/sqrt(3), 1/sqrt(2), 1 original; 1, 1, +inf transformed). The first
    sign change of the curvature is located on a 400-point scan and refined
    by bisection (50 rounds).
    """
    _check_bracket(bracket_hi)
    xstar = float(loss_1d.minimizer[0])

    def curvature(r):
        return loss_1d.hessian([xstar + r])[0, 0]

    def first_negative(lo, hi):
        for r in np.linspace(lo, hi, 400):
            if curvature(r) < -CURVATURE_TOL:
                return r
        return None

    neg = first_negative(bracket_hi / 400, bracket_hi)
    if neg is None:
        for f in PROBE_FACTORS:
            if first_negative(bracket_hi, bracket_hi * f) is not None:
                neg = bracket_hi * f
                break
        if neg is None:
            return RadiusResult(np.inf)
    lo, hi = 1e-12, neg
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if curvature(mid) < -CURVATURE_TOL:
            hi = mid
        else:
            lo = mid
    return RadiusResult(float(0.5 * (lo + hi)))
