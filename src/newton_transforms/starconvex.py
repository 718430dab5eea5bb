"""Star-convexifying transformations.

For a radial loss f(x) = psi(||x - x*||) the transformed loss

    L(x) = f(x*) + r * I(r),   I(r) = integral_0^r psi'(t)/t dt,  r = ||x - x*||

is star-convex, and the same object viewed through function values is the
scalar transform phi(c) = psi^{-1}(c) * I(psi^{-1}(c)). Both views read one
Gauss-Legendre prefix table of I per radial profile, built on first use; it
matches the closed forms (arctan/erf), which serve as test oracles only, to
about 3e-15 for r up to 1e20.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .losses import SmoothLoss, as_point, make_radial
from .newton import CONVERGED, RADIUS_TOL, NewtonConfig, lockstep_newton
from .quadrature import adaptive_simpson
from .transforms import ScalarTransform

#: Curvature at or above -CURVATURE_TOL counts as nonnegative.
CURVATURE_TOL = 1e-10

#: Multiples of bracket_hi probed before a radius is reported as +inf.
PROBE_FACTORS = (10.0, 100.0, 1000.0)

#: Rounds of a radius bisection.
BISECT_ROUNDS = 50

#: Rounds one batched predicate call decides: 2^6 - 1 = 63 midpoints per pass.
BISECT_PASS_ROUNDS = 6


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

def _radial_integrals(radial):
    """(r -> I(r), r -> [I(r), K(r)]) with K(r) = integral_0^r [psi''(t) -
    psi'(t)/t] dt, per radius of r: a prefix table over 20-node Gauss-Legendre
    panels (width 1/16 on [0, 1], then doubling up to 2^996), built on first
    use, plus one partial panel. The first function skips K's partial panel
    and equals the second's I bit for bit. Far out the integrands fall to 0,
    or to NaN in K past 2^512, which no psi^{-1} reaches."""
    table = {}

    def ratio(a, b):
        # psi'(t)/t at the nodes t of the panels [a, b] (scalar ends, or columns of
        # them), with t and the node weights; nodes floored at the least subnormal
        # make the empty panel of r = 0 sum to 0
        t = np.maximum(a + (b - a) * table["nodes"], 5e-324)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return t, radial.psi_prime(t) / t, (b - a) * table["weights"]

    def panels(a, b):
        # [I, K] over the panels [a, b]
        t, q, hw = ratio(a, b)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            excess = radial.psi_double_prime(t) - q
        return np.array([(q * hw).sum(-1), (excess * hw).sum(-1)])

    def locate(r):
        if not table:
            k = np.arange(1.0, 20)
            beta = k / np.sqrt(4.0 * k * k - 1.0)  # Golub-Welsch: the Legendre Jacobi matrix
            x, v = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
            table["nodes"], table["weights"] = 0.5 * (x + 1.0), v[0] ** 2
            edges = table["edges"] = np.concatenate([np.arange(16) / 16.0, 2.0 ** np.arange(997)])
            cells = panels(edges[:-1, None], edges[1:, None]).cumsum(axis=1)
            table["prefix"] = np.concatenate([np.zeros((2, 1)), cells], axis=1)
        r = np.asarray(r, dtype=float)
        return r, table["edges"].searchsorted(r, "right") - 1

    def integral(r):
        r, j = locate(r)
        _, q, hw = ratio(table["edges"][j, None], r[..., None])
        return table["prefix"][0, j] + np.add.reduce(q * hw, -1)

    def integrals(r):
        r, j = locate(r)
        return table["prefix"][:, j] + panels(table["edges"][j, None], r[..., None])

    return integral, integrals


def radial_star_loss(radial):
    """Both views of the star-convexified radial loss.

    Returns (loss, transform): the 1D SmoothLoss with profile Psi(r) = psi(0) + r I(r)
    (Psi' = I + psi', Psi'' = psi'' + psi'/r with its limit 2 psi''(0) at r = 0)
    and the equivalent ScalarTransform acting on f-values.
    """
    if radial.psi_prime(0.0) != 0.0:
        raise InputError("radial star transform needs psi'(0) = 0")
    f_star = float(radial.psi(0.0))
    curvature_at_0 = 2.0 * radial.psi_double_prime(0.0)
    c = radial.center
    integral, integrals = _radial_integrals(radial)

    def ev_batch(X):
        t = X[:, 0] - c
        r = np.abs(t)
        I = integral(r)
        p1 = radial.psi_prime(r)
        f = f_star + r * I
        g = (I + p1) * np.sign(t)
        h = np.where(r == 0.0, curvature_at_0, radial.psi_double_prime(r) + p1 / np.where(r == 0.0, 1.0, r))
        err = ~(f < np.inf)  # overflow, or the NaN of I(r) where psi' overflows (welsh, geman_mcclure)
        if np.logical_or.reduce(err):
            f, g, h = (np.where(err, np.nan, v) for v in (f, g, h))
        return f, g[:, None], h[:, None, None], err

    loss = SmoothLoss(
        name=f"star({radial.name})1d",
        dimension=1,
        _eval=None,
        minimizer=np.array([c]),
        min_value=f_star,
        _eval_batch=ev_batch,
    )

    def jet(cval):
        # phi' in the appendix form 1 + (psi^{-1})'(c) * I = 1 + I(r)/psi'(r), with its limit 2 at r = 0;
        # phi'' = d/dc of phi' = (psi^{-1})'' I + (psi^{-1})'/psi^{-1}
        #       = [psi'^2 - r psi'' I] / (r psi'^3)
        # evaluated via I = psi' - K, which keeps the r -> 0 cancellation O(r^3)
        # instead of O(r); one factor psi' at a time, as psi'^3 underflows far out.
        # At c = 0 a tiny r approaches the limit -4b/(3a^2) smoothly. All three read one [I, K]
        # at r floored to 1e-8 at 0, where phi multiplies I by r = 0 and phi' takes its limit.
        r = radial.psi_inverse(cval)
        rr = np.where(r == 0.0, 1e-8, r)[()]
        I, K = integrals(rr)
        p1 = radial.psi_prime(rr)
        p2 = radial.psi_double_prime(rr)
        num = p1 * (p1 - rr * p2) + rr * p2 * K
        return (f_star + r * I, np.where(r == 0.0, 2.0, 1.0 + I / p1)[()],
                num / p1 / p1 / (rr * p1))

    return loss, ScalarTransform(
        name=f"star({radial.name})",
        jet=jet,
        # the domain also ends where psi^{-1} overflows: Cauchy's sqrt(expm1(c)) past log(DBL_MAX)
        valid_interval=(0.0, float(min(radial.psi_sup, np.nextafter(np.log(np.finfo(float).max), np.inf)))),
        lo_closed=True,
    )


def make_star_transform(name):
    """Table-2 star transform by radial-loss name (geman_mcclure/welsh/cauchy)."""
    return radial_star_loss(make_radial(name))[1]


# ----------------------------------------------------------------------------
# Convexity neighborhood and radii
# ----------------------------------------------------------------------------

@dataclass
class RadiusResult:
    """Outcome of a radius bisection."""

    radius: float
    monotone: bool = True


def _check_bracket(loss_1d, bracket_hi):
    """The minimizer x* of a radius search, which needs one, and a positive, finite bracket_hi."""
    if loss_1d.minimizer is None:
        raise InputError("radius searches need a loss with known minimizer")
    if not (0.0 < bracket_hi < np.inf):
        raise InputError(f"bracket_hi must be positive and finite, got {bracket_hi}")
    return float(loss_1d.minimizer[0])


@np.errstate(over="ignore")
def _bisect(holds, lo, hi):
    """Midpoint after BISECT_ROUNDS bisection rounds on [lo, hi], keeping
    holds(lo) true and holds(hi) false.

    holds maps an array of points to an array of truth values. A pass decides
    BISECT_PASS_ROUNDS = k rounds with one call: it builds the 2^k - 1
    midpoints those rounds could visit, by the serial loop's own
    0.5 * (lo + hi), and walks the k rounds through the table of answers. The
    result is that of 50 serial rounds bit for bit, whatever the predicate.
    """
    rounds = BISECT_ROUNDS
    while rounds:
        k = min(BISECT_PASS_ROUNDS, rounds)
        los, his, levels = np.array([lo]), np.array([hi]), []
        for _ in range(k):  # node i of the table has children 2i + 1 (fails) and 2i + 2 (holds)
            mid = 0.5 * (los + his)
            levels.append(mid)
            los, his = np.array([los, mid]).T.ravel(), np.array([mid, his]).T.ravel()
        mids = np.concatenate(levels)
        table = holds(mids)
        i = 0
        for _ in range(k):
            if table[i]:
                lo, i = mids[i], 2 * i + 2
            else:
                hi, i = mids[i], 2 * i + 1
        rounds -= k
    return 0.5 * (lo + hi)


def _bisect_predicate(holds, bracket_hi, min_probe=0.0):
    """Largest x0 with holds true, assuming a monotone predicate; +inf when
    the probes at bracket_hi * PROBE_FACTORS all pass. A predicate that only
    holds below min_probe counts as failing everywhere (broken loss).

    holds maps an array of starts to an array of truth values. The upward
    probes are asked one at a time, in order, as a start past the first
    failing probe (which may not even be finite) is never run; the downward
    probes (halving from bracket_hi, at most 60) are asked in one call."""
    def holds_at(x0):
        return holds(np.array([x0]))[0]

    if holds_at(bracket_hi):
        lo = bracket_hi
        for f in PROBE_FACTORS:
            if not holds_at(bracket_hi * f):
                return _bisect(holds, lo, bracket_hi * f)
            lo = bracket_hi * f
        return np.inf
    probes = []
    probe = bracket_hi
    for _ in range(60):
        probe *= 0.5
        if probe <= min_probe:
            break
        probes.append(probe)
    passed = holds(np.array(probes)) if probes else np.zeros(0, dtype=bool)
    if passed.any():
        return _bisect(holds, probes[int(passed.argmax())], bracket_hi)  # the largest passing probe
    raise InputError("predicate fails at arbitrarily small starts: broken loss")


def convergence_radius(loss_1d, bracket_hi=8.0, cfg=None, verify_monotone=True):
    """Empirical basin radius of the unit-stepsize Newton method on a 1D loss.

    Bisects (50 rounds) on x0 in (0, bracket_hi] with the predicate
    "run_newton(loss, constant(1), x* + x0) terminates converged within
    RADIUS_TOL of the known minimizer"; probes bracket_hi * {10, 100, 1000} before
    reporting +inf. Monotonicity of the predicate is verified post hoc on
    20 points per side.

    The predicate runs as one newton.lockstep_newton batch per call, which
    ends every row as run_newton would: a bisection pass decides 6 rounds
    from one batch of 63 starts, the downward probes are one batch and the
    monotonicity check another, and the radius equals that of 50 serial
    rounds of single runs bit for bit.

    Note: this measures actual runs. For the convexity-neighborhood radius
    (what the transformed-loss theory bounds), see convexity_radius.
    """
    xstar = _check_bracket(loss_1d, bracket_hi)
    cfg = cfg or NewtonConfig()

    def converges(rs):
        runs = lockstep_newton(loss_1d, (xstar + rs)[:, None], np.ones(len(rs)), cfg)
        return (runs.termination == CONVERGED) & (np.abs(runs.final_x[:, 0] - xstar) <= RADIUS_TOL)

    radius = _bisect_predicate(converges, bracket_hi, min_probe=100.0 * cfg.xtol)
    monotone = True
    if verify_monotone and np.isfinite(radius):
        below = np.linspace(radius * 0.02, radius * 0.98, 20)
        above = np.linspace(radius * 1.02, min(radius * 1.5, bracket_hi * 1000), 20)
        passed = converges(np.concatenate([below, above]))
        monotone = bool(passed[:20].all() and not passed[20:].any())
    return RadiusResult(float(radius), monotone)


def convexity_radius(loss_1d, bracket_hi=8.0):
    """Largest M such that the 1D loss curvature stays >= -CURVATURE_TOL on (0, M].

    This is the radius of the convexity neighborhood; for the three radial
    losses and their star transforms it reproduces the reported radii
    (1/sqrt(3), 1/sqrt(2), 1 original; 1, 1, +inf transformed). The first
    sign change of the curvature is located on a 400-point scan and refined
    by bisection (50 rounds).

    Each scan is one evaluate_batch, and the bisection decides 6 rounds per
    batch of 63 midpoints; the radius equals that of the serial point-by-point
    scan and 50 serial rounds bit for bit. A point the loss cannot evaluate
    raises as loss.evaluate does: in a scan when it comes before the first
    negative point, in the bisection when it is among a pass's midpoints.
    """
    xstar = _check_bracket(loss_1d, bracket_hi)

    def negative(rs):
        """curvature < -CURVATURE_TOL at x* + r per r, and the points the loss
        cannot evaluate, where loss_1d.evaluate raises."""
        _, _, H, err = loss_1d.evaluate_batch((xstar + rs)[:, None])
        return H[:, 0, 0] < -CURVATURE_TOL, err

    def raise_at(r):
        loss_1d.evaluate([xstar + r])

    def first_negative(lo, hi):
        rs = np.linspace(lo, hi, 400)
        neg, err = negative(rs)
        stop = neg | err
        if not stop.any():
            return None
        i = int(stop.argmax())
        if err[i]:
            raise_at(rs[i])
        return rs[i]

    def nonnegative(rs):
        neg, err = negative(rs)
        if err.any():
            raise_at(rs[int(err.argmax())])
        return ~neg

    neg = first_negative(bracket_hi / 400, bracket_hi)
    if neg is None:
        for f in PROBE_FACTORS:
            if first_negative(bracket_hi, bracket_hi * f) is not None:
                neg = bracket_hi * f
                break
        if neg is None:
            return RadiusResult(np.inf)
    return RadiusResult(float(_bisect(nonnegative, 1e-12, neg)))
