"""Damped Newton driver with pluggable stepsize schedules, the
transformation-equivalence harness, and the Levenberg-Marquardt
non-invariance demonstration.

The iteration is x+ = x - alpha * pinv(hess f(x)) grad f(x). Schedules may be
transform-aware: a forwarded schedule drives phi(f) with alpha * scaling so it
reproduces the f-run; an induced schedule drives f with alpha / scaling so it
reproduces the phi(f)-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .errors import DomainError, EvaluationError, InputError, SingularScalingError
from .linalg import dual_norm_sq, norm_exceeds, symmetrize
from .losses import SmoothLoss, as_point
from .transforms import SCALING_ZERO_TOL, ScalarTransform, compose, forward_stepsize, induced_stepsize, scaling_factor

CONVERGED = "converged"
DIVERGED = "diverged"
MAX_ITERS = "max_iters"
SINGULAR_SCALING = "singular_scaling"
DOMAIN_ERROR = "domain_error"


@dataclass
class NewtonConfig:
    max_iters: int = 100
    gtol: float = 1e-10
    xtol: float = 1e-10
    divergence_radius: float = 1e6

    def __post_init__(self):
        if min(self.max_iters, self.gtol, self.xtol, self.divergence_radius) <= 0:
            raise InputError("all NewtonConfig fields must be positive")


@dataclass
class StepState:
    """Everything a schedule may inspect when choosing alpha at iterate k."""

    k: int
    x: np.ndarray
    f: float
    g: np.ndarray
    direction: np.ndarray  # pinv(H) g
    dual_sq: float  # <g, pinv(H) g> of the driven loss
    loss: SmoothLoss


@dataclass
class IterateTrace:
    """Full record of a Newton run; row k describes iterate x_k and (for
    non-final rows) the step taken from it."""

    xs: List[np.ndarray] = field(default_factory=list)
    values: List[float] = field(default_factory=list)
    grad_norms: List[float] = field(default_factory=list)
    alphas: List[float] = field(default_factory=list)
    scalings: List[float] = field(default_factory=list)
    dual_sqs: List[float] = field(default_factory=list)
    in_range: List[bool] = field(default_factory=list)
    termination: str = MAX_ITERS

    @property
    def iterations(self):
        return len(self.xs) - 1

    @property
    def final_x(self):
        return self.xs[-1]

    @property
    def min_abs_scaling(self):
        vals = [abs(s) for s in self.scalings if np.isfinite(s)]
        return min(vals) if vals else np.inf

    def write_csv(self, path):
        d = len(self.xs[0])
        header = ["k"] + [f"x_{i}" for i in range(d)] + ["f", "grad_norm", "alpha", "scaling", "dual_sq", "termination"]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for k, x in enumerate(self.xs):
                row = [k, *x, self.values[k], self.grad_norms[k], self.alphas[k], self.scalings[k], self.dual_sqs[k],
                       self.termination]
                fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


# ----------------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------------

class ConstantSchedule:
    """alpha(x) = alpha, independent of state."""

    def __init__(self, alpha):
        self.alpha = float(alpha)

    def __call__(self, state):
        return self.alpha, np.nan


class ForwardedSchedule:
    """Drive L = phi(f) with alpha_phi(x) = alpha * scaling(x).

    scaling is computed from the *base* loss quantities at x, so the L-run
    reproduces the f-run iterate for iterate.
    """

    def __init__(self, base_alpha, transform: ScalarTransform, base_loss: SmoothLoss):
        self.base_alpha = float(base_alpha)
        self.transform = transform
        self.base_loss = base_loss

    def __call__(self, state):
        f, g, H = self.base_loss.evaluate(state.x)
        dual = dual_norm_sq(H, g)
        s = scaling_factor(self.transform, f, dual.value)
        if abs(s) <= SCALING_ZERO_TOL:
            raise SingularScalingError(f"scaling factor {s} singular at iterate {state.k}")
        return forward_stepsize(self.base_alpha, s), s


class InducedSchedule:
    """Drive f with alpha(x) = alpha_phi / scaling(x) (transferred from a
    schedule intended for phi(f)). The driven loss is the base loss, so the
    scaling reuses the state's own evaluation."""

    def __init__(self, alpha_on_transformed, transform: ScalarTransform):
        self.alpha_on_transformed = float(alpha_on_transformed)
        self.transform = transform

    def __call__(self, state):
        s = scaling_factor(self.transform, state.f, state.dual_sq)
        return induced_stepsize(self.alpha_on_transformed, s), s


class BacktrackingSchedule:
    """Armijo backtracking on the driven loss from a unit step: smallest m
    below max_backtracks with f(x - 2^-m p) <= f(x) - 1e-4 2^-m <g, p>."""

    def __init__(self, max_backtracks=60):
        self.max_backtracks = max_backtracks

    def __call__(self, state):
        slope = float(state.g @ state.direction)
        alpha = 1.0
        for _ in range(self.max_backtracks):
            trial = state.x - alpha * state.direction
            try:
                f_trial = state.loss.value(trial)
            except (DomainError, EvaluationError):
                alpha *= 0.5
                continue
            if f_trial <= state.f - 1e-4 * alpha * slope:
                return alpha, np.nan
            alpha *= 0.5
        return alpha, np.nan


# ----------------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def run_newton(loss, schedule, x0, cfg=None):
    """Damped Newton with pseudoinverse directions; never raises past input
    validation — failures are recorded in trace.termination. Overflow is
    recorded as divergence, without a NumPy warning."""
    cfg = cfg or NewtonConfig()
    x = as_point(x0, loss.dimension)
    tr = IterateTrace()

    def push(x, f=np.nan, gn=np.nan, dual=np.nan, inr=False):
        tr.xs.append(np.array(x))
        tr.values.append(f)
        tr.grad_norms.append(gn)
        tr.dual_sqs.append(dual)
        tr.in_range.append(inr)
        tr.alphas.append(np.nan)
        tr.scalings.append(np.nan)

    def end(termination):
        tr.termination = termination
        return tr

    for k in range(cfg.max_iters + 1):
        try:
            f, g, H = loss.evaluate(x)
        except (DomainError, EvaluationError):
            push(x)
            return end(DOMAIN_ERROR)
        if not (np.isfinite(f) and np.all(np.isfinite(g)) and np.all(np.isfinite(H))):
            push(x)
            return end(DIVERGED)

        solve = dual_norm_sq(H, g)
        push(x, f, solve.grad_norm, solve.value, solve.in_range)

        near_min = loss.minimizer is not None and not norm_exceeds(x - loss.minimizer, cfg.xtol)
        if solve.grad_norm <= cfg.gtol or near_min:
            return end(CONVERGED)
        if k == cfg.max_iters:
            return end(MAX_ITERS)

        state = StepState(k=k, x=x, f=f, g=g, direction=solve.direction, dual_sq=solve.value, loss=loss)
        try:
            alpha, scal = schedule(state)
        except SingularScalingError:
            return end(SINGULAR_SCALING)
        except (DomainError, EvaluationError):
            return end(DOMAIN_ERROR)
        tr.alphas[-1] = alpha
        tr.scalings[-1] = scal

        x = x - alpha * solve.direction
        if not np.all(np.isfinite(x)) or norm_exceeds(x, cfg.divergence_radius):
            push(x)
            return end(DIVERGED)

    return tr  # pragma: no cover


@dataclass
class EquivalenceResult:
    trace_f: IterateTrace
    trace_L: IterateTrace
    max_deviation: float
    n_common: int

    @property
    def qualified(self):
        """True when every transformed-run scaling factor stayed away from 0."""
        return self.trace_L.termination != SINGULAR_SCALING and self.trace_L.min_abs_scaling > 1e-6


def run_equivalence(loss, t, base_schedule, x0, cfg=None):
    """Run Newton on f and, independently, on phi(f) with the forwarded
    schedule; report the worst normalized iterate deviation over the common
    prefix. Agreement certifies the stepsize-rescaling equivalence."""
    cfg = cfg or NewtonConfig()
    if not isinstance(base_schedule, ConstantSchedule):
        raise InputError("base_schedule must be a ConstantSchedule")

    trace_f = run_newton(loss, base_schedule, x0, cfg)
    trace_L = run_newton(compose(loss, t), ForwardedSchedule(base_schedule.alpha, t, loss), x0, cfg)

    n = min(len(trace_f.xs), len(trace_L.xs))
    dev = 0.0
    for k in range(n):
        xf, xl = trace_f.xs[k], trace_L.xs[k]
        if not (np.all(np.isfinite(xf)) and np.all(np.isfinite(xl))):
            break
        dev = max(dev, float(np.linalg.norm(xf - xl) / (1.0 + np.linalg.norm(xf))))
    return EquivalenceResult(trace_f, trace_L, dev, n)


# ----------------------------------------------------------------------------
# Levenberg-Marquardt non-invariance
# ----------------------------------------------------------------------------

def lm_step(loss, x, lam):
    """Displacement (hess f(x) + lam I)^{-1} grad f(x)."""
    f, g, H = loss.evaluate(x)
    H = symmetrize(H) + lam * np.eye(len(g))
    try:
        return np.linalg.solve(H, g)
    except np.linalg.LinAlgError:
        raise InputError(f"regularized Hessian singular at lambda = {lam}") from None


def _golden_min(fn, a, b):
    """Golden-section minimum of fn on [a, b], to a bracket of 1e-10 or 200 rounds."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(200):
        if b - a <= 1e-10:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    xm = 0.5 * (a + b)
    return xm, fn(xm)


def lm_invariance_residual(loss, t, x, lam):
    """min over scalar lambda_phi in [-1e6, 1e6] of
    || lm_step(f, x, lam) - lm_step(phi(f), x, lambda_phi) ||.

    A strictly positive result certifies that no scalar regularization on the
    transformed loss reproduces the regularized step on f at x. Requires
    d >= 2 and grad f(x) not an eigenvector of hess f(x) (in one dimension, or
    aligned with an eigenvector, a single scalar equation always has a root).
    """
    x = as_point(x, loss.dimension)
    if loss.dimension < 2:
        raise InputError("LM non-invariance needs d >= 2")
    f, g, H = loss.evaluate(x)
    H = symmetrize(H)
    gn = np.linalg.norm(g)
    if gn == 0.0:
        raise InputError("grad f(x) = 0: pick a non-stationary point")
    Hg = H @ g
    tangential = Hg - (g @ Hg) / gn**2 * g
    if np.linalg.norm(tangential) <= 1e-8 * max(np.linalg.norm(Hg), 1.0):
        raise InputError("grad f(x) is (numerically) an eigenvector of hess f(x): degenerate geometry")

    target = lm_step(loss, x, lam)
    L = compose(loss, t)
    fL, gL, HL = L.evaluate(x)
    HL = symmetrize(HL)
    eye = np.eye(len(g))

    def residual(lphi):
        try:
            step = np.linalg.solve(HL + lphi * eye, gL)
        except np.linalg.LinAlgError:
            return np.inf
        r = np.linalg.norm(step - target)
        return r if np.isfinite(r) else np.inf

    decades = np.logspace(-8, 6, 8 * 14 + 1)  # 8 candidates per decade
    cand = np.concatenate([-decades[::-1], [0.0], decades])
    vals = np.array([residual(c) for c in cand])
    i = int(np.argmin(vals))
    lo = cand[max(i - 1, 0)]
    hi = cand[min(i + 1, len(cand) - 1)]
    _, best = _golden_min(residual, lo, hi)
    return float(min(best, vals[i]))
