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
from .linalg import norm_exceeds, pinv_solve, symmetrize
from .losses import SmoothLoss, as_point
from .transforms import ScalarTransform, scaling_factor

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
    pinv_rel_tol: float = 1e-10

    def __post_init__(self):
        if min(self.max_iters, self.gtol, self.xtol, self.divergence_radius, self.pinv_rel_tol) <= 0:
            raise InputError("all NewtonConfig fields must be positive")


@dataclass
class StepState:
    """Everything a schedule may inspect when choosing alpha at iterate k."""

    k: int
    x: np.ndarray
    f: float
    g: np.ndarray
    H: np.ndarray
    direction: np.ndarray  # pinv(H) g
    dual_sq: float  # <g, pinv(H) g> of the driven loss
    loss: SmoothLoss
    cfg: NewtonConfig


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

    def _row(self, k):
        x = self.xs[k]
        return [k, *x, self.values[k], self.grad_norms[k], self.alphas[k], self.scalings[k], self.dual_sqs[k], self.termination]

    def write_csv(self, path):
        d = len(self.xs[0])
        header = ["k"] + [f"x_{i}" for i in range(d)] + ["f", "grad_norm", "alpha", "scaling", "dual_sq", "termination"]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for k in range(len(self.xs)):
                fh.write(",".join(_fmt(v) for v in self._row(k)) + "\n")


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


def _base_alpha(base, x):
    return base(x) if callable(base) else float(base)


class ForwardedSchedule:
    """Drive L = phi(f) with alpha_phi(x) = alpha(x) * scaling(x).

    scaling is computed from the *base* loss quantities at x, so the L-run
    reproduces the f-run iterate for iterate.
    """

    def __init__(self, base_alpha, transform: ScalarTransform, base_loss: SmoothLoss):
        self.base_alpha = base_alpha
        self.transform = transform
        self.base_loss = base_loss

    def __call__(self, state):
        from .linalg import dual_norm_sq
        from .transforms import forward_stepsize

        f, g, H = self.base_loss.evaluate(state.x)
        dual = dual_norm_sq(H, g, state.cfg.pinv_rel_tol)
        s = scaling_factor(self.transform, f, dual.value)
        if abs(s) <= 1e-12:
            raise SingularScalingError(f"scaling factor {s} singular at iterate {state.k}")
        return forward_stepsize(_base_alpha(self.base_alpha, state.x), s), s


class InducedSchedule:
    """Drive f with alpha(x) = alpha_phi(x) / scaling(x) (transferred from a
    schedule intended for phi(f)). The driven loss is the base loss, so the
    scaling reuses the state's own evaluation."""

    def __init__(self, alpha_on_transformed, transform: ScalarTransform):
        self.alpha_on_transformed = alpha_on_transformed
        self.transform = transform

    def __call__(self, state):
        from .transforms import induced_stepsize

        s = scaling_factor(self.transform, state.f, state.dual_sq)
        return induced_stepsize(_base_alpha(self.alpha_on_transformed, state.x), s), s


class BacktrackingSchedule:
    """Armijo backtracking on the driven loss: smallest m with
    f(x - beta^m a0 p) <= f(x) - c1 beta^m a0 <g, p>."""

    def __init__(self, beta=0.5, c1=1e-4, alpha0=1.0, max_backtracks=60):
        if not (0 < beta < 1 and 0 < c1 < 1):
            raise InputError("backtracking requires beta, c1 in (0, 1)")
        self.beta = beta
        self.c1 = c1
        self.alpha0 = alpha0
        self.max_backtracks = max_backtracks

    def __call__(self, state):
        slope = float(state.g @ state.direction)
        alpha = self.alpha0
        for _ in range(self.max_backtracks):
            trial = state.x - alpha * state.direction
            try:
                f_trial = state.loss.value(trial)
            except (DomainError, EvaluationError):
                alpha *= self.beta
                continue
            if f_trial <= state.f - self.c1 * alpha * slope:
                return alpha, np.nan
            alpha *= self.beta
        return alpha, np.nan


# ----------------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------------

def run_newton(loss, schedule, x0, cfg=None):
    """Damped Newton with pseudoinverse directions; never raises past input
    validation — failures are recorded in trace.termination."""
    cfg = cfg or NewtonConfig()
    x = as_point(x0, loss.dimension)
    tr = IterateTrace()

    def push(k, x, f, gn, dual, inr):
        tr.xs.append(np.array(x))
        tr.values.append(f)
        tr.grad_norms.append(gn)
        tr.dual_sqs.append(dual)
        tr.in_range.append(inr)
        tr.alphas.append(np.nan)
        tr.scalings.append(np.nan)

    for k in range(cfg.max_iters + 1):
        try:
            f, g, H = loss.evaluate(x)
        except (DomainError, EvaluationError):
            push(k, x, np.nan, np.nan, np.nan, False)
            tr.termination = DOMAIN_ERROR
            return tr
        if not (np.isfinite(f) and np.all(np.isfinite(g)) and np.all(np.isfinite(H))):
            push(k, x, np.nan, np.nan, np.nan, False)
            tr.termination = DIVERGED
            return tr

        H = symmetrize(H)
        p = pinv_solve(H, g, cfg.pinv_rel_tol)
        dual = float(g @ p)
        gnorm = float(np.linalg.norm(g))
        residual = np.linalg.norm(H @ p - g)
        inr = bool(gnorm == 0.0 or residual <= cfg.pinv_rel_tol * gnorm)
        push(k, x, f, gnorm, dual, inr)

        near_min = loss.minimizer is not None and not norm_exceeds(x - loss.minimizer, cfg.xtol)
        if gnorm <= cfg.gtol or near_min:
            tr.termination = CONVERGED
            return tr
        if k == cfg.max_iters:
            tr.termination = MAX_ITERS
            return tr

        state = StepState(k=k, x=x, f=f, g=g, H=H, direction=p, dual_sq=dual, loss=loss, cfg=cfg)
        try:
            alpha, scal = schedule(state)
        except SingularScalingError:
            tr.termination = SINGULAR_SCALING
            return tr
        except (DomainError, EvaluationError):
            tr.termination = DOMAIN_ERROR
            return tr
        tr.alphas[-1] = alpha
        tr.scalings[-1] = scal

        x = x - alpha * p
        if not np.all(np.isfinite(x)) or norm_exceeds(x, cfg.divergence_radius):
            push(k + 1, x, np.nan, np.nan, np.nan, False)
            tr.termination = DIVERGED
            return tr

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
    from .transforms import compose

    cfg = cfg or NewtonConfig()
    if isinstance(base_schedule, ConstantSchedule):
        base_alpha = base_schedule.alpha
    elif callable(base_schedule):
        base_alpha = base_schedule
    else:
        raise InputError("base_schedule must be a ConstantSchedule or a callable of x")

    trace_f = run_newton(loss, ConstantSchedule(base_alpha) if not callable(base_alpha) else _CallableSchedule(base_alpha), x0, cfg)
    trace_L = run_newton(compose(loss, t), ForwardedSchedule(base_alpha, t, loss), x0, cfg)

    n = min(len(trace_f.xs), len(trace_L.xs))
    dev = 0.0
    for k in range(n):
        xf, xl = trace_f.xs[k], trace_L.xs[k]
        if not (np.all(np.isfinite(xf)) and np.all(np.isfinite(xl))):
            break
        dev = max(dev, float(np.linalg.norm(xf - xl) / (1.0 + np.linalg.norm(xf))))
    return EquivalenceResult(trace_f, trace_L, dev, n)


class _CallableSchedule:
    def __init__(self, fn):
        self.fn = fn

    def __call__(self, state):
        return float(self.fn(state.x)), np.nan


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


def _golden_min(fn, a, b, tol_abs=1e-10, max_iter=200):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if b - a <= tol_abs:
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


def _lm_candidates(lam_max=1e6, per_decade=8):
    decades = np.logspace(-8, np.log10(lam_max), int(per_decade * 14) + 1)
    return np.concatenate([-decades[::-1], [0.0], decades])


def lm_invariance_residual(loss, t, x, lam, lam_max=1e6):
    """min over scalar lambda_phi in [-lam_max, lam_max] of
    || lm_step(f, x, lam) - lm_step(phi(f), x, lambda_phi) ||.

    A strictly positive result certifies that no scalar regularization on the
    transformed loss reproduces the regularized step on f at x. Requires
    d >= 2 and grad f(x) not an eigenvector of hess f(x) (in one dimension, or
    aligned with an eigenvector, a single scalar equation always has a root).
    """
    from .transforms import compose

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

    cand = _lm_candidates(lam_max)
    vals = np.array([residual(c) for c in cand])
    i = int(np.argmin(vals))
    lo = cand[max(i - 1, 0)]
    hi = cand[min(i + 1, len(cand) - 1)]
    _, best = _golden_min(residual, lo, hi, tol_abs=1e-10)
    return float(min(best, vals[i]))
