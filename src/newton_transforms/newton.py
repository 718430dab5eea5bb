"""Damped Newton runs: the driver with pluggable stepsize schedules, the
lockstep engine for many constant-step runs, the transformation-equivalence
harness, and the Levenberg-Marquardt non-invariance demonstration.

The iteration is x+ = x - alpha * pinv(hess f(x)) grad f(x). Schedules may be
transform-aware: a forwarded schedule drives phi(f) with alpha * scaling so it
reproduces the f-run; an induced schedule drives f with alpha / scaling so it
reproduces the phi(f)-run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple

import numpy as np

from .errors import DomainError, EvaluationError, InputError, SingularScalingError
from .linalg import (DEFAULT_PINV_RTOL, dual_norm_sq, eigh_solve, eigh_solve_batch, lapack_solve, norm_exceeds,
                     row_norm, symmetrize, symmetrize_batch)
from .losses import SmoothLoss, as_point
from .transforms import (SCALING_QUALIFIED_TOL, SCALING_ZERO_TOL, ScalarTransform, compose, forward_stepsize,
                         induced_stepsize, scaling_factor)

CONVERGED = "converged"
DIVERGED = "diverged"
MAX_ITERS = "max_iters"
SINGULAR_SCALING = "singular_scaling"
DOMAIN_ERROR = "domain_error"

#: An iterate this close to the minimizer reached it (scan cells and basin radii).
RADIUS_TOL = 1e-6
#: A step to an iterate of larger norm, or not finite, ends the run diverged.
DIVERGENCE_RADIUS = 1e6
#: Two runs are equivalent when no iterate_deviation exceeds this.
EQUIVALENCE_TOL = 1e-8


@dataclass
class NewtonConfig:
    max_iters: int = 100
    gtol: float = 1e-10
    xtol: float = 1e-10

    def __post_init__(self):
        fields = (self.max_iters, self.gtol, self.xtol)  # not min(fields): it skips NaN
        if not (isinstance(self.max_iters, (int, np.integer)) and all(v > 0 for v in fields)):
            raise InputError("NewtonConfig fields must be positive and max_iters an integer")


@dataclass(slots=True)
class StepState:
    """Everything a schedule may inspect when choosing alpha at iterate k."""

    k: int
    x: np.ndarray
    f: float
    g: np.ndarray
    direction: np.ndarray  # pinv(H) g
    dual_sq: float  # <g, pinv(H) g> of the driven loss
    in_range: bool  # g in Range(H) of the driven loss, to DEFAULT_PINV_RTOL
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
        header = ",".join(["k", *(f"x_{i}" for i in range(len(self.xs[0]))), "f", "grad_norm", "alpha", "scaling",
                           "dual_sq", "termination"])
        write_csv(path, header, ([k, *x, self.values[k], self.grad_norms[k], self.alphas[k], self.scalings[k],
                                  self.dual_sqs[k], self.termination] for k, x in enumerate(self.xs)))


def _fmt(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def write_csv(path, header, rows):
    """CSV of a header line and one line per row: strings as they are, ints
    as ints, every other value as a float to 17 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


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
    """Drive L = phi(f) with alpha_phi(x) = alpha * scaling(x), the base loss's
    1 + (phi''/phi') <g, H^+ g> at x, so the L-run reproduces the f-run iterate
    for iterate. compose records the base f, g, H and phi'(f) at this very x.
    With g in Range(H), Sherman-Morrison gives s = 1 / (1 - (phi''/phi') q_L / phi')
    and s p_L = H^+ g from the driven solve; H (s p_L) = g certifies that
    hypothesis, and without it the base loss is solved.
    """

    def __init__(self, base_alpha, transform: ScalarTransform, base_loss: SmoothLoss):
        self.base_alpha = float(base_alpha)
        self.transform = transform
        self.base_loss = base_loss

    def __call__(self, state):
        base, x, f, g, H, p1 = getattr(state.loss, "base_eval", (None,) * 6)
        s = np.nan
        if base is not self.base_loss or x is not state.x:
            f, g, H = self.base_loss.evaluate(state.x)
        elif state.in_range:  # q_L / phi' = q / s; in float64, phi' = 0 gives inf, not ZeroDivisionError
            s = 1.0 / (1.0 - self.transform.ratio(f) * (np.float64(state.dual_sq) / p1))
            r = H @ (s * state.direction) - g
            s = s if math.sqrt(r.dot(r)) <= DEFAULT_PINV_RTOL * math.sqrt(g.dot(g)) else np.nan
        if not math.isfinite(s):
            s = scaling_factor(self.transform, f, dual_norm_sq(H, g).value)
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

@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def run_newton(loss, schedule, x0, cfg=None):
    """Damped Newton with pseudoinverse directions; never raises past input
    validation — failures are recorded in trace.termination. Overflow is
    recorded as divergence, without a NumPy warning."""
    cfg = cfg or NewtonConfig()
    x = np.array(as_point(x0, loss.dimension))  # every later iterate is a fresh array
    tr = IterateTrace()

    def push(x, f=np.nan, gn=np.nan, dual=np.nan, inr=False):
        tr.xs.append(x)
        tr.values.append(f)
        tr.grad_norms.append(gn)
        tr.dual_sqs.append(dual)
        tr.in_range.append(inr)
        tr.alphas.append(np.nan)
        tr.scalings.append(np.nan)

    def end(termination):
        tr.termination = termination
        return tr

    def near_min(x):
        return loss.minimizer is not None and not norm_exceeds(x - loss.minimizer, cfg.xtol)

    for k in range(cfg.max_iters + 1):
        try:
            f, g, H = loss.evaluate_point(x)
        except (DomainError, EvaluationError):
            push(x)  # on the minimizer, where a loss such as ||x||^1.5 has no Hessian, the run has converged
            return end(CONVERGED if near_min(x) else DOMAIN_ERROR)
        # a finite sum has finite terms; they are tested one by one only when it is not
        if not math.isfinite(f + sum(g.ravel().tolist()) + sum(H.ravel().tolist())) and not (
                math.isfinite(f) and np.isfinite(g).all() and np.isfinite(H).all()):
            push(x)
            return end(DIVERGED)
        if g.shape != H.shape[:-1]:
            raise InputError(f"gradient shape {g.shape} does not match matrix shape {H.shape}")

        dual, in_range, _, p, gnorm = eigh_solve(symmetrize(H), g)
        push(x, f, gnorm, dual, in_range)

        if gnorm <= cfg.gtol or near_min(x):
            return end(CONVERGED)
        if k == cfg.max_iters:
            return end(MAX_ITERS)

        state = StepState(k=k, x=x, f=f, g=g, direction=p, dual_sq=dual, in_range=in_range, loss=loss)
        try:
            alpha, scal = schedule(state)
        except SingularScalingError:
            return end(SINGULAR_SCALING)
        except (DomainError, EvaluationError):
            return end(DOMAIN_ERROR)
        tr.alphas[-1] = alpha
        tr.scalings[-1] = scal

        x = x - alpha * p
        if norm_exceeds(x, DIVERGENCE_RADIUS):  # NaN and inf exceed
            push(x)
            return end(DIVERGED)

    return tr  # pragma: no cover


class LockstepRuns(NamedTuple):
    """Per-row outcome of constant-step Newton runs, as run_newton records them."""

    termination: np.ndarray  # object array of termination strings
    iterations: np.ndarray
    final_value: np.ndarray  # last finite value of the driven loss
    grad_norm: np.ndarray  # last recorded ||g||: NaN when the run ended without an evaluation
    final_x: np.ndarray  # the last recorded iterate (run_newton's trace.final_x), one row per run


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def lockstep_newton(loss, X, alphas, cfg):
    """run_newton(loss, ConstantSchedule(alphas[i]), X[i], cfg) for every row i.

    All live rows advance together, each with its own stepsize: each step
    evaluates them as one batch and retires rows by run_newton's rules, in
    its order. After the divergence test, a row whose step left it where it
    was, bit for bit (-0.0 is not 0.0), is at a fixed point: evaluate_batch
    is a pure function of each row and the row's stepsize is fixed, so every
    later step would repeat this one. Such a row retires at once, as
    run_newton would end it at the cap.
    """
    x = np.asarray(X, dtype=float)
    n = len(x)
    runs = LockstepRuns(termination=np.full(n, MAX_ITERS, dtype=object), iterations=np.zeros(n, dtype=np.int32),
                        final_value=np.full(n, np.nan), grad_norm=np.full(n, np.nan), final_x=np.full(x.shape, np.nan))
    xstar = loss.minimizer
    live = np.arange(n)
    a = np.asarray(alphas, dtype=float)[:, None]  # one stepsize per row, as a column

    def near_of(points):  # rows within cfg.xtol of the minimizer; none without one
        return np.zeros(len(points), dtype=bool) if xstar is None else ~norm_exceeds(points - xstar, cfg.xtol)

    def retire(rows, termination, k, points, gn=None):  # whether any row retired
        if not np.logical_or.reduce(rows):
            return False
        cells = live[rows]
        runs.termination[cells] = termination
        runs.iterations[cells] = k
        runs.final_x[cells] = points[rows]
        if gn is not None:
            runs.grad_norm[cells] = gn[rows]
        return True

    for k in range(cfg.max_iters + 1):
        f, G, H, err = loss.evaluate_batch(x)
        # a finite sum has finite terms: the exact test only when some row failed or the sum is not finite
        total = np.add.reduce(f) + np.add.reduce(G, None) + np.add.reduce(H, None)
        if np.logical_or.reduce(err) or not np.isfinite(total):
            finite = np.isfinite(f) & np.isfinite(G).all(1) & np.isfinite(H).all((1, 2))
            ok = ~err & finite
            if not ok.all():
                near = err & near_of(x)  # an evaluation error on the minimizer ends converged, as in run_newton
                retire(near, CONVERGED, k, x)
                retire(err & ~near, DOMAIN_ERROR, k, x)
                retire(~err & ~finite, DIVERGED, k, x)
                live, x, a, f, G, H = live[ok], x[ok], a[ok], f[ok], G[ok], H[ok]
        if not live.size:
            break
        runs.final_value[live] = f
        P = eigh_solve_batch(symmetrize_batch(H), G)  # G and H passed the finiteness test above
        gn = row_norm(G)
        converged = (gn <= cfg.gtol) | near_of(x)
        some_converged = retire(converged, CONVERGED, k, x, gn)
        if k == cfg.max_iters:
            retire(~converged, MAX_ITERS, k, x, gn)
            break
        if some_converged:
            step = ~converged
            live, a, x, P, gn = live[step], a[step], x[step], P[step], gn[step]
        x_new = x - a * P  # run_newton's x - alpha * p
        diverged = norm_exceeds(x_new, DIVERGENCE_RADIUS)  # NaN and inf exceed
        # int64 views: -0.0 and 0.0 differ, as they may for the loss
        fixed = (x_new.view(np.int64) == x.view(np.int64)).all(1)
        x, keep = x_new, ~(diverged | fixed)
        if not keep.all():
            retire(diverged, DIVERGED, k + 1, x)
            retire(fixed & ~diverged, MAX_ITERS, cfg.max_iters, x, gn)  # a fixed row's x_new is its x
            live, a, x = live[keep], a[keep], x[keep]
        if not live.size:
            break
    return runs


@dataclass
class EquivalenceResult:
    trace_f: IterateTrace
    trace_L: IterateTrace
    max_deviation: float
    n_common: int

    @property
    def qualified(self):
        """True when every transformed-run scaling factor stayed away from 0."""
        return self.trace_L.termination != SINGULAR_SCALING and self.trace_L.min_abs_scaling > SCALING_QUALIFIED_TOL


def run_equivalence(loss, t, base_schedule, x0, cfg=None):
    """Run Newton on f and, independently, on phi(f) with the forwarded
    schedule; report the worst normalized iterate deviation over the common
    prefix. Agreement certifies the stepsize-rescaling equivalence."""
    cfg = cfg or NewtonConfig()
    if not isinstance(base_schedule, ConstantSchedule):
        raise InputError("base_schedule must be a ConstantSchedule")

    trace_f = run_newton(loss, base_schedule, x0, cfg)
    trace_L = run_newton(compose(loss, t), ForwardedSchedule(base_schedule.alpha, t, loss), x0, cfg)
    return EquivalenceResult(trace_f, trace_L, iterate_deviation(trace_f.xs, trace_L.xs),
                             min(len(trace_f.xs), len(trace_L.xs)))


@np.errstate(over="ignore", invalid="ignore")
def iterate_deviation(xs_a, xs_b):
    """Worst ||a_k - b_k|| / (1 + ||a_k||) over the common prefix of two iterate
    sequences, up to the first k where either iterate is not finite; 0.0 when
    there is none. A term that overflows to NaN is passed over."""
    n = min(len(xs_a), len(xs_b))
    A, B = np.array(xs_a[:n], dtype=float), np.array(xs_b[:n], dtype=float)
    prefix = np.logical_and.accumulate(np.isfinite(A).all(1) & np.isfinite(B).all(1))
    return float(np.fmax.reduce(row_norm(A[prefix] - B[prefix]) / (1.0 + row_norm(A[prefix])), initial=0.0))


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
    _, gL, HL = compose(loss, t).evaluate(x)
    HL = symmetrize(HL)

    decades = np.logspace(-8, 6, 8 * 14 + 1)  # 8 candidates per decade
    cand = np.concatenate([-decades[::-1], [0.0], decades])
    vals = lm_residuals(HL, gL, target, cand)
    i = int(np.argmin(vals))
    lo = cand[max(i - 1, 0)]
    hi = cand[min(i + 1, len(cand) - 1)]
    _, best = _golden_min(lambda lphi: lm_residuals(HL, gL, target, np.array([lphi]))[0], lo, hi)
    return float(min(best, vals[i]))


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def lm_residuals(HL, gL, target, lams):
    """|| (HL + lam I)^{-1} gL - target || for every lam in lams, by one
    stacked LAPACK solve; a singular or non-finite row reads inf."""
    r = row_norm(lapack_solve(HL + lams[:, None, None] * np.eye(len(gL)), gL) - target)
    return np.where(np.isfinite(r), r, np.inf)
