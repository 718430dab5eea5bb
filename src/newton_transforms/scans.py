"""Grid experiments: sign-flip region maps, convergence-neighborhood maps,
and the fixed-stepsize sweep for the polytope feasibility observation.

Cells evaluate at grid nodes; per-cell failures are recorded as error cells,
never raised, and overflow gives non-finite cells without a NumPy warning. Output ordering is by cell index, so identical configurations
produce byte-identical CSV files.

Both grid scans process all cells together: one batch evaluation per step
(SmoothLoss.evaluate_batch) and stacked pseudoinverse solves. Every cell
ends bit for bit as the scalar path (run_newton, or evaluate, dual_norm_sq
and scaling_factor) would leave it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import DomainError, EvaluationError, InputError
from .linalg import norm_exceeds, pinv_solve, pinv_solve_batch, row_dot, row_norm, symmetrize
from .newton import CONVERGED, DIVERGED, DOMAIN_ERROR, MAX_ITERS, ConstantSchedule, NewtonConfig, run_newton
from .transforms import SCALING_ZERO_TOL, compose, scaling_factor

#: A convergence-scan cell converged iff an iterate came this close to the minimizer.
RADIUS_TOL = 1e-6


@dataclass
class GridScan:
    """Rectangular grid of per-cell outcomes.

    kind is "sign" (scaling_sign meaningful) or "convergence" (converged /
    iterations / final_value meaningful). 1D grids carry y_range = None.
    """

    kind: str
    xs: np.ndarray
    ys: Optional[np.ndarray]
    scaling_sign: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    final_value: np.ndarray
    error: np.ndarray
    cross_check_mismatches: int = 0
    cross_check_cells: int = 0

    def write_csv(self, path):
        value_col = "scaling_sign" if self.kind == "sign" else "converged"
        ys = self.ys if self.ys is not None else np.array([0.0])
        with open(path, "w", newline="") as fh:
            fh.write(f"ix,iy,x,y,{value_col},iterations,final_value,error\n")
            for ix, x in enumerate(self.xs):
                for iy, y in enumerate(ys):
                    val = self.scaling_sign[ix, iy] if self.kind == "sign" else int(self.converged[ix, iy])
                    fh.write(
                        f"{ix},{iy},{format(float(x), '.17g')},{format(float(y), '.17g')},"
                        f"{val},{self.iterations[ix, iy]},{format(float(self.final_value[ix, iy]), '.17g')},"
                        f"{int(self.error[ix, iy])}\n"
                    )


def grid_axes(x_range, y_range=None):
    """(lo, hi, n) tuples to node arrays."""
    def axis(rng):
        lo, hi, n = rng
        if n < 1 or not (hi > lo):
            raise InputError(f"bad grid range {rng}")
        return np.linspace(lo, hi, int(n))

    return axis(x_range), None if y_range is None else axis(y_range)


def _grid(kind, xs, ys, **cells):
    """GridScan from flat per-cell arrays in cell order (ix outer, iy inner);
    fields not given keep their empty values."""
    shape = (len(xs), 1 if ys is None else len(ys))
    empty = dict(scaling_sign=(0, np.int8), converged=(False, bool), iterations=(0, np.int32),
                 final_value=(np.nan, float), error=(False, bool))
    fields = {name: np.asarray(cells.get(name, np.full(shape, fill)), dtype=dtype).reshape(shape)
              for name, (fill, dtype) in empty.items()}
    return GridScan(kind=kind, xs=xs, ys=ys, **fields)


def _nodes(xs, ys):
    """Grid nodes in cell order as an (N, d) array."""
    if ys is None:
        return xs[:, None]
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


@np.errstate(over="ignore", invalid="ignore")
def scan_sign_flip(loss, t, x_range, y_range=None, cross_check_fraction=0.01, seed=0):
    """Sign of the stepsize scaling factor per grid cell.

    A random ~1% of valid cells is cross-validated by comparing the sign of
    <Newton step on f, Newton step on phi(f)> from scalar pseudoinverse
    solves; mismatches are counted on the result. A drawn cell where phi(f)
    is undefined or its derivatives are not finite is skipped and not
    counted.
    """
    xs, ys = grid_axes(x_range, y_range)
    X = _nodes(xs, ys)
    n = len(X)
    f, G, H, error = loss.evaluate_batch(X)
    error |= ~(np.isfinite(f) & np.all(np.isfinite(G), axis=1) & np.all(np.isfinite(H), axis=(1, 2)))
    ok = np.flatnonzero(~error)
    H, G = H[ok], G[ok]
    P = pinv_solve_batch(H, G)
    dual = np.where(row_dot(G, G) == 0.0, 0.0, row_dot(G, P)).tolist()  # dual_norm_sq
    s = np.full(len(ok), np.nan)
    for j, (fj, qj) in enumerate(zip(f[ok].tolist(), dual)):
        try:
            s[j] = scaling_factor(t, fj, qj)
        except (DomainError, EvaluationError):
            error[ok[j]] = True
    valid = ~error[ok]
    cells = ok[valid]
    sign = np.zeros(n, dtype=np.int8)
    sign[cells] = np.where(np.abs(s[valid]) <= SCALING_ZERO_TOL, 0, np.where(s[valid] > 0, 1, -1))
    final_value = np.full(n, np.nan)
    final_value[cells] = f[cells]
    scan = _grid("sign", xs, ys, scaling_sign=sign, final_value=final_value, error=error)

    # One uniform draw per candidate cell, in cell order.
    candidates = np.flatnonzero(valid & (np.abs(s) > 1e-6))
    rng = np.random.default_rng(seed)
    L = compose(loss, t)
    for j in candidates[rng.uniform(size=len(candidates)) < cross_check_fraction]:
        try:
            _, gL, HL = L.evaluate(X[ok[j]])
        except (DomainError, EvaluationError):
            continue
        if not (np.all(np.isfinite(gL)) and np.all(np.isfinite(HL))):
            continue  # phi' overflowed: no step on phi(f) to compare
        step_f = pinv_solve(H[j], G[j])
        step_L = pinv_solve(symmetrize(HL), gL)
        scan.cross_check_cells += 1
        if np.sign(float(step_f @ step_L)) != np.sign(s[j]):
            scan.cross_check_mismatches += 1
    return scan


class LockstepRuns(NamedTuple):
    """Per-row outcome of unit-step Newton runs, as run_newton records them."""

    termination: np.ndarray  # object array of termination strings
    iterations: np.ndarray
    final_value: np.ndarray  # last finite value of the driven loss
    near_minimizer: np.ndarray  # some recorded iterate within cfg.xtol of the minimizer


@np.errstate(over="ignore", invalid="ignore")
def lockstep_unit_newton(loss, X, cfg):
    """run_newton(loss, ConstantSchedule(1.0), x, cfg) for every row x of X.

    All live rows advance together: each step evaluates them as one batch and
    retires rows by run_newton's rules, in its order: domain error, non-finite
    value, converged, iteration cap, diverged. The loss needs a known
    minimizer.
    """
    if loss.minimizer is None:
        raise InputError("lockstep_unit_newton needs a loss with known minimizer")
    n = len(X)
    runs = LockstepRuns(termination=np.full(n, MAX_ITERS, dtype=object), iterations=np.zeros(n, dtype=np.int32),
                        final_value=np.full(n, np.nan), near_minimizer=np.zeros(n, dtype=bool))
    xstar = loss.minimizer
    live = np.arange(n)
    x = np.asarray(X, dtype=float)

    def retire(rows, termination, k, points):
        if not rows.any():
            return
        cells = live[rows]
        runs.termination[cells] = termination
        runs.iterations[cells] = k
        runs.near_minimizer[cells] = ~norm_exceeds(points[rows] - xstar, cfg.xtol)

    for k in range(cfg.max_iters + 1):
        f, G, H, err = loss.evaluate_batch(x)
        finite = np.isfinite(f) & np.all(np.isfinite(G), axis=1) & np.all(np.isfinite(H), axis=(1, 2))
        retire(err, DOMAIN_ERROR, k, x)
        retire(~err & ~finite, DIVERGED, k, x)
        ok = ~err & finite
        live, x, f, G, H = live[ok], x[ok], f[ok], G[ok], H[ok]
        if not live.size:
            break
        runs.final_value[live] = f
        P = pinv_solve_batch(H, G)
        converged = (row_norm(G) <= cfg.gtol) | ~norm_exceeds(x - xstar, cfg.xtol)
        retire(converged, CONVERGED, k, x)
        if k == cfg.max_iters:
            retire(~converged, MAX_ITERS, k, x)
            break
        step = ~converged
        live, x = live[step], x[step] - P[step]  # unit step: 1.0 * p is p bit for bit
        diverged = ~np.all(np.isfinite(x), axis=1) | norm_exceeds(x, cfg.divergence_radius)
        retire(diverged, DIVERGED, k + 1, x)
        live, x = live[~diverged], x[~diverged]
        if not live.size:
            break
    return runs


def scan_convergence(loss, t, x_range, y_range=None, cfg=None):
    """Unit-stepsize Newton run per cell (on phi(f) when a transform is given);
    a cell converged iff some iterate came within RADIUS_TOL of the base
    loss's known minimizer.

    Convergence here is purely distance-based, so the per-cell runs stop on
    iterate distance (xtol = RADIUS_TOL), not on gradient size: transformed
    losses can have vanishing gradients far outside the RADIUS_TOL ball.
    """
    if loss.minimizer is None:
        raise InputError("scan_convergence needs a loss with known minimizer")
    run_cfg = replace(cfg or NewtonConfig(), gtol=1e-300, xtol=RADIUS_TOL)
    xs, ys = grid_axes(x_range, y_range)
    driven = loss if t is None else compose(loss, t)
    runs = lockstep_unit_newton(driven, _nodes(xs, ys), run_cfg)
    return _grid("convergence", xs, ys, converged=runs.near_minimizer, iterations=runs.iterations,
                 final_value=runs.final_value, error=runs.termination == DOMAIN_ERROR)


@dataclass
class SweepResult:
    best_alpha: float
    best_iterations: int
    rows: List[Tuple[float, int, float, bool]] = field(default_factory=list)  # alpha, iters, grad, converged

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("alpha,iterations,final_grad_norm,converged\n")
            for alpha, iters, gn, ok in self.rows:
                fh.write(f"{format(alpha, '.17g')},{iters},{format(gn, '.17g')},{int(ok)}\n")


def best_fixed_stepsize(loss, x0, alphas, cfg=None):
    """Run Newton per stepsize and pick the fastest-converging one.

    Ranking: converged before non-converged, then fewer iterations, then
    smaller final gradient norm, then smaller alpha.
    """
    alphas = list(alphas)
    if not alphas:
        raise InputError("alphas must be non-empty")
    cfg = cfg or NewtonConfig()
    result = SweepResult(best_alpha=np.nan, best_iterations=-1)
    best_key = None
    for alpha in alphas:
        tr = run_newton(loss, ConstantSchedule(alpha), x0, cfg)
        ok = tr.termination == "converged"
        gn = tr.grad_norms[-1] if np.isfinite(tr.grad_norms[-1]) else np.inf
        result.rows.append((float(alpha), tr.iterations, float(gn), ok))
        key = (0 if ok else 1, tr.iterations if ok else np.inf, gn, float(alpha))
        if best_key is None or key < best_key:
            best_key = key
            result.best_alpha = float(alpha)
            result.best_iterations = tr.iterations
    return result
