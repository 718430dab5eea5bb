"""Grid experiments: sign-flip region maps, convergence-neighborhood maps,
and the fixed-stepsize sweep for the polytope feasibility observation.

Cells evaluate at grid nodes; per-cell failures are recorded as error cells,
never raised, and overflow gives non-finite cells without a NumPy warning.
Output ordering is by cell index, so identical configurations produce
byte-identical CSV files.

The convergence scan and the sweep are one newton.lockstep_newton batch each,
and the sign-flip scan one evaluate_batch and one stacked solve: each cell and
sweep row ends bit for bit as run_newton, or evaluate, dual_norm_sq and
scaling_factor, would leave it. The CSV writer formats each axis node once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .errors import DomainError, EvaluationError, InputError
from .linalg import eigh_solve_batch, norm_exceeds, pinv_solve, row_dot, symmetrize, symmetrize_batch
from .losses import as_point
from .newton import CONVERGED, DOMAIN_ERROR, RADIUS_TOL, NewtonConfig, lockstep_newton, write_csv
from .transforms import SCALING_QUALIFIED_TOL, SCALING_ZERO_TOL, compose, scaling_factor

#: Chance that a sign-flip cell with a qualified scaling factor is cross-checked.
CROSS_CHECK_FRACTION = 0.01


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
        sign = self.kind == "sign"
        value_col = "scaling_sign" if sign else "converged"
        ys = [format(float(y), ".17g") for y in (self.ys if self.ys is not None else [0.0])]
        vals = (self.scaling_sign if sign else self.converged.astype(int)).tolist()
        iters, finals, errors = self.iterations.tolist(), self.final_value.tolist(), self.error.astype(int).tolist()
        with open(path, "w", newline="") as fh:
            fh.write(f"ix,iy,x,y,{value_col},iterations,final_value,error\n")
            for ix, x in enumerate(self.xs):
                x = format(float(x), ".17g")
                fh.writelines(f"{ix},{iy},{x},{y},{v},{it},{format(fv, '.17g')},{e}\n" for iy, (y, v, it, fv, e)
                              in enumerate(zip(ys, vals[ix], iters[ix], finals[ix], errors[ix])))


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


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def scan_sign_flip(loss, t, x_range, y_range=None, seed=0):
    """Sign of the stepsize scaling factor per grid cell.

    A random CROSS_CHECK_FRACTION of valid cells is cross-validated by
    comparing the sign of <Newton step on f, Newton step on phi(f)> from scalar
    pseudoinverse solves; mismatches are counted on the result. A drawn cell
    where phi(f) is undefined or its derivatives are not finite is skipped and
    not counted.
    """
    xs, ys = grid_axes(x_range, y_range)
    X = _nodes(xs, ys)
    n = len(X)
    f, G, H, error = loss.evaluate_batch(X)
    error |= ~(t.contains(f) & np.all(np.isfinite(G), axis=1) & np.all(np.isfinite(H), axis=(1, 2)))
    ok = np.flatnonzero(~error)
    H, G = H[ok], G[ok]
    P = eigh_solve_batch(symmetrize_batch(H), G)  # G and H passed the finiteness test above
    dual = np.where(row_dot(G, G) == 0.0, 0.0, row_dot(G, P))  # dual_norm_sq
    s = scaling_factor(t, f[ok], dual)
    sign = np.zeros(n, dtype=np.int8)
    sign[ok] = np.where(np.abs(s) <= SCALING_ZERO_TOL, 0, np.where(s > 0, 1, -1))
    scan = _grid("sign", xs, ys, scaling_sign=sign, final_value=np.where(error, np.nan, f), error=error)

    # One uniform draw per candidate cell, in cell order.
    candidates = np.flatnonzero(np.abs(s) > SCALING_QUALIFIED_TOL)
    rng = np.random.default_rng(seed)
    L = compose(loss, t)
    for j in candidates[rng.uniform(size=len(candidates)) < CROSS_CHECK_FRACTION]:
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


def scan_convergence(loss, t, x_range, y_range=None, cfg=None):
    """Unit-stepsize Newton run per cell (on phi(f) when a transform is given);
    a cell converged iff some iterate came within RADIUS_TOL of the base
    loss's known minimizer: the run stops there, so that is its final_x.

    Convergence here is purely distance-based, so the per-cell runs stop on
    iterate distance (xtol = RADIUS_TOL), not on gradient size: transformed
    losses can have vanishing gradients far outside the RADIUS_TOL ball.
    """
    if loss.minimizer is None:
        raise InputError("scan_convergence needs a loss with known minimizer")
    run_cfg = replace(cfg or NewtonConfig(), gtol=1e-300, xtol=RADIUS_TOL)
    xs, ys = grid_axes(x_range, y_range)
    driven = loss if t is None else compose(loss, t)
    X = _nodes(xs, ys)
    runs = lockstep_newton(driven, X, np.ones(len(X)), run_cfg)
    return _grid("convergence", xs, ys, converged=~norm_exceeds(runs.final_x - driven.minimizer, RADIUS_TOL),
                 iterations=runs.iterations, final_value=runs.final_value, error=runs.termination == DOMAIN_ERROR)


@dataclass
class SweepResult:
    best_alpha: float
    best_iterations: int
    rows: List[Tuple[float, int, float, bool]]  # alpha, iters, grad, converged

    def write_csv(self, path):
        write_csv(path, "alpha,iterations,final_grad_norm,converged", self.rows)


def best_fixed_stepsize(loss, x0, alphas, cfg=None):
    """Run Newton per stepsize, all stepsizes in lockstep, and pick the
    fastest-converging one.

    Ranking: converged before non-converged, then fewer iterations, then
    smaller final gradient norm, then smaller alpha.
    """
    alphas = np.asarray(list(alphas), dtype=float)
    if not alphas.size:
        raise InputError("alphas must be non-empty")
    x0 = as_point(x0, loss.dimension)
    runs = lockstep_newton(loss, np.tile(x0, (len(alphas), 1)), alphas, cfg or NewtonConfig())
    gn = np.where(np.isfinite(runs.grad_norm), runs.grad_norm, np.inf)
    rows = list(zip(alphas.tolist(), runs.iterations.tolist(), gn.tolist(), (runs.termination == CONVERGED).tolist()))
    best = min(rows, key=lambda r: (0 if r[3] else 1, r[1] if r[3] else np.inf, r[2], r[0]))
    return SweepResult(best_alpha=best[0], best_iterations=best[1], rows=rows)
