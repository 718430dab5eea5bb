"""Dense small-dimension linear algebra: pseudoinverse solves, dual Hessian
norms, eigenvalue-based PSD tests, and principal-minor enumeration.

All spectral routines symmetrize their input (M <- (M + M^T)/2) after checking
that the asymmetry is below 1e-8 relative; larger drift indicates an upstream
bug and is rejected.

The ``*_batch`` routines apply the same computation to stacks of N matrices
and vectors. Every row equals the scalar routine bit for bit: stacked
``np.linalg.eigh`` and ``np.matmul`` call the same LAPACK/BLAS kernel once
per row, and row dot products go through ``np.matmul`` rather than
``np.einsum``, whose summation order differs from ``ndarray.dot``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, InputError

#: Relative asymmetry beyond which a matrix is rejected instead of symmetrized.
ASYMMETRY_RTOL = 1e-8

#: Default relative cutoff for pseudoinverse spectral truncation.
DEFAULT_PINV_RTOL = 1e-10

#: Hard cap for exhaustive principal-minor enumeration (2^d - 1 subsets).
MINOR_DIMENSION_CAP = 8


@dataclass(frozen=True)
class DualNormResult:
    """The Newton direction H^+ g, its dual norm squared <g, H^+ g>, the
    range-condition flag, the pseudoinverse rank and ||g||."""

    value: float
    in_range: bool
    rank: int
    direction: np.ndarray
    grad_norm: float


def _as_square(M, name="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InputError(f"{name} has non-finite entries")
    return M


def symmetrize(M):
    """Return (M + M^T)/2, rejecting asymmetry above 1e-8 relative."""
    M = _as_square(M)
    asym = np.linalg.norm(M - M.T)
    if asym > 0.0 and asym > ASYMMETRY_RTOL * np.linalg.norm(M):  # exact symmetry needs no scale
        raise InputError("matrix asymmetry exceeds 1e-8 relative; refusing to symmetrize")
    return 0.5 * (M + M.T)


def row_dot(a, b):
    """<a_i, b_i> for every row: the BLAS dot that ``ndarray.dot`` uses."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def row_norm(a):
    """Euclidean norm of every row, equal to ``np.linalg.norm`` of the row."""
    return np.sqrt(row_dot(a, a))


def norm_exceeds(x, bound):
    """||x|| > bound along the last axis, without squaring entries large
    enough to overflow.

    A row whose largest |entry| already exceeds the bound is decided by that
    entry; the others give the same answer as ``np.linalg.norm(x) > bound``.
    NaN rows count as exceeding.
    """
    if x.ndim == 1:  # the per-iteration check of run_newton: keep it cheap
        return bool(not np.abs(x).max() <= bound or np.sqrt(x.dot(x)) > bound)
    m = np.max(np.abs(x), axis=-1)
    settled = ~(m <= bound)
    return settled | (row_norm(np.where(settled[..., None], 0.0, x)) > bound)


def symmetrize_batch(M):
    """symmetrize() for a stack of matrices (N, d, d), row for row; the whole
    stack is rejected if one matrix would be."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 3 or M.shape[1] != M.shape[2]:
        raise InputError(f"matrix stack must have shape (N, d, d), got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InputError("matrix has non-finite entries")
    n = M.shape[0]
    Mt = M.transpose(0, 2, 1)
    scale = row_norm(M.reshape(n, -1))
    asym = row_norm((M - Mt).reshape(n, -1))
    if np.any((scale > 0) & (asym > ASYMMETRY_RTOL * scale)):
        raise InputError("matrix asymmetry exceeds 1e-8 relative; refusing to symmetrize")
    return 0.5 * (M + Mt)


def pinv_solve_batch(H, G):
    """pinv_solve() for every row: H (N, d, d), G (N, d) -> P (N, d)."""
    H, G = _check_pinv_args(H, G, DEFAULT_PINV_RTOL, stacked=True)
    if H.shape[0] == 0:
        return np.zeros_like(G)
    w, V = np.linalg.eigh(H)
    wmax = np.max(np.abs(w), axis=1)
    keep = (np.abs(w) >= DEFAULT_PINV_RTOL * wmax[:, None]) & (wmax > 0.0)[:, None]
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    VtG = np.matmul(V.transpose(0, 2, 1), G[:, :, None])[:, :, 0]
    P = np.matmul(V, (inv * VtG)[:, :, None])[:, :, 0]
    P[wmax == 0.0] = 0.0
    return P


def _pinv_apply(H, g, rel_tol):
    """Eigendecomposition-based H^+ g with relative spectral cutoff; returns
    (solution, rank)."""
    w, V = np.linalg.eigh(H)
    wmax = np.max(np.abs(w)) if w.size else 0.0
    if wmax == 0.0:
        return np.zeros_like(g), 0
    keep = np.abs(w) >= rel_tol * wmax
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    return V @ (inv * (V.T @ g)), int(np.count_nonzero(keep))


def _check_pinv_args(H, g, rel_tol, stacked=False):
    H = symmetrize_batch(H) if stacked else symmetrize(H)
    g = np.asarray(g, dtype=float)
    if g.shape != H.shape[:-1]:
        raise InputError(f"gradient shape {g.shape} does not match matrix shape {H.shape}")
    if not np.all(np.isfinite(g)):
        raise InputError("vector has non-finite entries")
    if not (0.0 < rel_tol <= 1e-4):
        raise InputError(f"rel_tol must lie in (0, 1e-4], got {rel_tol}")
    return H, g


def pinv_solve(H, g, rel_tol=DEFAULT_PINV_RTOL):
    """Minimum-norm solution of min ||H p - g|| via spectral pseudoinverse.

    Eigenvalues with |lambda| < rel_tol * max|lambda| are treated as zero.
    """
    H, g = _check_pinv_args(H, g, rel_tol)
    return _pinv_apply(H, g, rel_tol)[0]


def dual_norm_sq(H, g, rel_tol=DEFAULT_PINV_RTOL):
    """The Newton direction p = H^+ g with ||g||*^2 = <g, p>, and whether g
    lies in Range(H).

    H is symmetrized and validated once. in_range is true iff
    ||H p - g|| <= rel_tol * ||g|| (vacuously true for g = 0). The value can
    be negative when H is indefinite.
    """
    H, g = _check_pinv_args(H, g, rel_tol)
    p, rank = _pinv_apply(H, g, rel_tol)
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return DualNormResult(0.0, True, rank, p, gnorm)
    residual = np.linalg.norm(H @ p - g)
    return DualNormResult(float(g @ p), bool(residual <= rel_tol * gnorm), rank, p, gnorm)


def min_eigenvalue(M):
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(symmetrize(M))[0])


def spectral_norm(M):
    """Largest |eigenvalue| of a symmetric matrix."""
    w = np.linalg.eigvalsh(symmetrize(M))
    return float(np.max(np.abs(w))) if w.size else 0.0


def principal_minors(M):
    """All nonempty principal minors of M as (index tuple, determinant) pairs.

    Index tuples are 0-based, ordered by size then lexicographically.
    Exhaustive (2^d - 1 subsets); dimensions above 8 are rejected.
    """
    M = symmetrize(M)
    d = M.shape[0]
    if d > MINOR_DIMENSION_CAP:
        raise CapabilityError(f"principal minor enumeration capped at d = {MINOR_DIMENSION_CAP}, got {d}")
    out = []
    for k in range(1, d + 1):
        for idx in itertools.combinations(range(d), k):
            sub = M[np.ix_(idx, idx)]
            out.append((idx, float(np.linalg.det(sub))))
    return out
