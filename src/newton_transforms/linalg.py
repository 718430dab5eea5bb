"""Dense small-dimension linear algebra: pseudoinverse solves, dual Hessian
norms, eigenvalue-based PSD tests, and principal-minor enumeration.

All spectral routines symmetrize their input (M <- M/2 + M^T/2) after checking
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
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, InputError

#: Relative asymmetry beyond which a matrix is rejected instead of symmetrized.
ASYMMETRY_RTOL = 1e-8

#: Entries below this square and sum without overflow; larger ones are
#: compared for asymmetry on the matrix scaled by its largest |entry|.
_SQUARE_SAFE = 1e150

#: Relative cutoff below which a pseudoinverse solve treats an eigenvalue as zero.
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


def symmetrize(M):
    """Return M/2 + M^T/2 of a finite square matrix (halving first keeps entries
    near the float maximum finite), rejecting asymmetry above 1e-8 relative."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError(f"matrix must be square, got shape {M.shape}")
    big = abs(M).max(initial=0.0)
    S = M
    if not big < _SQUARE_SAFE:  # NaN, inf, or entries whose squares overflow
        if not math.isfinite(big):
            raise InputError("matrix has non-finite entries")
        S = M / big
    D, F = (S - S.T).ravel(order="K"), S.ravel(order="K")  # np.linalg.norm's own reduction, without its wrapper
    asym = math.sqrt(D.dot(D))
    if asym > 0.0 and asym > ASYMMETRY_RTOL * math.sqrt(F.dot(F)):  # exact symmetry needs no scale
        raise InputError("matrix asymmetry exceeds 1e-8 relative; refusing to symmetrize")
    return 0.5 * M + 0.5 * M.T


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
        return bool(not abs(x).max() <= bound or math.sqrt(x.dot(x)) > bound)
    m = np.max(np.abs(x), axis=-1)
    settled = ~(m <= bound)
    return settled | (row_norm(np.where(settled[..., None], 0.0, x)) > bound)


def symmetrize_batch(M):
    """symmetrize() for a stack of matrices (N, d, d), row for row; the whole
    stack is rejected if one matrix would be."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 3 or M.shape[1] != M.shape[2]:
        raise InputError(f"matrix stack must have shape (N, d, d), got {M.shape}")
    big = np.abs(M).max(initial=0.0)
    S = M
    if not big < _SQUARE_SAFE:  # as in symmetrize, row by row
        if not math.isfinite(big):
            raise InputError("matrix has non-finite entries")
        rows = np.abs(M).max(axis=(1, 2))
        S = M / np.where(rows < _SQUARE_SAFE, 1.0, rows)[:, None, None]
    n, d, _ = M.shape
    scale = row_norm(S.reshape(n, d * d))  # an empty stack has no -1 extent
    asym = row_norm((S - S.transpose(0, 2, 1)).reshape(n, d * d))
    if np.any((scale > 0) & (asym > ASYMMETRY_RTOL * scale)):
        raise InputError("matrix asymmetry exceeds 1e-8 relative; refusing to symmetrize")
    return 0.5 * M + 0.5 * M.transpose(0, 2, 1)


def eigh_solve_batch(S, G):
    """pinv_solve() for every row without its checks: S (N, d, d) a
    symmetrize_batch result, G (N, d) finite gradients -> P (N, d)."""
    w, V = np.linalg.eigh(S)
    wmax = np.max(np.abs(w), axis=1)
    keep = (np.abs(w) >= DEFAULT_PINV_RTOL * wmax[:, None]) & (wmax > 0.0)[:, None]
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    VtG = np.matmul(V.transpose(0, 2, 1), G[:, :, None])[:, :, 0]
    P = np.matmul(V, (inv * VtG)[:, :, None])[:, :, 0]
    P[wmax == 0.0] = 0.0
    return P


def pinv_solve(H, g):
    """Minimum-norm solution of min ||H p - g||: dual_norm_sq's direction,
    with eigenvalues below DEFAULT_PINV_RTOL * max|lambda| treated as zero."""
    return dual_norm_sq(H, g).direction


@np.errstate(over="ignore", invalid="ignore")
def dual_norm_sq(H, g):
    """The Newton direction p = H^+ g with ||g||*^2 = <g, p>, and whether g
    lies in Range(H).

    H is symmetrized and validated once; p is the eigendecomposition
    pseudoinverse with the relative cutoff DEFAULT_PINV_RTOL. in_range is
    ||H p - g|| <= DEFAULT_PINV_RTOL * ||g|| (true for g = 0, false when ||g||
    overflows). The value can be negative when H is indefinite. Overflow
    gives non-finite results without a NumPy warning.
    """
    H = symmetrize(H)
    g = np.asarray(g, dtype=float)
    if g.shape != H.shape[:-1]:
        raise InputError(f"gradient shape {g.shape} does not match matrix shape {H.shape}")
    if not np.isfinite(g).all():
        raise InputError("vector has non-finite entries")
    return DualNormResult(*eigh_solve(H, g))


def eigh_solve(S, g):
    """dual_norm_sq's fields without its checks or np.errstate: S a symmetrize()
    result, g a finite gradient of matching shape -> (value, in_range, rank, p, ||g||)."""
    w, V = np.linalg.eigh(S)
    wmax = max(-w[0], w[-1]) if w.size else 0.0  # eigh sorts ascending
    if wmax == 0.0:
        p, rank = np.zeros_like(g), 0
    else:
        keep = abs(w) >= DEFAULT_PINV_RTOL * wmax
        rank = int(np.count_nonzero(keep))
        inv = 1.0 / w if rank == w.size else np.divide(1.0, w, out=np.zeros_like(w), where=keep)
        p = V @ (inv * (V.T @ g))
    gnorm = math.sqrt(g.dot(g))
    if gnorm == 0.0:
        return 0.0, True, rank, p, gnorm
    r = S @ p - g
    in_range = gnorm < math.inf and math.sqrt(r.dot(r)) <= DEFAULT_PINV_RTOL * gnorm
    return float(g.dot(p)), in_range, rank, p, gnorm


def min_eigenvalue(M):
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(symmetrize(M))[0])


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
