"""Dense small-dimension linear algebra: pseudoinverse solves, dual Hessian
norms, eigenvalue-based PSD tests, and principal-minor enumeration.

All spectral routines symmetrize their input (M <- M/2 + M^T/2) after checking
that the asymmetry is below 1e-8 relative; larger drift indicates an upstream
bug and is rejected.

The ``*_batch`` routines apply the same computation to stacks of N matrices
and vectors. Every row equals the scalar routine bit for bit: the LAPACK eigh
(called without ``np.linalg``'s wrapper) and ``np.matmul`` run the same kernel
once per row, and row dot products go through ``np.matmul`` rather than
``np.einsum``, whose summation order differs from ``ndarray.dot``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg  # private to NumPy; the version is pinned, tests compare with np.linalg

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
    near the float maximum finite), rejecting asymmetry above 1e-8 relative:
    symmetrize_batch on the one-matrix stack, which states the checks."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError(f"matrix must be square, got shape {M.shape}")
    # a bit-symmetric matrix with a finite sum (Python's: no overflow warning) has nothing to check
    if M.tobytes() != M.T.tobytes() or not math.isfinite(sum(M.ravel().tolist())):
        return symmetrize_batch(M[None])[0]
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
    entry; the others give the same answer as ``np.linalg.norm(x) > bound``,
    computed on the row scaled by that entry once it reaches _SQUARE_SAFE.
    NaN rows count as exceeding.
    """
    if x.ndim == 1:  # the per-iteration check of run_newton: keep it cheap
        m = max(map(abs, x.tolist()))  # may pass over a NaN, whose norm is not <= bound either
        if _SQUARE_SAFE <= m <= bound < math.inf:  # squares may overflow: the stacked branch scales
            return bool(norm_exceeds(x[None], bound)[0])
        return m > bound or not math.sqrt(x.dot(x)) <= bound
    m = np.maximum.reduce(abs(x), axis=-1)
    settled = ~(m <= bound)
    if np.maximum.reduce(m, None, initial=0.0) < _SQUARE_SAFE:  # no NaN, and no square overflows
        return settled | (row_norm(x) > bound)
    s = np.where(settled | (m < _SQUARE_SAFE), 1.0, m)  # scale the rows below the bound whose squares may overflow
    with np.errstate(over="ignore"):  # a norm past the float range is inf, which exceeds any bound
        return settled | (row_norm(np.where(settled[..., None], 0.0, x) / s[..., None]) * s > bound)


def symmetrize_batch(M):
    """symmetrize() for a stack of matrices (N, d, d), row for row; the whole
    stack is rejected if one matrix would be."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 3 or M.shape[1] != M.shape[2]:
        raise InputError(f"matrix stack must have shape (N, d, d), got {M.shape}")
    big = np.maximum.reduce(abs(M), None, initial=0.0)
    S = M
    if not big < _SQUARE_SAFE:  # NaN, inf, or entries whose squares overflow: scale row by row
        if not math.isfinite(big):
            raise InputError("matrix has non-finite entries")
        rows = np.abs(M).max(axis=(1, 2))
        S = M / np.where(rows < _SQUARE_SAFE, 1.0, rows)[:, None, None]
    D = S - S.transpose(0, 2, 1)
    if np.logical_or.reduce(D, None):  # an exactly symmetric stack has asymmetry 0, which never rejects
        n, d, _ = M.shape
        scale = row_norm(S.reshape(n, d * d))  # an empty stack has no -1 extent
        asym = row_norm(D.reshape(n, d * d))
        if np.any((scale > 0) & (asym > ASYMMETRY_RTOL * scale)):
            raise InputError("matrix asymmetry exceeds 1e-8 relative; refusing to symmetrize")
    return 0.5 * M + 0.5 * M.transpose(0, 2, 1)


# np.linalg.eigh(S) and np.linalg.solve(A, b) on float64, bit for bit, without the wrappers; NaN where LAPACK fails
lapack_eigh = functools.partial(_umath_linalg.eigh_lo, signature="d->dd")
lapack_solve = functools.partial(_umath_linalg.solve1, signature="dd->d")


def eigh_solve_batch(S, G):
    """pinv_solve() for every row without its checks: S (N, d, d) a
    symmetrize_batch result, G (N, d) finite gradients -> P (N, d). For d = 1
    no LAPACK call: its eigh of [[h]] is ([h], [[1.0]]), so p = (1/h) (g + 0.0)
    + 0.0 (0 where h = 0), the + 0.0 being where the two matmuls' sums start."""
    if S.shape[1] == 1:
        h = S[:, 0]
        if math.isnan(np.maximum.reduce(h, None, initial=0.0)):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return np.divide(1.0, h, out=np.zeros(h.shape), where=h != 0.0) * (G + 0.0) + 0.0
    w, V = lapack_eigh(S)
    aw = abs(w)
    wmax = np.maximum.reduce(aw, axis=1)
    # least |w| above the cutoff in every row: all are kept, none is 0 or NaN, and 1 / w is the masked divide
    full = np.minimum.reduce(np.minimum.reduce(aw, axis=1) - DEFAULT_PINV_RTOL * wmax, None, initial=1.0) > 0.0
    if not full:
        if math.isnan(np.add.reduce(wmax)):  # a sum of non-negative terms is NaN only through a NaN term
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        keep = (aw >= DEFAULT_PINV_RTOL * wmax[:, None]) & (wmax > 0.0)[:, None]
    inv = 1.0 / w if full else np.divide(1.0, w, out=np.zeros_like(w), where=keep)
    VtG = np.matmul(V.transpose(0, 2, 1), G[:, :, None])[:, :, 0]
    P = np.matmul(V, (inv * VtG)[:, :, None])[:, :, 0]
    if not full:
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
    w, V = lapack_eigh(S)
    ws = w.tolist() or [0.0]  # ascending; Python floats compare and scale as float64 does, faster
    if ws[0] != ws[0] or ws[-1] != ws[-1]:  # LAPACK failed, as np.linalg.eigh raises
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    wmax = max(-ws[0], ws[-1])
    if wmax == 0.0:
        p, rank = np.zeros_like(g), 0
    else:
        if min(map(abs, ws)) >= DEFAULT_PINV_RTOL * wmax:
            inv, rank = 1.0 / w, w.size
        else:
            keep = abs(w) >= DEFAULT_PINV_RTOL * wmax
            inv, rank = np.divide(1.0, w, out=np.zeros_like(w), where=keep), int(np.count_nonzero(keep))
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
