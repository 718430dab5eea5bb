"""Adaptive Simpson quadrature with Richardson extrapolation, plus a cached
cumulative integral for repeated evaluation of y -> integral(lo, y)."""

from __future__ import annotations

import bisect

import numpy as np

from .errors import DomainError, InputError

DEFAULT_TOL = 1e-10
MAX_DEPTH = 40


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    err = (left + right - whole) / 15.0
    if depth >= MAX_DEPTH or abs(err) <= tol:
        return left + right + err
    half = 0.5 * tol
    return _adaptive(f, a, m, fa, flm, fm, left, half, depth + 1) + _adaptive(
        f, m, b, fm, frm, fb, right, half, depth + 1
    )


def adaptive_simpson(f, a, b, tol=DEFAULT_TOL):
    """Integrate f over [a, b] to absolute tolerance tol (recursion cap 40)."""
    if not (np.isfinite(a) and np.isfinite(b)):
        raise InputError("quadrature bounds must be finite")
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson(f, b, a, tol)
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    if not np.all(np.isfinite([fa, fm, fb])):
        raise InputError("non-finite integrand value")
    return _adaptive(f, a, b, fa, fm, fb, _simpson(fa, fm, fb, b - a), tol, 0)


class CumulativeIntegral:
    """y -> integral of f from lo to y, with a prefix table over [lo, hi].

    The table holds the integrals of 64 equal panels, each to DEFAULT_TOL / 64;
    evaluating at y costs one partial-panel quadrature. Read-only after construction.
    """

    def __init__(self, f, lo, hi):
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise InputError(f"invalid cumulative-integral range [{lo}, {hi}]")
        self.f = f
        self.lo = float(lo)
        self.hi = float(hi)
        self.edges = np.linspace(lo, hi, 64 + 1)
        panels = [adaptive_simpson(f, self.edges[i], self.edges[i + 1], DEFAULT_TOL / 64) for i in range(64)]
        self.prefix = np.concatenate([[0.0], np.cumsum(panels)])

    def __call__(self, y):
        if y < self.lo or y > self.hi:
            raise DomainError(f"cumulative integral evaluated at {y} outside [{self.lo}, {self.hi}]")
        i = min(bisect.bisect_right(self.edges, y) - 1, len(self.edges) - 2)
        return float(self.prefix[i] + adaptive_simpson(self.f, self.edges[i], y))
