"""Finite-difference validation of gradients and Hessians.

Central differences with step scaling 1 + ||x|| so relative accuracy holds
across benchmark scales (Goldstein-Price values span 1e6).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, EvaluationError


def _central_differences(fn, x):
    """(fn(x + h e_i) - fn(x - h e_i)) / 2h as column i, h = 1e-6 (1 + ||x||)."""
    x = np.asarray(x, dtype=float)
    h = 1e-6 * (1.0 + np.linalg.norm(x))
    return np.stack([(fn(x + h * e) - fn(x - h * e)) / (2.0 * h) for e in np.eye(len(x))], axis=-1)


def fd_gradient(value_fn, x):
    return _central_differences(value_fn, x)


def fd_hessian(gradient_fn, x):
    H = _central_differences(gradient_fn, x)
    return 0.5 * (H + H.T)


def check_loss(loss, points, rtol_grad=1e-5, rtol_hess=1e-4):
    """Check analytic gradient/Hessian of a SmoothLoss against central
    differences at the given points; returns a list of failure messages.

    Points where the loss is not evaluable (kinks, domain edges) are skipped.
    """
    failures = []
    for x in points:
        try:
            f, g, H = loss.evaluate(x)
            gf = fd_gradient(lambda p: loss.evaluate(p)[0], x)
            Hf = fd_hessian(lambda p: loss.evaluate(p)[1], x)
        except (DomainError, EvaluationError):
            continue
        if not all(np.all(np.isfinite(a)) for a in (f, g, H, gf, Hf)):
            failures.append(f"{loss.name}: non-finite evaluation at {x}")
            continue
        gs = max(np.linalg.norm(g), np.linalg.norm(gf), 1e-8)
        hs = max(np.linalg.norm(H), np.linalg.norm(Hf), 1e-8)
        if np.linalg.norm(g - gf) > rtol_grad * gs:
            failures.append(f"{loss.name}: gradient mismatch at {x}: {g} vs FD {gf}")
        if np.linalg.norm(H - Hf) > rtol_hess * hs:
            failures.append(f"{loss.name}: Hessian mismatch at {x}")
    return failures


def check_transform(t, ys, rtol=1e-5):
    """Check phi' against FD of phi and phi'' against FD of phi' (step 1e-7 (1 + |y|))."""
    failures = []
    for y in ys:
        h = 1e-7 * (1.0 + abs(y))
        if not (t.contains(y - 2.0 * h) and t.contains(y + 2.0 * h)):
            continue
        d1 = (t.phi(y + h) - t.phi(y - h)) / (2.0 * h)
        d2 = (t.phi_prime(y + h) - t.phi_prime(y - h)) / (2.0 * h)
        p1, p2 = t.phi_prime(y), t.phi_double_prime(y)
        if abs(p1 - d1) > rtol * max(abs(p1), abs(d1), 1e-8):
            failures.append(f"{t.name}: phi' mismatch at y={y}: {p1} vs FD {d1}")
        if abs(p2 - d2) > rtol * max(abs(p2), abs(d2), 1e-8):
            failures.append(f"{t.name}: phi'' mismatch at y={y}: {p2} vs FD {d2}")
    return failures
