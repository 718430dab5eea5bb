"""Test helpers: finite-difference validation of gradients and Hessians,
reference formulas of the 2D benchmarks and the polytope, the scalar solve,
the iterate deviation, the scan CSV writer and the per-derivative transform
formulas as first written.

Central differences with step scaling 1 + ||x|| so relative accuracy holds
across benchmark scales (Goldstein-Price values span 1e6).
"""

from __future__ import annotations

import math

import numpy as np

from newton_transforms.errors import DomainError, EvaluationError, InputError
from newton_transforms.linalg import _SQUARE_SAFE, ASYMMETRY_RTOL, DEFAULT_PINV_RTOL, DualNormResult, row_norm
from newton_transforms.losses import make_radial
from newton_transforms.quadrature import CumulativeIntegral
from newton_transforms.starconvex import _radial_integrals


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


# Reference formulas: the scalar 2D benchmarks as first written, one point at
# a time with vector and matrix arithmetic. The loss zoo's row formulas must
# equal them bit for bit.

def reference_rosenbrock(x):
    a, b = x
    r = b - a * a
    f = (1.0 - a) ** 2 + 100.0 * r * r
    g = np.array([-2.0 * (1.0 - a) - 400.0 * a * r, 200.0 * r])
    H = np.array([[2.0 - 400.0 * b + 1200.0 * a * a, -400.0 * a], [-400.0 * a, 200.0]])
    return f, g, H


def reference_beale(x):
    a, b = x
    consts = (1.5, 2.25, 2.625)
    f = 0.0
    g = np.zeros(2)
    H = np.zeros((2, 2))
    for i, c in enumerate(consts, start=1):
        t = c - a + a * b**i
        dt = np.array([b**i - 1.0, i * a * b ** (i - 1)])
        # d2t/dx2 = 0, d2t/dxdy = i*y^(i-1), d2t/dy2 = i(i-1)*x*y^(i-2)
        # (the y^(i-2) factor carries a zero coefficient for i = 1; written
        # out explicitly so y = 0 does not evaluate 0^(-1))
        tyy = i * (i - 1) * a * b ** (i - 2) if i >= 2 else 0.0
        ddt = np.array([[0.0, i * b ** (i - 1)], [i * b ** (i - 1), tyy]])
        f += t * t
        g += 2.0 * t * dt
        H += 2.0 * (dt[:, None] * dt + t * ddt)
    return f, g, H


#: Goldstein-Price's directions u, w (s = u.x, v = w.x) and the outer products of its Hessian.
_GP_U, _GP_W = np.array([1.0, 1.0]), np.array([2.0, -3.0])
_GP_UU, _GP_UW, _GP_WW = np.outer(_GP_U, _GP_U), np.outer(_GP_U, _GP_W) + np.outer(_GP_W, _GP_U), np.outer(_GP_W, _GP_W)


def reference_goldstein_price(x):
    # Both brackets collapse to quartics in s = x+y and v = 2x-3y:
    #   A(s) = 1 + (s+1)^2 (3s^2 - 14s + 19),  B(v) = 30 + v^2 (3v^2 - 16v + 18)
    a, b = x
    s = a + b
    v = 2.0 * a - 3.0 * b
    A = 3 * s**4 - 8 * s**3 - 6 * s**2 + 24 * s + 20
    Ap = 12 * s**3 - 24 * s**2 - 12 * s + 24
    App = 36 * s**2 - 48 * s - 12
    B = 3 * v**4 - 16 * v**3 + 18 * v**2 + 30
    Bp = 12 * v**3 - 48 * v**2 + 36 * v
    Bpp = 36 * v**2 - 96 * v + 36
    f = A * B
    g = Ap * B * _GP_U + A * Bp * _GP_W
    H = App * B * _GP_UU + Ap * Bp * _GP_UW + A * Bpp * _GP_WW
    return f, g, H


#: The reference formula of each 2D benchmark by name.
REFERENCE_BENCHMARKS = {"rosenbrock": reference_rosenbrock, "beale": reference_beale,
                        "goldstein_price": reference_goldstein_price}


# The scalar solve and point checks as first written, one validation per
# call. The package's split solve (eigh_solve behind dual_norm_sq) and its
# leaner symmetrize, norm_exceeds, as_point and iterate_deviation must equal
# them bit for bit and raise the same errors.

def reference_symmetrize(M):
    """Return M/2 + M^T/2 of a finite square matrix (halving first keeps entries
    near the float maximum finite), rejecting asymmetry above 1e-8 relative."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError(f"matrix must be square, got shape {M.shape}")
    big = np.abs(M).max(initial=0.0)
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


def reference_norm_exceeds(x, bound):
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


def reference_iterate_deviation(xs_a, xs_b):
    """run_equivalence's deviation as first written, one iterate at a time:
    the worst ||a_k - b_k|| / (1 + ||a_k||) up to the first non-finite iterate."""
    dev = 0.0
    for xf, xl in zip(xs_a, xs_b):
        if not (np.isfinite(xf).all() and np.isfinite(xl).all()):
            break
        d = xf - xl
        dev = max(dev, math.sqrt(d.dot(d)) / (1.0 + math.sqrt(xf.dot(xf))))
    return dev


@np.errstate(over="ignore", invalid="ignore")
def reference_dual_norm_sq(H, g):
    """The Newton direction p = H^+ g with ||g||*^2 = <g, p>, and whether g
    lies in Range(H).

    H is symmetrized and validated once; p is the eigendecomposition
    pseudoinverse with the relative cutoff DEFAULT_PINV_RTOL. in_range is
    ||H p - g|| <= DEFAULT_PINV_RTOL * ||g|| (true for g = 0, false when ||g||
    overflows). The value can be negative when H is indefinite. Overflow
    gives non-finite results without a NumPy warning.
    """
    H = reference_symmetrize(H)
    g = np.asarray(g, dtype=float)
    if g.shape != H.shape[:-1]:
        raise InputError(f"gradient shape {g.shape} does not match matrix shape {H.shape}")
    if not np.isfinite(g).all():
        raise InputError("vector has non-finite entries")
    w, V = np.linalg.eigh(H)
    wmax = abs(w).max() if w.size else 0.0
    if wmax == 0.0:
        p, rank = np.zeros_like(g), 0
    else:
        keep = abs(w) >= DEFAULT_PINV_RTOL * wmax
        inv = np.zeros_like(w)
        inv[keep] = 1.0 / w[keep]
        p, rank = V @ (inv * (V.T @ g)), int(np.count_nonzero(keep))
    gnorm = math.sqrt(g.dot(g))
    if gnorm == 0.0:
        return DualNormResult(0.0, True, rank, p, gnorm)
    r = H @ p - g
    in_range = gnorm < math.inf and math.sqrt(r.dot(r)) <= DEFAULT_PINV_RTOL * gnorm
    return DualNormResult(float(g @ p), bool(in_range), rank, p, gnorm)


def reference_as_point(x, dimension=None):
    """Coerce scalars/sequences to a finite float vector."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise InputError(f"point must be one-dimensional, got shape {p.shape}")
    if dimension is not None and p.shape[0] != dimension:
        raise InputError(f"point has dimension {p.shape[0]}, expected {dimension}")
    if not np.isfinite(p).all():
        raise InputError("point has non-finite entries")
    return p


# The grid path's per-row and per-cell code as first written: the polytope's
# scalar formula, one point and its active rows at a time, and the scan CSV
# writer that formats every cell afresh. The polytope's stacked formula and
# GridScan.write_csv must equal them bit for bit and byte for byte.

def reference_polytope(rows, offsets, p, x):
    """f_p(x) = sum_i (<a_i, x> - b_i)_+^p with its gradient and Hessian."""
    A, b = np.atleast_2d(np.asarray(rows, dtype=float)), np.asarray(offsets, dtype=float)
    d = A.shape[1]
    s = A @ x - b
    act = s > 0.0
    if not act.any():
        return 0.0, np.zeros(d), np.zeros((d, d))
    sa = s[act]
    Aa = A[act]
    f = float((sa**p).sum())
    g = p * (sa ** (p - 1)) @ Aa
    H = p * (p - 1) * (Aa * (sa ** (p - 2))[:, None]).T @ Aa
    return f, g, H


def reference_write_csv(scan, path):
    """GridScan.write_csv, one formatted line per cell."""
    value_col = "scaling_sign" if scan.kind == "sign" else "converged"
    ys = scan.ys if scan.ys is not None else np.array([0.0])
    with open(path, "w", newline="") as fh:
        fh.write(f"ix,iy,x,y,{value_col},iterations,final_value,error\n")
        for ix, x in enumerate(scan.xs):
            for iy, y in enumerate(ys):
                val = scan.scaling_sign[ix, iy] if scan.kind == "sign" else int(scan.converged[ix, iy])
                fh.write(
                    f"{ix},{iy},{format(float(x), '.17g')},{format(float(y), '.17g')},"
                    f"{val},{scan.iterations[ix, iy]},{format(float(scan.final_value[ix, iy]), '.17g')},"
                    f"{int(scan.error[ix, iy])}\n"
                )


# The transforms as first written: (phi, phi', phi'') as three formulas, one
# lambda each, every one recomputing what it shares with the others. Each
# component of a transform's jet must equal its formula here bit for bit, on
# a float and element for element on an array.

def reference_linear(a, b=0.0):
    return (lambda y: a * y + b, lambda y: a + 0.0 * y, lambda y: 0.0 + 0.0 * y)


def reference_polynomial(r):
    return (lambda y: np.power(y, r), lambda y: r * np.power(y, r - 1), lambda y: r * (r - 1) * np.power(y, r - 2))


def reference_exponential(a):
    return (lambda y: np.exp(a * y), lambda y: a * np.exp(a * y), lambda y: a * a * np.exp(a * y))


def reference_logarithmic(a):
    return (lambda y: np.log(a + y), lambda y: 1.0 / (a + y), lambda y: -1.0 / np.square(a + y))


def _reference_sigma(y):
    return np.exp(np.minimum(y, 0.0)) / (1.0 + np.exp(-abs(y)))


def reference_sigmoid():
    def prime(y):
        s = _reference_sigma(y)
        return s * (1.0 - s)

    return (_reference_sigma, prime, lambda y: prime(y) * (1.0 - 2.0 * _reference_sigma(y)))


def reference_exp_convexifier(c, f_star):
    if c == 0.0:
        return reference_linear(1.0, -f_star)
    return (lambda y: np.expm1(c * (y - f_star)) / c, lambda y: np.exp(c * (y - f_star)),
            lambda y: c * np.exp(c * (y - f_star)))


def reference_nested_bound_convexifier(h, f_star, y_max):
    H_cum = CumulativeIntegral(h, f_star, y_max)

    def phi_prime(y):
        return float(np.exp(H_cum(y)))

    phi_cum = CumulativeIntegral(phi_prime, f_star, y_max)

    def each(fn):
        loop = np.vectorize(fn, otypes=[float])
        return lambda y: loop(y)[()]

    return (each(phi_cum), each(phi_prime), each(lambda y: float(h(y)) * phi_prime(y)))


def reference_star_transform(name):
    radial = make_radial(name)
    integral, integrals = _radial_integrals(radial)
    f_star = float(radial.psi(0.0))

    def phi(cval):
        r = radial.psi_inverse(cval)
        return f_star + r * integral(r)

    def phi_prime(cval):
        r = radial.psi_inverse(cval)
        with np.errstate(invalid="ignore"):
            return np.where(r == 0.0, 2.0, 1.0 + integral(r) / radial.psi_prime(r))[()]

    def phi_double_prime(cval):
        r = radial.psi_inverse(cval)
        r = np.where(r == 0.0, 1e-8, r)[()]
        p1 = radial.psi_prime(r)
        p2 = radial.psi_double_prime(r)
        num = p1 * (p1 - r * p2) + r * p2 * integrals(r)[1]
        return num / p1 / p1 / (r * p1)

    return (phi, phi_prime, phi_double_prime)
