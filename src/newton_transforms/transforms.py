"""Monotone scalar transformations phi, composed losses L = phi(f), and the
stepsize scaling machinery.

The scaling factor 1 + (phi''/phi') * ||grad f||_x*^2 is the exact ratio
between the stepsize driving phi(f) and the stepsize driving f that produces
identical Newton iterates (given grad f in Range(hess f)). Transforms carry a
dedicated ratio() so factors stay computable even where phi itself overflows
(e.g. exponential convexifiers with large rates). One formula per function
serves a single f-value and a whole batch of them (see ScalarTransform).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, InputError, SingularScalingError
from .losses import RADIAL, SmoothLoss, spec_number, spec_options

#: |scaling| at or below this is treated as singular (transformed Hessian
#: degenerates along grad f); the paper does not treat this case, so fail loudly.
#: Sign-flip scans record such cells as sign 0.
SCALING_ZERO_TOL = 1e-12

#: |scaling| above this qualifies a run or cell for the iterate-equivalence checks.
SCALING_QUALIFIED_TOL = 1e-6


@dataclass
class ScalarTransform:
    """Monotone scalar map with derivatives and a validity interval.

    jet(y) gives (phi, phi', phi'') at once, each computed from what they
    share; jet and ratio_fn take a float or an ndarray of f-values and give
    the same bits either way, element for element: one NumPy formula serves
    the scalar driver and every batch. phi' must be positive on
    valid_interval; lo_closed admits its left end (convexifiers at f(x*)).
    """

    name: str
    jet: Callable[[float], Tuple[float, float, float]]
    valid_interval: Tuple[float, float] = (-np.inf, np.inf)
    lo_closed: bool = False
    ratio_fn: Optional[Callable[[float], float]] = None

    # One component of the jet: the other two are computed as well, and their overflow is not this caller's.
    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def phi(self, y):
        return self.jet(y)[0]

    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def phi_prime(self, y):
        return self.jet(y)[1]

    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def phi_double_prime(self, y):
        return self.jet(y)[2]

    def contains(self, y):
        """The domain rule, element by element: y is finite and inside valid_interval."""
        lo, hi = self.valid_interval
        return (abs(y) < np.inf) & ((y >= lo) if self.lo_closed else (y > lo)) & (y < hi)

    def require(self, y):
        """y, or DomainError when an f-value in it lies outside the domain."""
        if not np.asarray(self.contains(y)).all():
            raise DomainError(f"transform '{self.name}' undefined at f-value {y}; valid interval {self.valid_interval}")
        return y

    def ratio(self, y):
        """phi''(y) / phi'(y), the convexification rate r(y); DomainError
        when an f-value in y lies outside the domain."""
        self.require(y)
        if self.ratio_fn is not None:
            return self.ratio_fn(y)
        _, p1, p2 = self.jet(y)
        return p2 / p1


def constant(c):
    """y -> c in the shape of y, exactly for every finite y (c + 0 * y)."""
    return lambda y: c + 0.0 * y


def linear(a, b=0.0):
    if a <= 0:
        raise InputError("linear transform requires slope a > 0")

    def jet(y):
        z = 0.0 * y  # constant derivatives in the shape of y, exactly for every finite y
        return a * y + b, a + z, 0.0 + z

    return ScalarTransform(name=f"linear(a={a},b={b})", jet=jet, ratio_fn=constant(0.0))


def polynomial(r):
    """phi(y) = y^r on y > 0. Monotone increasing (minimizer-preserving) only
    for r > 0; negative r is accepted for scaling-factor studies."""
    if r == 0:
        raise InputError("polynomial transform rejects the degenerate exponent r = 0")
    return ScalarTransform(
        name=f"poly(r={r})",
        jet=lambda y: (np.power(y, r), r * np.power(y, r - 1), r * (r - 1) * np.power(y, r - 2)),
        valid_interval=(0.0, np.inf),
        ratio_fn=lambda y: (r - 1) / y,
    )


def exponential(a):
    if a <= 0:
        raise InputError("exponential transform requires rate a > 0")

    def jet(y):
        e = np.exp(a * y)
        return e, a * e, a * a * e

    return ScalarTransform(name=f"exp(a={a})", jet=jet, ratio_fn=constant(a))


def logarithmic(a):
    def jet(y):
        u = a + y
        return np.log(u), 1.0 / u, -1.0 / np.square(u)

    return ScalarTransform(
        name=f"log(a={a})",
        jet=jet,
        valid_interval=(-a, np.inf),
        ratio_fn=lambda y: -1.0 / (a + y),
    )


def _sigma(y):
    # numerically stable logistic: 1/(1 + e^-y) for y >= 0 and e^y/(1 + e^y) below, no exponent positive
    return np.exp(np.minimum(y, 0.0)) / (1.0 + np.exp(-abs(y)))


def sigmoid():
    def jet(y):
        s = _sigma(y)
        p1 = s * (1.0 - s)
        return s, p1, p1 * (1.0 - 2.0 * s)

    return ScalarTransform(name="sigmoid", jet=jet, ratio_fn=lambda y: 1.0 - 2.0 * _sigma(y))


#: The Table-1 transform factories by kind name.
TABLE1 = {"linear": linear, "polynomial": polynomial, "exponential": exponential,
          "logarithmic": logarithmic, "sigmoid": sigmoid}


def make_table1(kind, **params):
    """Build a Table-1 transform by kind name."""
    if kind not in TABLE1:
        raise InputError(f"unknown transform kind '{kind}'; choose from {tuple(TABLE1)}")
    try:
        return TABLE1[kind](**params)
    except TypeError:
        raise InputError(f"bad parameters {sorted(params)} for transform kind '{kind}'") from None


@dataclass
class TransformedLoss(SmoothLoss):
    """Composite phi(f) evaluated by the chain rule:

    grad L = phi'(f) grad f,
    hess L = phi'(f) hess f + phi''(f) grad f grad f^T.
    """

    transform: ScalarTransform = None


def compose(base, t):
    """Compose a loss with a monotone transform."""

    def ev(x):
        f, g, H = base.evaluate_point(x)  # the composed loss has checked x
        if g.shape != H.shape[:-1]:  # before the chain rule's broadcasting fails on it
            raise InputError(f"gradient shape {g.shape} does not match matrix shape {H.shape}")
        phi, p1, p2 = t.jet(t.require(f))
        composed.base_eval = (base, x, f, g, H, p1)  # for ForwardedSchedule at this very x
        return phi, p1 * g, p1 * H + p2 * (g[:, None] * g)

    def ev_batch(X):
        f, G, H, err = base.evaluate_batch(X)
        err |= ~t.contains(f)
        if np.logical_or.reduce(err):  # failed rows hold NaN; the jet sees only the others
            phi, p1, p2 = np.full((3, len(f)), np.nan)
            phi[~err], p1[~err], p2[~err] = t.jet(f[~err])
            G = np.where(err[:, None], np.nan, G)
        else:
            phi, p1, p2 = t.jet(f)
        return (phi, p1[:, None] * G,
                p1[:, None, None] * H + p2[:, None, None] * (G[:, :, None] * G[:, None, :]), err)

    min_value = None
    if base.min_value is not None and t.contains(base.min_value):
        min_value = float(t.phi(base.min_value))
    composed = TransformedLoss(
        name=f"{t.name}∘{base.name}",
        dimension=base.dimension,
        _eval=ev,
        minimizer=None if base.minimizer is None else np.array(base.minimizer),
        min_value=min_value,
        _eval_batch=ev_batch,
        transform=t,
    )
    return composed


def scaling_factor(t, f_val, dual_sq):
    """1 + (phi''(f)/phi'(f)) * dual_sq; may legitimately be negative or zero."""
    return 1.0 + t.ratio(f_val) * dual_sq


def induced_stepsize(alpha_on_transformed, scaling):
    """Corollary stepsize on f from a stepsize on phi(f): alpha / scaling."""
    if abs(scaling) <= SCALING_ZERO_TOL:
        raise SingularScalingError(f"scaling factor {scaling} is numerically zero; step direction undefined")
    return alpha_on_transformed / scaling


def forward_stepsize(alpha_on_base, scaling):
    """Stepsize on phi(f) reproducing the f-run: alpha * scaling."""
    return alpha_on_base * scaling


#: Spec abbreviations of Table-1 kinds; a spec may also give the kind itself.
_SHORT_KINDS = {"poly": "polynomial", "exp": "exponential", "log": "logarithmic"}


def transform_from_spec(spec):
    """Parse CLI transform strings: 'none', 'linear:a=2:b=1', 'poly:r=0.5',
    'exp:a=2', 'log:a=1', 'sigmoid', 'star:cauchy'."""
    if spec in (None, "", "none"):
        return None
    head, *rest = spec.split(":")
    if head == "star":
        from .starconvex import make_star_transform

        return make_star_transform(rest[0] if rest else "")
    kind = _SHORT_KINDS.get(head, head)
    if kind not in TABLE1:
        raise InputError(f"unknown transform spec '{spec}'")
    kv = spec_options(rest, "transform")
    return make_table1(kind, **{k: spec_number(kv, k, None) for k in kv})


def known_transform_specs():
    return (["none", "linear:a=<A>:b=<B>", "poly:r=<R>", "exp:a=<A>", "log:a=<A>", "sigmoid"]
            + [f"star:{name}" for name in RADIAL])
