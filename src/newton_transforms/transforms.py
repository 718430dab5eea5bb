"""Monotone scalar transformations phi, composed losses L = phi(f), and the
stepsize scaling machinery.

The scaling factor 1 + (phi''/phi') * ||grad f||_x*^2 is the exact ratio
between the stepsize driving phi(f) and the stepsize driving f that produces
identical Newton iterates (given grad f in Range(hess f)). Transforms carry a
dedicated ratio() so factors stay computable even where phi itself overflows
(e.g. exponential convexifiers with large rates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError, EvaluationError, InputError, SingularScalingError
from .losses import RADIAL, SmoothLoss, spec_number, spec_options

#: |scaling| at or below this is treated as singular (transformed Hessian
#: degenerates along grad f); the paper does not treat this case, so fail loudly.
#: Sign-flip scans record such cells as sign 0.
SCALING_ZERO_TOL = 1e-12


@dataclass
class ScalarTransform:
    """Monotone scalar map with derivatives and a validity interval.

    phi_prime must be positive on valid_interval; evaluation outside raises
    DomainError. lo_closed marks transforms evaluable at the left endpoint
    (convexifiers anchored at f(x*)).
    """

    name: str
    phi: Callable[[float], float]
    phi_prime: Callable[[float], float]
    phi_double_prime: Callable[[float], float]
    valid_interval: Tuple[float, float] = (-np.inf, np.inf)
    lo_closed: bool = False
    ratio_fn: Optional[Callable[[float], float]] = None

    def contains(self, y):
        lo, hi = self.valid_interval
        return (y >= lo if self.lo_closed else y > lo) and y < hi

    def require(self, y):
        if not np.isfinite(y) or not self.contains(y):
            raise DomainError(f"transform '{self.name}' undefined at f-value {y}; valid interval {self.valid_interval}")
        return y

    def ratio(self, y):
        """phi''(y) / phi'(y), the convexification rate r(y)."""
        self.require(y)
        if self.ratio_fn is not None:
            return float(self.ratio_fn(y))
        return float(self.phi_double_prime(y) / self.phi_prime(y))


def linear(a, b=0.0):
    if a <= 0:
        raise InputError("linear transform requires slope a > 0")
    return ScalarTransform(
        name=f"linear(a={a},b={b})",
        phi=lambda y: a * y + b,
        phi_prime=lambda y: a,
        phi_double_prime=lambda y: 0.0,
        ratio_fn=lambda y: 0.0,
    )


def polynomial(r):
    """phi(y) = y^r on y > 0. Monotone increasing (minimizer-preserving) only
    for r > 0; negative r is accepted for scaling-factor studies."""
    if r == 0:
        raise InputError("polynomial transform rejects the degenerate exponent r = 0")
    return ScalarTransform(
        name=f"poly(r={r})",
        phi=lambda y: y**r,
        phi_prime=lambda y: r * y ** (r - 1),
        phi_double_prime=lambda y: r * (r - 1) * y ** (r - 2),
        valid_interval=(0.0, np.inf),
        ratio_fn=lambda y: (r - 1) / y,
    )


def exponential(a):
    if a <= 0:
        raise InputError("exponential transform requires rate a > 0")
    return ScalarTransform(
        name=f"exp(a={a})",
        phi=lambda y: np.exp(a * y),
        phi_prime=lambda y: a * np.exp(a * y),
        phi_double_prime=lambda y: a * a * np.exp(a * y),
        ratio_fn=lambda y: a,
    )


def logarithmic(a):
    return ScalarTransform(
        name=f"log(a={a})",
        phi=lambda y: np.log(a + y),
        phi_prime=lambda y: 1.0 / (a + y),
        phi_double_prime=lambda y: -1.0 / (a + y) ** 2,
        valid_interval=(-a, np.inf),
        ratio_fn=lambda y: -1.0 / (a + y),
    )


def _sigma(y):
    # numerically stable logistic
    if y >= 0:
        return 1.0 / (1.0 + np.exp(-y))
    e = np.exp(y)
    return e / (1.0 + e)


def sigmoid():
    def prime(y):
        s = _sigma(y)
        return s * (1.0 - s)

    return ScalarTransform(
        name="sigmoid",
        phi=lambda y: _sigma(y),
        phi_prime=prime,
        phi_double_prime=lambda y: prime(y) * (1.0 - 2.0 * _sigma(y)),
        ratio_fn=lambda y: 1.0 - 2.0 * _sigma(y),
    )


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
        f, g, H = base.evaluate(x)
        t.require(f)
        p1 = t.phi_prime(f)
        p2 = t.phi_double_prime(f)
        return t.phi(f), p1 * g, p1 * H + p2 * np.outer(g, g)

    def ev_batch(X):
        # phi and its derivatives are scalar functions: apply them per row. A
        # row where ev would raise is an error row.
        f, G, H, err = base.evaluate_batch(X)
        phi, p1, p2 = (np.full(len(f), np.nan) for _ in range(3))
        for i in np.flatnonzero(~err):
            y = float(f[i])
            try:
                t.require(y)
                p1[i], p2[i], phi[i] = t.phi_prime(y), t.phi_double_prime(y), t.phi(y)
            except (DomainError, EvaluationError):
                err[i] = True
        G = np.where(err[:, None], np.nan, G)
        return (phi, p1[:, None] * G,
                p1[:, None, None] * H + p2[:, None, None] * (G[:, :, None] * G[:, None, :]), err)

    min_value = None
    if base.min_value is not None and t.contains(base.min_value):
        min_value = float(t.phi(base.min_value))
    return TransformedLoss(
        name=f"{t.name}∘{base.name}",
        dimension=base.dimension,
        _eval=ev,
        minimizer=None if base.minimizer is None else np.array(base.minimizer),
        min_value=min_value,
        _eval_batch=ev_batch,
        transform=t,
    )


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
