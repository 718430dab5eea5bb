"""In-memory spans around the calls into each package layer.

The tracer wraps the package's public functions from outside, at every
module attribute that binds them (``newton`` and ``scans`` bind their own
``symmetrize``, ``starconvex`` its own ``adaptive_simpson``). Each call
records a span: name, start, end, parent span and run id (the index of the
top-level operation). Self time is a span's duration minus the time its
child spans cover. A boundary whose target a refactor removed is reported
as absent rather than failing the run.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PACKAGE = "newton_transforms"

#: Functions wrapped, as (span name, module, attribute path). The wrappers of
#: radial_star_loss and make_star_transform record no span of their own: they
#: mark what they return for the star_loss_evaluate and star_transform spans.
FUNCTIONS = [
    ("losses.value", "losses", "SmoothLoss.value"),
    ("transforms.scaling_factor", "transforms", "scaling_factor"),
    ("linalg.symmetrize", "linalg", "symmetrize"),
    ("linalg.pinv_solve", "linalg", "pinv_solve"),
    ("linalg.dual_norm_sq", "linalg", "dual_norm_sq"),
    ("newton.run_newton", "newton", "run_newton"),
    ("newton.schedule", "newton", "ConstantSchedule.__call__"),
    ("newton.schedule", "newton", "ForwardedSchedule.__call__"),
    ("newton.schedule", "newton", "InducedSchedule.__call__"),
    ("newton.schedule", "newton", "BacktrackingSchedule.__call__"),
    ("newton.run_equivalence", "newton", "run_equivalence"),
    ("newton.lm_invariance_residual", "newton", "lm_invariance_residual"),
    ("scans.scan_convergence", "scans", "scan_convergence"),
    ("scans.scan_sign_flip", "scans", "scan_sign_flip"),
    ("scans.best_fixed_stepsize", "scans", "best_fixed_stepsize"),
    ("scans.write_csv", "scans", "GridScan.write_csv"),
    ("scans.write_csv", "scans", "SweepResult.write_csv"),
    ("quadrature.adaptive_simpson", "quadrature", "adaptive_simpson"),
    ("starconvex.convergence_radius", "starconvex", "convergence_radius"),
    ("starconvex.convexity_radius", "starconvex", "convexity_radius"),
    ("starconvex.radial_star_loss", "starconvex", "radial_star_loss"),
    ("starconvex.make_star_transform", "starconvex", "make_star_transform"),
    ("convexify.compact_constant", "convexify", "compact_constant"),
    ("convexify.verify_convexified", "convexify", "verify_convexified"),
    ("convexify.nested_bound_convexifier", "convexify", "nested_bound_convexifier"),
]

#: Every boundary reported as ``<name>.calls`` and ``<name>.self_s``.
#: ``losses.evaluate``, ``transforms.composed_evaluate`` and
#: ``starconvex.star_loss_evaluate`` share ``SmoothLoss.evaluate`` and are
#: told apart by the loss; ``starconvex.star_transform`` wraps phi, phi' and
#: phi'' of every star transform the package hands out; ``linalg.eigh`` is
#: the LAPACK call behind the pseudoinverse. ``quadrature.integrand`` is only
#: counted: a span per integrand call would swamp the quadrature it measures.
TIMED = [
    "losses.evaluate", "losses.value",
    "transforms.composed_evaluate", "transforms.scaling_factor",
    "linalg.symmetrize", "linalg.pinv_solve", "linalg.dual_norm_sq", "linalg.eigh",
    "newton.run_newton", "newton.schedule", "newton.run_equivalence", "newton.lm_invariance_residual",
    "scans.scan_convergence", "scans.scan_sign_flip", "scans.best_fixed_stepsize", "scans.write_csv",
    "quadrature.adaptive_simpson",
    "starconvex.star_loss_evaluate", "starconvex.star_transform",
    "starconvex.convergence_radius", "starconvex.convexity_radius",
    "convexify.compact_constant", "convexify.verify_convexified", "convexify.nested_bound_convexifier",
]

TERMINATIONS = ("converged", "diverged", "max_iters", "singular_scaling", "domain_error")
STAR_SPANS = ("starconvex.star_loss_evaluate", "starconvex.star_transform")
#: Calls made inside run_newton, reported per Newton iteration.
PER_ITERATION = ("linalg.symmetrize", "losses.evaluate")
#: Instance attribute marking the losses radial_star_loss handed out.
STAR_MARK = "_traced_star_loss"


def _resolve(obj, path):
    for part in path.split("."):
        obj = obj.__dict__[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


class Tracer:
    """Span recorder plus the patches that feed it.

    ``install`` wraps the boundaries, ``uninstall`` restores them. Between
    ``begin_rep`` and ``end_rep`` the tracer aggregates calls and self time
    per span name; spans are kept for every repetition and written out by
    ``write``. Inside ``paused()`` the wrappers pass calls straight through,
    so the benchmark's own checks are not counted as package work.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self._patches = []
        self.absent = []
        # span records
        self.rec_name = array("i")
        self.rec_start = array("d")
        self.rec_end = array("d")
        self.rec_parent = array("i")
        self.rec_run = array("i")
        self.run_id = -1
        self.paused_now = False
        self._stack = []  # [record index, child time]
        self._star_depth = 0
        self._newton_depth = 0
        self.reps = []
        self.begin_rep()

    # -- aggregation -------------------------------------------------------

    def begin_rep(self):
        self.calls = {}
        self.self_s = {}
        self.in_newton = {}
        self.newton_s = 0.0
        self.scan_s = 0.0
        self.iterations = 0
        self.terminations = dict.fromkeys(TERMINATIONS, 0)
        self.cells = 0
        self.conv_cells = 0
        self.conv_converged = 0
        self.error_cells = 0
        self.integrand = 0
        self.star_integrand = 0

    def end_rep(self):
        self.reps.append(self._rep_stats())
        self.begin_rep()

    def _rep_stats(self):
        st = {"calls": dict(self.calls), "self_s": dict(self.self_s), "in_newton": dict(self.in_newton)}
        for k in ("newton_s", "scan_s", "iterations", "cells", "conv_cells", "conv_converged",
                  "error_cells", "integrand", "star_integrand"):
            st[k] = getattr(self, k)
        st["terminations"] = dict(self.terminations)
        return st

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextmanager
    def paused(self):
        self.paused_now = True
        try:
            yield
        finally:
            self.paused_now = False

    # -- the hot path ------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        if self.paused_now:
            return fn(*args, **kwargs)
        stack = self._stack
        idx = len(self.rec_start)
        self.rec_name.append(self._ids[name])
        self.rec_parent.append(stack[-1][0] if stack else -1)
        self.rec_run.append(self.run_id)
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._newton_depth:
            self.in_newton[name] = self.in_newton.get(name, 0) + 1
        frame = [idx, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        self.rec_start.append(t0)
        self.rec_end.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            self.rec_end[idx] = t1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
            if stack:
                stack[-1][1] += dur

    def wrap(self, name, fn):
        self._id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every boundary; names a refactor removed go to ``absent``."""
        import importlib

        pkg_modules = [m for k, m in sorted(sys.modules.items())
                       if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for name, modname, path in FUNCTIONS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{modname}")
                owner_path, _, attr = path.rpartition(".")
                owner = _resolve(mod, owner_path) if owner_path else mod
                orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{modname}.{path}")
                continue
            wrapper = self._special(name, orig) or self.wrap(name, orig)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            for m in pkg_modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapper)

        try:
            from newton_transforms import losses, transforms
            orig_eval = losses.SmoothLoss.__dict__["evaluate"]
        except (ImportError, AttributeError, KeyError):
            self.absent.append("losses.SmoothLoss.evaluate")
        else:
            composed_type = getattr(transforms, "TransformedLoss", ())
            for name in ("losses.evaluate", "transforms.composed_evaluate", "starconvex.star_loss_evaluate"):
                self._id(name)
            tracer = self

            def evaluate(loss, *args, **kwargs):
                if isinstance(loss, composed_type):
                    return tracer.call("transforms.composed_evaluate", orig_eval, (loss,) + args, kwargs)
                if loss.__dict__.get(STAR_MARK):
                    return tracer._star_call("starconvex.star_loss_evaluate", orig_eval, (loss,) + args, kwargs)
                return tracer.call("losses.evaluate", orig_eval, (loss,) + args, kwargs)

            self._set(losses.SmoothLoss, "evaluate", evaluate)

        self._set(np.linalg, "eigh", self.wrap("linalg.eigh", np.linalg.eigh))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _special(self, name, orig):
        """Wrappers that also feed counters; None for a plain span."""
        tracer = self
        if name == "newton.run_newton":
            self._id(name)

            def run_newton(*args, **kwargs):
                if tracer.paused_now:
                    return orig(*args, **kwargs)
                tracer._newton_depth += 1
                t0 = perf_counter()
                try:
                    tr = tracer.call(name, orig, args, kwargs)
                finally:
                    tracer._newton_depth -= 1
                if not tracer._newton_depth:
                    tracer.newton_s += perf_counter() - t0
                tracer.iterations += tr.iterations
                tracer.terminations[tr.termination] = tracer.terminations.get(tr.termination, 0) + 1
                return tr
            return run_newton
        if name in ("scans.scan_convergence", "scans.scan_sign_flip"):
            self._id(name)

            def scan(*args, **kwargs):
                if tracer.paused_now:
                    return orig(*args, **kwargs)
                t0 = perf_counter()
                res = tracer.call(name, orig, args, kwargs)
                tracer.scan_s += perf_counter() - t0
                tracer.cells += int(res.error.size)
                tracer.error_cells += int(np.sum(res.error))
                if name == "scans.scan_convergence":
                    tracer.conv_cells += int(res.converged.size)
                    tracer.conv_converged += int(np.sum(res.converged))
                return res
            return scan
        if name == "quadrature.adaptive_simpson":
            self._id(name)

            def adaptive_simpson(f, *args, **kwargs):
                if tracer.paused_now:
                    return orig(f, *args, **kwargs)
                if not getattr(f, "_counted", False):
                    inner = f

                    def f(t):
                        tracer.integrand += 1
                        return inner(t)

                    f._counted = True
                return tracer.call(name, orig, (f,) + args, kwargs)
            return adaptive_simpson
        if name == "starconvex.radial_star_loss":
            def radial_star_loss(*args, **kwargs):
                loss, t = orig(*args, **kwargs)
                setattr(loss, STAR_MARK, True)
                return loss, tracer._wrap_star_transform(t)
            return radial_star_loss
        if name == "starconvex.make_star_transform":
            def make_star_transform(*args, **kwargs):
                return tracer._wrap_star_transform(orig(*args, **kwargs))
            return make_star_transform
        return None

    def _star_call(self, name, fn, args, kwargs):
        outer = self._star_depth == 0
        before = self.integrand
        self._star_depth += 1
        try:
            return self.call(name, fn, args, kwargs)
        finally:
            self._star_depth -= 1
            if outer:
                self.star_integrand += self.integrand - before

    def _wrap_star_transform(self, t):
        name = "starconvex.star_transform"
        self._id(name)
        for attr in ("phi", "phi_prime", "phi_double_prime"):
            fn = getattr(t, attr)
            setattr(t, attr, lambda *a, _fn=fn, **k: self._star_call(name, _fn, a, k))
        return t

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Save every span as arrays: name id, start, end, parent, run id."""
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.rec_name, dtype=np.int32),
                 start=np.frombuffer(self.rec_start), end=np.frombuffer(self.rec_end),
                 parent=np.frombuffer(self.rec_parent, dtype=np.int32), run=np.frombuffer(self.rec_run, dtype=np.int32))
        return len(self.rec_start)


def _median(xs):
    return float(np.median(xs)) if len(xs) else 0.0


def layer_metrics(reps, absent):
    """Per-layer metrics: counts from the first traced repetition (they repeat
    exactly), times as medians over the traced repetitions."""
    first = reps[0]
    out = {}
    for name in TIMED:
        out[f"{name}.calls"] = (first["calls"].get(name, 0), "count")
        out[f"{name}.self_s"] = (_median([r["self_s"].get(name, 0.0) for r in reps]), "s")
    out["quadrature.integrand.calls"] = (first["integrand"], "count")
    its = first["iterations"]
    out["newton.iterations"] = (its, "count")
    newton_s = _median([r["newton_s"] for r in reps])
    out["newton.us_per_iteration"] = (1e6 * newton_s / its if its else 0.0, "us")
    for term in TERMINATIONS:
        out[f"newton.termination.{term}"] = (first["terminations"].get(term, 0), "count")
    for name in PER_ITERATION:
        out[f"{name}.per_iteration"] = (first["in_newton"].get(name, 0) / its if its else 0.0, "count")
    out["scans.cells"] = (first["cells"], "count")
    scan_s = _median([r["scan_s"] for r in reps])
    out["scans.cells_per_s"] = (first["cells"] / scan_s if scan_s else 0.0, "1/s")
    out["scans.converged_frac"] = (first["conv_converged"] / first["conv_cells"] if first["conv_cells"] else 0.0, "frac")
    out["scans.error_cells"] = (first["error_cells"], "count")
    star_evals = sum(first["calls"].get(n, 0) for n in STAR_SPANS)
    out["quadrature.integrand_per_star_eval"] = (first["star_integrand"] / star_evals if star_evals else 0.0, "count")
    out["trace.absent_boundaries"] = (len(absent), "count")
    return out
