"""Benchmark of the newton_transforms package.

    python3 bench/run.py --workload <grid_scans|star_certificates|trajectories>
                         --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else. The workload's fixed work set (see
``workloads.py``) is repeated until ``--seconds`` have passed, each
repetition on freshly built fixtures, and every operation's result is
checked. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are end to end: ``setup_s`` (median of nine
imports of the package in fresh interpreters plus a fixture build),
``wall_s`` (median time of one work set), ``ok_frac`` (operations that
neither raised nor failed their check, over those attempted) and
``peak_rss_mb``. With ``--trace 1`` the first half of the time runs
untraced and the second half traced; the metrics are per layer (see
``tracer.py``), counted on the first traced repetition and timed as medians.
Spans go to ``.bench_out/`` in the checkout.
"""

import os

# One thread per BLAS/OpenMP pool, set before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"
WORKLOAD_NAMES = ("grid_scans", "star_certificates", "trajectories")
SETUP_SAMPLES = 9
# Everything a user of the package may import, recipes and CLI included.
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); "
    "import newton_transforms, newton_transforms.cli; "
    "print(time.perf_counter() - t)"
)


def _import_package():
    """Import newton_transforms from this checkout's src/, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import newton_transforms
    except ImportError as exc:
        sys.exit(f"bench: cannot import newton_transforms from {SRC}: {exc}")
    origin = Path(newton_transforms.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"bench: newton_transforms imported from {origin}, not from {SRC}")


def _time_import():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def provenance():
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "src_sha256": digest.hexdigest()}


def load_reference(workload, seed):
    """The recorded summaries of a shipped seed, or None."""
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Rep:
    wall: float  # seconds spent inside the operations
    runtime_warnings: int
    csv_bytes: int
    csv_identical: int  # CSVs whose digest matches the reference
    csv_written: int


class Runner:
    """Runs repetitions of one workload and keeps the failure and CSV tallies."""

    def __init__(self, workload, seed, size, reference, out_dir):
        self.workload, self.seed, self.size = workload, seed, size
        self.reference = reference
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.first_digests = None

    def build(self):
        import workloads

        os.makedirs(self.out_dir, exist_ok=True)
        return workloads.build(self.workload, self.seed, self.size, self.out_dir)

    def check(self, op, result, summaries):
        """The problems found in one operation's result."""
        import workloads

        try:
            problems = []
            problem = op.invariant(result)
            if problem:
                problems.append(problem)
            summaries[op.name] = op.summarize(result)
            if self.reference is not None:
                ref = self.reference["ops"].get(op.name)
                if ref is None:
                    problems.append("no reference summary")
                else:
                    problems += workloads.compare(summaries[op.name], ref, op.rtol)
            return problems
        except Exception:
            return [traceback.format_exc()]

    def rep(self, tracer=None):
        """One pass over the work set on fresh fixtures. CSV digests are
        compared with the reference, or for an unshipped seed with the run's
        first repetition."""
        ops = self.build()
        wall = 0.0
        n_warn = 0
        digests = {}
        summaries = {}
        for i, op in enumerate(ops):
            self.attempted += 1
            if tracer is not None:
                tracer.run_id = i
            problems = None
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                try:
                    t0 = time.perf_counter()
                    result = op.call()
                    wall += time.perf_counter() - t0
                except Exception:
                    problems = [traceback.format_exc()]
            if problems is None:
                # The checks' own package calls are neither traced nor counted
                # in newton.runtime_warnings.
                with tracer.paused() if tracer is not None else contextlib.nullcontext(), \
                        warnings.catch_warnings(record=True):
                    problems = self.check(op, result, summaries)
            n_warn += sum(issubclass(w.category, RuntimeWarning) for w in caught)
            for w in caught:
                if not issubclass(w.category, RuntimeWarning):
                    warnings.showwarning(w.message, w.category, w.filename, w.lineno)
            if problems:
                self.failed += 1
                print(f"bench: {self.workload} seed {self.seed} op {op.name} failed: {'; '.join(problems)}",
                      file=sys.stderr)
            if op.csv and os.path.exists(op.csv):
                digests[op.name] = (_sha256(op.csv), os.path.getsize(op.csv))
        self.last_summaries = summaries
        self.last_digests = {k: v[0] for k, v in digests.items()}
        if self.first_digests is None:
            self.first_digests = self.last_digests
        want = self.reference["csv"] if self.reference is not None else self.first_digests
        identical = sum(want.get(k) == v[0] for k, v in digests.items())
        return Rep(wall, n_warn, sum(v[1] for v in digests.values()), identical, len(digests))


def measure(workload, seed, seconds, trace, size="full", reference=None, trace_path=None):
    """Run one workload for ``seconds`` and return the result object."""
    import tracer as tracing

    OUT.mkdir(exist_ok=True)
    out_dir = str(OUT / f"{workload}-{seed}-{os.getpid()}")
    runner = Runner(workload, seed, size, reference, out_dir)
    metrics = {}
    try:
        if not trace:
            setups = []
            for _ in range(SETUP_SAMPLES):
                imp = _time_import()
                t0 = time.perf_counter()
                runner.build()
                setups.append(imp + time.perf_counter() - t0)
            metrics["setup_s"] = (statistics.median(setups), "s")

        untraced_budget = seconds / 2 if trace else seconds
        start = time.perf_counter()
        walls = []
        while not walls or time.perf_counter() - start < untraced_budget:
            walls.append(runner.rep().wall)
        if not trace:
            metrics["wall_s"] = (statistics.median(walls), "s")
            metrics["ok_frac"] = ((runner.attempted - runner.failed) / runner.attempted, "frac")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        else:
            tr = tracing.Tracer()
            tr.install()
            traced = []
            try:
                while not traced or time.perf_counter() - start < seconds:
                    tr.begin_rep()
                    traced.append(runner.rep(tr))
                    tr.end_rep()
            finally:
                tr.uninstall()
            first = traced[0]
            metrics.update(tracing.layer_metrics(tr.reps, tr.absent))
            metrics["newton.runtime_warnings"] = (first.runtime_warnings, "count")
            metrics["io.bytes_written"] = (first.csv_bytes, "bytes")
            metrics["io.csv_identical"] = (first.csv_identical / first.csv_written if first.csv_written else 1.0,
                                           "frac")
            metrics["trace.overhead_frac"] = (statistics.median(r.wall for r in traced) / statistics.median(walls)
                                              - 1.0, "frac")
            metrics["fail_frac"] = (runner.failed / runner.attempted, "frac")
            if tr.absent:
                print(f"bench: absent boundaries: {', '.join(tr.absent)}", file=sys.stderr)
            if any(r["calls"] != tr.reps[0]["calls"] for r in tr.reps):
                print("bench: call counts differ between traced repetitions", file=sys.stderr)
            n = tr.write(trace_path or OUT / f"spans-{workload}-{seed}.npz")
            print(f"bench: {n} spans written", file=sys.stderr)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_package()
    sys.path.insert(0, str(BENCH_DIR))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **provenance()}))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     reference=load_reference(args.workload, args.seed))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
