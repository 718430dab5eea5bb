"""Record the reference summaries the benchmark checks shipped seeds against.

    python3 bench/record_reference.py

Runs one repetition of every workload for each seed in ``SHIPPED_SEEDS``
with the checks that hold for all seeds, and writes each operation's summary
and the SHA-256 of each CSV it wrote to ``bench/reference.json``. Record only
at a commit whose outputs are known to be right.
"""

import json
import shutil

import run

SHIPPED_SEEDS = range(10)


def main():
    run._import_package()
    reference = {}
    for workload in run.WORKLOAD_NAMES:
        for seed in SHIPPED_SEEDS:
            out_dir = run.OUT / f"record-{workload}-{seed}"
            runner = run.Runner(workload, seed, "full", None, str(out_dir))
            runner.rep()
            shutil.rmtree(out_dir)
            if runner.failed:
                raise SystemExit(f"{workload} seed {seed}: {runner.failed} operations failed; not recording")
            reference.setdefault(workload, {})[str(seed)] = {"ops": runner.last_summaries,
                                                             "csv": runner.last_digests}
            print(f"recorded {workload} seed {seed}", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
