"""Print a hash of the trial records of every benchmark workload.

    python tools/records.py [--seed 5] [--trials 20]

For each workload in ``perfbench/workloads.py`` it runs ``run_trials`` on the
workload's config at the given master seed and trial count, serially, and
prints the first 16 hex digits of a SHA-256 over
``json.dumps([r.to_dict() for r in records], sort_keys=True)``.  Records do
not depend on the number of workers, so two checkouts that print the same
hashes draw the same records.  One row outside the benchmark, ``q1000``
(twolevel q=1000, eps 0.5, always 2 trials), covers the oracle tables below
the floor: its floor, 401, lies inside its window [0, 1000.46], where every
benchmark workload's lies below beta_min.  The package is imported from this
checkout's ``src``; the Ising graph is written to a temporary directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS, Workload, experiment_config, use_checkout_source  # noqa: E402

BELOW_FLOOR = Workload("q1000", {"model": "twolevel", "target_q": 1000.0, "epsilon": 0.5}, trials=2)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=5, help="master seed (default 5)")
    parser.add_argument("--trials", type=int, default=20, help="trials per workload (default 20)")
    args = parser.parse_args(argv)
    use_checkout_source()
    from gibbsratio.harness import run_trials

    rows = [(workload, args.trials) for workload in WORKLOADS.values()] + [(BELOW_FLOOR, None)]
    with tempfile.TemporaryDirectory() as tmp:
        for workload, trials in rows:
            cfg = experiment_config(workload, args.seed, Path(tmp), trials=trials)
            records = run_trials(dataclasses.replace(cfg, workers=1)).records
            text = json.dumps([rec.to_dict() for rec in records], sort_keys=True)
            print(f"{workload.name:<10} {hashlib.sha256(text.encode('utf-8')).hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
