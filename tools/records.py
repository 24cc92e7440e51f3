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
benchmark workload's lies below beta_min.  Another, ``q8-split`` (twolevel
q=8, eps 0.01, always 2 trials), draws r = 81,204 per PPE level, more than
one kernel piece of 32,768 two-level draws, so each level's row is cut into
three pieces.  The package is imported from this checkout's ``src``; the
Ising graph is written to a temporary directory.

A second column hashes the same config run through the command line,
``main(["trials", ...])``, from the ndjson it writes; it must equal the first.
Each config field that is set is passed by the ``trials`` flag whose dest is
that field (floats as ``repr``), so a field with no flag stops the tool.
``replay`` yields both record lists of every row; ``tests/test_records.py``
runs it at 2 trials and pins each record's integer counts.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS, Workload, experiment_config, use_checkout_source  # noqa: E402

BELOW_FLOOR = Workload("q1000", {"model": "twolevel", "target_q": 1000.0, "epsilon": 0.5}, trials=2)
SPLIT_ROWS = Workload("q8-split", {"model": "twolevel", "target_q": 8.0, "epsilon": 0.01}, trials=2)


def _digest(dicts: list[dict]) -> str:
    text = json.dumps(dicts, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _trials_flags(cfg) -> list[str]:
    """The ``trials`` flags that give ``cfg``, one per field that is set."""
    from gibbsratio.cli import build_parser

    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a.option_strings[0] for a in commands.choices["trials"]._actions}
    argv = []
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        if value is None:
            continue
        if field.name not in flags:
            raise SystemExit(f"records: the trials command has no flag for {field.name}")
        argv += [flags[field.name], repr(value) if isinstance(value, float) else str(value)]
    return argv


def _cli_records(cfg, out: Path) -> list[dict]:
    from gibbsratio.cli import main

    with contextlib.redirect_stderr(io.StringIO()):
        main(["trials", *_trials_flags(cfg), "--out", str(out)])
    return [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]


def replay(seed: int, trials: int):
    """Yield (name, API record dicts, CLI record dicts) for each row, run serially."""
    use_checkout_source()
    from gibbsratio.harness import run_trials

    rows = [(workload, trials) for workload in WORKLOADS.values()]
    rows += [(BELOW_FLOOR, None), (SPLIT_ROWS, None)]
    with tempfile.TemporaryDirectory() as tmp:
        for workload, row_trials in rows:
            cfg = experiment_config(workload, seed, Path(tmp), trials=row_trials)
            cfg = dataclasses.replace(cfg, workers=1)
            api = [rec.to_dict() for rec in run_trials(cfg).records]
            yield workload.name, api, _cli_records(cfg, Path(tmp) / "records.ndjson")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=5, help="master seed (default 5)")
    parser.add_argument("--trials", type=int, default=20, help="trials per workload (default 20)")
    args = parser.parse_args(argv)
    for name, api, cli in replay(args.seed, args.trials):
        print(f"{name:<10} {_digest(api)} {_digest(cli)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
