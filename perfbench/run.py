"""gibbsratio benchmark: trial throughput and cost, end to end or layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload q8-tight --seed 1 --seconds 10 --trace 0

``--trace 0`` times closed-loop ``run_trials`` batches with tracing off and
reports the end-to-end metrics; ``--trace 1`` pairs each untraced batch with
a traced serial replay and reports the per-layer metrics.  Both modes gate
every trial, time set-up in fresh interpreters, print a full report as one
JSON line, and print the result object (the metrics named in
BENCHMARK.json, with their units) as the last line of stdout.  Reports and
spans are also written under ``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path
from statistics import median

import numpy as np
import scipy

from workloads import OUT_DIR, ROOT, WORKLOADS, Workload, experiment_config, use_checkout_source

SETUP_SAMPLES = 3
MIN_BATCHES = 2  # the repeat check needs two batches with one seed
PROBE = Path(__file__).resolve().parent / "setup_probe.py"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="master seed of every batch")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- correctness gate --------------------------------------------------------


def trial_ok(rec, est) -> bool:
    """Exact call accounting, (points + k) + (ell + 1) r, and a finite estimate."""
    expected = (rec.tpa_points + est.k) + (rec.schedule_len + 1) * est.r
    return rec.oracle_calls == expected and math.isfinite(rec.q_hat)


class Gate:
    """Counts trials and the ones failing the gate; collects batch-level problems."""

    def __init__(self, est, min_success_upper: float):
        self.est = est
        self.min_success_upper = min_success_upper
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, records, label: str) -> None:
        from gibbsratio.harness import wilson_interval

        bad = [rec.seed for rec in records if not trial_ok(rec, self.est)]
        self.attempted += len(records)
        self.failed += len(bad)
        if bad:
            self.problems.append(f"{label}: trials {bad[:10]} fail the accounting/finite gate")
        upper = wilson_interval(sum(rec.success for rec in records), len(records))[1]
        if upper < self.min_success_upper:
            self.problems.append(
                f"{label}: Wilson 95% upper bound on success {upper:.3f} "
                f"< {self.min_success_upper}"
            )

    def same_records(self, reference, records, what: str) -> None:
        """Deterministic record fields must match exactly; wall_time is excluded."""
        if [r.to_dict() for r in reference] != [r.to_dict() for r in records]:
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return not self.problems


# -- measurements ------------------------------------------------------------


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n samples beyond it."""
    return max(50, math.floor(100 * (1 - 10 / n)))


def percentile(values, p: float) -> float:
    return float(np.percentile(values, p))


def batch_metrics(records, wall: float) -> dict:
    times_ms = [rec.wall_time * 1e3 for rec in records]
    calls = sum(rec.oracle_calls for rec in records)
    return {
        "trials_per_s": len(records) / wall,
        "draws_per_s": calls / wall,
        "trial_ms_p50": percentile(times_ms, 50),
        "trial_ms_tail": percentile(times_ms, tail_percentile(len(records))),
        "calls_per_trial": calls / len(records),
    }


def timed_run_trials(cfg):
    from gibbsratio.harness import run_trials

    started = time.perf_counter()
    batch = run_trials(cfg)
    return batch, time.perf_counter() - started


def harness_metrics(batch, wall: float) -> dict:
    """Pool accounting of one batch: idle worker time and busy share."""
    busy = sum(rec.wall_time for rec in batch.records)
    capacity = batch.config.workers * wall
    return {
        "harness.overhead_ms": (capacity - busy) * 1e3,
        "harness.worker_busy_share": busy / capacity,
        "harness.worker_trial_ms_p50": percentile([r.wall_time * 1e3 for r in batch.records], 50),
    }


def setup_probes(cfg, samples: int) -> list[dict]:
    """Run the set-up probe in ``samples`` fresh interpreters, one after another."""
    fields = json.dumps(asdict(cfg))
    results = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, str(PROBE), fields],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return results


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process, plus the pool's: workers x the largest child's.

    The kernel keeps only the largest waited-for child's peak, so the pool
    term is an upper bound on the workers' sum.  Read before any set-up probe
    runs, so only pool workers are children by then.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        kib += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def run_end_to_end(cfg, gate: Gate, seconds: float, setup_samples: int) -> dict:
    batches = []
    deadline = time.perf_counter() + seconds
    while len(batches) < MIN_BATCHES or time.perf_counter() < deadline:
        batch, wall = timed_run_trials(cfg)
        gate.check(batch.records, f"batch {len(batches)}")
        if batches:
            gate.same_records(
                batches[0][0].records, batch.records,
                f"batch {len(batches)} records differ from batch 0 under one seed "
                "(nondeterminism)",
            )
        batches.append((batch, wall))
    per_batch = [batch_metrics(b.records, w) for b, w in batches]
    records = [rec for b, _ in batches for rec in b.records]
    run_wall = sum(w for _, w in batches)
    # Rates are taken over the whole run: the host's speed changes in plateaus
    # of a few seconds, and a time-weighted rate moves less between runs than
    # the median of per-batch rates.
    metrics = {
        "trials_per_s": len(records) / run_wall,
        "draws_per_s": sum(rec.oracle_calls for rec in records) / run_wall,
        **{n: median(m[n] for m in per_batch) for n in ("trial_ms_p50", "trial_ms_tail", "calls_per_trial")},
        "peak_rss_mb": peak_rss_mb(cfg.workers),
    }
    setup = setup_probes(cfg, setup_samples)
    metrics["setup_s"] = median(s["setup_ms"] for s in setup) * 1e-3
    return {
        "metrics": metrics,
        "batches": len(batches),
        "per_batch": per_batch,
        "tail_percentile": tail_percentile(cfg.trials),
        "tail_samples": cfg.trials,
        "setup": setup,
    }


def run_traced(cfg, gate: Gate, seconds: float, setup_samples: int, spans_path: Path) -> dict:
    from tracing import COUNT_METRICS, Tracer, median_rows, trial_rows, traced_batch, write_spans

    serial_cfg = replace(cfg, workers=1)
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_BATCHES or time.perf_counter() < deadline:
        label = f"round {len(rounds)}"
        batch, wall = timed_run_trials(cfg)
        gate.check(batch.records, f"{label} untraced")
        if cfg.workers > 1:
            serial, serial_wall = timed_run_trials(serial_cfg)
            gate.check(serial.records, f"{label} untraced serial")
            gate.same_records(batch.records, serial.records,
                              f"{label}: serial records differ from the pool's")
        else:
            serial, serial_wall = batch, wall
        tracer = Tracer()
        started = time.perf_counter()
        traced = traced_batch(serial_cfg, tracer)
        traced_wall = time.perf_counter() - started
        gate.check(traced, f"{label} traced")
        gate.same_records(batch.records, traced,
                          f"{label}: traced records differ from the untraced run; trace rejected")
        rows = trial_rows(tracer.spans)
        if rounds:
            gate.same_records(rounds[0]["batch"].records, batch.records,
                              f"{label}: records differ from round 0 under one seed (nondeterminism)")
            first = [[row[n] for n in COUNT_METRICS] for row in rounds[0]["rows"]]
            if first != [[row[n] for n in COUNT_METRICS] for row in rows]:
                gate.problems.append(f"{label}: per-trial counts differ from round 0 (nondeterminism)")
        rounds.append({
            "batch": batch, "wall": wall, "serial": serial, "serial_wall": serial_wall,
            "traced_wall": traced_wall, "rows": rows, "spans": tracer.spans,
        })

    metrics = median_rows([row for r in rounds for row in r["rows"]])
    per_round = [harness_metrics(r["batch"], r["wall"]) for r in rounds]
    for name in per_round[0]:
        metrics[name] = median(h[name] for h in per_round)
    metrics["harness.serial_trial_ms_p50"] = median(
        percentile([rec.wall_time * 1e3 for rec in r["serial"].records], 50) for r in rounds
    )
    metrics["bench.trace_overhead"] = (
        median(r["traced_wall"] for r in rounds) / median(r["serial_wall"] for r in rounds) - 1
    )
    setup = setup_probes(cfg, setup_samples)
    for metric, key in (
        ("setup.import_ms", "import_ms"),
        ("models.enumerate_ising.ms", "enumerate_ising_ms"),
        ("estimator.build_config.ms", "build_config_ms"),
        ("instance.log_ratio_true.ms", "log_ratio_true_ms"),
    ):
        metrics[metric] = median(s[key] for s in setup)
    write_spans(spans_path, [r["spans"] for r in rounds])
    return {
        "metrics": metrics,
        "batches": len(rounds),
        "walls": [
            {"untraced": r["wall"], "serial": r["serial_wall"], "traced": r["traced_wall"]}
            for r in rounds
        ],
        "spans": spans_path.name,
        "setup": setup,
    }


# -- report ------------------------------------------------------------------


def git_sha(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def instance_facts(cfg) -> tuple[dict, object]:
    from gibbsratio.harness import build_model_instance, resolve_estimator_config
    from gibbsratio.instance import log_ratio_true

    inst = build_model_instance(cfg)
    est = resolve_estimator_config(cfg, inst)
    return {
        "q_true": log_ratio_true(inst),
        "k": est.k,
        "r": est.r,
        "d": est.d,
        "m": est.m,
        "case": est.case,
        "support_size": inst.support_size,
        "tv_budget": cfg.tv_budget,
        "workers": cfg.workers,
        "trials_per_batch": cfg.trials,
    }, est


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def measure(workload: Workload, seed: int, seconds: float, trace: int, out_dir: Path = OUT_DIR,
            trials: int | None = None, setup_samples: int = SETUP_SAMPLES) -> tuple[dict, dict]:
    """Run one workload; returns (full report, result object)."""
    out_dir.mkdir(exist_ok=True)
    cfg = experiment_config(workload, seed, out_dir, trials=trials)
    facts, est = instance_facts(cfg)
    gate = Gate(est, workload.min_success_upper)
    stem = f"{workload.name}-seed{seed}-trace{trace}"
    if trace:
        body = run_traced(cfg, gate, seconds, setup_samples, out_dir / f"{stem}-spans.ndjson.gz")
    else:
        body = run_end_to_end(cfg, gate, seconds, setup_samples)
    metrics = {}
    for spec in declared_metrics(trace):
        value = body["metrics"].get(spec["name"])
        if value is None or not math.isfinite(value):
            gate.problems.append(f"metric {spec['name']} missing or not finite: {value}")
            continue
        metrics[spec["name"]] = {"value": float(value), "unit": spec["unit"]}
    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    report = {
        "workload": workload.name,
        "trace": trace,
        "environment": environment(seed),
        "instance": facts,
        "failed_share": gate.failed / max(gate.attempted, 1),
        "problems": gate.problems,
        **body,
        "result": result,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return report, result


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_source()
    import gibbsratio

    if Path(gibbsratio.__file__).resolve().parent.parent != ROOT / "src":
        raise SystemExit(f"perfbench: imported gibbsratio from {gibbsratio.__file__}")
    report, result = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    for name, metric in result["metrics"].items():
        print(f"{args.workload:>9} {name:<34} {metric['value']:>14.6g} {metric['unit']}",
              file=sys.stderr)
    if not args.trace:
        print(f"{args.workload:>9} trial_ms_p50 {report['metrics']['trial_ms_p50']:.6g} ms (not gated); "
              f"tail is p{report['tail_percentile']} of {report['tail_samples']} trials",
              file=sys.stderr)
    print(f"{args.workload:>9} failed_share {report['failed_share']:g} "
          f"({result['failed']}/{result['attempted']})", file=sys.stderr)
    for problem in report["problems"]:
        print(f"perfbench: GATE FAILED: {problem}", file=sys.stderr)
    report.pop("result")
    print(json.dumps(report, separators=(",", ":")))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
