"""The traced run: one serial batch rebuilt from the library's public calls.

Spans are opened and closed by this file only, around calls into the public
functions of ``harness``, ``instance``, ``tpa``, ``estimator`` and the
oracle's sampling methods; nothing inside the library is patched.  Each span
is ``[name, start_ns, end_ns, parent, trial, count]``, kept in memory and
written out at the end of the run.  ``count`` is the work the call did:
draws for the oracle, points for ``tpa_multi``, intervals for
``thin_to_schedule`` and levels for ``paired_product``.

The traced batch re-composes ``estimate`` and the harness's per-trial step,
so its records must equal the untraced batch's field for field; the caller
rejects the trace when they do not.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from statistics import median

from gibbsratio.estimator import paired_product
from gibbsratio.harness import (
    TrialRecord,
    build_model_instance,
    resolve_estimator_config,
    trial_rng,
)
from gibbsratio.instance import log_ratio_true, schedule_delta
from gibbsratio.oracle import Corruption, SamplingOracle
from gibbsratio.tpa import thin_to_schedule, tpa_multi

NO_TRIAL = -1

# Per-trial counts that must repeat exactly for one seed.
COUNT_METRICS = (
    "oracle.sample_many.calls",
    "oracle.sample_many.draws",
    "oracle.sample_at.calls",
    "oracle.sample_at.draws",
    "tpa.waves",
    "tpa.points",
    "estimator.levels",
)


class Tracer:
    """An in-memory span recorder with an explicit stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.trial = NO_TRIAL
        self._open: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, 0, 0, parent, self.trial, 0])
        self._open.append(index)
        self.spans[index][1] = time.perf_counter_ns()
        return index

    def close(self, index: int, count: int = 0) -> None:
        end = time.perf_counter_ns()
        span = self.spans[index]
        span[2] = end
        span[5] = count
        self._open.pop()


class TracedOracle(SamplingOracle):
    """An exact or corrupted oracle whose sampling calls each record a span."""

    __slots__ = ("tracer",)

    def __init__(self, tracer: Tracer, instance, corruption=None):
        super().__init__(instance, corruption)
        self.tracer = tracer

    def sample_many(self, beta, size, rng):
        span = self.tracer.open("oracle.sample_many")
        h = super().sample_many(beta, size, rng)
        self.tracer.close(span, size)
        return h

    def sample_at(self, betas, rng):
        span = self.tracer.open("oracle.sample_at")
        h = super().sample_at(betas, rng)
        self.tracer.close(span, h.size)
        return h


def traced_batch(cfg, tracer: Tracer) -> list[TrialRecord]:
    """Run ``cfg``'s trials serially with spans; returns the trial records."""
    span = tracer.open("harness.build_model_instance")
    inst = build_model_instance(cfg)
    tracer.close(span)
    span = tracer.open("harness.resolve_estimator_config")
    est = resolve_estimator_config(cfg, inst)
    tracer.close(span)
    span = tracer.open("instance.log_ratio_true")
    q_true = log_ratio_true(inst)
    tracer.close(span)
    corruption = Corruption(cfg.tv_budget, cfg.corruption_mode) if cfg.tv_budget > 0 else None

    records = []
    for index in range(cfg.trials):
        tracer.trial = index
        rng = trial_rng(cfg.master_seed, index)
        oracle = TracedOracle(tracer, inst, corruption)
        trial = tracer.open("trial")
        span = tracer.open("tpa.tpa_multi")
        out = tpa_multi(oracle, est.k, rng)
        tracer.close(span, out.points.size)
        offset = int(rng.integers(1, est.d + 1))
        span = tracer.open("tpa.thin_to_schedule")
        sched = thin_to_schedule(out.points, est.d, offset, inst.beta_min, inst.beta_max)
        tracer.close(span, sched.ell)
        span = tracer.open("estimator.paired_product")
        result = paired_product(oracle, sched, est.r, rng)
        tracer.close(span, sched.ell + 1)
        tracer.close(trial)
        span = tracer.open("instance.schedule_delta")
        delta, _ = schedule_delta(inst, sched)
        tracer.close(span)
        t = tracer.spans[trial]
        records.append(
            TrialRecord(
                seed=index,
                q_true=q_true,
                q_hat=result.q_hat,
                success=bool(abs(result.q_hat - q_true) <= est.success_margin),
                oracle_calls=oracle.call_count,
                schedule_len=result.schedule_len,
                tpa_points=out.points.size,
                schedule_delta=delta,
                wall_time=(t[2] - t[1]) * 1e-9,
            )
        )
    tracer.trial = NO_TRIAL
    return records


def trial_rows(spans: list[list]) -> list[dict]:
    """Per-trial layer metrics, one dict per trial, from one batch's spans.

    A span's self time is its duration minus the durations of its children.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, trial, count in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = defaultdict(lambda: defaultdict(lambda: [0, 0, 0, 0]))  # n, ns, self_ns, count
    for i, (name, start, end, parent, trial, count) in enumerate(spans):
        if trial == NO_TRIAL:
            continue
        acc = totals[trial][name]
        acc[0] += 1
        acc[1] += end - start
        acc[2] += end - start - child_ns[i]
        acc[3] += count

    rows = []
    for trial in sorted(totals):
        t = totals[trial]
        many, at = t["oracle.sample_many"], t["oracle.sample_at"]
        tpa, thin, ppe = t["tpa.tpa_multi"], t["tpa.thin_to_schedule"], t["estimator.paired_product"]
        rows.append({
            "oracle.sample_many.calls": many[0],
            "oracle.sample_many.draws": many[3],
            "oracle.sample_many.self_ms": many[2] * 1e-6,
            "oracle.sample_many.ns_per_draw": many[1] / max(many[3], 1),
            "oracle.sample_at.calls": at[0],
            "oracle.sample_at.draws": at[3],
            "oracle.sample_at.self_ms": at[2] * 1e-6,
            "oracle.sample_at.ns_per_draw": at[1] / max(at[3], 1),
            "tpa.tpa_multi.self_ms": tpa[2] * 1e-6,
            "tpa.waves": at[0],
            "tpa.points": tpa[3],
            "tpa.thin_to_schedule.ms": thin[1] * 1e-6,
            # interior schedule levels per TPA point
            "tpa.kept_fraction": (thin[3] - 1) / max(tpa[3], 1),
            "estimator.paired_product.self_ms": ppe[2] * 1e-6,
            "estimator.levels": ppe[3],
            "instance.schedule_delta.ms": t["instance.schedule_delta"][1] * 1e-6,
            "bench.unattributed_ms": (t["trial"][1] - tpa[1] - thin[1] - ppe[1]) * 1e-6,
        })
    return rows


def median_rows(rows: list[dict]) -> dict:
    return {name: float(median(row[name] for row in rows)) for name in rows[0]}


def write_spans(path, batches: list[list[list]]) -> None:
    """Write every batch's spans as gzipped ndjson, one span per line."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps(["batch", "name", "start_ns", "end_ns", "parent", "trial", "count"]) + "\n")
        for batch, spans in enumerate(batches):
            for span in spans:
                fh.write(json.dumps([batch, *span]) + "\n")
