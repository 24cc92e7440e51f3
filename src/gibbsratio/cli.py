"""Command-line surface: single estimates, trial batches, diagnostics, suites.

Records go to --out (default stdout) as ndjson or csv; human-readable
summaries go to stderr so machine output stays clean.  Suites exit 0 on pass
and 2 on failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields

from .estimator import tau_rho
from .harness import (
    MODELS,
    SUITES,
    TAU_TABLE,
    ExperimentConfig,
    build_model_instance,
    resolve_estimator_config,
    run_suite,
    run_trials,
    trial_rng,
    write_records,
)
from .instance import log_ratio_true, schedule_delta
from .lowerbound import build, build_from_grid, verify_lemma10
from .oracle import CORRUPTION_MODES, Corruption, SamplingOracle
from .tpa import generate_schedule


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("model")
    group.add_argument("--model", choices=MODELS, default="twolevel")
    group.add_argument(
        "--q", dest="target_q", type=float, default=8.0, help="target log ratio (twolevel)"
    )
    group.add_argument("--instance", dest="instance_path", help="instance JSON path (synthetic)")
    group.add_argument(
        "--graph", dest="graph_path", help="edge-list path (ising/colorings/matchings)"
    )
    group.add_argument(
        "--colors", dest="kcolors", type=int, default=3, help="palette size (colorings)"
    )
    group.add_argument("--n-factors", type=int, default=16, help="product terms (lowerbound)")
    group.add_argument("--m-grid", type=int, default=2, help="energy grid resolution (lowerbound)")
    group.add_argument("--beta-min", type=float, default=None)
    group.add_argument("--beta-max", type=float, default=None)


def _add_estimator_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("estimator")
    group.add_argument(
        "--eps", dest="epsilon", type=float, default=0.5, help="target relative accuracy"
    )
    group.add_argument("--case", choices=["auto", "I", "II"], default="auto")
    group.add_argument("--d", type=int, default=None, help="thinning stride")
    group.add_argument("--gamma", type=float, default=None)
    group.add_argument("--r", type=int, default=None, help="estimator runs per schedule")
    group.add_argument("--m", type=float, default=None, help="TPA rate per unit log ratio")
    group.add_argument("--lam", type=float, default=None, help="case II correction constant")


def _add_run_arguments(parser: argparse.ArgumentParser, *, batch: bool, records: bool) -> None:
    """Run flags; ``batch`` adds --trials/--workers, ``records`` the trial-record flags."""
    group = parser.add_argument_group("run")
    if batch:
        group.add_argument("--trials", type=int, default=100)
    group.add_argument("--seed", dest="master_seed", type=int, default=0, help="master seed")
    group.add_argument("--tv-budget", type=float, default=0.0)
    group.add_argument("--corruption-mode", choices=CORRUPTION_MODES, default="uniform")
    if records:
        group.add_argument(
            "--boost", dest="boost_t", type=int, default=None, help="odd median-boost factor"
        )
    if batch:
        group.add_argument("--workers", type=int, default=1)
    group.add_argument("--out", default=None, help="record output path (default stdout)")
    if records:
        group.add_argument("--format", choices=["ndjson", "csv"], default="ndjson")
        group.add_argument("--timing", action="store_true", help="include wall_time in records")


def _experiment_config(args) -> ExperimentConfig:
    """The run's config, read from the flags named after its fields.

    A field without a flag on this subcommand keeps its default; a setting
    the config rejects is a usage error (exit 2).
    """
    names = [f.name for f in fields(ExperimentConfig) if hasattr(args, f.name)]
    try:
        return ExperimentConfig(**{name: getattr(args, name) for name in names})
    except ValueError as exc:
        print(f"gibbsratio {args.command}: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _open_out(args):
    if args.out is None:
        return sys.stdout, False
    return open(args.out, "w", encoding="utf-8"), True


def _cmd_trials(args) -> int:
    cfg = _experiment_config(args)
    started = time.perf_counter()
    batch = run_trials(cfg)
    elapsed = time.perf_counter() - started
    stream, owned = _open_out(args)
    try:
        write_records(batch.records, stream, fmt=args.format, include_timing=args.timing)
    finally:
        if owned:
            stream.close()
    print(json.dumps(batch.summary, indent=2), file=sys.stderr)
    print(f"# elapsed {elapsed:.2f}s", file=sys.stderr)
    return 0


def _cmd_schedule(args) -> int:
    cfg = _experiment_config(args)
    inst = build_model_instance(cfg)
    est_cfg = resolve_estimator_config(cfg, inst)
    rng = trial_rng(cfg.master_seed, 0)
    oracle = SamplingOracle(inst, Corruption(cfg.tv_budget, cfg.corruption_mode))
    sched, _ = generate_schedule(oracle, est_cfg.k, est_cfg.d, rng)
    delta, per_interval = schedule_delta(inst, sched)
    payload = {
        "q_true": log_ratio_true(inst),
        "k": est_cfg.k,
        "d": est_cfg.d,
        "ell": sched.ell,
        "oracle_calls": oracle.call_count,
        "delta": delta,
        "delta_threshold": est_cfg.delta_threshold,
        "good": bool(delta <= est_cfg.delta_threshold),
        "per_interval_delta": per_interval.tolist(),
        "betas": sched.to_list(),
    }
    stream, owned = _open_out(args)
    try:
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    finally:
        if owned:
            stream.close()
    return 0


def _cmd_tau(args) -> int:
    print(f"# tau_rho at rho={args.rho:.6f}")
    for d in args.d:
        res = tau_rho(d, args.rho)
        print(f"d={d:<6d} tau_rho={res.value:.6f} argmin_tau={res.argmin_tau:.6f}")
    return 0


def _cmd_lowerbound(args) -> int:
    if args.q_bar is not None:
        lb = build(args.q_bar, args.n, args.c2)
    else:
        lb = build_from_grid(args.n_factors, args.m_grid)
    report = verify_lemma10(lb)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 2


def _cmd_suite(args) -> int:
    report = run_suite(args.name)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbsratio",
        description="Estimate log partition-function ratios of Gibbs energy models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_estimate = sub.add_parser("estimate", help="single pipeline run")
    _add_model_arguments(p_estimate)
    _add_estimator_arguments(p_estimate)
    _add_run_arguments(p_estimate, batch=False, records=True)
    p_estimate.set_defaults(func=_cmd_trials, trials=1)

    p_trials = sub.add_parser("trials", help="seeded trial batch with summary")
    _add_model_arguments(p_trials)
    _add_estimator_arguments(p_trials)
    _add_run_arguments(p_trials, batch=True, records=True)
    p_trials.set_defaults(func=_cmd_trials)

    p_schedule = sub.add_parser("schedule", help="emit one schedule with diagnostics")
    _add_model_arguments(p_schedule)
    _add_estimator_arguments(p_schedule)
    _add_run_arguments(p_schedule, batch=False, records=False)
    p_schedule.set_defaults(func=_cmd_schedule)

    p_tau = sub.add_parser("tau", help="print schedule-quality constants")
    p_tau.add_argument("--d", type=int, nargs="+", default=list(TAU_TABLE))
    p_tau.add_argument("--rho", type=float, default=75.0 / 76.0)
    p_tau.set_defaults(func=_cmd_tau)

    p_lb = sub.add_parser("lowerbound", help="build and verify an adversarial instance")
    p_lb.add_argument("--n-factors", type=int, default=16)
    p_lb.add_argument("--m-grid", type=int, default=2)
    p_lb.add_argument("--q-bar", type=float, default=None, help="size from a target log ratio")
    p_lb.add_argument("--n", type=int, default=12, help="energy range cap (with --q-bar)")
    p_lb.add_argument("--c2", type=float, default=1.8, help="grid coefficient (with --q-bar)")
    p_lb.set_defaults(func=_cmd_lowerbound)

    p_suite = sub.add_parser("suite", help="run a pinned acceptance suite")
    p_suite.add_argument("name", choices=SUITES)
    p_suite.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
