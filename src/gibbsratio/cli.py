"""Command-line surface: single estimates, trial batches, diagnostics, suites.

Records go to --out (default stdout) as ndjson or csv; human-readable
summaries go to stderr so machine output stays clean.  ``suite`` runs one
suite of ``gibbsratio.claims.SUITES``, one per acceptance criterion;
``lowerbound`` runs ``claims.lemma10_checks`` on one instance.  Each prints
one check report and exits 0 on pass and 2 on failure.  A model, estimator or
run flag left out takes its ``ExperimentConfig`` default, and the instance
decides the energy-range case.  Each model knob is checked by the code that
builds the model, and a knob the chosen model does not read is ignored.  Every
count (--d, --r, --trials, --workers, --seed, --boost, --colors, --n-factors,
--m-grid) is checked by the one rule ``instance.check_count``: an integer of
at least its least value, below 2^63 for --d and --r, and odd for --boost.  A
rejected run setting or estimator knob (an --eps that 1 + eps rounds away, a
--d or --r from 2^63, an m d that is not finite), a model that cannot be built
(a missing or malformed file, a knob or window the model rejects, too many
states to enumerate, a lowerbound size over its caps), an instance outside the
estimator's energy range (an energy inside (0, 1)), a batch over the work
budget (the floats its TPA points, its TPA and PPE runs, its trial records and
its boost repetitions would hold), and a ``tau`` --d or --rho out of range are
one-line usage errors (exit 2), raised before any output.  So are a negative
--seed, an --out that cannot be opened for writing and a --workers whose
processes, min(--workers, --trials), would take the batch over the work
budget; each is caught before the first trial and before any worker process
starts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from dataclasses import fields
from typing import NoReturn

from .claims import SUITES, TAU_RHO, TAU_TABLE, SuiteReport, lemma10_checks, run_suite
from .estimator import tau_rho
from .harness import (
    MODELS,
    ExperimentConfig,
    build_model_instance,
    resolve_estimator_config,
    run_trials,
    trial_rng,
    write_records,
)
from .instance import log_ratio_true, schedule_delta
from .lowerbound import build, build_from_grid
from .oracle import CORRUPTION_MODES, Corruption, SamplingOracle
from .tpa import generate_schedule


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("model", argument_default=argparse.SUPPRESS)
    group.add_argument("--model", choices=MODELS)
    group.add_argument("--q", dest="target_q", type=float, help="target log ratio (twolevel)")
    group.add_argument("--instance", dest="instance_path", help="instance JSON path (synthetic)")
    group.add_argument("--graph", dest="graph_path", help="edge list (ising/colorings/matchings)")
    group.add_argument("--colors", dest="kcolors", type=int, help="palette size (colorings)")
    group.add_argument("--n-factors", type=int, help="product terms (lowerbound)")
    group.add_argument("--m-grid", type=int, help="energy grid resolution (lowerbound)")
    group.add_argument("--beta-min", type=float)
    group.add_argument("--beta-max", type=float)


def _add_estimator_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("estimator", argument_default=argparse.SUPPRESS)
    group.add_argument("--eps", dest="epsilon", type=float, help="target relative accuracy")
    group.add_argument("--d", type=int, help="thinning stride")
    group.add_argument("--gamma", type=float)
    group.add_argument("--r", type=int, help="estimator runs per schedule")
    group.add_argument("--m", type=float, help="TPA rate per unit log ratio")
    group.add_argument("--lam", type=float, help="case II correction constant")


def _add_run_arguments(parser: argparse.ArgumentParser, *, batch: bool, records: bool) -> None:
    """Run flags; ``batch`` adds --trials/--workers, ``records`` the trial-record flags."""
    group = parser.add_argument_group("run", argument_default=argparse.SUPPRESS)
    if batch:
        group.add_argument("--trials", type=int)
    group.add_argument("--seed", dest="master_seed", type=int, help="master seed")
    group.add_argument("--tv-budget", type=float)
    group.add_argument("--corruption-mode", choices=CORRUPTION_MODES)
    if records:
        group.add_argument("--boost", dest="boost_t", type=int, help="odd median-boost factor")
    if batch:
        group.add_argument("--workers", type=int)
    group.add_argument("--out", default=None, help="record output path (default stdout)")
    if records:
        group.add_argument("--format", choices=["ndjson", "csv"], default="ndjson")
        group.add_argument("--timing", action="store_true", default=False, help="add wall_time")


def _experiment_config(args) -> ExperimentConfig:
    """The run's config, read from the flags named after its fields.

    A field whose flag was left out, or that has no flag on this subcommand,
    keeps its ``ExperimentConfig`` default; a setting the config rejects is a
    usage error (exit 2).
    """
    names = [f.name for f in fields(ExperimentConfig) if hasattr(args, f.name)]
    try:
        return ExperimentConfig(**{name: getattr(args, name) for name in names})
    except ValueError as exc:
        _usage_error(args, exc)


def _resolve(args, cfg: ExperimentConfig):
    """The run's instance and estimator config, built once before any trial.

    A model that cannot be built (no graph or instance path, a file that
    cannot be read or parsed, a knob or window its builder rejects, too many
    states to enumerate), an estimator knob that ``build_config`` rejects, an
    instance that ``detect_case`` rejects and a batch over the work budget are
    usage errors (exit 2).
    """
    try:
        inst = build_model_instance(cfg)
        return inst, resolve_estimator_config(cfg, inst)
    except (ValueError, OSError) as exc:
        _usage_error(args, exc)


def _usage_error(args, exc: Exception) -> NoReturn:
    print(f"gibbsratio {args.command}: error: {exc}", file=sys.stderr)
    raise SystemExit(2) from None


def _open_out(args):
    """The --out file opened for writing, or stdout, which the ``with`` leaves open.

    Commands open it before their first trial, so a path that cannot be
    written is a usage error (exit 2) before any work.
    """
    if args.out is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        _usage_error(args, exc)


def _cmd_trials(args) -> int:
    cfg = _experiment_config(args)
    started = time.perf_counter()
    resolved = _resolve(args, cfg)
    out = _open_out(args)
    batch = run_trials(cfg, resolved)
    elapsed = time.perf_counter() - started
    with out as stream:
        write_records(batch.records, stream, fmt=args.format, include_timing=args.timing)
    print(json.dumps(batch.summary, indent=2), file=sys.stderr)
    print(f"# elapsed {elapsed:.2f}s", file=sys.stderr)
    return 0


def _cmd_schedule(args) -> int:
    cfg = _experiment_config(args)
    inst, est_cfg = _resolve(args, cfg)
    out = _open_out(args)
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
    with out as stream:
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    return 0


def _cmd_tau(args) -> int:
    try:  # every row before any output, so a bad --d or --rho prints nothing
        rows = [(d, tau_rho(d, args.rho)) for d in args.d]
    except ValueError as exc:
        _usage_error(args, exc)
    print(f"# tau_rho at rho={args.rho:.6f}")
    for d, res in rows:
        print(f"d={d:<6d} tau_rho={res.value:.6f} argmin_tau={res.argmin_tau:.6f}")
    return 0


def _cmd_lowerbound(args) -> int:
    try:  # sizes the instance cannot take are usage errors (exit 2)
        if args.q_bar is not None:
            lb = build(args.q_bar, args.n, args.c2)
        else:
            lb = build_from_grid(args.n_factors, args.m_grid)
    except ValueError as exc:
        _usage_error(args, exc)
    header = f"lemma10 N={lb.n_factors} m={lb.m_grid}"
    return _print_report(SuiteReport(header, lemma10_checks(lb)))


def _cmd_suite(args) -> int:
    return _print_report(run_suite(args.name))


def _print_report(report) -> int:
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
    p_tau.add_argument("--rho", type=float, default=TAU_RHO)
    p_tau.set_defaults(func=_cmd_tau)

    p_lb = sub.add_parser("lowerbound", help="build and verify an adversarial instance")
    p_lb.add_argument("--n-factors", type=int, default=ExperimentConfig.n_factors)
    p_lb.add_argument("--m-grid", type=int, default=ExperimentConfig.m_grid)
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
