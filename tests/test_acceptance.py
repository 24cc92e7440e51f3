"""Acceptance criteria: each test is one row (criterion, suite, elapsed bound, marks).

Every criterion is a suite of ``gibbsratio.claims.SUITES``, so ``gibbsratio
suite <name>`` runs it too; the suite pins its seeds, sample sizes and
tolerances, and the row pins its runtime budget.  Each control runs a claim
under a setting where it must fail, so the claim can tell a broken estimator.
Run with `pytest -s` to see each suite's report.  Criterion 11 and the
complexity sweep are marked slow (`-m "not slow"`); every seeded statistical
criterion and every control is marked statistical, so `-m "not statistical"`
runs the deterministic ones.
"""

import dataclasses
import functools
import math
import time

import pytest

from gibbsratio.claims import (
    ACCOUNTING_CONFIG,
    SuiteReport,
    call_accounting_checks,
    run_suite,
    sensitive_checks,
)
from gibbsratio.harness import run_trials
from gibbsratio.oracle import CORRUPTION_MODES


@functools.cache
def timed_report(suite: str) -> tuple[SuiteReport, float]:
    """``run_suite(suite)`` and its seconds, once a session: criteria 7 and 8 share a batch."""
    started = time.perf_counter()
    report = run_suite(suite)
    return report, time.perf_counter() - started


def passes(suite: str, within: float = math.inf) -> None:
    report, elapsed = timed_report(suite)
    assert report.passed, "\n".join(report.lines())
    assert elapsed < within
    print(*report.lines(), f"  ({elapsed:.2f}s)", sep="\n")


def fails(control: str, checks) -> None:
    """Every one of the claim's checks fails under the control."""
    report = SuiteReport(control, checks)
    assert checks and not any(check.passed for check in checks), "\n".join(report.lines())
    print(*report.lines(), sep="\n")


def test_criterion_01_deterministic_exactness():
    passes("criterion_01", within=1.0)


def test_criterion_02_tau_table_reproduction():
    passes("tau_table", within=1.0)


@pytest.mark.statistical
def test_criterion_03_closed_form_moment_equivalence():
    passes("criterion_03", within=5.0)


@pytest.mark.statistical
def test_criterion_04_poisson_count_law():
    passes("criterion_04", within=10.0)


@pytest.mark.statistical
def test_criterion_05_step_survival_identity():
    passes("criterion_05", within=10.0)


@pytest.mark.statistical
def test_criterion_06_schedule_quality_frequency():
    passes("criterion_06", within=120.0)


@pytest.mark.statistical
def test_criterion_07_end_to_end_success():
    passes("criterion_07_08", within=300.0)


@pytest.mark.statistical
def test_criterion_08_oracle_call_accounting():
    passes("criterion_07_08")


@pytest.mark.statistical
@pytest.mark.parametrize("mode", CORRUPTION_MODES)
def test_criterion_09_approximate_oracle_robustness(mode):
    passes(f"criterion_09_{mode}", within=300.0)


def test_criterion_10_lower_bound_instance_properties():
    passes("criterion_10", within=5.0)


@pytest.mark.slow
@pytest.mark.statistical
def test_criterion_11_median_boosting():
    passes("criterion_11", within=1500.0)


@pytest.mark.statistical
@pytest.mark.parametrize("model", ["ising", "lowerbound"])
def test_criterion_12_success_on_sensitive_instances(model):
    passes(f"criterion_12_{model}")


@pytest.mark.slow
@pytest.mark.statistical
def test_complexity_sweep_report():
    passes("complexity_sweep")


@pytest.mark.statistical
@pytest.mark.parametrize("model", ["ising", "lowerbound"])
def test_criterion_12_negative_control_below_the_rate(model):
    # m = 0.1 is below the admissible rate: the success rate falls below 0.75, no
    # schedule is good, and the claim reports the proof split as failed checks
    # rather than raising
    fails(f"criterion_12_{model} at m=0.1", sensitive_checks(model, m=0.1))


@pytest.mark.statistical
def test_criterion_08_control_k_off_by_one():
    # the accounting claim on the accounting suite's batch, against a config one TPA run off
    batch = run_trials(ACCOUNTING_CONFIG)
    est = batch.estimator_config
    wrong = dataclasses.replace(batch, estimator_config=dataclasses.replace(est, k=est.k + 1))
    fails("criterion_08 at k + 1", call_accounting_checks(wrong))
