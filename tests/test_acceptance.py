"""Acceptance criteria: one row per criterion, each a suite of ``gibbsratio.claims.SUITES``.

Each criterion is one suite, criteria 7 and 8 sharing ``criterion_07_08``, so
``gibbsratio suite <name>`` runs it too; the suite pins its seeds, sample sizes
and tolerances, and its row in ``ACCEPTANCE`` pins its runtime budget and
marks.  A tier-1 test holds the table's suite column to ``SUITES``.  Each
control runs a claim under a setting where it must fail, so the claim can tell
a broken estimator.  Run with `pytest -s` to see each suite's report.
Criterion 11 and the complexity sweep are marked slow (`-m "not slow"`); every
seeded statistical criterion and every control is marked statistical, so
`-m "not statistical"` runs the deterministic ones.
"""

import dataclasses
import functools
import math
import time

import pytest

from gibbsratio.claims import (
    ACCOUNTING_CONFIG,
    SUITES,
    SuiteReport,
    call_accounting_checks,
    run_suite,
    sensitive_checks,
)
from gibbsratio.harness import run_trials
from gibbsratio.oracle import CORRUPTION_MODES

STAT, SLOW = pytest.mark.statistical, pytest.mark.slow

# test name -> its rows, each pytest.param(suite, seconds bound, marks, id); a test
# of more than one row is parametrized by their ids, so every test keeps its id
ACCEPTANCE = {
    "criterion_01_deterministic_exactness": [pytest.param("criterion_01", 1.0)],
    "criterion_02_tau_table_reproduction": [pytest.param("criterion_02", 1.0)],
    "criterion_03_closed_form_moment_equivalence": [pytest.param("criterion_03", 5.0, marks=STAT)],
    "criterion_04_poisson_count_law": [pytest.param("criterion_04", 10.0, marks=STAT)],
    "criterion_05_step_survival_identity": [pytest.param("criterion_05", 10.0, marks=STAT)],
    "criterion_06_schedule_quality_frequency": [pytest.param("criterion_06", 120.0, marks=STAT)],
    "criterion_07_end_to_end_success": [pytest.param("criterion_07_08", 300.0, marks=STAT)],
    "criterion_08_oracle_call_accounting": [pytest.param("criterion_07_08", math.inf, marks=STAT)],
    "criterion_09_approximate_oracle_robustness": [
        pytest.param(f"criterion_09_{mode}", 300.0, marks=STAT, id=mode) for mode in CORRUPTION_MODES
    ],
    "criterion_10_lower_bound_instance_properties": [pytest.param("criterion_10", 5.0)],
    "criterion_11_median_boosting": [pytest.param("criterion_11", 1500.0, marks=(SLOW, STAT))],
    "criterion_12_success_on_sensitive_instances": [
        pytest.param(f"criterion_12_{model}", math.inf, marks=STAT, id=model)
        for model in ("ising", "lowerbound")
    ],
    "complexity_sweep_report": [pytest.param("complexity_sweep", math.inf, marks=(SLOW, STAT))],
}


@functools.cache
def timed_report(suite: str) -> tuple[SuiteReport, float]:
    """``run_suite(suite)`` and its seconds, once a session: criteria 7 and 8 share a suite."""
    started = time.perf_counter()
    report = run_suite(suite)
    return report, time.perf_counter() - started


def passes(suite: str, within: float) -> None:
    report, elapsed = timed_report(suite)
    assert report.passed, "\n".join(report.lines())
    assert elapsed < within
    print(*report.lines(), f"  ({elapsed:.2f}s)", sep="\n")


def fails(control: str, checks) -> None:
    """Every one of the claim's checks fails under the control."""
    report = SuiteReport(control, checks)
    assert checks and not any(check.passed for check in checks), "\n".join(report.lines())
    print(*report.lines(), sep="\n")


def _acceptance_test(rows):
    """The test of one ``ACCEPTANCE`` name: plain for one row, else parametrized by them."""
    if len(rows) > 1:
        @pytest.mark.parametrize("suite,within", rows)
        def test(suite, within):
            passes(suite, within)

        return test
    suite, within = rows[0].values

    def test():
        passes(suite, within)

    return functools.reduce(lambda test, mark: mark(test), rows[0].marks, test)


globals().update({f"test_{name}": _acceptance_test(rows) for name, rows in ACCEPTANCE.items()})


def test_the_table_runs_every_suite():
    assert {row.values[0] for rows in ACCEPTANCE.values() for row in rows} == set(SUITES)


@pytest.mark.statistical
@pytest.mark.parametrize("model", ["ising", "lowerbound"])
def test_criterion_12_negative_control_below_the_rate(model):
    # m = 0.1 is below the admissible rate: the success rate falls below 0.75, no
    # schedule is good, and the claim reports the proof split as failed checks
    # rather than raising
    fails(f"criterion_12_{model} at m=0.1", sensitive_checks(model, m=0.1))


@pytest.mark.statistical
def test_criterion_08_control_k_off_by_one():
    # the accounting claim on criterion 8's batch on explicit knobs, against a config one
    # TPA run off
    batch = run_trials(ACCOUNTING_CONFIG)
    est = batch.estimator_config
    wrong = dataclasses.replace(batch, estimator_config=dataclasses.replace(est, k=est.k + 1))
    fails("criterion_08 at k + 1", call_accounting_checks(wrong))
