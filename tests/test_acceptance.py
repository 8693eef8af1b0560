"""Acceptance suite: one test per criterion, each delegating to the named
check so `pytest tests/test_acceptance.py` and `microburst check <name>`
exercise the same experiments.  Criterion 10 (workload) runs twenty
10-second simulations and dominates the suite's runtime (~3-4 minutes).
"""

import pytest

import microburst.checks as checks


def report(result):
    print()
    for line in result.lines:
        print(f"    {line}")
    status = "PASS" if result.passed else "FAIL"
    print(f"  criterion check {result.name}: {status}")
    assert result.passed, "\n".join(result.lines)


def test_criterion_01_law1_slope_equals_port_rate():
    report(checks.run_check("law1"))


def test_criterion_02_law2_slope_below_port_rate_with_background():
    report(checks.run_check("law2"))


def test_criterion_03_law3_hidden_buffer_bound():
    report(checks.run_check("law3"))


def test_criterion_04_threshold_marking_overshoot():
    report(checks.run_check("overshoot"))


def test_criterion_05_slope_marking_suppression():
    report(checks.run_check("suppression"))


def test_criterion_06_dctcp_with_slope_marking():
    report(checks.run_check("dctcp"))


def test_criterion_07_marking_equivalence_property():
    report(checks.run_check("equivalence"))


def test_criterion_08_utilization():
    report(checks.run_check("utilization"))


def test_criterion_09_incast_onset_ordering():
    report(checks.run_check("incast"))


def test_criterion_11_pacing_ineffective():
    report(checks.run_check("pacing"))


def test_criterion_12_determinism():
    report(checks.run_check("determinism"))


@pytest.mark.slow
def test_criterion_10_workload_improvement():
    report(checks.run_check("workload"))
