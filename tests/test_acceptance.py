"""Acceptance gate: every shipped guarantee, exact, with its runtime budget.

Each criterion prints one PASS/FAIL line (visible with `pytest -s`); the
assertions are exact integer equalities computed by the library against
independently enumerated answers, plus the stated wall-clock budgets.
"""

import pytest

from cohh.selftest import ACCEPTANCE_CHECKS, TIME_BUDGETS_SECONDS, run_selftest


@pytest.fixture(scope="module")
def results():
    out = {r.name: r for r in run_selftest()}
    assert set(out) == set(TIME_BUDGETS_SECONDS)
    return out


@pytest.mark.parametrize("name", [name for name, _ in ACCEPTANCE_CHECKS])
def test_criterion(results, name):
    res = results[name]
    print(f"{'PASS' if res.passed else 'FAIL'} {name}: {res.detail}")
    assert res.passed, f"{name}: {res.detail}"
    budget = TIME_BUDGETS_SECONDS[name]
    assert res.elapsed < budget, (
        f"{name} took {res.elapsed:.2f}s, budget {budget}s"
    )
