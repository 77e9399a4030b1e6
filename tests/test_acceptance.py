"""Acceptance gate: every exit criterion at its pinned tolerance.

Each declared criterion runs at its full corpus size and prints one
PASS/FAIL line; the assertions require zero failures, completion within
the criterion's runtime budget, and the check count and budget pinned
below, so a renumbered, resized or reordered criterion fails here.
"""

import pytest

from randlab.suites import CRITERIA

# criterion number: (checks at full size, budget in seconds)
PINNED = {
    1: (1500, 10),
    2: (100, 10),
    3: (1000, 60),
    4: (200, 60),
    5: (20, 5),
    6: (50, 120),
    7: (20, 120),
    8: (75, 60),
    9: (808, 30),
    10: (300, 30),
}


@pytest.mark.parametrize("crit", CRITERIA, ids=lambda c: f"criterion-{c.number:02d}")
def test_acceptance(crit):
    result = crit()
    name = f"criterion-{crit.number:02d}"
    print(f"{name}: {result.line()}")
    assert result.failures == 0, f"{name}: {result.failures} failed checks"
    assert result.passed
    assert (result.checks, crit.budget_seconds) == PINNED[crit.number]
    assert result.elapsed < crit.budget_seconds, (
        f"{name}: {result.elapsed:.2f}s over the {crit.budget_seconds}s budget"
    )
