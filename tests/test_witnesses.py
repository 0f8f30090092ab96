"""Defect witnesses: each test puts one named defect into the code a check
certifies, never into the check, and requires the check to fail.  A gate
that passes under its witness cannot see the defect it names.
"""

from __future__ import annotations

from fractions import Fraction

from staircase_tableaux import checks, stats
from staircase_tableaux.checks import verify_suite


def test_moment_check_sees_a_wrong_closed_form(monkeypatch):
    # An H_n off by 1/7 must fail c04's closed-form leg.  The defect goes
    # wherever the package binds `harmonic_pair`, so a check that derives
    # its expected value from it sees the same error and cannot catch it.
    true_pair = stats.harmonic_pair

    def wrong_pair(n):
        h1, h2 = true_pair(n)
        return h1 + Fraction(1, 7), h2

    for module in (stats, checks):
        if hasattr(module, "harmonic_pair"):
            monkeypatch.setattr(module, "harmonic_pair", wrong_pair)
    (res,) = verify_suite(6, names=["r-moments"])
    assert res.passed is False
    assert ("r-closed", 1) in res.measured["failures"]
