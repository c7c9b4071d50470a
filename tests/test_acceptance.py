"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines, or via
the CLI as `gcipw verify-all`.
"""

import functools

import pytest

from gcipw.verify import CHECKS

SEED = 20240801


@functools.cache
def run(check_id):
    return CHECKS[check_id](SEED)


@pytest.mark.parametrize("check_id", sorted(CHECKS))
def test_criterion(check_id):
    result = run(check_id)
    status = "PASS" if result["passed"] else "FAIL"
    print(f"\n{check_id}: {status} ({result['elapsed']:.1f}s)  {result['detail']}")
    assert result["passed"], result["detail"]


def test_symmetrizability_covers_eight_points():
    # c08 fits both composites at n = 3 and n = 4 (eight points)
    detail = run("c08_symmetrizability")["detail"]
    for n in (3, 4):
        assert f"n={n} weyl ratio=2" in detail and f"n={n} scalar ratio=1" in detail
