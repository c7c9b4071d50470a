"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines, or via
the CLI as `gcipw verify-all`.
"""

import functools
import random
import types
from fractions import Fraction

import pytest

from gcipw import freefield, kinematics, verify
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


# -- the runner ------------------------------------------------------------------

BUDGETS = {
    "c01_structure_constants": 60,
    "c02_harmonicity": 10,
    "c03_eigenfunction": 5,
    "c09_thermal_series": 30,
    "c10_modular_numerics": 10,
}


@pytest.fixture
def clock(monkeypatch):
    """Make every timed check take `clock.elapsed` seconds, as verify sees it."""
    fake = types.SimpleNamespace(elapsed=0.0, started=False)

    def perf_counter():  # the runner reads the clock at the start and the end
        fake.started = not fake.started
        return 0.0 if fake.started else fake.elapsed

    monkeypatch.setattr(verify, "time", types.SimpleNamespace(perf_counter=perf_counter))
    return fake


@pytest.mark.parametrize("check_id", sorted(BUDGETS))
def test_budget_fails_the_check_at_its_limit(check_id, clock):
    budget = BUDGETS[check_id]
    clock.elapsed = budget - 1e-6
    below = CHECKS[check_id](SEED)
    assert below["passed"] and below["elapsed"] == budget - 1e-6
    clock.elapsed = budget
    at = CHECKS[check_id](SEED)
    assert not at["passed"] and at["detail"] == run(check_id)["detail"]


def test_checks_without_budget_never_fail_on_time(clock):
    clock.elapsed = 1e9
    for check_id in sorted(set(CHECKS) - set(BUDGETS)):
        result = CHECKS[check_id](SEED)
        assert result["passed"] and result["elapsed"] == 1e9, check_id


@pytest.mark.parametrize("check_id", sorted(CHECKS))
def test_result_format(check_id):
    result = run(check_id)
    assert result["id"] == check_id
    keys = {"id", "passed", "detail", "elapsed"}
    if check_id in ("c10_modular_numerics", "c11_gibbs", "c12_kernel"):
        keys.add("residuals")
        assert result["residuals"] and all(type(r) is float for r in result["residuals"])
    assert set(result) == keys


def test_a_check_that_raises_fails(monkeypatch):
    # the runner turns an exception from the body into a failed result
    from gcipw import fourpoint

    def broken(nu):
        raise fourpoint.BasisIdentityError(f"symmetrization of t^3 j_{nu} is not J_{nu}")

    monkeypatch.setattr(fourpoint, "eigen_check", broken)
    result = CHECKS["c03_eigenfunction"](SEED)
    assert result["passed"] is False
    # the message, then the innermost frame, where the exception was raised
    line = broken.__code__.co_firstlineno + 1
    assert result["detail"] == (
        "BasisIdentityError: symmetrization of t^3 j_0 is not J_0"
        f" (at test_acceptance.py:{line} in broken)"
    )
    assert type(result["elapsed"]) is float and result["elapsed"] >= 0
    assert set(result) == {"id", "passed", "detail", "elapsed"}


def test_rank_is_exact_on_int_rows():
    # c04's rows are int coefficients; a float quotient would leave a
    # rounding residue in the third row and report rank 3
    r1, r2 = [-5, 9, -7, -1], [-6, 6, 5, 6]
    r3 = [3 * x - 4 * y for x, y in zip(r1, r2)]
    assert verify._rank([r1, r2, r3]) == 2
    assert verify._rank([r1, r2, [x + (i == 3) for i, x in enumerate(r3)]]) == 3
    assert verify._rank([[Fraction(1, 3), 2], [1, 6]]) == 1


def test_braces_is_the_pfaffian():
    # c06's displayed 6-point braces is the Pfaffian of A_ij = rho_ij along
    # 0..5 (its Laplace expansion on row 0) over the squared link poles
    rng = random.Random(3)
    wick = freefield.wick_numerator(3)
    for _ in range(5):
        cfg = kinematics.random_config(rng, 6)
        poles = cfg.rho(0, 5) * cfg.rho(1, 2) * cfg.rho(3, 4)
        assert verify._w_sixpoint_braces(cfg) * poles**2 == wick.eval(freefield.rho_point(cfg))


def test_crossing_count_is_checked_independently(monkeypatch):
    # c04 counts the S3 orbits itself, so a wrong dimension formula at a
    # d that no constant pins down fails the check
    from gcipw import fourpoint

    monkeypatch.setattr(fourpoint, "crossing_dimension", lambda d: d * d // 3 + (d == 7))
    assert not CHECKS["c04_crossing"](SEED)["passed"]


def test_crossing_is_checked_against_the_definition(monkeypatch):
    # c04 evaluates the substitution definitions of s12 and s23 itself, so
    # a crossing_check that accepts a non-symmetric P4 fails the check
    from gcipw import fourpoint

    monkeypatch.setattr(fourpoint, "crossing_check", lambda poly, d: poly != fourpoint.S)
    monkeypatch.setattr(fourpoint, "assemble_P4", lambda p: fourpoint.S * fourpoint.T)
    result = CHECKS["c04_crossing"](SEED)
    assert not result["passed"]
    assert "substitution oracle: 18/48" in result["detail"]  # only J0-J2 hold
