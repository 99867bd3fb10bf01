from fractions import Fraction

import pytest

from bihsurf.core import (
    Check,
    DomainError,
    VerificationReport,
    isqrt_exact,
    rational_sqrt_exact,
    squarefree_decompose,
)


def test_rational_sqrt_perfect_square():
    assert rational_sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)


def test_rational_sqrt_irrational():
    assert rational_sqrt_exact(Fraction(2)) is None


def test_rational_sqrt_integer():
    # oracle: integer square roots of numerator and denominator separately
    assert isqrt_exact(576) == 24
    assert isqrt_exact(1) == 1
    assert rational_sqrt_exact(Fraction(576)) == 24


def test_rational_sqrt_zero_and_negative():
    assert rational_sqrt_exact(Fraction(0)) == 0
    with pytest.raises(DomainError):
        rational_sqrt_exact(Fraction(-1, 4))


def test_rational_sqrt_roundtrip_random(rng):
    for _ in range(200):
        a = int(rng.integers(1, 10**6))
        b = int(rng.integers(1, 10**6))
        q = Fraction(a, b) ** 2
        r = rational_sqrt_exact(q)
        assert r == Fraction(a, b)
        assert r * r == q


def test_rational_sqrt_rejects_non_squares(rng):
    for _ in range(200):
        a = int(rng.integers(2, 10**6))
        b = int(rng.integers(1, 10**6))
        q = Fraction(a, b)
        r = rational_sqrt_exact(q)
        if r is not None:
            assert r * r == q


def test_fraction_arithmetic_matches_integer_arithmetic(rng):
    for _ in range(300):
        a, c = (int(x) for x in rng.integers(-10**9, 10**9, 2))
        b, d = (int(x) for x in rng.integers(1, 10**9, 2))
        assert Fraction(a, b) + Fraction(c, d) == Fraction(a * d + c * b, b * d)


def test_squarefree_decompose(rng):
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(20) == (2, 5)
    assert squarefree_decompose(10) == (1, 10)
    for _ in range(100):
        n = int(rng.integers(1, 10**6))
        s, d = squarefree_decompose(n)
        assert s * s * d == n
        for p in range(2, 200):
            assert d % (p * p) != 0


def test_check_passed_iff_residual_within_tolerance():
    assert Check("x", 1e-10, 1e-9).passed
    assert not Check("x", 1e-8, 1e-9).passed
    assert not Check("x", float("nan"), 1e-9).passed  # non-finite never passes


def test_check_residuals_stay_json_safe():
    import json as _json

    for bad in (float("nan"), float("inf"), -float("nan")):
        c = Check("x", bad, 1e-9)
        assert not c.passed
        rep = VerificationReport((c,), 1)
        parsed = _json.loads(rep.to_json())
        assert parsed["checks"][0]["residual"] == 1e300


def test_report_json_shape():
    rep = VerificationReport((Check("a", 0.0, 1e-9),), 3)
    d = rep.to_dict()
    assert set(d) == {"checks", "samples"}
    assert d["samples"] == 3
    assert d["checks"][0] == {
        "name": "a",
        "residual": 0.0,
        "tolerance": 1e-9,
        "passed": True,
    }
