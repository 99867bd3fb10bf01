import time
from fractions import Fraction

import pytest

from bihsurf.core import (
    MAX_SQUAREFREE,
    Check,
    DomainError,
    VerificationReport,
    exact_rational,
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


def test_squarefree_decompose_refuses_past_the_cap_at_once():
    start = time.perf_counter()
    with pytest.raises(DomainError, match="n <= %d" % MAX_SQUAREFREE):
        squarefree_decompose(MAX_SQUAREFREE + 1)
    assert time.perf_counter() - start < 0.1
    # below the cap a composite with small factors still returns at once
    assert squarefree_decompose(2**54) == (2**27, 1)


@pytest.mark.parametrize(
    "call,exc,phrase",
    [
        (lambda: squarefree_decompose(0), DomainError, r"requires n > 0, got 0"),
        (lambda: squarefree_decompose(-12), DomainError, r"requires n > 0, got -12"),
        (lambda: exact_rational("1/0", "--h"), DomainError,
         r"--h must be a finite rational number, got '1/0'"),
        (lambda: exact_rational("pi", "q"), DomainError,
         r"q must be a finite rational number, got 'pi'"),
        (lambda: exact_rational(None, "h"), DomainError,
         r"h must be a finite rational number, got None"),
        (lambda: exact_rational(float("inf"), "h"), DomainError,
         r"h must be a finite rational number, got inf"),
        # refused before Fraction would build 10**exponent
        (lambda: exact_rational("1e999999999", "--h"), DomainError,
         r"--h must be a finite rational number, got '1e999999999'"),
        (lambda: exact_rational("5E-0010000", "h"), DomainError,
         r"h must be a finite rational number, got '5E-0010000'"),
        (lambda: rational_sqrt_exact(0.5), DomainError, r"q must be an int or a Fraction, got 0\.5"),
        (lambda: rational_sqrt_exact(True), DomainError, r"q must be an int or a Fraction, got True"),
    ],
    ids=["squarefree-zero", "squarefree-negative", "rational-zero-denominator", "rational-text",
         "rational-none", "rational-inf", "rational-huge-exponent", "rational-huge-negative-exponent",
         "rational-sqrt-float", "rational-sqrt-bool"],
)
def test_core_refusals_name_the_parameter(call, exc, phrase):
    with pytest.raises(exc, match=phrase) as info:
        call()
    assert type(info.value) is exc


def test_exact_rational_keeps_exponents_below_ten_thousand():
    assert exact_rational("1e-9999", "h") == Fraction(1, 10**9999)
    assert exact_rational("25e-2", "h") == Fraction(1, 4)


def test_exact_rational_returns_a_fraction_itself():
    q = Fraction(3, 7)
    assert exact_rational(q, "h") is q

    class Ratio(Fraction):
        pass

    # every other input is converted, a subclass of Fraction included
    for value, want in (("3/7", q), (" -3/7 ", -q), ("0.25", Fraction(1, 4)), (2, Fraction(2)),
                        (0.1, Fraction(3602879701896397, 36028797018963968)), (Ratio(3, 7), q)):
        got = exact_rational(value, "h")
        assert type(got) is Fraction and got == want, value


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


def test_report_check_of_an_unknown_name_raises_key_error():
    rep = VerificationReport((Check("a", 0.0, 1e-9),), 3)
    assert rep.check("a").name == "a"
    with pytest.raises(KeyError, match="bitension"):
        rep.check("bitension")
