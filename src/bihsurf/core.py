"""Shared scalar/rational types, exact square roots and verification reports."""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

GEOMETRIC_TOL = 1e-9


class DomainError(ValueError):
    """A parameter lies outside the domain an operation is defined on."""


class ExactnessError(ValueError):
    """Exact rational data was required but not available."""


def exact_rational(value, name: str) -> Fraction:
    """value as a Fraction; NaN, infinities, non-numbers and text with a
    decimal exponent of 10^4 or more raise a DomainError that names the
    parameter. A Fraction comes back as the same object: it is immutable,
    so a copy buys nothing."""
    if type(value) is Fraction:
        return value
    try:
        # Fraction would build 10**exponent first: 2.2 s at "1e4000000"
        if isinstance(value, str) and re.search(r"[eE][-+]?0*[1-9][\d_]{4,}", value):
            raise ValueError("decimal exponent of 10^4 or more")
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise DomainError("%s must be a finite rational number, got %r" % (name, value)) from exc


def _is_real(value) -> bool:
    """A real number (int, float, Fraction, numpy scalar), but not a bool."""
    if isinstance(value, float) or type(value) is int:  # np.float64 is a float
        return True
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _shown(value) -> str:
    """repr of a refused value for its message; an int of over 64 bits shows
    its bit length (repr refuses 4300 digits, and 30 are hard to read)."""
    if isinstance(value, int) and value.bit_length() > 64:
        return "an integer of %d bits" % value.bit_length()
    return repr(value)


def _is_int(value) -> bool:
    """An integer (int, numpy integer), but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def isqrt_exact(n: int) -> Optional[int]:
    """Integer square root of n if n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def rational_sqrt_exact(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None if irrational.

    A reduced fraction p/q is a rational square iff p and q are both
    perfect squares.
    """
    if q < 0:
        raise DomainError("rational_sqrt_exact requires q >= 0, got %s" % q)
    num = isqrt_exact(q.numerator)
    if num is None:
        return None
    den = isqrt_exact(q.denominator)
    if den is None:
        return None
    return Fraction(num, den)


# Largest n `squarefree_decompose` factors. Trial division runs up to sqrt(n)
# when n is prime: 10.6 s at the prime 10^16 + 61 on a 2-core VM, so about
# 21 s at this cap.
MAX_SQUAREFREE = 4 * 10**16


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n > 0 as s^2 * d with d squarefree; returns (s, d).

    Trial division; n over MAX_SQUAREFREE is refused before it starts.
    """
    if n <= 0:
        raise DomainError("squarefree_decompose requires n > 0, got %d" % n)
    if n > MAX_SQUAREFREE:
        raise DomainError(
            "squarefree_decompose requires n <= %d (trial division), got %d" % (MAX_SQUAREFREE, n)
        )
    s, d = 1, 1
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            s *= p ** (k // 2)
            if k % 2:
                d *= p
        p += 1 if p == 2 else 2
    return s, d * m


# non-finite residuals are capped to a finite sentinel so reports stay valid
# JSON; the value fails every sane tolerance
_RESIDUAL_CAP = 1e300


def _finite(x: float) -> float:
    x = float(x)
    return x if math.isfinite(x) and x < _RESIDUAL_CAP else _RESIDUAL_CAP


@dataclass(frozen=True)
class Check:
    """One named residual measured against a tolerance."""

    name: str
    residual: float
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "residual", _finite(self.residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class VerificationReport:
    """Pass/fail summary of a batch of checks over sample_count points."""

    checks: tuple[Check, ...]
    sample_count: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "checks": [
                {
                    "name": c.name,
                    "residual": c.residual,
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
            "samples": self.sample_count,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)
