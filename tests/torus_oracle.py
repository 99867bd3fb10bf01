"""Reference torus constructions and searches in Fraction arithmetic.

`TorusParams`, `torus_case_i` and `torus_case_ii` are the constructions as
the library had them before they were cleared to integers: Fraction chains
for (a, b, h, s), for the case-i mean curvature and rows, and for the
radicands of the case-ii generators. `fraction_torus_exists` is the (p, q)
scan in Fraction arithmetic, with the case-i test as a `rational_sqrt_exact`
of (1+h)/(1-h), and `brute_torus_exists` scans every (p, q, r, t). Both
searches build their verdicts with this module's constructions. The
library's integer routes are tested against all of them.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from bihsurf.core import DomainError, exact_rational, rational_sqrt_exact, squarefree_decompose
from bihsurf.immersion import _is_int
from bihsurf.parameters import t_of_s
from bihsurf.periodicity import (
    CaseIIResult,
    CaseIResult,
    ExactBasis,
    Lattice2,
    TorusVerdict,
    _kernel_basis,
    _reduced_pair,
)


@dataclass(frozen=True)
class TorusParams:
    """(a, b) = (p^2/q^2, r^2/t^2), h = (1-(a-b)^2)/(1+(a-b)^2+2(a+b)) and
    s = (1+a-b)/2, each from Fraction operations."""

    p: int
    q: int
    r: int
    t: int
    a: Fraction = field(init=False)
    b: Fraction = field(init=False)
    h: Fraction = field(init=False)
    s: Fraction = field(init=False)

    def __post_init__(self):
        for name in ("p", "q", "r", "t"):
            v = getattr(self, name)
            if not _is_int(v) or v < 1:
                raise DomainError("%s must be a positive integer, got %r" % (name, v))
            object.__setattr__(self, name, int(v))
        a = Fraction(self.p * self.p, self.q * self.q)
        b = Fraction(self.r * self.r, self.t * self.t)
        if (a - b) ** 2 >= 1:
            raise DomainError("(a-b)^2 must be < 1, got a=%s b=%s" % (a, b))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "h", (1 - (a - b) ** 2) / (1 + (a - b) ** 2 + 2 * (a + b)))
        object.__setattr__(self, "s", (1 + a - b) / 2)


def torus_case_i(q) -> CaseIResult:
    """h = (q^2-1)/(q^2+1) and the rows (s/num, 0), (0, s) over the surd of
    num^2 + den^2 = s^2 d, in Fractions; floats from `ExactBasis.float_rows`."""
    q = exact_rational(q, "q")
    if q <= 1:
        raise DomainError("q must be a rational strictly greater than 1")
    h = (q**2 - 1) / (q**2 + 1)
    num, den = q.numerator, q.denominator
    s, d = squarefree_decompose(num * num + den * den)
    rows = ((Fraction(s, num), Fraction(0)), (Fraction(0), Fraction(s)))
    return CaseIResult(h=h, q=q, lattice=ExactBasis(rows, d).lattice())


def torus_case_ii(p: int, q: int, r: int, t: int) -> CaseIIResult:
    """Case-ii member with every float radicand taken from a Fraction."""
    params = TorusParams(p, q, r, t)
    p, q, r, t = params.p, params.q, params.r, params.t
    a, b, h, s = params.a, params.b, params.h, params.s
    e = (a - b) ** 2 + a + b
    f_ = (a - b) ** 2 + 2 * (a + b) + 1
    v1 = (math.pi * math.sqrt(float(e / a)), 0.0)
    v2 = (
        -math.pi * math.sqrt(float(b / a)) * float(1 - (a - b)) / math.sqrt(float(e)),
        math.pi * math.sqrt(float(f_ / e)),
    )
    rho = 2.0 * math.atan(t_of_s(float(h), float(s)))
    cond = "m*%d/%d - n*%d/%d in Z" % (q, p, q * r, p * t)
    sub = (
        (p * v2[0], p * v2[1]),
        (p * t * v1[0], p * t * v1[1]),
    )
    (m_a, n_a), (m_b, n_b) = _kernel_basis(q * t, -q * r, p * t)
    w1 = np.array([m_a * v2[0] + n_a * v1[0], m_a * v2[1] + n_a * v1[1]])
    w2 = np.array([m_b * v2[0] + n_b * v1[0], m_b * v2[1] + n_b * v1[1]])
    g1, g2 = _reduced_pair(w1, w2)
    return CaseIIResult(
        params=params,
        v1=v1,
        v2=v2,
        rho=rho,
        lattice_condition=cond,
        sublattice=sub,
        lattice=Lattice2(rank=2, gens=(g1, g2)),
    )


def fraction_torus_exists(h, search_bound: int = 20) -> TorusVerdict:
    """Decide torus existence at exact rational mean curvature h.

    Case i is decided exactly via the rational square test on (1+h)/(1-h).
    Case ii solves for (r, t) at each p, q <= search_bound, O(search_bound^2)
    exact square tests: with a = p^2/q^2 and d = a - b, h fixes
    (1+h) d^2 - 2h d + (4ha + h - 1) = 0, whose discriminant 1 - 4h(1+h)a
    must be a rational square; a root gives a witness when b = a - d is
    r^2/t^2 with r, t <= search_bound in lowest terms. |d| < 1 holds for
    both roots. The lexicographically smallest witness (p, q, r, t) wins.
    """
    h = exact_rational(h, "h")
    if not (0 < h < 1):
        raise DomainError("h must be a rational in (0,1), got %s" % h)
    if not _is_int(search_bound) or search_bound < 1:
        raise DomainError("search_bound must be a positive integer, got %r" % (search_bound,))
    root = rational_sqrt_exact((1 + h) / (1 - h))
    if root is not None:
        return TorusVerdict(h=h, kind="case_i", q=root, case_i=torus_case_i(root))
    c = 4 * h * (1 + h)
    for p in range(1, search_bound + 1):
        for q in range(1, search_bound + 1):
            a = Fraction(p * p, q * q)
            disc = 1 - c * a
            s = rational_sqrt_exact(disc) if disc >= 0 else None
            if s is None:
                continue
            witnesses = []
            for d in ((h - s) / (1 + h), (h + s) / (1 + h)):
                rb = rational_sqrt_exact(a - d) if d < a else None
                # in lowest terms, (r, t) is the smallest pair with b = r^2/t^2
                if rb is not None and max(rb.numerator, rb.denominator) <= search_bound:
                    witnesses.append((rb.numerator, rb.denominator))
            if witnesses:
                r, t = min(witnesses)
                case_ii = torus_case_ii(p, q, r, t)
                return TorusVerdict(h=h, kind="case_ii", pqrt=(p, q, r, t), case_ii=case_ii)
    return TorusVerdict(h=h, kind="not_found")


def brute_torus_exists(h, search_bound):
    """Try every (p, q, r, t) <= search_bound in lexicographic order and
    return the first one whose (a, b) gives mean curvature h."""
    h = Fraction(h)
    root = rational_sqrt_exact((1 + h) / (1 - h))
    if root is not None:
        return TorusVerdict(h=h, kind="case_i", q=root, case_i=torus_case_i(root))
    squares = {}
    for u in range(1, search_bound + 1):
        for w in range(1, search_bound + 1):
            squares.setdefault((u, w), Fraction(u * u, w * w))
    for p in range(1, search_bound + 1):
        for q in range(1, search_bound + 1):
            a = squares[(p, q)]
            for r in range(1, search_bound + 1):
                for t in range(1, search_bound + 1):
                    b = squares[(r, t)]
                    if (a - b) ** 2 >= 1:
                        continue
                    if h == (1 - (a - b) ** 2) / (1 + (a - b) ** 2 + 2 * (a + b)):
                        return TorusVerdict(
                            h=h,
                            kind="case_ii",
                            pqrt=(p, q, r, t),
                            case_ii=torus_case_ii(p, q, r, t),
                        )
    return TorusVerdict(h=h, kind="not_found")
