"""Reference torus-existence searches: the (p, q) scan in Fraction arithmetic,
kept as `torus_exists` had it before its scan was cleared to integers, and
the O(N^4) scan over every (p, q, r, t). The library's integer scan is tested
against both.
"""

from fractions import Fraction

from bihsurf.core import DomainError, exact_rational, rational_sqrt_exact
from bihsurf.immersion import _is_int
from bihsurf.periodicity import TorusVerdict, torus_case_i, torus_case_ii


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
