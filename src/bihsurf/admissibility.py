"""Torus admissibility: for a flat torus R^2/Lambda and rational mean
curvature h, decide whether an immersion with that mean curvature exists, and
construct witness weights when it does.

The decision path is exact and runs on integers: the dual basis is cleared
to integer rows over one denominator once, dual-lattice points on the two
relevant circles are enumerated with the integer quadratic form of those
rows (one walk per circle), and each circle keeps its complex squares as
integer numerators over one denominator per dual lattice. All hull /
intersection predicates, the barycentric weights (in `admissible` and
`witness_weights` alike) and the certificate run on those numerators: each
is unchanged when every point is scaled by the same positive number, so the
weights are the ones of the rational squares. A weight's target is integer
numerators over one denominator, and the certificate checks convexity and
balance on the weights' numerators over their lcm. Fractions appear only
where the clip of two hulls makes a vertex between lattice points and in
the returned weights; floats only in emitted vectors and the reconstructed
witness data.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .core import MAX_SQUAREFREE, DomainError, ExactnessError, _is_int, exact_rational
from .core import squarefree_decompose
from .parameters import MiyataData, _exact_h, _normal_form, spectral_levels
from .periodicity import ExactBasis, Lattice2

# hull and weight routines take int or Fraction coordinates and divide exactly
Point = tuple[int | Fraction, int | Fraction]

VERDICT_EXISTS_PU = "exists_pseudo_umbilical"
VERDICT_EXISTS = "exists"
VERDICT_NONE_EMPTY = "none_empty_circle"
VERDICT_NONE_HULL = "none_hull"
VERDICT_NONE_INFEASIBLE = "none_infeasible"


# ---------------------------------------------------------------------------
# exact lattice input


_ENTRY_RE = re.compile(
    r"^(?P<sign>[+-])?(?:(?P<int>\d+)\*?)?pi(?:\*?sqrt\((?P<surd>\d+)\))?(?:/(?P<den>\d+))?$"
)


def parse_lattice_entry(text: str) -> tuple[Fraction, int]:
    """Parse one generator coordinate of the form [int*]pi[*sqrt(d)][/int].

    Returns (c, d) meaning c * pi * sqrt(d) with d squarefree; "0" gives
    (0, 1); an entry that is not a string or has a zero denominator is refused.
    """
    if not isinstance(text, str):
        raise DomainError("lattice entry must be a string such as '2*pi', got %r" % (text,))
    s = text.replace(" ", "")
    if s in ("0", "+0", "-0"):
        return Fraction(0), 1
    m = _ENTRY_RE.match(s)
    if not m:
        raise ValueError(
            "cannot parse lattice entry %r (expected [int*]pi[*sqrt(int)][/int] or 0)" % text
        )
    den = int(m.group("den") or 1)
    if den == 0:
        raise DomainError("zero denominator in lattice entry %r" % text)
    c = Fraction(int(m.group("int") or 1), den)
    if m.group("sign") == "-":
        c = -c
    d = int(m.group("surd") or 1)
    if d <= 0:
        raise ValueError("sqrt argument must be positive in %r" % text)
    if d > MAX_SQUAREFREE:
        raise DomainError(
            "sqrt argument must be at most %d (trial division) in %r" % (MAX_SQUAREFREE, text)
        )
    sq, d0 = squarefree_decompose(d)
    return c * sq, d0


def _is_2x2(rows) -> bool:
    """Two rows of two entries each, as lists or tuples, or a 2 x 2 array."""
    if isinstance(rows, np.ndarray):
        return rows.shape == (2, 2)
    return isinstance(rows, (list, tuple)) and len(rows) == 2 and all(
        isinstance(row, (list, tuple)) and len(row) == 2 for row in rows
    )


def parse_lattice(obj) -> Lattice2:
    """Exact rank-2 lattice from {"gens": [[e, e], [e, e]]} entry strings.

    All nonzero entries must share one squarefree surd; mixed surds make the
    squared dual points irrational and are rejected.
    """
    gens = obj.get("gens") if isinstance(obj, dict) else None
    if not _is_2x2(gens):
        raise DomainError("lattice input must be {'gens': [[a,b],[c,d]]}, got %r" % (obj,))
    entries = [[parse_lattice_entry(e) for e in row] for row in gens]
    surds = {d for row in entries for (c, d) in row if c != 0}
    if len(surds) > 1:
        raise ExactnessError(
            "mixed surds %s in lattice generators: exact dual squares unavailable" % sorted(surds)
        )
    surd = surds.pop() if surds else 1
    rows = tuple(tuple(c for (c, _) in row) for row in entries)
    return ExactBasis(rows=rows, surd=surd).lattice()


def unimodular_image(lat: Lattice2, u) -> Lattice2:
    """Same lattice in the basis U @ C (U integer, |det U| = 1)."""
    if lat.exact is None:
        raise ExactnessError("unimodular_image needs exact generator data")
    if not (_is_2x2(u) and all(_is_int(x) for row in u for x in row)):
        raise DomainError("u must be a 2x2 matrix of integers, got %r" % (u,))
    (a, b), (c, d) = (map(int, row) for row in u)  # a numpy integer's product wraps
    if abs(a * d - b * c) != 1:
        raise ValueError("matrix is not unimodular")
    r = lat.exact.rows
    rows = (
        (a * r[0][0] + b * r[1][0], a * r[0][1] + b * r[1][1]),
        (c * r[0][0] + d * r[1][0], c * r[0][1] + d * r[1][1]),
    )
    return ExactBasis(rows=rows, surd=lat.exact.surd).lattice()


# ---------------------------------------------------------------------------
# dual lattice and circle points


@dataclass(frozen=True)
class DualLattice:
    """Dual basis w_i with <w_i, g_j> = 2 pi delta_ij, in integers.

    w_i = ints[i] / (den sqrt(surd)): ints are integer rows and den is the
    least common denominator of the rational rows, so the Gram form is
    ints ints^T / (den^2 surd) and every complex square of a dual vector is
    an integer pair over den^2 surd. It holds no float data.
    """

    ints: tuple[tuple[int, int], tuple[int, int]]
    den: int
    surd: int


def dual_lattice(lat: Lattice2) -> DualLattice:
    """2 pi inverse-transpose of the primal basis, cleared to integers once.

    The primal rows are pi sqrt(s) C with C = M / k for an integer matrix
    M = (a, b; c, d), so the dual rows (2 / sqrt(s)) inv(C)^T are
    2k / det(M) times the integer rows (d, -c) and (-b, a). Their least
    common denominator is den = |det| / g with g = gcd(det, 2k gcd(a, b, c, d)),
    and den times them is 2k (d, -c) and 2k (-b, a) divided exactly by
    g signed as det.
    """
    if lat.rank != 2:
        raise DomainError("dual lattice requires a rank-2 lattice")
    if lat.exact is None:
        raise ExactnessError("dual lattice requires exact generator data")
    flat = [x for row in lat.exact.rows for x in row]
    k = math.lcm(*(x.denominator for x in flat))
    a, b, c, d = (x.numerator * (k // x.denominator) for x in flat)
    det = a * d - b * c
    g = math.gcd(det, 2 * k * math.gcd(a, b, c, d))
    unit = g if det > 0 else -g
    ints = tuple(tuple(2 * k * x // unit for x in v) for v in ((d, -c), (-b, a)))
    return DualLattice(ints=ints, den=abs(det) // g, surd=lat.exact.surd)


@dataclass(frozen=True)
class CircleSquareSet:
    """Squares w^2 of dual vectors w of a fixed squared length.

    preimages lists every dual coordinate pair on the circle (they come in
    +- pairs). numerators holds the deduplicated squares times den, as
    sorted integer pairs, and reps one preimage of each; den = dual.den^2
    surd is the same for every circle of one dual lattice.
    """

    radius_sq: Fraction
    reps: tuple[tuple[int, int], ...]
    preimages: tuple[tuple[int, int], ...]
    dual: DualLattice
    numerators: tuple[tuple[int, int], ...]
    den: int


# Most values of m the circle walks of one call visit: `circle_points`' one
# walk, or `admissible`'s two. A walk takes about 0.18 us per m: 4.8 s for
# the 2.7e7 of the (10^7 pi) Z^2 lattice at h = 1/2 on a 2-core VM, so this
# cap is about 18 s.
_MAX_CIRCLE_STEPS = 10**8


class _CircleWalk(NamedTuple):
    """The set-up of one circle walk of `circle_points`: the entries B and
    C of the dual rows' integer form and D0 = AC - B^2, CN, the squares'
    denominator den^2 surd, and the largest |m| walked, -1 when N is not an
    integer (an empty circle)."""

    b: int
    c: int
    d0: int
    cn: int
    den: int
    m_max: int

    @property
    def steps(self) -> int:
        """Values of m the walk visits."""
        return 2 * self.m_max + 1 if self.m_max >= 0 else 0


def _circle_walk(dual: DualLattice, radius_sq: Fraction) -> _CircleWalk:
    (r00, r01), (r10, r11) = dual.ints
    a, b, c = r00 * r00 + r01 * r01, r00 * r10 + r01 * r11, r10 * r10 + r11 * r11
    d0 = a * c - b * b
    if d0 <= 0:
        raise ValueError("dual Gram form is not positive definite")
    den = dual.den * dual.den * dual.surd
    big_n, rem = divmod(radius_sq.numerator * den, radius_sq.denominator)
    m_max = -1 if rem else math.isqrt(c * big_n // d0)
    return _CircleWalk(b, c, d0, c * big_n, den, m_max)


def _check_steps(steps: int, name: str) -> None:
    """Refuse, naming the parameter, circle walks of more than
    _MAX_CIRCLE_STEPS values of m in all, before any of them runs."""
    if steps > _MAX_CIRCLE_STEPS:
        raise DomainError(
            "%s must give circle walks of at most 10^8 values of m in all; it gives 10^%.1f"
            % (name, math.log10(steps))
        )


def circle_points(dual: DualLattice, radius_sq) -> CircleSquareSet:
    """Enumerate {w in dual : |w|^2 = radius_sq} exactly and square them.

    With w = (m ints_0 + n ints_1) / (den sqrt(surd)), |w|^2 = radius_sq is
    A m^2 + 2B mn + C n^2 = N for the integer form Q = ints ints^T and
    N = radius_sq den^2 surd. A non-integer N leaves the circle empty.
    Otherwise D0 = AC - B^2 > 0, and real roots n = (-Bm +- s)/C need
    s^2 = CN - D0 m^2 >= 0, so each |m| <= isqrt(CN // D0) costs one
    integer square test: O(m_max) operations in all. A radius_sq whose walk
    would visit more than 10^8 values of m is refused before any work. N > 0
    keeps (0, 0) off the circle. Preimages are visited in (m, n) ascending
    order; w and -w collapse to the same square, which keeps its first
    preimage as representative.

    Each square is the integer pair (u^2 - v^2, 2uv) over den^2 surd, with
    (u, v) = m ints_0 + n ints_1, so the squares of every circle of one dual
    lattice come as integer numerators over one denominator.
    """
    radius_sq = exact_rational(radius_sq, "radius_sq")
    if radius_sq <= 0:
        raise DomainError("radius_sq must be positive")
    walk = _circle_walk(dual, radius_sq)
    _check_steps(walk.steps, "radius_sq")
    return _circle_squares(dual, radius_sq, walk)


def _circle_squares(dual: DualLattice, radius_sq: Fraction, walk: _CircleWalk) -> CircleSquareSet:
    """The walk of `circle_points` over |m| <= walk.m_max, once its set-up
    is built and its length checked."""
    (r00, r01), (r10, r11) = dual.ints
    b, c, d0, cn = walk.b, walk.c, walk.d0, walk.cn
    pre = []
    squares: dict[tuple[int, int], tuple[int, int]] = {}
    for m in range(-walk.m_max, walk.m_max + 1):
        disc = cn - d0 * m * m
        s = math.isqrt(disc)
        if s * s != disc:
            continue
        for top in (-b * m - s, -b * m + s) if s else (-b * m,):
            n, rem = divmod(top, c)
            if rem:
                continue
            pre.append((m, n))
            u = m * r00 + n * r10
            v = m * r01 + n * r11
            squares.setdefault((u * u - v * v, 2 * u * v), (m, n))
    order = tuple(sorted(squares))
    return CircleSquareSet(
        radius_sq=radius_sq,
        reps=tuple(squares[p] for p in order),
        preimages=tuple(pre),
        dual=dual,
        numerators=order,
        den=walk.den,
    )


# ---------------------------------------------------------------------------
# exact 2D convex geometry


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> list[Point]:
    """Counter-clockwise hull vertices (monotone chain, exact arithmetic).

    Degenerate inputs give a single point or the two segment endpoints.
    """
    pts = sorted(set(points))
    if len(pts) <= 1:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def point_in_hull(pt: Point, hull) -> bool:
    """Membership in a hull of any dimension (point, segment or polygon).

    No vertex holds nothing, and one vertex only itself. A hull of two or
    more vertices holds the points on the left of every line of
    `_half_planes(hull)`, the half-planes `intersect_hulls` clips with.
    """
    if len(hull) < 2:
        return len(hull) == 1 and pt == hull[0]
    for a, b in _half_planes(hull):
        if _cross(a, b, pt) < 0:
            return False
    return True


def _clip_polygon(poly: list[Point], a: Point, b: Point) -> list[Point]:
    """Keep the part of poly on the left of the directed line a -> b."""
    out: list[Point] = []
    sides = [_cross(a, b, p) for p in poly]
    for p, q, sp, sq in zip(poly, poly[1:] + poly[:1], sides, sides[1:] + sides[:1]):
        if sp >= 0:
            out.append(p)
        if (sp > 0 > sq) or (sp < 0 < sq):
            t = Fraction(sp) / (sp - sq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    dedup: list[Point] = []
    for p in out:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def _half_planes(hull) -> list[tuple[Point, Point]]:
    """Directed lines a -> b whose closed left half-planes cut out a hull of
    two or more vertices: the edges of a polygon; for a segment c d, its
    line in both directions and the two end caps through c and d."""
    if len(hull) > 2:
        return list(zip(hull, hull[1:] + hull[:1]))
    c, d = hull
    ux, uy = d[0] - c[0], d[1] - c[1]
    # left of c -> c + (uy, -ux) is (p - c) . (d - c) >= 0, and likewise at d
    return [(c, d), (d, c), (c, (c[0] + uy, c[1] - ux)), (d, (d[0] - uy, d[1] + ux))]


def intersect_hulls(h1, h2) -> list[Point]:
    """Vertices of the intersection of two convex hulls (exact; any dims).

    A one-point hull is tested for membership in the other. Otherwise the
    hull with fewer vertices is clipped, as a closed polygon (a segment is
    the two-vertex polygon c d c), by each half-plane of the other one
    (`_half_planes`); the result is a point, a segment or a polygon.
    """
    if not h1 or not h2:
        return []
    if len(h1) > len(h2):
        h1, h2 = h2, h1
    if len(h1) == 1:
        return [h1[0]] if point_in_hull(h1[0], h2) else []
    poly = list(h1)
    for a, b in _half_planes(h2):
        poly = _clip_polygon(poly, a, b)
        if not poly:
            return []
    return poly


def _combination_over_hull(target, hull) -> list[tuple[Point, Fraction]]:
    """Write target = (x, y, d), the point (x / d, y / d) with d > 0, as a
    convex combination of hull vertices, exactly.

    Every test runs on the hull scaled by d, and around the centroid of n
    vertices by n d, so on integer vertices it divides nothing: only the
    returned weights are Fractions. Weights are strictly positive on the
    minimal face containing the target (all vertices when it lies in the
    interior).
    """
    x, y, d = target
    k = len(hull)
    if k == 1:
        if (x, y) != (d * hull[0][0], d * hull[0][1]):
            raise ValueError("target is not the hull point")
        return [(hull[0], Fraction(1))]
    if k == 2:
        a, b = hull
        dx, dy = b[0] - a[0], b[1] - a[1]
        rx, ry = x - d * a[0], y - d * a[1]
        # the target is a + (num / den) (b - a)
        num, den = rx * dx + ry * dy, d * (dx * dx + dy * dy)
        if dx * ry - dy * rx != 0 or not (0 <= num <= den):
            raise ValueError("target is not on the hull segment")
        return [(a, Fraction(den - num, den)), (b, Fraction(num, den))]
    # scaled by k d: the centroid c and the target
    scale = k * d
    cx, cy = d * sum(p[0] for p in hull), d * sum(p[1] for p in hull)
    dx, dy = k * x - cx, k * y - cy
    if dx == 0 and dy == 0:
        return [(p, Fraction(1, k)) for p in hull]
    best = None
    for i in range(k):
        a, b = hull[i], hull[(i + 1) % k]
        ex, ey = scale * (b[0] - a[0]), scale * (b[1] - a[1])
        rx, ry = scale * a[0] - cx, scale * a[1] - cy
        den = ex * dy - dx * ey
        if den == 0:
            continue
        # c + t (target - c) = a + u (b - a) with t = tn / den, u = un / den
        tn, un = ex * ry - ey * rx, dx * ry - dy * rx
        if den < 0:
            den, tn, un = -den, -tn, -un
        if tn <= 0 or not (0 <= un <= den):
            continue
        if best is None or tn * best[1] < best[0] * den:
            best = (tn, den, i, un)
    if best is None or best[0] < best[1]:
        raise ValueError("target lies outside the hull")
    tn, den, i, un = best
    # target = (1 - 1/t) c + (1/t) (a + u (b - a)); the weights over k tn
    nums = [tn - den] * k
    nums[i] += k * (den - un)
    nums[(i + 1) % k] += k * un
    return [(p, Fraction(w, k * tn)) for p, w in zip(hull, nums) if w != 0]


def witness_weights(
    set_a: CircleSquareSet, set_g: CircleSquareSet
) -> Optional[tuple[list[Fraction], list[Fraction]]]:
    """Positive block weights with sum(alpha_k R_k) + sum(gamma_j R'_j) = 0.

    Feasible iff conv(A) meets -conv(G); the centroid of the meeting region
    is split barycentrically over each hull. This is `admissible`'s route:
    the hulls and weights run on the integer numerators, each set's brought
    to the common denominator den_a den_g, which leaves every weight
    unchanged. Returned lists align with the order of each set's
    numerators; a zero entry means that square is unused (dropped
    downstream).
    """
    pa = [(x * set_g.den, y * set_g.den) for x, y in set_a.numerators]
    pg = [(x * set_a.den, y * set_a.den) for x, y in set_g.numerators]
    if not pa or not pg:
        return None
    return _hull_weights(pa, convex_hull(pa), pg, convex_hull(pg))


def _hull_weights(pa, hull_a, pg, hull_g):
    """witness_weights over two point lists and their already built hulls."""
    region = intersect_hulls(hull_a, _negated_hull(hull_g))
    if not region:
        return None
    return _aligned_weights(pa, hull_a, pg, hull_g, _centroid(region))


def _negated_hull(hull) -> list[Point]:
    """-conv(hull) as `convex_hull` lists it: the negated vertices, still
    counter-clockwise, from the least one."""
    neg = [(-x, -y) for x, y in hull]
    i = neg.index(min(neg))
    return neg[i:] + neg[:i]


def _centroid(points) -> tuple[int, int, int]:
    """The centroid of int or Fraction points as (x, y, d): integer
    numerators over one positive denominator."""
    den = math.lcm(*(c.denominator for p in points for c in p))
    x = sum(p[0].numerator * (den // p[0].denominator) for p in points)
    y = sum(p[1].numerator * (den // p[1].denominator) for p in points)
    return x, y, den * len(points)


def _aligned_weights(pa, hull_a, pg, hull_g, target):
    """Weights of target (x, y, d) over hull_a and of -target over hull_g,
    aligned to the point lists pa and pg (zero for a point the combination
    skips)."""
    x, y, d = target
    wa = dict(_combination_over_hull(target, hull_a))
    wg = dict(_combination_over_hull((-x, -y, d), hull_g))
    return [wa.get(p, Fraction(0)) for p in pa], [wg.get(p, Fraction(0)) for p in pg]


# ---------------------------------------------------------------------------
# the admissibility decision


@dataclass(frozen=True)
class AdmissibleResult:
    verdict: str
    h: Fraction
    set_a: Optional[CircleSquareSet]
    set_g: Optional[CircleSquareSet]
    weights: Optional[tuple[list[Fraction], list[Fraction]]] = None
    witness: Optional[MiyataData] = None

    @property
    def exists(self) -> bool:
        return self.verdict in (VERDICT_EXISTS, VERDICT_EXISTS_PU)

    def to_dict(self) -> dict:
        out = {
            "h": "%d/%d" % (self.h.numerator, self.h.denominator),
            "verdict": self.verdict,
        }
        if self.set_a is not None:
            out["circle_counts"] = [len(self.set_a.numerators), len(self.set_g.numerators)]
        if self.witness is not None:
            out["m"] = self.witness.m
            out["mp"] = self.witness.mp
            out["witness"] = self.witness.to_dict()
        return out


def _recover_frequency(dual: DualLattice, rep: tuple[int, int], lam: float) -> complex:
    """The unit frequency at level lam of the dual vector m w_0 + n w_1,
    (m, n) = rep, in floats: w_i is scale * (x / den) per integer entry x."""
    scale = 1.0 / math.sqrt(dual.surd)
    (x0, y0), (x1, y1) = ((scale * (x / dual.den) for x in row) for row in dual.ints)
    m, n = rep
    return (complex(m * x0 + n * x1, m * y0 + n * y1) / complex(0.0, math.sqrt(lam))).conjugate()


def _build_witness(h: Fraction, set_a, set_g, weights) -> MiyataData:
    """Float witness data for exact weights, once an exact check shows they
    certify it: each list is a convex combination (sums to 1, no negative
    entry; a zero drops its point) and sum(alpha_k A_k) + sum(gamma_j G_j)
    = 0, checked in integers: the weights as numerators over their lcm, the
    squares as their numerators, which share one denominator as both sets
    come from one dual lattice. The squares are distinct, as circle_points
    keys them by exact value. The frequencies are floats from the integer
    dual rows (`_recover_frequency`), so on a skewed basis mu_1 leaves the
    unit circle by rounding (|mu_1| - 1 is 4.7e-9 on rect-exists at skew
    10^4, 2e-5 at 10^6); the normal form is taken without `canonicalize`'s
    check on it."""
    ra, rg = weights
    den = math.lcm(*(w.denominator for w in ra + rg))
    na, ng = ([w.numerator * (den // w.denominator) for w in ws] for ws in weights)
    if sum(na) != den or sum(ng) != den or min(na + ng) < 0:
        raise RuntimeError("witness weights are not convex combinations")
    for i in range(2):
        if sum(w * p[i] for w, p in zip(na + ng, set_a.numerators + set_g.numerators)) != 0:
            raise RuntimeError("witness weights do not balance")
    lam1, lam2 = spectral_levels(float(h))
    mu, r_w = [], []
    for k, w in enumerate(ra):
        if w != 0:
            mu.append(_recover_frequency(set_a.dual, set_a.reps[k], lam1))
            r_w.append(float(w))
    eta, rp_w = [], []
    for j, w in enumerate(rg):
        if w != 0:
            eta.append(_recover_frequency(set_g.dual, set_g.reps[j], lam2))
            rp_w.append(float(w))
    data = MiyataData(
        h=float(h), mu=tuple(mu), eta=tuple(eta),
        r_weights=tuple(r_w), rp_weights=tuple(rp_w),
    )
    return _normal_form(data) if data.m == 1 else data


def admissible(lat: Lattice2, h) -> AdmissibleResult:
    """Existence decision, strongest certificate first.

    Order: empty circle (nonexistence), origin in both hulls (existence,
    pseudo-umbilical), origin outside the joint hull (nonexistence), then the
    general exact feasibility conv(A) meet -conv(G) which settles the
    remaining cases either way. The hulls and weights run on the integer
    numerators of both circles, which share one denominator. A lattice whose
    two circle walks visit more than 10^8 values of m in all is refused
    before either walk.
    """
    h = _exact_h(h)
    dual = dual_lattice(lat)
    levels = spectral_levels(h)
    walks = [_circle_walk(dual, lam) for lam in levels]
    _check_steps(sum(walk.steps for walk in walks), "lattice")
    set_a, set_g = (_circle_squares(dual, lam, walk) for lam, walk in zip(levels, walks))
    pa, pg = set_a.numerators, set_g.numerators
    if not pa or not pg:
        return AdmissibleResult(VERDICT_NONE_EMPTY, h, set_a, set_g)
    origin = (0, 0)
    hull_a = convex_hull(pa)
    hull_g = convex_hull(pg)
    if point_in_hull(origin, hull_a) and point_in_hull(origin, hull_g):
        verdict = VERDICT_EXISTS_PU
        weights = _aligned_weights(pa, hull_a, pg, hull_g, (0, 0, 1))
    else:
        joint = convex_hull(pa + pg)
        if not point_in_hull(origin, joint):
            return AdmissibleResult(VERDICT_NONE_HULL, h, set_a, set_g)
        weights = _hull_weights(pa, hull_a, pg, hull_g)
        if weights is None:
            return AdmissibleResult(VERDICT_NONE_INFEASIBLE, h, set_a, set_g)
        verdict = VERDICT_EXISTS
    witness = _build_witness(h, set_a, set_g, weights)
    return AdmissibleResult(verdict, h, set_a, set_g, weights, witness)
