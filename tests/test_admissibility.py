import dataclasses
import math
import re
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import event, example, given, note, settings, strategies as st

import admissible_oracle
import hull_oracle
from admissible_oracle import dual_gram, exact_squares
from bihsurf.core import MAX_SQUAREFREE, DomainError, ExactnessError
from bihsurf.periodicity import ExactBasis, Lattice2
from bihsurf.parameters import lift_structure, structure_params, validate_miyata
from bihsurf.immersion import build
from bihsurf.geometry import verify_immersion
from bihsurf import admissibility
from bihsurf.admissibility import (
    CircleSquareSet,
    admissible,
    circle_points,
    convex_hull,
    dual_lattice,
    intersect_hulls,
    parse_lattice,
    parse_lattice_entry,
    point_in_hull,
    unimodular_image,
    witness_weights,
)

LAT_2PI = {"gens": [["2*pi", "0"], ["0", "2*pi"]]}
LAT_PI = {"gens": [["pi", "0"], ["0", "pi"]]}
LAT_SQRT5 = {"gens": [["2*pi*sqrt(5)", "0"], ["0", "2*pi*sqrt(5)"]]}
# rectangular lattice whose dual is (4/sqrt5) Z x (2/sqrt5) Z
LAT_RECT_EXISTS = {"gens": [["pi*sqrt(5)/2", "0"], ["0", "pi*sqrt(5)"]]}
# dual (2/sqrt5) Z x (10/sqrt5) Z: both circle sets on the positive axis
LAT_RECT_NONE_HULL = {"gens": [["pi*sqrt(5)", "0"], ["0", "pi*sqrt(5)/5"]]}
# dual (4/sqrt13) Z x (6/sqrt13) Z: A = {16/13}, G = {-36/13}, infeasible
LAT_RECT_INFEASIBLE = {"gens": [["pi*sqrt(13)/2", "0"], ["0", "pi*sqrt(13)/3"]]}
# the six test lattices, each with the h its decision tests use
TEST_LATTICES = (
    (LAT_2PI, F(1, 2)),
    (LAT_PI, F(1, 2)),
    (LAT_SQRT5, F(3, 5)),
    (LAT_RECT_EXISTS, F(3, 5)),
    (LAT_RECT_NONE_HULL, F(3, 5)),
    (LAT_RECT_INFEASIBLE, F(5, 13)),
)


# ---------------------------------------------------------------------------
# parsing


def test_parse_entry_forms():
    assert parse_lattice_entry("2*pi") == (F(2), 1)
    assert parse_lattice_entry("pi") == (F(1), 1)
    assert parse_lattice_entry("-pi/2") == (F(-1, 2), 1)
    assert parse_lattice_entry("3*pi*sqrt(5)/2") == (F(3, 2), 5)
    assert parse_lattice_entry("pi*sqrt(8)") == (F(2), 2)  # sqrt(8) = 2 sqrt(2)
    assert parse_lattice_entry("0") == (F(0), 1)
    assert parse_lattice_entry(" 2 * pi ") == (F(2), 1)


def test_parse_entry_rejects_nonsense():
    for bad in ("2", "pi*pi", "sqrt(5)", "2*pi*sqrt(-3)", "pi+1", "two*pi"):
        with pytest.raises(ValueError):
            parse_lattice_entry(bad)


def test_parse_entry_refuses_a_surd_past_the_trial_division_cap_at_once():
    entry = "pi*sqrt(%d)" % (MAX_SQUAREFREE + 1)
    start = time.perf_counter()
    with pytest.raises(DomainError, match=r"sqrt argument must be at most %d .*%s" % (
            MAX_SQUAREFREE, re.escape(repr(entry)))):
        parse_lattice_entry(entry)
    assert time.perf_counter() - start < 0.1


def test_parse_lattice_rejects_mixed_surds():
    with pytest.raises(ExactnessError, match="mixed"):
        parse_lattice({"gens": [["2*pi", "0"], ["0", "2*pi*sqrt(5)"]]})


def test_parse_lattice_rejects_dependent_generators():
    with pytest.raises(ValueError, match="dependent"):
        parse_lattice({"gens": [["2*pi", "0"], ["-2*pi", "0"]]})


def test_parse_lattice_accepts_tiny_independent_generators():
    # the float independence test is relative to the generator lengths, so a
    # tiny lattice is not mistaken for a dependent one
    lat = parse_lattice({"gens": [["pi/10000000", "0"], ["0", "pi/10000000"]]})
    assert lat.rank == 2 and lat.exact.rows == ((F(1, 10**7), F(0)), (F(0), F(1, 10**7)))
    assert admissible(lat, "1/2").verdict == "none_empty_circle"
    with pytest.raises(ValueError, match="dependent"):
        parse_lattice({"gens": [["pi/10000000", "0"], ["-pi/10000000", "0"]]})


def test_parse_lattice_float_gens_match_exact():
    lat = parse_lattice(LAT_SQRT5)
    assert np.allclose(lat.gens, [(2 * math.pi * math.sqrt(5), 0), (0, 2 * math.pi * math.sqrt(5))])
    gram = lat.exact.gram_over_pi2()
    assert gram[0][0] == F(20) and gram[0][1] == 0


# ---------------------------------------------------------------------------
# dual lattice


def test_dual_of_2pi_lattice_is_integer_lattice():
    d = dual_lattice(parse_lattice(LAT_2PI))
    assert (d.ints, d.den, d.surd) == (((1, 0), (0, 1)), 1, 1)
    assert dual_gram(d) == ((F(1), F(0)), (F(0), F(1)))


def test_dual_of_pi_lattice_is_doubled():
    d = dual_lattice(parse_lattice(LAT_PI))
    assert (d.ints, d.den, d.surd) == (((2, 0), (0, 2)), 1, 1)


def test_dual_of_sqrt5_lattice():
    # w_i = ints[i] / (den sqrt(5)): (1/sqrt(5), 0) and (0, 1/sqrt(5))
    d = dual_lattice(parse_lattice(LAT_SQRT5))
    assert (d.ints, d.den, d.surd) == (((1, 0), (0, 1)), 1, 5)
    assert dual_gram(d) == ((F(1, 5), F(0)), (F(0), F(1, 5)))


def test_dual_lattice_holds_only_integer_data():
    assert [f.name for f in dataclasses.fields(admissibility.DualLattice)] == ["ints", "den", "surd"]


def test_dual_requires_exact_data(sasahara_immersion):
    from bihsurf.periodicity import period_lattice

    lat = period_lattice(sasahara_immersion, 20.0)  # floats only
    with pytest.raises(ExactnessError):
        dual_lattice(lat)


def test_dual_requires_rank_two():
    from bihsurf.periodicity import Lattice2

    with pytest.raises(DomainError, match="rank"):
        dual_lattice(Lattice2(rank=1, gens=((1.0, 0.0),)))


def test_dual_pairing_invariant():
    # <w_i, g_j> = 2 pi delta_ij with w_i = ints[i] / (den sqrt(s)) and
    # g_j = pi sqrt(s) rows[j] is ints[i] . rows[j] = 2 den delta_ij, exactly
    for spec in (LAT_2PI, LAT_SQRT5, LAT_RECT_EXISTS, LAT_RECT_INFEASIBLE, LAT_CROSSING):
        lat = parse_lattice(spec)
        d = dual_lattice(lat)
        assert d.surd == lat.exact.surd
        for i in range(2):
            for j in range(2):
                pairing = sum(F(x) * c for x, c in zip(d.ints[i], lat.exact.rows[j]))
                assert pairing == (2 * d.den if i == j else 0)


def test_exact_gram_matches_float_gram():
    for spec in (LAT_2PI, LAT_SQRT5, LAT_RECT_EXISTS):
        lat = parse_lattice(spec)
        gram = lat.exact.gram_over_pi2()
        for i in range(2):
            for j in range(2):
                float_entry = sum(lat.gens[i][k] * lat.gens[j][k] for k in range(2))
                assert abs(float_entry - math.pi**2 * float(gram[i][j])) <= 1e-9


@st.composite
def _unimodular(draw, bound):
    """An integer matrix ((a, b), (c, d)) with ad - bc = 1 and entries in
    [-bound, bound]: a coprime first row, completed by its Bezout pair."""
    a, b = draw(
        st.tuples(st.integers(-bound, bound), st.integers(-bound, bound)).filter(
            lambda ab: math.gcd(*ab) == 1
        )
    )
    # extended Euclid: a * s + b * t = r = +-1, with |s| <= |b| and |t| <= |a|
    r0, r1, s0, s1, t0, t1 = a, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1, s0, s1, t0, t1 = r1, r0 - q * r1, s1, s0 - q * s1, t1, t0 - q * t1
    return (a, b), (-t0 * r0, s0 * r0)


@settings(max_examples=200, deadline=None)
@given(
    spec=st.sampled_from([spec for spec, _ in TEST_LATTICES]),
    scale=st.builds(F, st.integers(1, 10**6), st.integers(1, 999)),
    u=_unimodular(10**3),
)
def test_dual_lattice_matches_fraction_formula(spec, scale, u):
    # the integer rows over one denominator and the Gram entries equal the
    # chained Fraction formula's
    assert abs(u[0][0] * u[1][1] - u[0][1] * u[1][0]) == 1
    lat = _scaled_image(spec, scale, u)
    dual = dual_lattice(lat)
    assert dual == admissible_oracle.dual_lattice(lat)
    rows, fraction_gram = admissible_oracle.fraction_dual(lat)
    assert tuple(tuple(F(x, dual.den) for x in row) for row in dual.ints) == rows
    assert dual_gram(dual) == fraction_gram


# ---------------------------------------------------------------------------
# circle points


def test_circle_points_unit_radius():
    d = dual_lattice(parse_lattice(LAT_2PI))
    cp = circle_points(d, F(1))
    assert cp.preimages == ((-1, 0), (0, -1), (0, 1), (1, 0))
    assert exact_squares(cp) == ((F(-1), F(0)), (F(1), F(0)))


def test_circle_points_mod_four_obstruction():
    d = dual_lattice(parse_lattice(LAT_2PI))
    assert circle_points(d, F(3)).numerators == ()


def test_circle_points_scaled_lattice():
    d = dual_lattice(parse_lattice(LAT_SQRT5))
    cp = circle_points(d, F(4, 5))
    assert exact_squares(cp) == ((F(-4, 5), F(0)), (F(4, 5), F(0)))
    assert set(cp.preimages) == {(-2, 0), (2, 0), (0, -2), (0, 2)}


def test_circle_points_involution_structure(rng):
    d = dual_lattice(parse_lattice(LAT_2PI))
    for radius in (F(1), F(2), F(4), F(5), F(25)):
        cp = circle_points(d, radius)
        pre = set(cp.preimages)
        assert all((-m, -n) in pre for m, n in pre)
        # squares of representatives land exactly on the recorded points:
        # w = (m ints_0 + n ints_1) / (den sqrt(surd)), squared as Fractions
        for (m, n), pt in zip(cp.reps, exact_squares(cp)):
            x, y = (F(m * a + n * b, d.den) for a, b in zip(*d.ints))
            assert ((x * x - y * y) / d.surd, 2 * x * y / d.surd) == pt
        if cp.numerators:
            assert len(cp.preimages) == 2 * len(cp.numerators) or len(cp.preimages) > 0


def test_circle_points_count_identity():
    # no square collisions: |points| = |preimages| / 2
    d = dual_lattice(parse_lattice(LAT_2PI))
    for radius in (F(1), F(2), F(4), F(5)):
        cp = circle_points(d, radius)
        if cp.numerators:
            assert len(cp.preimages) == 2 * len(cp.numerators)


def test_circle_points_modulus_invariant():
    d = dual_lattice(parse_lattice(LAT_SQRT5))
    for radius in (F(4, 5), F(16, 5), F(1)):
        points = [complex(float(x), float(y)) for x, y in exact_squares(circle_points(d, radius))]
        for pt in points:
            assert abs(abs(pt) - float(radius)) <= 1e-10
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                assert abs(points[i] - points[j]) > 1e-9


def _brute_circle_points(dual, radius_sq):
    """Oracle: test every (m, n) of the box that bounds the ellipse
    Q(m, n) = radius_sq, in Fractions. The numerators are the squares times
    den = k^2 surd, with k the lcm of the dual rows' denominators."""
    radius_sq = F(radius_sq)
    (qa, qb), (_, qc) = dual_gram(dual)
    det = qa * qc - qb * qb
    m_max = int(math.isqrt(int(radius_sq * qc / det))) + 1
    n_max = int(math.isqrt(int(radius_sq * qa / det))) + 1
    pre = []
    squares = {}
    rows = tuple(tuple(F(x, dual.den) for x in row) for row in dual.ints)
    r0, r1 = rows
    for m in range(-m_max, m_max + 1):
        for n in range(-n_max, n_max + 1):
            if (m, n) == (0, 0):
                continue
            if qa * m * m + 2 * qb * m * n + qc * n * n != radius_sq:
                continue
            pre.append((m, n))
            u = m * r0[0] + n * r1[0]
            v = m * r0[1] + n * r1[1]
            sq = ((u * u - v * v) / dual.surd, 2 * u * v / dual.surd)
            if sq not in squares:
                squares[sq] = (m, n)
    order = sorted(squares.keys())
    den = math.lcm(*(x.denominator for row in rows for x in row)) ** 2 * dual.surd
    scaled = [(x * den, y * den) for x, y in order]
    assert all(x.denominator == y.denominator == 1 for x, y in scaled)
    return CircleSquareSet(
        radius_sq=radius_sq,
        reps=tuple(squares[p] for p in order),
        preimages=tuple(sorted(pre)),
        dual=dual,
        numerators=tuple((int(x), int(y)) for x, y in scaled),
        den=den,
    )


def _scaled_image(spec, scale, u):
    """scale times the lattice spec, given in the basis u @ (generators)."""
    exact = parse_lattice(spec).exact
    rows = tuple(tuple(scale * c for c in row) for row in exact.rows)
    return unimodular_image(ExactBasis(rows=rows, surd=exact.surd).lattice(), u)


def _assert_same_circle(dual, radius_sq):
    fast, slow = circle_points(dual, radius_sq), _brute_circle_points(dual, radius_sq)
    for field in dataclasses.fields(fast):
        assert getattr(fast, field.name) == getattr(slow, field.name), field.name


_UNIMODULAR = [
    ((a, b), (c, d))
    for a in range(-3, 4)
    for b in range(-3, 4)
    for c in range(-3, 4)
    for d in range(-3, 4)
    if abs(a * d - b * c) == 1
]
_h = st.integers(2, 39).flatmap(lambda d: st.integers(1, d - 1).map(lambda n: F(n, d)))


@st.composite
def _lattice_and_radius(draw):
    spec, _ = draw(st.sampled_from(TEST_LATTICES))
    scale = draw(st.integers(1, 13))
    u = draw(st.sampled_from(_UNIMODULAR))
    dual = dual_lattice(_scaled_image(spec, scale, u))
    (qa, qb), (_, qc) = dual_gram(dual)
    # the norm of a small dual vector lies on its circle by construction
    m, n = draw(st.integers(1, 3)), draw(st.integers(-3, 3))
    radius_sq = draw(st.one_of(
        _h.map(lambda h: 2 * (1 - h)),
        _h.map(lambda h: 2 * (1 + h)),
        st.tuples(st.integers(1, 24), st.integers(1, 12)).map(lambda pq: F(*pq)),
        st.just(qa * m * m + 2 * qb * m * n + qc * n * n),
    ))
    note("scale=%d u=%s gram=%s radius_sq=%s" % (scale, u, dual_gram(dual), radius_sq))
    return dual, radius_sq


@settings(max_examples=100, deadline=None)
@given(case=_lattice_and_radius())
def test_circle_points_match_box_scan_oracle(case):
    _assert_same_circle(*case)


@pytest.mark.parametrize("spec,h", TEST_LATTICES)
def test_circle_points_skewed_scale_13_regression(spec, h):
    dual = dual_lattice(_scaled_image(spec, 13, ((2, 1), (1, 1))))
    assert dual_gram(dual)[0][1] != 0
    for radius_sq in (2 * (1 - h), 2 * (1 + h)):
        _assert_same_circle(dual, radius_sq)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None, "x", 1j])
def test_circle_points_rejects_non_finite_radius(bad):
    d = dual_lattice(parse_lattice(LAT_2PI))
    with pytest.raises(DomainError, match="radius_sq"):
        circle_points(d, bad)


@pytest.mark.parametrize("spec,ints", [(LAT_2PI, ((1, 0), (0, 1))), (LAT_PI, ((2, 0), (0, 2)))])
def test_circle_points_non_integer_target_is_empty(spec, ints):
    # pi Z^2 and 2 pi Z^2 have the integer duals 2 Z^2 and Z^2 (den 1, surd
    # 1): at radius_sq 1/2 the target N = 1/2 is not an integer, so the
    # circle is empty, and no circle ever holds (0, 0)
    d = dual_lattice(parse_lattice(spec))
    assert (d.ints, d.den, d.surd) == (ints, 1, 1)
    cp = circle_points(d, F(1, 2))
    assert (cp.reps, cp.preimages, cp.numerators, cp.den) == ((), (), (), 1)
    (qa, _), (_, qc) = dual_gram(d)
    for j in range(1, 41):
        pre = circle_points(d, F(j, 4)).preimages
        assert (0, 0) not in pre
        assert all(qa * m * m + qc * n * n == F(j, 4) for m, n in pre)


# ---------------------------------------------------------------------------
# hull helpers


def test_hull_and_membership_exact():
    pts = [(F(0), F(0)), (F(2), F(0)), (F(0), F(2)), (F(1), F(1)), (F(2), F(2))]
    hull = convex_hull(pts)
    assert set(hull) == {(F(0), F(0)), (F(2), F(0)), (F(2), F(2)), (F(0), F(2))}
    assert point_in_hull((F(1), F(1)), hull)
    assert not point_in_hull((F(3), F(0)), hull)


def test_hull_degenerate_cases():
    seg = convex_hull([(F(0), F(0)), (F(2), F(2)), (F(1), F(1))])
    assert set(seg) == {(F(0), F(0)), (F(2), F(2))}
    assert point_in_hull((F(1), F(1)), seg)
    assert not point_in_hull((F(1), F(0)), seg)
    single = convex_hull([(F(1), F(2))])
    assert point_in_hull((F(1), F(2)), single)


def test_intersect_hulls_polygon_segment_point():
    square = convex_hull([(F(-1), F(-1)), (F(1), F(-1)), (F(1), F(1)), (F(-1), F(1))])
    seg = [(F(-2), F(0)), (F(2), F(0))]
    cut = intersect_hulls(seg, square)
    assert set(cut) == {(F(-1), F(0)), (F(1), F(0))}
    assert intersect_hulls([(F(5), F(5))], square) == []
    shifted = convex_hull([(F(3), F(-1)), (F(5), F(-1)), (F(5), F(1)), (F(3), F(1))])
    assert intersect_hulls(square, shifted) == []


def test_origin_membership_matches_combination_grid(rng):
    # brute force at resolution 1e-3 over the weight simplex, for the small
    # circle sets the decision actually meets
    for spec, h in [(LAT_SQRT5, F(3, 5)), (LAT_2PI, F(3, 5)), (LAT_RECT_NONE_HULL, F(3, 5))]:
        d = dual_lattice(parse_lattice(spec))
        for radius in (2 * (1 - h), 2 * (1 + h)):
            cp = circle_points(d, radius)
            pts = [(float(x), float(y)) for x, y in exact_squares(cp)]
            if not pts:
                continue
            exact = point_in_hull((F(0), F(0)), convex_hull(exact_squares(cp)))
            best = math.inf
            if len(pts) == 1:
                best = math.hypot(*pts[0])
            elif len(pts) == 2:
                (x1, y1), (x2, y2) = pts
                for w in np.arange(0.0, 1.0 + 1e-12, 1e-3):
                    best = min(best, math.hypot(w * x1 + (1 - w) * x2, w * y1 + (1 - w) * y2))
            else:
                arr = np.array(pts)
                for w1 in np.arange(0.0, 1.0 + 1e-12, 1e-3):
                    rest = 1.0 - w1
                    w2 = np.arange(0.0, rest + 1e-12, 1e-3)
                    w3 = rest - w2
                    combo = (
                        w1 * arr[0][None, :]
                        + w2[:, None] * arr[1][None, :]
                        + w3[:, None] * arr[2][None, :]
                    )
                    best = min(best, float(np.min(np.linalg.norm(combo, axis=1))))
            assert exact == (best <= 5e-3), (spec, radius, best)


def test_hull_predicates_match_direction_scan(rng):
    # brute-force: origin outside iff a separating direction exists
    for _ in range(40):
        pts = [
            (F(int(a)), F(int(b)))
            for a, b in rng.integers(-6, 7, size=(int(rng.integers(1, 7)), 2))
        ]
        hull = convex_hull(pts)
        exact = point_in_hull((F(0), F(0)), hull)
        arr = np.array([[float(x), float(y)] for x, y in pts])
        thetas = np.arange(0.0, 2 * math.pi, 1e-3)
        dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        separated = bool(np.any(np.max(dirs @ arr.T, axis=1) < -1e-12))
        assert exact == (not separated)


_COORD = st.builds(F, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def _hulls(draw, coord=_COORD):
    """Exact hulls of every shape: a point, a collinear point set (hull a
    point or a segment), a segment, or a polygon from 3-7 points (possibly
    degenerate), with coordinates drawn from coord."""
    point = st.tuples(coord, coord)
    kind = draw(st.sampled_from(["point", "collinear", "segment", "polygon"]))
    if kind == "point":
        return convex_hull([draw(point)])
    if kind == "segment":
        return convex_hull([draw(point), draw(point)])
    if kind == "polygon":
        return convex_hull(draw(st.lists(point, min_size=3, max_size=7)))
    (ax, ay), (dx, dy) = draw(point), draw(point)
    ts = draw(st.lists(coord, min_size=1, max_size=5))
    return convex_hull([(ax + t * dx, ay + t * dy) for t in ts])


def _centroid(pts):
    n = F(len(pts))
    return (sum(p[0] for p in pts) / n, sum(p[1] for p in pts) / n)


@settings(max_examples=400, deadline=None)
@given(h1=_hulls(), h2=_hulls())
def test_intersect_hulls_matches_clip_oracle(h1, h2):
    got = intersect_hulls(h1, h2)
    want = hull_oracle.intersect_hulls(h1, h2)
    note("got %s, want %s" % (got, want))
    assert len(set(got)) == len(got)
    assert set(got) == set(want)
    if len(h1) >= 3 and len(h2) >= 3:
        assert got == want
    if got:
        assert _centroid(got) == _centroid(want)  # the target admissible weighs


# vertices of an octagon: affine images of subsets give hulls of up to 8 vertices
_OCTAGON = ((3, 1), (1, 3), (-1, 3), (-3, 1), (-3, -1), (-1, -3), (1, -3), (3, -1))
_UNIT = st.integers(1, 6).flatmap(lambda n: st.builds(F, st.integers(0, n), st.just(n)))
_NONZERO = st.builds(F, st.sampled_from([*range(-6, 0), *range(1, 7)]), st.integers(1, 3))


@st.composite
def _hull_and_point(draw):
    """A Fraction hull of 0-8 vertices and a point at a vertex, on an edge,
    inside (a positive combination of the vertices), outside (a vertex pushed
    away from the centroid) or anywhere."""
    point = st.tuples(_COORD, _COORD)
    if draw(st.booleans()):
        hull = convex_hull(draw(st.lists(point, max_size=8)))
    else:
        corners = draw(st.lists(st.sampled_from(_OCTAGON), unique=True, max_size=8))
        # the shear (1, 0; c, 1) after (a, b; 0, d): determinant a d, never 0
        a, b, c, d = draw(st.tuples(_NONZERO, _COORD, _COORD, _NONZERO))
        ex, ey = draw(point)
        image = [(a * x + b * y, d * y) for x, y in corners]
        hull = convex_hull([(x + ex, c * x + y + ey) for x, y in image])
    kinds = ["vertex", "edge", "inside", "outside", "anywhere"] if hull else ["anywhere"]
    kind = draw(st.sampled_from(kinds))
    if kind == "anywhere":
        return hull, draw(point), kind
    i = draw(st.integers(0, len(hull) - 1))
    (ax, ay), (bx, by) = hull[i], hull[(i + 1) % len(hull)]
    if kind == "vertex":
        return hull, (ax, ay), kind
    if kind == "edge":
        t = draw(_UNIT)
        return hull, (ax + t * (bx - ax), ay + t * (by - ay)), kind
    if kind == "inside":
        w = draw(st.lists(st.integers(1, 5), min_size=len(hull), max_size=len(hull)))
        pt = tuple(sum(wk * p[c] for wk, p in zip(w, hull)) / F(sum(w)) for c in (0, 1))
        return hull, pt, kind
    cx, cy = _centroid(hull)
    s = draw(st.integers(1, 6).flatmap(lambda n: st.builds(F, st.integers(1, n), st.just(n))))
    return hull, (ax + s * (ax - cx), ay + s * (ay - cy)), kind


@settings(max_examples=500, deadline=None)
@given(case=_hull_and_point())
def test_point_in_hull_matches_branch_oracle_on_fractions_and_integers(case):
    hull, pt, kind = case
    want = hull_oracle.point_in_hull(pt, hull)
    event("%s, %d vertices, %s" % (kind, len(hull), "in" if want else "out"))
    assert point_in_hull(pt, hull) == want
    # the same question on integer numerators over one denominator
    den = math.lcm(*(c.denominator for p in hull + [pt] for c in p))
    ints = [(int(x * den), int(y * den)) for x, y in hull]
    ipt = (int(pt[0] * den), int(pt[1] * den))
    assert hull_oracle.point_in_hull(ipt, ints) == want
    assert point_in_hull(ipt, ints) == want


def _as_fractions(pts):
    return [(F(x), F(y)) for x, y in pts]


def _exact_points(pts):
    return all(type(c) in (int, F) for p in pts for c in p)


def test_intersect_hulls_stays_exact_on_integer_points():
    square = convex_hull([(0, 0), (4, 0), (4, 4), (0, 4)])
    got = intersect_hulls([(-2, 1), (6, 2)], square)
    assert got == [(0, F(5, 4)), (4, F(7, 4))] and _exact_points(got)


@settings(max_examples=300, deadline=None)
@given(h1=_hulls(st.integers(-6, 6)), h2=_hulls(st.integers(-6, 6)))
def test_hull_routines_on_integer_points_match_fraction_points(h1, h2):
    # admissible runs the clip and the barycentric weights on integer
    # numerators: no float may appear, and every result must equal the one
    # for the same points given as Fractions
    got = intersect_hulls(h1, h2)
    assert _exact_points(got)
    assert got == intersect_hulls(_as_fractions(h1), _as_fractions(h2))
    for hull in (h1, h2):
        for target in (hull[0], _centroid(hull), _centroid([hull[0], hull[-1]])):
            # the target as integer numerators over one denominator
            over_one_den = admissibility._centroid([target])
            combo = admissibility._combination_over_hull(over_one_den, hull)
            assert _exact_points(p for p, _ in combo)
            assert all(type(w) is F for _, w in combo)
            assert combo == admissibility._combination_over_hull(over_one_den, _as_fractions(hull))
            assert combo == admissible_oracle.combination_over_hull(
                (F(target[0]), F(target[1])), _as_fractions(hull)
            )


# the CI lattice and more of the surd-5 family whose decision at h = 3/5
# clips a segment by a polygon
SEGMENT_POLYGON_LATTICES = (
    {"gens": [["5*pi*sqrt(5)/2", "0"], ["pi*sqrt(5)/2", "pi*sqrt(5)"]]},
    {"gens": [["5*pi*sqrt(5)/2", "0"], ["-3*pi*sqrt(5)", "4*pi*sqrt(5)"]]},
    {"gens": [["5*pi*sqrt(5)/2", "0"], ["2*pi*sqrt(5)", "pi*sqrt(5)"]]},
    {"gens": [["5*pi*sqrt(5)", "0"], ["-6*pi*sqrt(5)", "pi*sqrt(5)/2"]]},
    {"gens": [["5*pi*sqrt(5)", "0"], ["3*pi*sqrt(5)/2", "3*pi*sqrt(5)"]]},
    {"gens": [["5*pi*sqrt(5)", "0"], ["-pi*sqrt(5)/2", "6*pi*sqrt(5)"]]},
)


# At h = 1/9 the squares are A = {(-784, 0), (784, 0)} / 441 and
# -G = {(588, -784), (588, 784)} / 441: the two segments cross at (588, 0) / 441,
# so the clip of A by -G makes a vertex that neither hull has.
LAT_CROSSING = {"gens": [["3*pi", "3*pi"], ["-6*pi", "9*pi/2"]]}


def test_admissible_crossing_clip_matches_oracle_and_pinned_weights(monkeypatch):
    lat, h = parse_lattice(LAT_CROSSING), F(1, 9)
    made = []
    clip = admissibility._clip_polygon

    def recording(poly, a, b):
        out = clip(poly, a, b)
        made.extend(p for p in out if p not in poly)
        return out

    monkeypatch.setattr(admissibility, "_clip_polygon", recording)
    got = admissible(lat, h)
    assert made == [(588, 0)]
    assert got.verdict == "exists"
    assert got.weights == ([F(1, 8), F(7, 8)], [F(1, 2), F(1, 2)])
    want = admissible_oracle.admissible(lat, h)
    assert got.to_dict() == want.to_dict()
    assert got.weights == want.weights


@pytest.mark.parametrize("spec", SEGMENT_POLYGON_LATTICES)
def test_admissible_segment_polygon_matches_clip_oracle(spec, monkeypatch):
    lat = parse_lattice(spec)
    shapes = []

    def recording(h1, h2):
        shapes.append(sorted((len(h1), len(h2))))
        # the oracle divides with /, which is exact only on Fractions
        return hull_oracle.intersect_hulls(_as_fractions(h1), _as_fractions(h2))

    monkeypatch.setattr(admissibility, "intersect_hulls", recording)
    want = admissible(lat, F(3, 5)).to_dict()
    assert any(small == 2 and big >= 3 for small, big in shapes)
    monkeypatch.undo()
    got = admissible(lat, F(3, 5)).to_dict()
    assert got == want
    assert got["verdict"] == "exists"


# ---------------------------------------------------------------------------
# witness weights


def _fake_set(points):
    pts = sorted(points)
    den = math.lcm(*(x.denominator for p in pts for x in p))
    return CircleSquareSet(
        radius_sq=F(1),
        reps=tuple((0, 0) for _ in pts),
        preimages=(),
        dual=None,
        numerators=tuple((int(x * den), int(y * den)) for x, y in pts),
        den=den,
    )


def test_witness_weights_single_point_against_segment():
    h = F(3, 5)
    lam1, lam2 = 2 * (1 - h), 2 * (1 + h)
    set_a = _fake_set([(-lam1, F(0))])
    set_g = _fake_set([(-lam2, F(0)), (lam2, F(0))])
    ra, rg = witness_weights(set_a, set_g)
    assert ra == [F(1)]
    assert rg == [h / (1 + h), 1 / (1 + h)]  # the rho = 0 family weights
    assert -lam1 * ra[0] + sum(w * p[0] for w, p in zip(rg, exact_squares(set_g))) == 0


def test_witness_weights_symmetric_pairs():
    set_a = _fake_set([(F(-1), F(0)), (F(1), F(0))])
    set_g = _fake_set([(F(0), F(-3)), (F(0), F(3))])
    ra, rg = witness_weights(set_a, set_g)
    assert ra == [F(1, 2), F(1, 2)]
    assert rg == [F(1, 2), F(1, 2)]


def test_witness_weights_infeasible():
    assert witness_weights(_fake_set([(F(1), F(0))]), _fake_set([(F(1), F(0))])) is None


def test_witness_weights_balance_is_exact(rng):
    for _ in range(30):
        pa = [(F(int(a)), F(int(b))) for a, b in rng.integers(-5, 6, size=(3, 2))]
        pg = [(F(int(a)), F(int(b))) for a, b in rng.integers(-5, 6, size=(3, 2))]
        pa, pg = list(set(pa)), list(set(pg))
        out = witness_weights(_fake_set(pa), _fake_set(pg))
        if out is None:
            continue
        ra, rg = out
        sa = sorted(set(pa))
        sg = sorted(set(pg))
        bal_x = sum(w * p[0] for w, p in zip(ra, sa)) + sum(w * p[0] for w, p in zip(rg, sg))
        bal_y = sum(w * p[1] for w, p in zip(ra, sa)) + sum(w * p[1] for w, p in zip(rg, sg))
        assert bal_x == 0 and bal_y == 0
        assert sum(ra) == 1 and sum(rg) == 1
        assert all(w >= 0 for w in ra + rg)


_FAKE_POINTS = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=5, unique=True
)


@settings(max_examples=300, deadline=None)
@given(pa=_FAKE_POINTS, pg=_FAKE_POINTS, dens=st.tuples(st.integers(1, 12), st.integers(1, 12)))
def test_witness_weights_match_fraction_oracle_on_fake_sets(pa, pg, dens):
    # two sets whose squares have different denominators: the numerators
    # brought to den_a den_g give the Fraction points' weights
    set_a = _fake_set([(F(x, dens[0]), F(y, dens[0])) for x, y in pa])
    set_g = _fake_set([(F(x, dens[1]), F(y, dens[1])) for x, y in pg])
    note("dens %d %d" % (set_a.den, set_g.den))
    assert witness_weights(set_a, set_g) == admissible_oracle.witness_weights(set_a, set_g)


@st.composite
def _circle_set(draw, spec, radius_sq):
    scale = draw(st.integers(1, 13))
    u = draw(st.sampled_from(_UNIMODULAR))
    return circle_points(dual_lattice(_scaled_image(spec, scale, u)), radius_sq)


@st.composite
def _circle_pair(draw):
    # A and G from two duals of one test lattice, each at its own scale and
    # basis: with different scales the two denominators differ
    spec, own_h = draw(st.sampled_from(TEST_LATTICES))
    h = draw(st.one_of(st.just(own_h), _h))
    lam1, lam2 = 2 * (1 - h), 2 * (1 + h)
    return draw(_circle_set(spec, lam1)), draw(_circle_set(spec, lam2))


@settings(max_examples=200, deadline=None)
@given(pair=_circle_pair())
def test_witness_weights_match_fraction_oracle_on_dual_lattices(pair):
    set_a, set_g = pair
    note("dens %d %d, counts %d %d" % (set_a.den, set_g.den, len(set_a.numerators),
                                       len(set_g.numerators)))
    assert witness_weights(set_a, set_g) == admissible_oracle.witness_weights(set_a, set_g)


# ---------------------------------------------------------------------------
# the decision


def test_admissible_2pi_lattice_empty_circle():
    assert admissible(parse_lattice(LAT_2PI), F(1, 2)).verdict == "none_empty_circle"


@pytest.mark.parametrize("h", [F(1, 4), F(1, 2), F(3, 4)])
def test_admissible_pi_lattice_empty_for_all_h(h):
    # shortest dual vector has length 2 >= sqrt(2): nothing on either circle
    assert admissible(parse_lattice(LAT_PI), h).verdict == "none_empty_circle"


def test_admissible_sqrt5_pseudo_umbilical():
    res = admissible(parse_lattice(LAT_SQRT5), F(3, 5))
    assert res.verdict == "exists_pseudo_umbilical"
    assert exact_squares(res.set_a) == ((F(-4, 5), F(0)), (F(4, 5), F(0)))
    assert exact_squares(res.set_g) == ((F(-16, 5), F(0)), (F(16, 5), F(0)))
    assert res.witness is not None and res.witness.m == 2 and res.witness.mp == 2


def test_admissible_sqrt5_witness_passes_full_suite():
    lat = parse_lattice(LAT_SQRT5)
    res = admissible(lat, F(3, 5))
    im = build(res.witness)
    rep = verify_immersion(im, samples=100, seed=3)
    assert rep.passed, [c.name for c in rep.failures()]
    psi0 = im.eval(np.zeros(2))
    for g in lat.gens:
        assert float(np.max(np.abs(im.eval(np.array(g)) - psi0))) <= 1e-8


def test_admissible_rect_exists_matches_structure_member():
    res = admissible(parse_lattice(LAT_RECT_EXISTS), F(3, 5))
    assert res.verdict == "exists"
    w = res.witness
    assert (w.m, w.mp) == (1, 2)
    expect = lift_structure(structure_params(0.6, 0.0))
    assert w.h == 0.6
    assert np.allclose(sorted(w.rp_weights), sorted(expect.rp_weights), atol=1e-12)
    im = build(w)
    assert verify_immersion(im, samples=80, seed=7).passed
    psi0 = im.eval(np.zeros(2))
    for g in parse_lattice(LAT_RECT_EXISTS).gens:
        assert float(np.max(np.abs(im.eval(np.array(g)) - psi0))) <= 1e-8


def test_admissible_builds_each_hull_once(monkeypatch):
    calls = []
    real = admissibility.convex_hull
    monkeypatch.setattr(admissibility, "convex_hull", lambda pts: calls.append(1) or real(pts))
    assert admissible(parse_lattice(LAT_RECT_EXISTS), F(3, 5)).verdict == "exists"
    assert len(calls) == 3  # A, G, A and G joint; -conv(G) is the negated hull of G


def test_admissible_none_hull():
    res = admissible(parse_lattice(LAT_RECT_NONE_HULL), F(3, 5))
    assert res.verdict == "none_hull"
    assert exact_squares(res.set_a) == ((F(4, 5), F(0)),)
    assert exact_squares(res.set_g) == ((F(16, 5), F(0)),)


def test_admissible_none_infeasible():
    res = admissible(parse_lattice(LAT_RECT_INFEASIBLE), F(5, 13))
    assert res.verdict == "none_infeasible"
    assert exact_squares(res.set_a) == ((F(16, 13), F(0)),)
    assert exact_squares(res.set_g) == ((F(-36, 13), F(0)),)


def test_admissible_rejects_irrational_h():
    with pytest.raises(DomainError):
        admissible(parse_lattice(LAT_2PI), F(3, 2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None, "x", 1j])
def test_admissible_rejects_non_finite_h(bad):
    with pytest.raises(DomainError, match="h must be a finite rational"):
        admissible(parse_lattice(LAT_2PI), bad)


def test_admissible_unimodular_invariance(rng):
    lat = parse_lattice(LAT_SQRT5)
    lat2 = parse_lattice(LAT_RECT_EXISTS)
    for _ in range(20):
        a = int(rng.integers(-3, 4))
        c = int(rng.integers(-3, 4))
        u = ((1, a), (c, 1 + a * c))  # det = 1
        assert unimodular_image(lat, np.array(u)) == unimodular_image(lat, u)
        assert admissible(unimodular_image(lat, u), F(3, 5)).verdict == "exists_pseudo_umbilical"
        assert admissible(unimodular_image(lat2, u), F(3, 5)).verdict == "exists"
    # strongly skewed bases of the same lattices: the verdict and the exact
    # weights may not depend on how badly conditioned the float basis is; at
    # n = 10**6 the float generators are even dependent to rounding
    for spec, exponents in ((LAT_SQRT5, (3, 4, 5)), (LAT_RECT_EXISTS, (3, 4, 5, 6))):
        base = admissible(parse_lattice(spec), F(3, 5))
        for e in exponents:
            n = 10**e
            u = ((n, n + 1), (n - 1, n))  # det = 1
            res = admissible(unimodular_image(parse_lattice(spec), u), F(3, 5))
            assert (res.verdict, res.weights) == (base.verdict, base.weights), n


def _hex_parts(zs):
    return [(z.real.hex(), z.imag.hex()) for z in zs]


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from([LAT_RECT_EXISTS, LAT_SQRT5]), n=st.integers(1, 10**4))
@example(spec=LAT_RECT_EXISTS, n=10**6)
def test_witness_frequencies_equal_the_float_dual_basis_route(spec, n):
    # frequencies formed from the integer dual rows are the float dual
    # basis's, bit for bit, on skewed bases U = ((n, n+1), (n-1, n))
    lat = unimodular_image(parse_lattice(spec), ((n, n + 1), (n - 1, n)))
    h = F(3, 5)
    res = admissible(lat, h)
    want = admissible_oracle.build_witness(h, res.set_a, res.set_g, res.weights)
    assert _hex_parts(res.witness.mu) == _hex_parts(want.mu)
    assert _hex_parts(res.witness.eta) == _hex_parts(want.eta)


# each lattice with its own h, where the exists and none_infeasible verdicts
# (which clip and weigh) sit at scale 1, or with any h of denominator < 40
_DECISION_CASES = st.sampled_from(
    TEST_LATTICES + tuple((spec, F(3, 5)) for spec in SEGMENT_POLYGON_LATTICES)
    + ((LAT_CROSSING, F(1, 9)),)
).flatmap(lambda spec_h: st.tuples(st.just(spec_h[0]), st.one_of(st.just(spec_h[1]), _h)))


@settings(max_examples=200, deadline=None)
@given(
    case=_DECISION_CASES,
    scale=st.one_of(st.just(1), st.integers(1, 13)),
    u=st.sampled_from(_UNIMODULAR),
)
def test_admissible_matches_fraction_oracle(case, scale, u):
    # deciding on integer numerators gives the Fraction route's verdict,
    # exact weights, circle sets and witness floats
    spec, h = case
    lat = _scaled_image(spec, scale, u)
    got, want = admissible(lat, h), admissible_oracle.admissible(lat, h)
    note("scale=%d u=%s h=%s verdict=%s" % (scale, u, h, want.verdict))
    assert got.to_dict() == want.to_dict()
    assert got.weights == want.weights
    for name in ("set_a", "set_g"):
        a, b = getattr(got, name), getattr(want, name)
        for field in ("numerators", "den", "reps", "preimages"):
            assert getattr(a, field) == getattr(b, field), (name, field)


_SMALL_BASES = (((1, 0), (0, 1)), ((1, 1), (0, 1)), ((1, 0), (1, 1)))
_H_BELOW_30 = sorted({F(n, d) for d in range(2, 30) for n in range(1, d)})


def _assert_weights_match_oracle(lat, h):
    """The verdict, exact weights and JSON of `admissible`, and the weights
    of `witness_weights` on its circles, equal the Fraction route's."""
    got, want = admissible(lat, h), admissible_oracle.admissible(lat, h)
    assert got.to_dict() == want.to_dict()
    assert got.weights == want.weights
    if got.set_a.numerators and got.set_g.numerators:
        assert witness_weights(got.set_a, got.set_g) == admissible_oracle.witness_weights(
            got.set_a, got.set_g
        )
    return got


# the admissibility pool of the benchmark (`admissible_pool` in
# bench/workloads.py): each test lattice at its own h, at scales 1-3 in
# three small bases and at its three large scales in two skewed ones
_LARGE_SCALES = ((11, 12, 13), (21, 22, 23), (5, 6, 7), (11, 12, 13), (11, 12, 13), (11, 12, 13))
_SKEWED_BASES = (((2, 1), (1, 1)), ((1, 1), (1, 2)))
_BENCH_POOL = tuple(
    (spec, h, scale, u)
    for (spec, h), large in zip(TEST_LATTICES, _LARGE_SCALES)
    for scales, bases in (((1, 2, 3), _SMALL_BASES), (large, _SKEWED_BASES))
    for scale in scales
    for u in bases
)


def test_weights_match_fraction_oracle_on_the_benchmark_pool():
    verdicts = set()
    for spec, h, scale, u in _BENCH_POOL:
        verdicts.add(_assert_weights_match_oracle(_scaled_image(spec, scale, u), h).verdict)
    assert len(_BENCH_POOL) == 90
    assert verdicts == {"none_empty_circle", "exists_pseudo_umbilical", "none_hull", "exists",
                        "none_infeasible"}


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from(TEST_LATTICES + ((LAT_CROSSING, F(1, 9)),)),
    h=st.one_of(st.none(), _h),
    n=st.integers(1, 10**4),
)
@example(case=(LAT_RECT_EXISTS, F(3, 5)), h=None, n=10**4)
@example(case=(LAT_SQRT5, F(3, 5)), h=None, n=10**4)
def test_weights_match_fraction_oracle_on_skewed_bases(case, h, n):
    # U = ((n, n+1), (n-1, n)): the same lattice in a badly skewed basis
    spec, own_h = case
    _assert_weights_match_oracle(
        unimodular_image(parse_lattice(spec), ((n, n + 1), (n - 1, n))), own_h if h is None else h
    )


@settings(max_examples=300, deadline=None)
@given(pa=_FAKE_POINTS, pg=_FAKE_POINTS, dens=st.tuples(st.integers(1, 12), st.integers(1, 12)))
def test_hull_weights_on_integer_and_fraction_points_match_fraction_oracle(pa, pg, dens):
    # the weight routines are generic: on integer points, and on the same
    # points over a denominator as Fractions, they give the old route's
    # weights
    for den_a, den_g in ((1, 1), dens):
        fa = sorted((F(x, den_a), F(y, den_a)) for x, y in pa)
        fg = sorted((F(x, den_g), F(y, den_g)) for x, y in pg)
        want = admissible_oracle.hull_weights(fa, convex_hull(fa), fg, convex_hull(fg))
        got = admissibility._hull_weights(fa, convex_hull(fa), fg, convex_hull(fg))
        assert got == want
        if (den_a, den_g) == (1, 1):
            ia, ig = sorted(pa), sorted(pg)
            assert admissibility._hull_weights(ia, convex_hull(ia), ig, convex_hull(ig)) == want


def _exists_results():
    cases = [(spec, h, 1, ((1, 0), (0, 1))) for spec, h in TEST_LATTICES]
    cases += [(LAT_CROSSING, F(1, 9), 1, ((1, 0), (0, 1)))] + list(_BENCH_POOL[::7])
    results = [admissible(_scaled_image(spec, scale, u), h) for spec, h, scale, u in cases]
    return [r for r in results if r.exists]


def test_certificate_refuses_a_weight_moved_by_one_over_the_lcm():
    results = _exists_results()
    assert {r.verdict for r in results} == {"exists", "exists_pseudo_umbilical"}
    for res in results:
        ra, rg = res.weights
        step = F(1, math.lcm(*(w.denominator for w in ra + rg)))
        for side in range(2):
            for k in range(len(res.weights[side])):
                for delta in (step, -step):
                    moved = [list(ra), list(rg)]
                    moved[side][k] += delta
                    with pytest.raises(RuntimeError, match="not convex combinations"):
                        admissibility._build_witness(res.h, res.set_a, res.set_g, tuple(moved))
                # a weight of -1/lcm, its list still summing to 1
                moved = [list(ra), list(rg)]
                j = (k + 1) % len(moved[side])
                moved[side][j] += moved[side][k] + step
                moved[side][k] = -step
                with pytest.raises(RuntimeError, match="not convex combinations"):
                    admissibility._build_witness(res.h, res.set_a, res.set_g, tuple(moved))


def _moved_points(nums, ws):
    """Each way of moving points of one circle that unbalances weights ws:
    two points of different weights swapped, and a weighted point mirrored
    in either axis (which moves only the other coordinate of the sum)."""
    for k in range(len(ws)):
        for j in range(k + 1, len(ws)):
            if ws[k] != ws[j]:
                moved = list(nums)
                moved[k], moved[j] = nums[j], nums[k]
                yield "swap", moved
        (x, y) = nums[k]
        for kind, mirrored, moves in (("x", (-x, y), x), ("y", (x, -y), y)):
            if ws[k] and moves:
                yield kind, nums[:k] + [mirrored] + nums[k + 1:]


def test_certificate_refuses_a_swapped_point():
    # the weights stay convex combinations but no longer balance
    kinds = set()
    for res in _exists_results():
        for name, ws in zip(("set_a", "set_g"), res.weights):
            cs = getattr(res, name)
            for kind, nums in _moved_points(list(cs.numerators), ws):
                sets = {"set_a": res.set_a, "set_g": res.set_g}
                sets[name] = dataclasses.replace(cs, numerators=tuple(nums))
                with pytest.raises(RuntimeError, match="do not balance"):
                    admissibility._build_witness(res.h, sets["set_a"], sets["set_g"], res.weights)
                kinds.add(kind)
    assert kinds == {"swap", "x", "y"}


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from([spec for spec, _ in TEST_LATTICES]),
    scale=st.integers(1, 3),
    u=st.sampled_from(_SMALL_BASES),
)
def test_every_emitted_witness_is_certified(spec, scale, u):
    # the exact weights are a Miyata certificate, and the float witness
    # passes the float admissibility checks
    lat = _scaled_image(spec, scale, u)
    for h in _H_BELOW_30:
        res = admissible(lat, h)
        assert res.exists == (res.witness is not None)
        if not res.exists:
            continue
        (ra, rg), pa, pg = res.weights, exact_squares(res.set_a), exact_squares(res.set_g)
        assert sum(ra) == 1 and sum(rg) == 1 and min(ra + rg) >= 0
        for i in range(2):
            assert sum(w * p[i] for w, p in zip(ra + rg, pa + pg)) == 0
        assert len(set(pa)) == len(pa) and len(set(pg)) == len(pg)
        assert (res.witness.m, res.witness.mp) == (sum(map(bool, ra)), sum(map(bool, rg)))
        rep = validate_miyata(res.witness)
        assert rep.passed, (h, [c.name for c in rep.failures()])


def test_admissible_witness_period_invariant(rng):
    # any existence witness must be periodic over the input lattice
    for spec_lat, h in [(LAT_SQRT5, F(3, 5)), (LAT_RECT_EXISTS, F(3, 5))]:
        lat = parse_lattice(spec_lat)
        res = admissible(lat, h)
        assert res.exists
        im = build(res.witness)
        psi0 = im.eval(np.zeros(2))
        g1, g2 = (np.array(g) for g in lat.gens)
        for _ in range(10):
            a, b = (int(x) for x in rng.integers(-3, 4, 2))
            assert float(np.max(np.abs(im.eval(a * g1 + b * g2) - psi0))) <= 1e-8


# ---------------------------------------------------------------------------
# refusals and the clip to empty


def test_disjoint_hulls_clip_to_empty():
    # two polygons and two segments that do not meet: the clip loop empties
    left = [(0, 0), (2, 0), (1, 2)]
    right = [(5, 0), (7, 0), (6, 2)]
    assert intersect_hulls(convex_hull(left), convex_hull(right)) == []
    assert intersect_hulls(convex_hull([(0, 0), (1, 1)]), convex_hull([(0, 3), (1, 4)])) == []
    # an empty hull meets nothing and holds no point
    assert intersect_hulls([], convex_hull(left)) == [] and not point_in_hull((0, 0), [])
    # conv(A) on y = 0 from x = 1 to 2; -conv(G) on y = x + 1: no balance
    set_a = _fake_set([(F(1), F(0)), (F(2), F(0))])
    set_g = _fake_set([(F(1), F(0)), (F(2), F(1))])
    assert witness_weights(set_a, set_g) is None


_FLOAT_LATTICE = Lattice2(rank=2, gens=((1.0, 0.0), (0.0, 1.0)))
# 10^9 pi Z^2: its dual circles at h = 1/2 span 2.7e9 values of m; the walks
# at 10^6 pi Z^2 took 0.75 s, ten times that for each tenfold scale
_LAT_FINE = {"gens": [["1000000000*pi", "0"], ["0", "1000000000*pi"]]}
# det 2^64 - 1, which the products of numpy int64 entries wrap to -1
_INT64_WRAPPING_U = tuple(
    tuple(np.int64(x) for x in row) for row in ((2**32 + 1, 0), (0, 2**32 - 1))
)


@pytest.mark.parametrize(
    "call,exc,phrase",
    [
        (lambda: parse_lattice_entry("pi/0"), DomainError,
         r"zero denominator in lattice entry 'pi/0'"),
        (lambda: parse_lattice_entry("2*pi*sqrt(3)/0"), DomainError, r"zero denominator"),
        (lambda: parse_lattice_entry(2), DomainError, r"lattice entry must be a string .*, got 2$"),
        (lambda: parse_lattice_entry(["pi"]), DomainError,
         r"lattice entry must be a string .*, got \['pi'\]"),
        (lambda: parse_lattice_entry(None), DomainError,
         r"lattice entry must be a string .*, got None"),
        (lambda: parse_lattice_entry("pi*sqrt(0)"), ValueError,
         r"sqrt argument must be positive in 'pi\*sqrt\(0\)'"),
        (lambda: parse_lattice({"gens": [["pi", "0"], ["0", "pi"], ["pi", "pi"]]}), DomainError,
         r"lattice input must be \{'gens'.*, got "),
        (lambda: parse_lattice({"gens": [["pi", "0", "0"], ["0", "pi"]]}), DomainError,
         r"lattice input must be \{'gens'.*, got "),
        (lambda: parse_lattice({"gens": ["ab", "cd"]}), DomainError,
         r"lattice input must be \{'gens'.*, got "),
        (lambda: parse_lattice({"gens": [["pi", 0], ["0", "pi"]]}), DomainError,
         r"lattice entry must be a string .*, got 0"),
        (lambda: parse_lattice({"lattice": []}), DomainError, r"lattice input must be \{'gens'"),
        (lambda: parse_lattice([1]), DomainError, r"lattice input must be \{'gens'"),
        (lambda: unimodular_image(_FLOAT_LATTICE, ((1, 0), (0, 1))), ExactnessError,
         r"unimodular_image needs exact generator data"),
        (lambda: unimodular_image(parse_lattice(LAT_2PI), ((2, 0), (0, 1))), ValueError,
         r"matrix is not unimodular"),
        # det 1 but not integer: it would build another lattice (none_hull at
        # h = 3/5 on a lattice whose verdict is exists)
        (lambda: unimodular_image(parse_lattice(LAT_RECT_EXISTS), ((F(1, 2), 0), (0, 2))),
         DomainError, r"u must be a 2x2 matrix of integers, got \(\(Fraction\(1, 2\), 0\)"),
        (lambda: unimodular_image(parse_lattice(LAT_2PI), ((1.0, 0), (0, 1))), DomainError,
         r"u must be a 2x2 matrix of integers, got \(\(1\.0, 0\), \(0, 1\)\)"),
        (lambda: unimodular_image(parse_lattice(LAT_2PI), np.eye(2)), DomainError,
         r"u must be a 2x2 matrix of integers, got array"),
        (lambda: unimodular_image(parse_lattice(LAT_2PI), ((True, 0), (0, 1))), DomainError,
         r"u must be a 2x2 matrix of integers, got \(\(True, 0\)"),
        (lambda: unimodular_image(parse_lattice(LAT_2PI), "ab"), DomainError,
         r"u must be a 2x2 matrix of integers, got 'ab'"),
        (lambda: unimodular_image(parse_lattice(LAT_2PI), _INT64_WRAPPING_U), ValueError,
         r"matrix is not unimodular"),
        (lambda: circle_points(dual_lattice(parse_lattice(LAT_2PI)), 0), DomainError,
         r"radius_sq must be positive"),
        (lambda: circle_points(dual_lattice(parse_lattice(LAT_2PI)), F(-1, 2)), DomainError,
         r"radius_sq must be positive"),
        (lambda: admissible(parse_lattice(LAT_2PI), "1/0"), DomainError,
         r"h must be a finite rational number, got '1/0'"),
        (lambda: admissible(parse_lattice(LAT_2PI), 1), DomainError,
         r"h must be a rational in \(0,1\), got 1"),
        # circle walks past 10^8 values of m: refused before any walk (at
        # 10^300 the walk never ended; at 10^9 pi Z^2 it would take minutes)
        (lambda: circle_points(dual_lattice(parse_lattice(LAT_2PI)), 1e300), DomainError,
         r"^radius_sq must give circle walks of at most 10\^8 values of m in all; it gives 10\^150\.3$"),
        (lambda: admissible(parse_lattice(_LAT_FINE), F(1, 2)), DomainError,
         r"^lattice must give circle walks of at most 10\^8 values of m in all; it gives 10\^9\.4$"),
    ],
    ids=[
        "entry-zero-denominator", "entry-surd-zero-denominator", "entry-number", "entry-list",
        "entry-none", "entry-sqrt-zero", "gens-three-rows", "gens-three-columns", "gens-strings",
        "gens-number-entry", "no-gens", "not-a-mapping", "unimodular-float-lattice",
        "unimodular-det-2", "unimodular-half-entry", "unimodular-float-entry",
        "unimodular-float-array", "unimodular-bool-entry", "unimodular-string",
        "unimodular-int64-det-wraps", "radius-zero", "radius-negative", "h-zero-denominator",
        "h-outside", "radius-walk-past-cap", "lattice-walks-past-cap",
    ],
)
def test_admissibility_refusals_name_the_parameter(call, exc, phrase):
    with pytest.raises(exc, match=phrase) as info:
        call()
    assert type(info.value) is exc
