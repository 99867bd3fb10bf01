import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bihsurf.core import DomainError, rational_sqrt_exact
from bihsurf.parameters import angle_family_data
from bihsurf.immersion import build, from_structure
from bihsurf.periodicity import (
    direction_integrality,
    lagrange_gauss,
    period_lattice,
    periodic_direction_search,
    same_lattice,
    torus_case_i,
    torus_case_ii,
    TorusVerdict,
    torus_exists,
)

SQ2PI = math.sqrt(2.0) * math.pi


def _returns_to_start(im, v, tol=1e-8):
    return float(np.max(np.abs(im.eval(np.asarray(v, float)) - im.eval(np.zeros(2))))) <= tol


# ---------------------------------------------------------------------------
# period_lattice


def test_sasahara_lattice_subgroup(sasahara_immersion):
    lat = period_lattice(sasahara_immersion, 20.0)
    assert lat.rank == 2
    # the doubly periodic example: all sqrt2 pi (n, sqrt2 m)
    assert same_lattice(lat.gens, [(SQ2PI, 0.0), (0.0, 2.0 * math.pi)])
    assert same_lattice(lat.gens, [(SQ2PI, 0.0), (-SQ2PI, 2.0 * math.pi)])


def test_rho_zero_irrational_ratio_gives_cylinder():
    h = 0.37  # sqrt(lambda2/lambda1) irrational
    im = from_structure(h, 0.0)
    lat = period_lattice(im, 20.0)
    assert lat.rank == 1
    lam2 = 2.0 * (1.0 + h)
    assert np.allclose(lat.gens[0], (2.0 * math.pi / math.sqrt(lam2), 0.0), atol=1e-9)


def test_rho_zero_rational_ratio_gives_torus():
    im = from_structure(0.8, 0.0)  # sqrt(lambda2/lambda1) = 3
    lat = period_lattice(im, 25.0)
    assert lat.rank == 2
    lam1, lam2 = 0.4, 3.6
    expect = [(2 * math.pi / math.sqrt(lam2), 0.0), (0.0, 2 * math.pi / math.sqrt(lam1))]
    assert same_lattice(lat.gens, expect)


def test_generic_angle_gives_plane():
    im = from_structure(0.5, 0.3)
    assert period_lattice(im, 15.0).rank == 0


def test_period_lattice_points_return_to_start(sasahara_immersion, rng):
    lat = period_lattice(sasahara_immersion, 20.0)
    g1, g2 = (np.array(g) for g in lat.gens)
    for _ in range(20):
        a, b = (int(x) for x in rng.integers(-4, 5, 2))
        assert _returns_to_start(sasahara_immersion, a * g1 + b * g2)


@pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf, 0, -1.0, "20", 1j, None])
def test_period_lattice_rejects_bad_search_bound(sasahara_immersion, bound):
    with pytest.raises(DomainError, match="search_bound must be a positive finite number"):
        period_lattice(sasahara_immersion, bound)


def test_period_lattice_requires_canonical():
    data = angle_family_data(0.5, 0.4)
    rotated = type(data)(
        h=data.h,
        mu=(complex(math.cos(0.3), math.sin(0.3)),),
        eta=tuple(e * complex(math.cos(0.3), math.sin(0.3)) for e in data.eta),
        r_weights=data.r_weights,
        rp_weights=data.rp_weights,
    )
    with pytest.raises(ValueError, match="canonical"):
        period_lattice(build(rotated), 10.0)


def test_lagrange_gauss_reduces():
    u, v = lagrange_gauss(np.array([1.0, 0.0]), np.array([7.0, 1.0]))
    assert np.linalg.norm(u) <= np.linalg.norm(v)
    assert same_lattice([tuple(u), tuple(v)], [(1.0, 0.0), (7.0, 1.0)])


def test_same_lattice_rejects_sublattice():
    assert not same_lattice([(1.0, 0.0), (0.0, 1.0)], [(2.0, 0.0), (0.0, 1.0)])


# ---------------------------------------------------------------------------
# periodic directions


def test_periodic_direction_search_finds_verified_roots():
    dirs = periodic_direction_search(0.5, -1, 1, (0.1, 1.4))
    assert dirs
    for d in dirs:
        assert abs(direction_integrality(0.5, -1, 1, d.rho) - d.k2) <= 1e-10
        im = build(angle_family_data(0.5, d.rho))
        assert _returns_to_start(im, d.v)


def test_direction_integrality_limit_at_right_end():
    h = 0.5
    ratio = math.sqrt(3.0)
    val = direction_integrality(h, -1, 1, math.pi / 2 - 1e-8)
    assert abs(val - ratio * (-1)) <= 1e-6


def test_periodic_direction_degenerate_pair():
    # h = 4/5 has sqrt(lambda2/lambda1) = 3, so (K0, K1) = (1, 3) degenerates
    with pytest.raises(DomainError, match="K1"):
        periodic_direction_search(0.8, 1, 3, (0.2, 1.2))


def test_closing_ratios_match_trig_route(rng):
    # A k0 + B k1 reproduces the closing quantity at the angle carrying s
    from bihsurf.parameters import s_of_rho
    from bihsurf.periodicity import closing_ratios

    for _ in range(20):
        h = float(rng.uniform(0.1, 0.9))
        rho = float(rng.uniform(0.05, math.pi / 2 - 0.05))
        s = s_of_rho(h, rho)
        a_coef, b_coef = closing_ratios(h, s)
        assert a_coef > 0 > b_coef
        for k0, k1 in [(1, 0), (0, 1), (2, -3), (-1, 1)]:
            direct = direction_integrality(h, k0, k1, rho)
            assert abs(a_coef * k0 + b_coef * k1 - direct) <= 1e-9


def test_closing_ratios_are_the_parameter_square_roots(rng):
    # for torus members: 1/A^2 = a and B^2/A^2 = b, and the shared weight
    # satisfies both defining quadratics exactly
    from bihsurf.periodicity import closing_ratios

    for pqrt in [(1, 2, 1, 2), (1, 3, 1, 2), (2, 3, 1, 4)]:
        res = torus_case_ii(*pqrt)
        a, b = res.params.a, res.params.b
        h, s = res.params.h, res.params.s
        a_coef, b_coef = closing_ratios(float(h), float(s))
        assert abs(1.0 / a_coef**2 - float(a)) <= 1e-12
        assert abs(b_coef**2 / a_coef**2 - float(b)) <= 1e-12
        # exact quadratic identities for the common weight
        assert (1 + h) * s**2 - (2 * h + 1) * s + h * (1 + a) == 0
        assert (1 + h) * s**2 - s + h * b == 0


def test_torus_angle_closed_forms(rng):
    # rational closed forms of sin^2/cos^2 of both angles in (a, b); the
    # second cosine comes from the Pythagorean identity
    from bihsurf.parameters import rho_tilde_of

    for pqrt in [(1, 2, 1, 2), (1, 3, 1, 2), (2, 3, 1, 4), (1, 2, 2, 3)]:
        res = torus_case_ii(*pqrt)
        a, b, h = float(res.params.a), float(res.params.b), float(res.params.h)
        rho = res.rho
        rho_t = rho_tilde_of(h, rho)
        big = 1 + (a - b) ** 2 + 2 * (a + b)
        denom = (1 + a + b) * ((a - b) ** 2 + a + b)
        assert abs(math.sin(rho) ** 2 - a * big / denom) <= 1e-12
        assert abs(math.cos(rho) ** 2 - b * (1 - a + b) ** 2 / denom) <= 1e-12
        assert abs(math.sin(rho_t) ** 2 - b * big / denom) <= 1e-12
        assert abs(math.cos(rho_t) ** 2 - (1 - b * big / denom)) <= 1e-12


def test_closing_ratios_domain():
    from bihsurf.periodicity import closing_ratios

    with pytest.raises(DomainError):
        closing_ratios(0.5, 1.0 / 3.0)  # endpoint s = h/(1+h) excluded


def test_period_vector_formula_matches_congruences():
    h, k0, k1 = 0.5, -1, 1
    dirs = periodic_direction_search(h, k0, k1, (0.3, 1.2))
    lam1, lam2 = 1.0, 3.0
    for d in dirs[:3]:
        tx, ty = d.v
        assert ty == pytest.approx(2 * math.pi * k0 / math.sqrt(lam1), abs=1e-12)
        expected_tx = (2 * math.pi / math.sin(d.rho)) * (
            k1 / math.sqrt(lam2) - k0 * math.cos(d.rho) / math.sqrt(lam1)
        )
        assert tx == pytest.approx(expected_tx, abs=1e-12)


# ---------------------------------------------------------------------------
# exact torus constructions


def test_case_i_q3():
    res = torus_case_i(3)
    assert res.h == Fraction(4, 5)
    im = from_structure(0.8, 0.0)
    for g in res.lattice.gens:
        assert _returns_to_start(im, g)
    # the exact construction agrees with the numerically found period lattice
    numeric = period_lattice(im, 25.0)
    assert same_lattice(res.lattice.gens, numeric.gens)
    window = {tuple(np.round(p, 9)) for p in res.lattice.points(3)}
    assert window == {tuple(np.round(p, 9)) for p in numeric.points(3)}


def test_case_i_q17():
    assert torus_case_i(17).h == Fraction(144, 145)


def test_case_i_rational_q():
    res = torus_case_i(Fraction(3, 2))
    assert res.h == Fraction(5, 13)
    im = from_structure(float(res.h), 0.0)
    for g in res.lattice.gens:
        assert _returns_to_start(im, g)
    # exact inverse relation
    from bihsurf.core import rational_sqrt_exact

    assert rational_sqrt_exact((1 + res.h) / (1 - res.h)) == Fraction(3, 2)


def test_case_i_rejects_q_at_most_one():
    with pytest.raises(DomainError):
        torus_case_i(1)
    with pytest.raises(DomainError):
        torus_case_i(Fraction(2, 3))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), None])
def test_case_i_rejects_non_finite_q(bad):
    with pytest.raises(DomainError, match="q must be a finite rational"):
        torus_case_i(bad)


def test_case_ii_sasahara_values():
    res = torus_case_ii(1, 2, 1, 2)
    assert res.params.h == Fraction(1, 2)
    assert res.v1[0] == pytest.approx(SQ2PI, abs=1e-12)
    assert res.v1[1] == 0.0
    assert res.v2[0] == pytest.approx(-SQ2PI, abs=1e-12)
    assert res.v2[1] == pytest.approx(2 * math.pi, abs=1e-12)
    assert same_lattice(res.lattice.gens, [(SQ2PI, 0.0), (-SQ2PI, 2 * math.pi)])


def test_case_ii_generator_closed_forms_match_trig_forms():
    # v1, v2 in terms of (a, b) equal the direct 2 pi / (sqrt(lambda) sin rho)
    # forms, and h, s follow from (a, b), for every p, q, r, t <= 9
    for p, q, r, t in itertools.product(range(1, 10), repeat=4):
        a, b = Fraction(p * p, q * q), Fraction(r * r, t * t)
        if (a - b) ** 2 >= 1:
            continue
        res = torus_case_ii(p, q, r, t)
        assert (res.params.a, res.params.b) == (a, b)
        assert res.params.h == _h_of_squares(p, q, r, t)
        assert res.params.s == (1 + a - b) / 2
        h = float(res.params.h)
        lam1, lam2 = 2 * (1 - h), 2 * (1 + h)
        rho = res.rho
        v1_trig = (2 * math.pi / (math.sqrt(lam2) * math.sin(rho)), 0.0)
        v2_trig = (
            -2 * math.pi * math.cos(rho) / (math.sqrt(lam1) * math.sin(rho)),
            2 * math.pi / math.sqrt(lam1),
        )
        assert np.allclose(res.v1, v1_trig, atol=1e-9)
        assert np.allclose(res.v2, v2_trig, atol=1e-9)


def test_case_ii_periodicity_of_admissible_combinations(rng):
    for pqrt in [(1, 2, 1, 2), (1, 4, 1, 4), (1, 2, 1, 3), (2, 3, 1, 2)]:
        res = torus_case_ii(*pqrt)
        im = build(angle_family_data(float(res.params.h), res.rho))
        v1, v2 = np.array(res.v1), np.array(res.v2)
        found = 0
        for k0 in range(-3, 4):
            for k1 in range(-3, 4):
                if (k0, k1) == (0, 0):
                    continue
                if res.member_condition(k0, k1):
                    assert _returns_to_start(im, k1 * v1 + k0 * v2)
                    found += 1
                else:
                    assert not _returns_to_start(im, k1 * v1 + k0 * v2, tol=1e-3)
        assert found > 0
        # the guaranteed full-rank sublattice is always periodic
        for g in res.sublattice:
            assert _returns_to_start(im, g)
        for g in res.lattice.gens:
            assert _returns_to_start(im, g)


def test_case_ii_equal_parameters_mean_curvature(rng):
    # a = b gives h = 1/(1 + 4a)
    for _ in range(10):
        r, t = (int(x) for x in rng.integers(1, 9, 2))
        a = Fraction(r * r, t * t)
        res = torus_case_ii(r, t, r, t)
        assert res.params.h == 1 / (1 + 4 * a)


def test_case_ii_remark_values():
    # a = b = 1/16 gives h = 4/5; a = b = 1/36 gives 9/10 by the same
    # formula, while the square-ratio route at q = 17 gives 144/145
    assert torus_case_ii(1, 4, 1, 4).params.h == Fraction(4, 5)
    assert torus_case_ii(1, 6, 1, 6).params.h == Fraction(9, 10)
    assert torus_case_i(17).h == Fraction(144, 145)


def test_case_ii_domain_error():
    with pytest.raises(DomainError):
        torus_case_ii(3, 1, 1, 2)  # (a-b)^2 = (9 - 1/4)^2 >= 1


@pytest.mark.parametrize(
    "pqrt, name",
    [((1.5, 2, 1, 2), "p"), ((1, Fraction(2), 1, 2), "q"), ((1, 2, "1", 2), "r"),
     ((1, 2, 1, 0), "t"), ((-1, 2, 1, 2), "p")],
)
def test_case_ii_names_bad_parameter(pqrt, name):
    with pytest.raises(DomainError, match="%s must be a positive integer" % name):
        torus_case_ii(*pqrt)


def test_case_ii_accepts_numpy_integers():
    res = torus_case_ii(*np.array([1, 2, 1, 2]))
    assert res.params == torus_case_ii(1, 2, 1, 2).params
    assert type(res.params.p) is int


# ---------------------------------------------------------------------------
# existence oracle


def test_torus_exists_half():
    v = torus_exists(Fraction(1, 2), 20)
    assert v.kind == "case_ii"
    assert v.pqrt == (1, 2, 1, 2)
    im = build(angle_family_data(0.5, v.case_ii.rho))
    for g in v.generators:
        assert _returns_to_start(im, g)


def test_torus_exists_four_fifths_routes_to_case_i():
    v = torus_exists(Fraction(4, 5), 20)
    assert v.kind == "case_i"
    assert v.q == 3
    im = from_structure(0.8, 0.0)
    for g in v.generators:
        assert _returns_to_start(im, g)


def test_torus_exists_half_fails_case_i():
    from bihsurf.core import rational_sqrt_exact

    h = Fraction(1, 2)
    assert rational_sqrt_exact((1 + h) / (1 - h)) is None  # 3 is not a square


def test_torus_exists_not_found_within_bound():
    v = torus_exists(Fraction(339, 341), 6)
    assert v.kind == "not_found"
    assert v.generators == ()


def test_torus_exists_rejects_bad_h():
    with pytest.raises(DomainError):
        torus_exists(Fraction(3, 2), 5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), None, "x"])
def test_torus_exists_rejects_non_finite_h(bad):
    with pytest.raises(DomainError, match="h must be a finite rational"):
        torus_exists(bad, 5)


@pytest.mark.parametrize("bound", [0, -3, 2.5])
def test_torus_exists_rejects_bad_search_bound(bound):
    with pytest.raises(DomainError, match="search_bound"):
        torus_exists(Fraction(3, 7), bound)


def test_torus_exists_not_found_at_bound_30():
    assert torus_exists(Fraction(3, 7), 30).kind == "not_found"


def test_torus_exists_two_roots_smallest_witness():
    # at h = 31/410 and a = 25/16 both roots of the quadratic give square b:
    # (r, t) = (41, 28) and (11, 12); the smaller pair wins, as in the oracle
    h = Fraction(31, 410)
    assert torus_case_ii(5, 4, 41, 28).params.h == h
    assert torus_exists(h, 41).pqrt == (5, 4, 11, 12)


def _brute_torus_exists(h, search_bound):
    """Oracle: try every (p, q, r, t) <= search_bound in lexicographic order
    and return the first one whose (a, b) gives mean curvature h."""
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


def _h_of_squares(p, q, r, t):
    a, b = Fraction(p * p, q * q), Fraction(r * r, t * t)
    if (a - b) ** 2 >= 1:
        return None
    return (1 - (a - b) ** 2) / (1 + (a - b) ** 2 + 2 * (a + b))


_small_denominator_h = st.integers(2, 39).flatmap(
    lambda d: st.integers(1, d - 1).map(lambda n: Fraction(n, d))
)
_torus_h = st.tuples(*[st.integers(1, 9)] * 4).map(lambda pqrt: _h_of_squares(*pqrt)).filter(
    lambda h: h is not None
)


@settings(max_examples=120, deadline=None)
@given(h=st.one_of(_small_denominator_h, _torus_h), bound=st.integers(1, 10))
def test_torus_exists_matches_brute_force_oracle(h, bound):
    fast, slow = torus_exists(h, bound), _brute_torus_exists(h, bound)
    assert (fast.kind, fast.pqrt, fast.q) == (slow.kind, slow.pqrt, slow.q)
    assert fast.to_dict() == slow.to_dict()


def test_torus_verdict_json_shape():
    d = torus_exists(Fraction(1, 2), 20).to_dict()
    assert d["h"] == "1/2"
    assert d["verdict"] == "case_ii"
    assert d["witness"]["p"] == 1
    assert len(d["generators"]) == 2
