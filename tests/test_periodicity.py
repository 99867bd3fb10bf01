import functools
import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

import direction_oracle
import torus_oracle
from bihsurf.core import MAX_SQUAREFREE, DomainError
from bihsurf.parameters import MiyataData, angle_family_data, canonicalize, rho_max, rho_tilde_of
from bihsurf.parameters import s_of_rho
from bihsurf.immersion import build, extend_dimension, from_structure
from bihsurf.periodicity import (
    ExactBasis,
    Lattice2,
    _lattice_of_periods,
    closing_ratios,
    direction_integrality,
    lagrange_gauss,
    period_lattice,
    period_vector,
    periodic_direction_search,
    same_lattice,
    torus_case_i,
    torus_case_ii,
    TorusParams,
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


@pytest.mark.parametrize(
    "bound",
    [math.nan, math.inf, -math.inf, 0, -1.0, "20", 1j, None, True, 1e20, 1e300, 1.7e308, 10**400],
)
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


def _loop_period_lattice(im, search_bound):
    """Oracle: the pair-by-pair scan `period_lattice` ran before it screened
    the grid with numpy (validation left out), ending in the list-based tail
    it had before its tail ran on arrays."""
    return torus_oracle._lattice_of_periods(_loop_periods(im, search_bound))


def _loop_periods(im, search_bound):
    """The certified periods of the pair-by-pair scan, in its row-major order."""
    v_rows = im.wave_vectors / (2.0 * math.pi)
    n_rows = len(v_rows)
    best, pair = -1.0, None
    for i in range(n_rows):
        for j in range(i + 1, n_rows):
            d = abs(v_rows[i, 0] * v_rows[j, 1] - v_rows[i, 1] * v_rows[j, 0])
            if d > best:
                best, pair = d, (i, j)
    i, j = pair
    m2 = np.linalg.inv(np.array([v_rows[i], v_rows[j]]))
    others = [l for l in range(n_rows) if l not in (i, j)]
    psi0 = im.eval(np.zeros(2))

    ki_max = int(math.ceil(np.linalg.norm(v_rows[i]) * search_bound)) + 1
    kj_max = int(math.ceil(np.linalg.norm(v_rows[j]) * search_bound)) + 1
    sols = []
    for ki in range(-ki_max, ki_max + 1):
        for kj in range(-kj_max, kj_max + 1):
            if ki == 0 and kj == 0:
                continue
            z = m2 @ np.array([ki, kj], dtype=float)
            if z @ z > search_bound**2:
                continue
            ok = True
            for l in others:
                phase = float(v_rows[l] @ z)
                if abs(phase - round(phase)) > 1e-10 * max(1.0, abs(phase)):
                    ok = False
                    break
            if ok and np.max(np.abs(im.eval(z) - psi0)) <= 1e-9:
                sols.append(z)
    return sols


_CASE_II_SMALL = [
    pqrt
    for pqrt in itertools.product(range(1, 10), repeat=4)
    if math.gcd(pqrt[0], pqrt[1]) == math.gcd(pqrt[2], pqrt[3]) == 1
    and (Fraction(pqrt[0] ** 2, pqrt[1] ** 2) - Fraction(pqrt[2] ** 2, pqrt[3] ** 2)) ** 2 < 1
]
# rho = 0 members: sqrt(lambda2/lambda1) = 3, 2, 3/2 (tori) and irrational (cylinders)
_RHO_ZERO_H = (0.8, 0.6, 5 / 13, 0.37, 0.5, 0.21)


@functools.lru_cache(maxsize=256)
def _member(kind, key, steps):
    if kind == "case_ii":
        res = torus_case_ii(*key)
        im = build(canonicalize(angle_family_data(float(res.params.h), res.rho)))
    elif kind == "rho_zero":
        im = from_structure(key, 0.0)
    else:
        h, frac = key
        im = from_structure(h, frac * rho_max(h))
    for _ in range(steps):
        im = extend_dimension(im)
    return im


# the case-ii branch twice: a torus needs the bound past its longer generator
_CASE_II_MEMBERS = st.tuples(st.just("case_ii"), st.sampled_from(_CASE_II_SMALL))
_MEMBERS = st.one_of(
    _CASE_II_MEMBERS,
    _CASE_II_MEMBERS,
    st.tuples(st.just("rho_zero"), st.sampled_from(_RHO_ZERO_H)),
    st.tuples(
        st.just("generic"),
        st.tuples(st.sampled_from((0.2, 0.5, 0.7)), st.sampled_from((0.17, 0.45, 0.83))),
    ),
)


@settings(max_examples=300, deadline=None)
# half the draws unextended: no extended member drawn here closed up as a torus
@given(member=_MEMBERS, steps=st.sampled_from((0, 0, 0, 1, 2, 3)), bound=st.floats(1.0, 40.0))
# bounds at the float length of a generator, the disk's edge: there a batched
# product (k @ m2.T, or (z * z).sum(-1)) rounds otherwise than the per-pair
# ones and moves the last three of these across the edge
@example(member=("rho_zero", 0.37), steps=0, bound=3.795811060554742)  # rank 1
@example(member=("rho_zero", 0.8), steps=0, bound=9.934588265796101)  # rank 2
@example(member=("case_ii", (1, 1, 5, 6)), steps=0, bound=5.1568498860621945)  # rank 1
@example(member=("case_ii", (1, 1, 5, 6)), steps=0, bound=24.357193737715217)  # rank 2
@example(member=("case_ii", (1, 1, 4, 5)), steps=0, bound=20.301593035756866)  # rank 1
@example(member=("case_ii", (1, 1, 1, 4)), steps=0, bound=4.511768952112552)  # rank 0
def test_period_lattice_matches_loop_oracle(member, steps, bound):
    im = _member(*member, steps)
    lat = period_lattice(im, bound)
    expect = _loop_period_lattice(im, bound)
    event("rank %d" % expect.rank)
    assert (lat.rank, lat.gens) == (expect.rank, expect.gens)


def _both_tails(sols):
    """What the array tail and the list-based oracle tail make of the same
    periods: (rank, gens), or the text of the RuntimeError raised."""
    def outcome(tail, arg):
        try:
            lat = tail(arg)
        except RuntimeError as exc:
            return str(exc)
        return lat.rank, lat.gens

    rows = [np.array(z, dtype=float) for z in sols]
    return (
        outcome(_lattice_of_periods, np.array(rows).reshape(-1, 2)),
        outcome(torus_oracle._lattice_of_periods, rows),
    )


@settings(max_examples=120, deadline=None)
@given(member=_MEMBERS, steps=st.sampled_from((0, 0, 0, 1)), bound=st.floats(1.0, 40.0),
       data=st.data())
def test_period_tail_matches_list_oracle_on_member_periods(member, steps, bound, data):
    sols = _loop_periods(_member(*member, steps), bound)
    if data.draw(st.booleans(), label="permuted"):
        sols = [sols[k] for k in data.draw(st.permutations(range(len(sols))), label="order")]
    new, old = _both_tails(sols)
    event("rank %d" % old[0] if isinstance(old, tuple) else "refused")
    assert new == old


_COORD = st.one_of(st.floats(-10.0, -1e-2), st.floats(1e-2, 10.0))


@st.composite
def _synthetic_periods(draw):
    """Integer combinations of a random basis (its second vector optionally
    a mirror of the first, so lengths tie exactly), maybe with gaps or a
    half-integer point; multiples along one line, maybe with a half multiple;
    or no period at all."""
    kind = draw(st.sampled_from(("lattice", "lattice", "collinear", "empty")))
    if kind == "empty":
        return []
    x, y = draw(_COORD), draw(_COORD)
    b1 = np.array([x, y])
    if kind == "collinear":
        ks = draw(st.lists(st.sampled_from([k for k in range(-6, 7) if k]), min_size=1, max_size=8))
        pts = [k * b1 for k in ks]
        if draw(st.booleans()):
            pts.append((draw(st.integers(-3, 3)) + 0.5) * b1)
    else:
        tie = draw(st.sampled_from(("none", "mirror_x", "mirror_y", "swap")))
        b2 = {
            "none": np.array([draw(_COORD), draw(_COORD)]),
            "mirror_x": np.array([x, -y]),
            "mirror_y": np.array([-x, y]),
            "swap": np.array([y, x]),
        }[tie]
        assume(abs(x * b2[1] - y * b2[0]) > 0.05 * math.hypot(x, y) * math.hypot(*b2))
        k = draw(st.integers(1, 3))
        pts = [a * b1 + b * b2 for a in range(-k, k + 1) for b in range(-k, k + 1) if a or b]
        if draw(st.booleans()):  # gaps: a subset may leave some period outside
            pts = [z for z, keep in zip(pts, draw(st.lists(st.booleans(), min_size=len(pts),
                                                           max_size=len(pts)))) if keep]
        if draw(st.booleans()):
            pts.append((draw(st.integers(-2, 2)) + 0.5) * b1 + draw(st.integers(-2, 2)) * b2)
    order = draw(st.permutations(range(len(pts))))
    return [pts[k] for k in order]


@settings(max_examples=400, deadline=None)
@given(sols=_synthetic_periods())
def test_period_tail_matches_list_oracle_on_synthetic_periods(sols):
    new, old = _both_tails(sols)
    event("rank %d" % old[0] if isinstance(old, tuple) else "refused")
    assert new == old


def test_period_lattice_memory_bounded_by_chunk():
    im = from_structure(0.5, 0.3)
    tracemalloc.start()
    try:
        assert period_lattice(im, 1500.0).rank == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_lagrange_gauss_reduces():
    u, v = lagrange_gauss(np.array([1.0, 0.0]), np.array([7.0, 1.0]))
    assert np.linalg.norm(u) <= np.linalg.norm(v)
    assert same_lattice([tuple(u), tuple(v)], [(1.0, 0.0), (7.0, 1.0)])


def test_same_lattice_rejects_sublattice():
    assert not same_lattice([(1.0, 0.0), (0.0, 1.0)], [(2.0, 0.0), (0.0, 1.0)])


def test_same_lattice_of_a_singular_basis_is_false():
    # neither basis can be inverted when one is singular: no unimodular change
    singular = [(1.0, 2.0), (2.0, 4.0)]
    assert not same_lattice(singular, [(1.0, 0.0), (0.0, 1.0)])
    assert not same_lattice([(1.0, 0.0), (0.0, 1.0)], singular)
    assert not same_lattice(singular, singular)


# ---------------------------------------------------------------------------
# periodic directions


def test_periodic_direction_search_finds_verified_roots():
    dirs = periodic_direction_search(0.5, -1, 1, (0.1, 1.4))
    assert dirs
    for d in dirs:
        assert abs(direction_integrality(0.5, -1, 1, d.rho) - d.k2) <= 1e-10
        im = build(angle_family_data(0.5, d.rho))
        assert _returns_to_start(im, d.v)


def test_periodic_direction_rho_is_a_float():
    dirs = periodic_direction_search(0.5, 1, 2, (0.05, 1.5))
    assert dirs
    assert all(type(d.rho) is float for d in dirs)


@pytest.mark.parametrize(
    "h, k0, k1, window, count",
    [
        (0.5, -1, 1, (0.1, 1.4), 25),
        (0.5, 3, -4, (0.01, 0.05), 736),
        # the grid point 1024 is a float where the closing quantity is exactly
        # -5, and the cell below brackets the same root: two roots 4.5e-13
        # apart, of which one is kept
        (0.5, -1, 1, (0.42929260601083696, 0.929170535698337), 3),
    ],
)
def test_periodic_direction_dedupe_matches_quadratic_oracle(h, k0, k1, window, count):
    dirs = periodic_direction_search(h, k0, k1, window)
    assert dirs == direction_oracle.periodic_direction_search(h, k0, k1, window)
    assert len(dirs) == count


@pytest.mark.parametrize("k0, k1, count", [(3, -4, 9191), (1, 2, 269)])
def test_cylinder_directions_at_one_half_each_close(k0, k1, count):
    # every certified direction of the window at h = 1/2 is a period of its
    # member: psi(v) returns to psi(0) within 1e-10
    dirs = periodic_direction_search(0.5, k0, k1, (1e-3, math.pi / 2 - 1e-3))
    assert len(dirs) == count
    worst = 0.0
    for d in dirs:
        im = build(angle_family_data(0.5, d.rho))
        worst = max(worst, float(np.max(np.abs(im.eval(np.array(d.v)) - im.eval(np.zeros(2))))))
    assert worst <= 1e-10, worst


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


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda: periodic_direction_search(1.5, 1, 2, (0.1, 1.0)), "h", id="search-h1.5"),
        pytest.param(lambda: periodic_direction_search(1.0, 1, 2, (0.1, 1.0)), "h", id="search-h1"),
        pytest.param(lambda: periodic_direction_search(0.5, 1, 2, 0.3), "window", id="search-window"),
        pytest.param(lambda: closing_ratios(-0.5, 0.5), "h", id="closing-h"),
        pytest.param(lambda: direction_integrality(1.5, 1, 2, 0.3), "h", id="integrality-h"),
        pytest.param(lambda: direction_integrality(0.5, 1, 2, 0.0), "rho", id="integrality-rho"),
        pytest.param(lambda: period_vector(0.5, 1, 2, 0.0), "rho", id="vector-rho0"),
        pytest.param(lambda: period_vector(0.5, 1, 2, math.nan), "rho", id="vector-rho-nan"),
        # the first grid cell spans about 1e300 integers; the call never returned
        pytest.param(lambda: periodic_direction_search(0.5, 1, 2, (1e-300, 1.0)), "window",
                     id="search-window-1e-300"),
        pytest.param(lambda: periodic_direction_search(0.5, 10**300, 1, (0.1, 1.0)), "window",
                     id="search-k0-1e300"),
        # the closing quantity is infinite at the subnormal grid point
        pytest.param(lambda: periodic_direction_search(0.5, 1, 2, (5e-324, 1.0)), "window",
                     id="search-window-subnormal"),
    ],
)
def test_direction_helpers_reject_bad_input_by_name(call, name):
    # before any bisection: the (1e-300, 1.0) window never returned
    start = time.perf_counter()
    with pytest.raises(DomainError, match="^%s must" % name):
        call()
    assert time.perf_counter() - start < 60.0


_H = st.floats(0.01, 0.99)
_K = st.integers(-10**6, 10**6)


def _bits(x):
    return tuple(float(c).hex() for c in (x if isinstance(x, tuple) else (x,)))


@settings(max_examples=400, deadline=None)
@given(h=_H, k0=_K, k1=_K, rho=st.floats(1e-300, math.pi / 2))
@example(h=0.5, k0=3, k1=-4, rho=5e-324)
@example(h=0.5, k0=3, k1=-4, rho=math.pi / 2)
def test_checked_closed_forms_equal_the_oracle_copies_bit_for_bit(h, k0, k1, rho):
    # each public function is its checks plus one kernel call: the same
    # floats as its body before the split
    assert _bits(direction_integrality(h, k0, k1, rho)) == _bits(
        direction_oracle.direction_integrality(h, k0, k1, rho))
    assert _bits(period_vector(h, k0, k1, rho)) == _bits(direction_oracle.period_vector(h, k0, k1, rho))
    assert _bits(rho_tilde_of(h, rho)) == _bits(direction_oracle.rho_tilde_of(h, rho))
    assert _bits(s_of_rho(h, rho)) == _bits(direction_oracle.s_of_rho(h, rho))
    assert _bits(rho_tilde_of(h, 0.0)) == _bits(direction_oracle.rho_tilde_of(h, 0.0))
    assert _bits(s_of_rho(h, 0.0)) == _bits(direction_oracle.s_of_rho(h, 0.0))


def _search_or_refusal(search, h, k0, k1, window):
    try:
        return [(_bits(d.rho), d.k2, _bits(d.v)) for d in search(h, k0, k1, window)]
    except DomainError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(h=_H, k0=st.integers(-12, 12), k1=st.integers(-12, 12), lo=st.floats(0.05, 1.5),
       width=st.floats(1e-3, 1.0))
def test_periodic_direction_search_equals_the_oracle_bit_for_bit(h, k0, k1, lo, width):
    window = (lo, min(lo + width, math.pi / 2 - 1e-3))
    got = _search_or_refusal(periodic_direction_search, h, k0, k1, window)
    event("refused" if isinstance(got, str) else "searched")
    assert got == _search_or_refusal(direction_oracle.periodic_direction_search, h, k0, k1, window)


@settings(max_examples=30, deadline=None)
@given(h=_H, k0=st.integers(-12, 12), k1=st.integers(-12, 12), lo=st.floats(0.01, 1.5),
       width=st.floats(1e-3, 0.2))
@example(h=0.5, k0=3, k1=-4, lo=0.01, width=0.04)
@example(h=0.5, k0=1, k1=2, lo=1e-3, width=0.05)
@example(h=0.8, k0=3, k1=-4, lo=0.01, width=0.09)
def test_float_resolution_bisection_keeps_every_1e12_direction(h, k0, k1, lo, width):
    # every direction of the 1e-12 bisection has one of the same k2 within
    # 1e-9 in rho; the steep windows of the examples certify more of them
    window = (lo, min(lo + width, math.pi / 2 - 1e-3))
    try:
        old = direction_oracle.periodic_direction_search_1e12(h, k0, k1, window)
    except DomainError:
        return
    new = periodic_direction_search(h, k0, k1, window)
    assert len(new) >= len(old)
    for d in old:
        assert any(e.k2 == d.k2 and abs(e.rho - d.rho) <= 1e-9 for e in new), (d.rho, d.k2)


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
     ((1, 2, 1, 0), "t"), ((-1, 2, 1, 2), "p"),
     # generators or their squared lengths past the double range
     ((1, 10**200, 1, 1), "q"), ((10**200, 10**200 + 1, 1, 1), "p")],
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


@pytest.mark.parametrize("bound", [0, -3, 2.5, True])
def test_torus_exists_rejects_bad_search_bound(bound):
    with pytest.raises(DomainError, match="search_bound"):
        torus_exists(Fraction(3, 7), bound)


@pytest.mark.parametrize("name", ["p", "q", "r", "t"])
@pytest.mark.parametrize("bad", [True, 0, 1.0])
def test_torus_params_rejects_non_integers(name, bad):
    pqrt = dict(p=2, q=2, r=1, t=2)
    pqrt[name] = bad
    with pytest.raises(DomainError, match="%s must be a positive integer" % name):
        TorusParams(**pqrt)


def test_torus_exists_not_found_at_bound_30():
    assert torus_exists(Fraction(3, 7), 30).kind == "not_found"


def test_torus_exists_two_roots_smallest_witness():
    # at h = 31/410 and a = 25/16 both roots of the quadratic give square b:
    # (r, t) = (41, 28) and (11, 12); the smaller pair wins, as in the oracle
    h = Fraction(31, 410)
    assert torus_case_ii(5, 4, 41, 28).params.h == h
    assert torus_exists(h, 41).pqrt == (5, 4, 11, 12)


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
    fast, slow = torus_exists(h, bound), torus_oracle.brute_torus_exists(h, bound)
    assert (fast.kind, fast.pqrt, fast.q) == (slow.kind, slow.pqrt, slow.q)
    assert fast.to_dict() == slow.to_dict()


_rational_h = st.integers(2, 500).flatmap(
    lambda m: st.integers(1, m - 1).map(lambda n: Fraction(n, m))
)
_torus_h_25 = st.tuples(*[st.integers(1, 25)] * 4).map(lambda pqrt: _h_of_squares(*pqrt)).filter(
    lambda h: h is not None
)
_float_h = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def _assert_same_construction(got, want):
    """Every field of two CaseIResult or two CaseIIResult equal: the
    Fractions exactly, every float by ==."""
    if hasattr(want, "params"):
        fields = ("p", "q", "r", "t", "a", "b", "h", "s")
        assert [getattr(got.params, f) for f in fields] == [getattr(want.params, f) for f in fields]
        assert (got.v1, got.v2, got.rho) == (want.v1, want.v2, want.rho)
        assert (got.lattice_condition, got.sublattice) == (want.lattice_condition, want.sublattice)
    else:
        assert (got.h, got.q) == (want.h, want.q)
        assert got.lattice.exact == want.lattice.exact
    assert (got.lattice.rank, got.lattice.gens) == (want.lattice.rank, want.lattice.gens)


def _outcome(call, *args):
    """(result, None) or (None, (exception type, message)) of call(*args)."""
    try:
        return call(*args), None
    except DomainError as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=400, deadline=None)
@given(pqrt=st.tuples(*[st.integers(1, 60)] * 4))
def test_torus_case_ii_matches_fraction_oracle(pqrt):
    (got, got_err), (want, want_err) = _outcome(torus_case_ii, *pqrt), _outcome(
        torus_oracle.torus_case_ii, *pqrt
    )
    assert got_err == want_err
    event("refused" if want_err else "built")
    if want is not None:
        _assert_same_construction(got, want)


@settings(max_examples=300, deadline=None)
@given(q=st.integers(1, 200).flatmap(lambda n: st.integers(1, 200).map(lambda d: Fraction(n, d))))
def test_torus_case_i_matches_fraction_oracle(q):
    (got, got_err), (want, want_err) = _outcome(torus_case_i, q), _outcome(
        torus_oracle.torus_case_i, q
    )
    assert got_err == want_err
    if want is not None:
        _assert_same_construction(got, want)


_case_i_h = st.integers(2, 200).map(lambda q: Fraction(q * q - 1, q * q + 1))


@settings(max_examples=300, deadline=None)
@given(h=st.one_of(_rational_h, _torus_h_25, _float_h, _case_i_h), bound=st.integers(1, 60))
def test_torus_exists_matches_fraction_scan_oracle(h, bound):
    fast, slow = torus_exists(h, bound), torus_oracle.fraction_torus_exists(h, bound)
    event(fast.kind)
    assert (fast.h, fast.kind, fast.q, fast.pqrt) == (slow.h, slow.kind, slow.q, slow.pqrt)
    for part in ("case_i", "case_ii"):
        if getattr(slow, part) is not None:
            _assert_same_construction(getattr(fast, part), getattr(slow, part))
    assert fast.to_dict() == slow.to_dict()


_entry = st.integers(-6, 6).flatmap(lambda n: st.integers(1, 4).map(lambda d: Fraction(n, d)))


@settings(max_examples=300, deadline=None)
@given(rows=st.tuples(*[_entry] * 4))
def test_lattice2_exact_rank_test_matches_fraction_products(rows):
    a, b, c, d = rows
    exact = ExactBasis(((a, b), (c, d)), 1)
    dependent = a * d - b * c == 0
    try:
        Lattice2(rank=2, gens=((1.0, 0.0), (0.0, 1.0)), exact=exact)
    except ValueError as exc:
        assert dependent and "linearly dependent" in str(exc)
    else:
        assert not dependent


# h = (q^2 - 1)/(q^2 + 1) at q = 10^7/13: 2m/g = 10^14 + 169 is prime, so the
# case-i lattice runs trial division to 10^7
_SLOW_CASE_I_H = Fraction(99999999999831, 100000000000169)


def test_torus_exists_decides_a_prime_case_i_surd_below_the_cap():
    v = torus_exists(_SLOW_CASE_I_H, 20)
    assert (v.kind, v.q) == ("case_i", Fraction(10**7, 13))
    assert v.case_i.lattice.exact.surd == 10**14 + 169


def _q_past_the_cap():
    # an integer q whose q^2 + 1 is just past MAX_SQUAREFREE
    return Fraction(math.isqrt(MAX_SQUAREFREE) + 1)


@pytest.mark.parametrize("call, name", [
    (lambda q: torus_exists((q * q - 1) / (q * q + 1), 20), "h must"),
    (torus_case_i, "q must"),
])
def test_case_i_past_the_trial_division_cap_is_refused_at_once(call, name):
    start = time.perf_counter()
    with pytest.raises(DomainError, match="%s.*%d" % (name, MAX_SQUAREFREE)):
        call(_q_past_the_cap())
    assert time.perf_counter() - start < 0.1


def test_torus_exists_survey_small_denominators():
    hs = {Fraction(n, m) for m in range(2, 40) for n in range(1, m)}
    kinds = [torus_exists(h, 30).kind for h in hs]
    assert len(hs) == 473
    assert {k: kinds.count(k) for k in set(kinds)} == {"case_i": 12, "case_ii": 41, "not_found": 420}


@pytest.mark.parametrize(
    "h, bound, pqrt",
    [
        (Fraction(8, 37), 760, (221, 253, 740, 759)),
        (Fraction(33, 34), 1666, (87, 1666, 185, 1666)),
        (Fraction(2, 29), 1742, (1225, 1419, 1742, 1419)),
    ],
)
def test_torus_exists_witnesses_at_large_bounds(h, bound, pqrt):
    v = torus_exists(h, bound)
    assert (v.kind, v.pqrt) == ("case_ii", pqrt)
    assert TorusParams(*pqrt).h == h


@pytest.mark.parametrize("bound", [10**4 + 1, 10**6, np.int64(10**10)])
def test_torus_exists_refuses_grids_over_the_cap(bound):
    # refused before any scan: h = 3/7 would scan the whole box
    with pytest.raises(DomainError, match="search_bound must be a positive integer whose"):
        torus_exists(Fraction(3, 7), bound)


def test_torus_exists_accepts_the_largest_bound():
    # case i returns before the scan, so the largest bound costs nothing here
    assert torus_exists(Fraction(4, 5), 10**4).kind == "case_i"


def test_torus_verdict_json_shape():
    d = torus_exists(Fraction(1, 2), 20).to_dict()
    assert d["h"] == "1/2"
    assert d["verdict"] == "case_ii"
    assert d["witness"]["p"] == 1
    assert len(d["generators"]) == 2


# m = 1, mp = 1 data on the real axis: every wave vector lies on the x-axis
_PARALLEL = MiyataData(h=0.5, mu=(1 + 0j,), eta=(1 + 0j,), r_weights=(1.0,), rp_weights=(1.0,))


@pytest.mark.parametrize(
    "call,exc,phrase",
    [
        (lambda: Lattice2(rank=1, gens=()), ValueError, "rank must equal the number of generators"),
        (lambda: Lattice2(rank=2, gens=((1.0, 0.0),)), ValueError,
         "rank must equal the number of generators"),
        (lambda: period_lattice(build(_PARALLEL, validate=False), 10.0), ValueError,
         "frequency wave vectors do not span the plane"),
        (lambda: torus_exists("1/0"), DomainError, "h must be a finite rational number, got '1/0'"),
        (lambda: torus_exists(Fraction(3, 2)), DomainError, r"h must be a rational in \(0,1\), got 3/2"),
        # a = b = 1e-24: h = 1/(1 + 4e-24) is a double of 1, which no caller passed
        (lambda: torus_case_ii(1, 10**12, 1, 10**12), DomainError,
         r"^p, q, r and t must give a mean curvature h that is a double below 1; \(p, q, r, t\) = "
         r"\(1, 1000000000000, 1, 1000000000000\) gives 1 - h = 4e-24$"),
        # the float kernel basis has w1 = w2, and its reduction would divide 0 by 0
        (lambda: torus_case_ii(5 * 10**49, 10**50 - 2, 10**25, 10**50 - 2), DomainError,
         "^p, q, r and t must give a kernel basis of the period congruence that stays independent"),
        # the float reduction of an independent kernel basis loses its covolume
        (lambda: torus_case_ii(327803525708, 999999999997, 327803525710, 999999999997), DomainError,
         r"^p, q, r and t must give a reduced period basis whose covolume matches the kernel "
         r"basis's to 1e-9 relative; for \(p, q, r, t\) = \(327803525708, 999999999997, "
         r"327803525710, 999999999997\) it is off by 0\.00012$"),
    ],
    ids=["lattice-rank-1", "lattice-rank-2", "parallel-wave-vectors", "h-zero-denominator", "h-outside",
         "case-ii-h-rounds-to-one", "case-ii-kernel-basis-cancels", "case-ii-covolume-lost"],
)
def test_periodicity_refusals_name_the_parameter(call, exc, phrase):
    with pytest.raises(exc, match=phrase) as info:
        call()
    assert type(info.value) is exc
