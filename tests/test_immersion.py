import math
from dataclasses import replace

import construction_oracle
import dict_table_oracle as oracle
import kernel_oracle
import numpy as np
import reader_oracle
import pytest
from hypothesis import given, note, settings, strategies as st

from bihsurf.core import DomainError
from bihsurf.parameters import (
    MiyataData,
    angle_family_data,
    canonicalize,
    lift_structure,
    rho_max,
    structure_params,
    unit_circle,
    validate_miyata,
)
from bihsurf.immersion import (
    ConstructionError,
    Immersion,
    build,
    extend_dimension,
    from_structure,
    sasahara_data,
    symmetric_weights_data,
)
from bihsurf import geometry
from bihsurf.geometry import verify_immersion
from fd_oracle import fd_partial_table

SQ2 = math.sqrt(2.0)


def test_sasahara_wave_table(sasahara_immersion):
    w = sasahara_immersion.wave_vectors
    # h = 1/2: lambda1 = 1, lambda2 = 3; blocks (0,1), sqrt2(1,sqrt(h)), sqrt2(-1,sqrt(h))
    assert np.allclose(w[0], (0.0, 1.0), atol=1e-15)
    assert np.allclose(w[1], (SQ2, SQ2 * math.sqrt(0.5)), atol=1e-14)
    assert np.allclose(w[2], (-SQ2, SQ2 * math.sqrt(0.5)), atol=1e-14)
    assert np.allclose(sasahara_immersion.amplitudes, (1 / SQ2, 0.5, 0.5), atol=1e-15)


def test_amplitudes_square_to_one(rng):
    from bihsurf.parameters import rho_max

    for _ in range(20):
        h = float(rng.uniform(0.05, 0.95))
        im = from_structure(h, float(rng.uniform(0.0, rho_max(h))))
        assert math.fsum(a * a for a in im.amplitudes) == pytest.approx(1.0, abs=1e-15)


def test_eval_at_origin_closed_form(sasahara_immersion):
    psi0 = sasahara_immersion.eval((0.0, 0.0))
    assert np.allclose(psi0, (1 / SQ2, 0, 0.5, 0, 0.5, 0), atol=1e-15)


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


def test_eval_reads_the_position_row_of_the_factor_table(rng):
    # eval reads the table's order-(0, 0) row: the amplitudes on both slots,
    # bit for bit, NaN weights included
    s7 = extend_dimension(from_structure(0.4, 0.3))
    d = sasahara_data()
    nan_weight = build(MiyataData(d.h, d.mu, d.eta, d.r_weights, (math.nan, 0.5)), validate=False)
    pts = rng.uniform(-6.0, 6.0, (17, 2))
    for im in (from_structure(0.7, 0.2), s7, nan_weight):
        fresh = Immersion(im.data, im.wave_vectors, im.amplitudes)
        psi = fresh.eval(pts)
        assert np.array_equal(_bits(fresh.eval(pts)), _bits(psi))
        row = fresh._factors()[0]
        assert np.array_equal(_bits(np.repeat(fresh.amplitudes, 2)), _bits(row))
        if np.isfinite(row).all():
            assert np.array_equal(psi, fresh.partial(pts, (0, 0)))


def test_eval_periodic_at_sqrt2_pi(sasahara_immersion):
    p = (SQ2 * math.pi, 0.0)
    assert np.max(np.abs(sasahara_immersion.eval(p) - sasahara_immersion.eval((0.0, 0.0)))) <= 1e-12


def test_eval_unit_norm_everywhere(structure_grid, rng):
    pts = rng.uniform(-8, 8, size=(10_000, 2))
    for _, _, im in structure_grid:
        norms = np.linalg.norm(im.eval(pts), axis=-1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_metric_identity_everywhere(structure_grid, rng):
    pts = rng.uniform(-8, 8, size=(500, 2))
    for _, _, im in structure_grid:
        px = im.partial(pts, (1, 0))
        py = im.partial(pts, (0, 1))
        assert np.max(np.abs(np.sum(px * px, axis=-1) - 1.0)) <= 1e-10
        assert np.max(np.abs(np.sum(py * py, axis=-1) - 1.0)) <= 1e-10
        assert np.max(np.abs(np.sum(px * py, axis=-1))) <= 1e-10


def test_rho_zero_member_closed_form():
    # h = 1/2, rho = 0: planes cos/sin(y), cos/sin(sqrt3 y), cos/sin(-sqrt3 x)
    im = from_structure(0.5, 0.0)
    x, y = 0.37, -1.21
    expect = np.array(
        [
            math.cos(y) / SQ2,
            math.sin(y) / SQ2,
            math.sqrt(1 / 6) * math.cos(math.sqrt(3) * y),
            math.sqrt(1 / 6) * math.sin(math.sqrt(3) * y),
            math.sqrt(1 / 3) * math.cos(-math.sqrt(3) * x),
            math.sqrt(1 / 3) * math.sin(-math.sqrt(3) * x),
        ]
    )
    assert np.allclose(im.eval((x, y)), expect, atol=1e-14)


def test_partial_first_coordinate_x_independent(sasahara_immersion):
    d = sasahara_immersion.partial((0.0, 0.0), (2, 0))
    assert d[0] == 0.0  # first block has no x frequency


def test_partial_second_y_derivative_first_block(sasahara_immersion):
    d = sasahara_immersion.partial((0.0, 0.0), (0, 2))
    # lambda1 = 1: d2/dy2 of cos(y)/sqrt2 at 0 is -1/sqrt2
    assert d[0] == pytest.approx(-1.0 / SQ2, abs=1e-15)


def test_partial_rejects_high_order(sasahara_immersion):
    with pytest.raises(DomainError, match="order"):
        sasahara_immersion.partial((0.0, 0.0), (3, 2))


@pytest.mark.parametrize("ax", [(1,), (1, 0, 0), (-1, 0), (1.0, 0), (True, 0), [1, 0], "xy", 2])
def test_partial_rejects_malformed_order(sasahara_immersion, ax):
    with pytest.raises(DomainError, match="ax must be a pair"):
        sasahara_immersion.partial((0.0, 0.0), ax)


@pytest.mark.parametrize("max_order", [-1, 5, 2.5, "2", None, True])
def test_partial_table_rejects_bad_max_order(sasahara_immersion, max_order):
    with pytest.raises(DomainError, match="max_order"):
        sasahara_immersion.partial_table((0.0, 0.0), max_order)


@pytest.mark.parametrize(
    "pts",
    [
        "ab",
        None,
        3.0,
        np.zeros(3),
        np.zeros((4, 1)),
        [math.nan, 0.0],
        [[0.0, 1.0], [math.inf, 0.0]],
        [1e308, 1e308],
        # a Python int that no double holds
        [10**400, 0.0],
    ],
)
def test_points_rejected_by_name(sasahara_immersion, pts):
    for call in (
        lambda: sasahara_immersion.eval(pts),
        lambda: sasahara_immersion.partial(pts, (1, 0)),
        lambda: sasahara_immersion.partial_table(pts, 4),
    ):
        with pytest.raises(DomainError, match="points"):
            call()


def test_partials_match_finite_differences(rng):
    im = from_structure(0.62, 0.41)
    pts = rng.uniform(-2, 2, size=(5, 2))
    low = fd_partial_table(im, pts, step=1e-3, max_order=2)
    for ax, fd in low.items():
        assert np.max(np.abs(im.partial(pts, ax) - fd)) <= 1e-8, ax
    high = fd_partial_table(im, pts, step=1e-2, max_order=4)
    for ax in [(3, 0), (2, 2), (1, 3), (4, 0), (0, 4)]:
        assert np.max(np.abs(im.partial(pts, ax) - high[ax])) <= 1e-5, ax


def _phase_shift_partial(im, p, ax):
    """Reference partial: cos/sin re-evaluated at theta + (a+b)*pi/2 for each
    derivative order, independent of the quarter-turn kernel."""
    a, b = ax
    theta = np.asarray(p, dtype=float) @ im.wave_vectors.T + (a + b) * (math.pi / 2)
    factor = im.amplitudes * im.wave_vectors[:, 0] ** a * im.wave_vectors[:, 1] ** b
    out = np.empty(theta.shape[:-1] + (im.ambient_dim,))
    out[..., 0::2] = factor * np.cos(theta)
    out[..., 1::2] = factor * np.sin(theta)
    return out


_points = st.lists(
    st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 2.0 * math.pi)), min_size=1, max_size=8
).map(lambda polar: np.array([(r * math.cos(t), r * math.sin(t)) for r, t in polar]))


@settings(max_examples=60, deadline=None)
@given(
    h=st.floats(0.05, 0.95),
    rho_frac=st.floats(0.0, 1.0),
    extensions=st.integers(0, 2),
    pts=_points,
)
def test_partials_match_phase_shift_oracle(h, rho_frac, extensions, pts):
    from bihsurf.parameters import rho_max

    im = from_structure(h, rho_frac * rho_max(h))
    for _ in range(extensions):
        im = extend_dimension(im)
    table = im.partial_table(pts, 4)
    assert sorted(table) == sorted((a, b) for a in range(5) for b in range(5 - a))
    for ax, got in table.items():
        a, b = ax
        factor = np.abs(im.amplitudes * im.wave_vectors[:, 0] ** a * im.wave_vectors[:, 1] ** b)
        tol = 1e-12 * np.repeat(np.maximum(1.0, factor), 2)
        assert np.all(np.abs(got - _phase_shift_partial(im, pts, ax)) <= tol), ax
        assert np.array_equal(im.partial(pts, ax), got), ax


_box_points = st.tuples(
    st.sampled_from([(), (1,), (7,), (3, 4)]),
    st.floats(math.log10(6.0), 9.0),
    st.integers(0, 2**32 - 1),
).map(lambda c: np.random.default_rng(c[2]).uniform(-(10.0 ** c[1]), 10.0 ** c[1], c[0] + (2,)))


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(["structure", "equal_weight"]),
    h=st.floats(0.05, 0.95),
    rho_frac=st.floats(0.0, 1.0),
    extensions=st.integers(0, 6),
    pts=_box_points,
)
def test_single_array_table_is_bit_exact(family, h, rho_frac, extensions, pts):
    # the entries read as factor rows times the trig pair of their parity,
    # bit for bit against the per-entry dict table of the oracle
    from bihsurf.parameters import rho_max

    if family == "structure":
        im = from_structure(h, rho_frac * rho_max(h))
    else:
        im = build(symmetric_weights_data(h))
    for _ in range(extensions):
        im = extend_dimension(im)
    note("%s ambient_dim=%d pts.shape=%s" % (family, im.ambient_dim, pts.shape))
    for k in range(5):
        got = im.partial_table(pts, k)
        want = oracle.partial_table(im, pts, k)
        assert sorted(got) == sorted(want)
        for ax, entry in want.items():
            assert entry.shape == pts.shape[:-1] + (im.ambient_dim,)
            assert np.array_equal(got[ax], entry), (k, ax)
            if k == 4:
                assert np.array_equal(im.partial(pts, ax), entry), ax
    assert np.array_equal(im.eval(pts), oracle.partials(im, pts, [(0, 0)])[(0, 0)])


_ALL_ORDERS = tuple((a, n - a) for n in range(5) for a in range(n, -1, -1))


def _outcome(call):
    """The arrays a call returns, flattened, or its DomainError (type and
    text)."""
    try:
        out = call()
    except DomainError as err:
        return type(err), str(err)
    if isinstance(out, dict):
        return [(k, v) for k, v in out.items()]
    return list(vars(out).values()) if hasattr(out, "__dict__") else [out]


def _assert_same_arrays(got, want, what):
    assert type(got) is type(want), (what, got, want)
    if isinstance(want, tuple):
        assert got == want, what
        return
    assert len(got) == len(want), what
    for x, y in zip(got, want):
        if isinstance(y, tuple):
            assert x[0] == y[0], what
            x, y = x[1], y[1]
        assert x.shape == y.shape and x.dtype == y.dtype, what
        assert x.flags.c_contiguous and y.flags.c_contiguous, what
        assert np.array_equal(_bits(x), _bits(y)), what


@st.composite
def _reader_case(draw):
    family = draw(st.sampled_from(["structure", "equal_weight", "nan_weight", "nan_frequency"]))
    h = draw(st.floats(0.05, 0.95))
    if family == "equal_weight":
        im = build(symmetric_weights_data(h))
    else:
        im = from_structure(h, draw(st.floats(0.0, 1.0)) * rho_max(h))
    for _ in range(draw(st.integers(0, 6))):
        im = extend_dimension(im)
    d = im.data
    if family == "nan_weight":
        im = build(replace(d, rp_weights=(math.nan,) + d.rp_weights[1:]), validate=False)
    elif family == "nan_frequency":
        eta = (complex(math.nan, d.eta[0].imag),) + d.eta[1:]
        im = build(replace(d, eta=eta), validate=False)
    shape = draw(st.sampled_from([(), (0,), (1,), (7,), (3, 4), (0, 3)]))
    box = 10.0 ** draw(st.floats(math.log10(6.0), 9.0))
    pts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-box, box, shape + (2,))
    bad = draw(st.sampled_from([None, "inf", "nan", "shape", "text", "far"]))
    if bad == "inf" and pts.size:
        pts[(0,) * pts.ndim] = math.inf
    elif bad == "nan" and pts.size:
        pts[(0,) * pts.ndim] = math.nan
    elif bad == "shape":
        pts = np.zeros(shape + (3,))
    elif bad == "text":
        pts = "points"
    elif bad == "far" and pts.size:
        pts[(0,) * pts.ndim] = 1e308
    note("%s h=%r ambient_dim=%d shape=%s bad=%s" % (family, h, im.ambient_dim, shape, bad))
    return im, pts


@settings(max_examples=100, deadline=None)
@given(case=_reader_case())
def test_one_reader_matches_the_previous_readers_bit_for_bit(case):
    # eval, partial, partial_table and the per-point functions read through
    # Immersion._read: the same bits, shape and C-order as the readers they
    # replaced (tests/reader_oracle.py), and the same DomainError text
    im, pts = case
    pairs = [
        ("eval", lambda: im.eval(pts), lambda: reader_oracle.eval(im, pts)),
        *(
            ("partial %s" % (o,), lambda o=o: im.partial(pts, o),
             lambda o=o: reader_oracle.partial(im, pts, o))
            for o in _ALL_ORDERS
        ),
        *(
            ("partial_table %d" % k, lambda k=k: im.partial_table(pts, k),
             lambda k=k: reader_oracle.partial_table(im, pts, k))
            for k in range(5)
        ),
        *(
            (name, lambda name=name: getattr(geometry, name)(im, pts),
             lambda name=name: getattr(reader_oracle, name)(im, pts))
            for name in ("tension", "bitension", "fundamental_forms", "mean_curvature")
        ),
    ]
    for what, got, want in pairs:
        _assert_same_arrays(_outcome(got), _outcome(want), what)


@st.composite
def _phase_case(draw):
    """A member whose first two planes get the unit wave vectors, so their
    phases are the point coordinates themselves, and points whose
    coordinates lie in a box of up to 1e300 or within 2000 ulp of a
    multiple k pi/2, |k| up to 4e6 (0 included)."""
    im = from_structure(draw(st.floats(0.05, 0.95)), 0.0)
    for _ in range(draw(st.integers(0, 6))):
        im = extend_dimension(im)
    im = Immersion(
        data=im.data,
        wave_vectors=np.vstack((np.eye(2), im.wave_vectors)),
        amplitudes=np.concatenate(((1.0, 1.0), im.amplitudes)),
    )
    shape = draw(st.sampled_from([(), (0,), (1,), (7,), (3, 4), (64,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    box = 10.0 ** draw(st.floats(-3.0, 300.0))
    pts = rng.uniform(-box, box, shape + (2,))
    k_max = int(10.0 ** draw(st.floats(0.0, math.log10(4e6))))
    quarter = rng.integers(-k_max, k_max + 1, pts.shape) * (math.pi / 2)
    near = quarter + rng.integers(-2000, 2001, pts.shape) * np.spacing(quarter)
    pts = np.where(rng.random(pts.shape) < draw(st.floats(0.0, 1.0)), near, pts)
    note("ambient_dim=%d shape=%s box=%g k_max=%d" % (im.ambient_dim, shape, box, k_max))
    return im, pts


@settings(max_examples=150, deadline=None)
@given(case=_phase_case(), odd=st.integers(0, 1))
def test_half_angle_pair_matches_cos_and_sin(case, odd):
    # the tan half-angle pair against np.cos/np.sin (tests/kernel_oracle.py):
    # within 1e-15 absolute, exact at the origin, cos even and sin odd
    im, pts = case
    got, want = im._pair(pts, odd), kernel_oracle.pair(im, pts, odd)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.all(np.abs(got - want) <= 1e-15), float(np.max(np.abs(got - want)))
    cos, sin = slice(odd, None, 2), slice(1 - odd, None, 2)
    flipped = im._pair(-pts, odd)
    assert np.array_equal(flipped[..., cos], got[..., cos])
    assert np.array_equal(flipped[..., sin], -got[..., sin])
    at_origin = np.zeros(got.shape)
    at_origin[..., cos] = 1.0
    assert np.array_equal(im._pair(np.zeros(pts.shape), odd), at_origin)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * 3), min_size=1, max_size=14
    ),
)
def test_factor_table_matches_the_list_of_powers(rows):
    # the powers written in place and the rows taken, bit for bit against
    # the list of powers and fancy-indexed rows (tests/kernel_oracle.py),
    # NaN and infinite entries included
    table = np.array(rows)
    im = Immersion(data=sasahara_data(), wave_vectors=table[:, :2], amplitudes=table[:, 2])
    with np.errstate(all="ignore"):
        got, want = im._factors(), kernel_oracle.factors(im)
    assert got.shape == want.shape == (15, 2 * len(rows))
    assert np.array_equal(got, want, equal_nan=True)


def test_partial_table_keys_in_order_of_total_order(sasahara_immersion):
    table = sasahara_immersion.partial_table(np.zeros((3, 2)), 4)
    assert list(table) == [(a, n - a) for n in range(5) for a in range(n, -1, -1)]


def test_eval_and_partial_table_take_one_tan_per_phase(sasahara_immersion, monkeypatch):
    # partial_table's odd pair is the even one with each plane's slots
    # swapped, the same values as a second tan would give
    im, pts = sasahara_immersion, np.linspace(-3.0, 3.0, 14).reshape(7, 2)
    want = {k: im.partial_table(pts, k) for k in range(5)}
    tans = []
    real_tan = np.tan
    monkeypatch.setattr(np, "tan", lambda x, **kw: tans.append(x.size) or real_tan(x, **kw))
    for k in range(5):
        got = im.partial_table(pts, k)
        assert all(np.array_equal(got[o], want[k][o]) for o in want[k])
    assert np.array_equal(im.eval(pts), want[0][(0, 0)])
    assert tans == [7 * im.num_planes] * 6


def test_spectral_split_closed_form(sasahara_immersion):
    t1, t2 = sasahara_immersion.spectral_split((0.0, 0.0))
    assert np.allclose(t1, (1 / SQ2, 0, 0, 0, 0, 0), atol=1e-15)
    assert np.allclose(t2, (0, 0, 0.5, 0, 0.5, 0), atol=1e-15)


def test_spectral_split_norms_and_sum(structure_grid, rng):
    pts = rng.uniform(-5, 5, size=(200, 2))
    for _, _, im in structure_grid:
        t1, t2 = im.spectral_split(pts)
        assert np.max(np.abs(t1 + t2 - im.eval(pts))) == 0.0
        n1 = np.sum(t1 * t1, axis=-1)
        n2 = np.sum(t2 * t2, axis=-1)
        assert np.max(np.abs(n1 + n2 - 1.0)) <= 1e-12
        assert np.max(np.abs(np.sqrt(n1) - 1 / SQ2)) <= 1e-12
        assert np.max(np.abs(np.sqrt(n2) - 1 / SQ2)) <= 1e-12


def test_spectral_blocks_are_laplace_eigenmaps(structure_grid, rng):
    pts = rng.uniform(-5, 5, size=(200, 2))
    for h, _, im in structure_grid:
        lam1, lam2 = 2 * (1 - h), 2 * (1 + h)
        t1, t2 = im.spectral_split(pts)
        lap = -(im.partial(pts, (2, 0)) + im.partial(pts, (0, 2)))
        l1 = np.zeros_like(lap)
        l1[..., : 2 * im.m] = lap[..., : 2 * im.m]
        l2 = lap - l1
        assert np.max(np.abs(l1 - lam1 * t1)) <= 1e-10
        assert np.max(np.abs(l2 - lam2 * t2)) <= 1e-10


def test_from_structure_rho_zero_weights():
    im = from_structure(0.5, 0.0)
    assert im.data.rp_weights[0] == pytest.approx(1 / 3, abs=1e-15)
    assert im.ambient_dim == 6


def test_from_structure_max_angle_weights():
    from bihsurf.parameters import rho_max

    im = from_structure(0.3, rho_max(0.3))
    assert im.data.rp_weights == pytest.approx((0.5, 0.5), abs=1e-12)


def test_build_rejects_invalid_data():
    d = sasahara_data()
    bad = MiyataData(d.h, d.mu, d.eta, d.r_weights, (0.7, 0.3))
    with pytest.raises(ValueError, match="miyata_balance"):
        build(bad)


def test_extension_weights_and_balance():
    im = from_structure(0.4, 0.5)
    s = im.data.rp_weights[0]
    h = 0.4
    out = extend_dimension(im)
    assert out.ambient_dim == 8
    assert out.data.rp_weights == pytest.approx((h * s, h * (1 - s), 1 - h), abs=1e-15)
    assert math.fsum(out.data.rp_weights) == pytest.approx(1.0, abs=1e-14)
    # the appended block satisfies sum R'_j eta_j^2 = -(1-h)/(1+h)
    total = sum(w * e * e for e, w in zip(out.data.eta, out.data.rp_weights))
    assert abs(total - (-(1 - h) / (1 + h))) <= 1e-12


def test_extension_twice_reaches_dimension_twelve():
    im = from_structure(0.3, 0.45)
    im7 = extend_dimension(im)
    im11 = extend_dimension(im7)
    assert (im7.ambient_dim, im11.ambient_dim) == (8, 12)
    assert validate_miyata(im11.data).passed


def test_extension_handles_axis_collision():
    # rho = 0 member: i*eta_1 collides with the appended frequency, forcing
    # the deterministic fallback pair
    im = extend_dimension(from_structure(0.5, 0.0))
    assert im.ambient_dim == 8
    assert validate_miyata(im.data).passed


def test_extension_preserves_mean_curvature():
    im = extend_dimension(extend_dimension(from_structure(0.62, 0.3)))
    rep = verify_immersion(im, samples=80, seed=5)
    assert rep.check("mean_curvature_norm").residual <= 1e-9


def test_extension_chain_ends_naming_the_sphere_reached():
    # at h = 0.99 few weights s of the schedule fit in (h/(1+h), 1/(1+h)):
    # the chain from S^5 takes 32 extensions, to S^131, and the next one
    # finds no pair whose frequencies stay distinct
    im = from_structure(0.99, 0.3)
    for _ in range(32):
        im = extend_dimension(im)
    assert im.ambient_dim == 132
    with pytest.raises(
        ConstructionError,
        match=r"^no admissible distinct frequency pair found to extend the immersion in S\^131$",
    ):
        extend_dimension(im)


def test_extension_rejects_multi_mu():
    d = symmetric_weights_data(0.5)
    two = MiyataData(d.h, (1 + 0j, 1j), d.eta, (0.5, 0.5), d.rp_weights)
    with pytest.raises(ValueError, match="m = 1"):
        extend_dimension(build(two, validate=False))


@pytest.mark.parametrize("h", [-2.0, -1.0, 0.0, 1.0, 1.5, math.nan])
def test_symmetric_weights_data_rejects_h_by_name(h):
    with pytest.raises(DomainError, match="h must lie in the open interval"):
        symmetric_weights_data(h)


def _same_immersion(got, want):
    assert got.data.to_json() == want.data.to_json()
    for name in ("wave_vectors", "amplitudes"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(["structure", "angle", "equal_weight"]),
    h=st.floats(0.01, 0.99),
    frac=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    turn=st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)),
    extensions=st.integers(0, 4),
)
def test_family_construction_matches_oracle(family, h, frac, turn, extensions):
    # rho = frac * rho_max(h) for structure members, frac * pi/2 for angle
    # members (past rho_max they are the mirrored copies); the domain is
    # turned by `turn` before canonicalize and extend_dimension see the data
    if family == "structure":
        sp = structure_params(h, frac * rho_max(h))
        got, want = lift_structure(sp), construction_oracle.lift_structure(sp)
    elif family == "angle":
        rho = frac * (math.pi / 2)
        got, want = angle_family_data(h, rho), construction_oracle.angle_family_data(h, rho)
    else:
        got, want = symmetric_weights_data(h), construction_oracle.symmetric_weights_data(h)
    assert got.to_json() == want.to_json()
    z = unit_circle(turn)
    turned = replace(got, mu=tuple(z * w for w in got.mu), eta=tuple(z * w for w in got.eta))
    assert canonicalize(turned).to_json() == construction_oracle.canonicalize(turned).to_json()
    im, ref = build(turned), construction_oracle.build(turned)
    _same_immersion(im, ref)
    for _ in range(extensions):
        im, ref = extend_dimension(im), construction_oracle.extend_dimension(ref)
        _same_immersion(im, ref)
        assert canonicalize(im.data).to_json() == construction_oracle.canonicalize(ref.data).to_json()
