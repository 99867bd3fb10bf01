import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from bihsurf.core import DomainError
from bihsurf.parameters import (
    MiyataData,
    canonicalize,
    angle_family_data,
    lift_structure,
    miyata_from_dict,
    rho_max,
    rho_tilde_of,
    s_of_rho,
    structure_params,
    t_of_s,
    validate_miyata,
)
from bihsurf.immersion import build, from_structure, sasahara_data
from bihsurf.geometry import bitension, boruvka_params, diagonal_sum_check, fundamental_forms
from bihsurf.geometry import mean_curvature, tension, verify_immersion
from bihsurf.periodicity import (
    closing_ratios,
    direction_integrality,
    period_vector,
    periodic_direction_search,
    torus_case_ii,
)
from fd_oracle import fd_bitension_oracle, fd_partial_table, gaussian_brioschi_fd


def test_structure_rho_zero_branch():
    sp = structure_params(0.5, 0.0)
    assert sp.r1_prime == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert sp.r2_prime == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert sp.rho_tilde == -math.pi / 2
    assert sp.lambda1 == 1.0 and sp.lambda2 == 3.0


@pytest.mark.parametrize("h", [0.1, 0.3, 0.5, 0.8, 0.95])
def test_structure_at_rho_max_gives_equal_weights(h):
    rho = rho_max(h)
    sp = structure_params(h, rho)
    assert sp.r1_prime == pytest.approx(0.5, abs=1e-12)
    assert sp.r2_prime == pytest.approx(0.5, abs=1e-12)
    assert sp.rho_tilde == pytest.approx(-rho, abs=1e-12)


def test_structure_half_weight_at_hand_computed_angle():
    # cos(2 rho) = -1/3 makes the leading weight exactly 1/2 at h = 1/2
    rho = 0.5 * math.acos(-1.0 / 3.0)
    sp = structure_params(0.5, rho)
    assert sp.r1_prime == pytest.approx(0.5, abs=1e-12)


def test_structure_domain_errors_name_the_bound():
    with pytest.raises(DomainError, match="h"):
        structure_params(1.0, 0.0)
    with pytest.raises(DomainError, match="rho"):
        structure_params(0.5, -0.2)
    with pytest.raises(DomainError, match="structure range"):
        structure_params(0.5, rho_max(0.5) + 0.1)


@pytest.mark.parametrize("h", [0.2, 0.5, 0.9])
def test_s_of_rho_endpoints(h):
    assert s_of_rho(h, 0.0) == pytest.approx(h / (1 + h), abs=1e-15)
    assert s_of_rho(h, math.pi / 2) == pytest.approx(1 / (1 + h), abs=1e-15)


def test_s_of_rho_hand_value():
    rho = 0.5 * math.acos(-1.0 / 3.0)
    assert s_of_rho(0.5, rho) == pytest.approx(0.5, abs=1e-12)


def test_s_of_rho_strictly_increasing():
    grid = np.linspace(0.0, math.pi / 2, 1000)
    for h in (0.15, 0.5, 0.85):
        vals = [s_of_rho(h, r) for r in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_t_of_s_endpoints_exact():
    for h in (0.2, 0.5, 0.9):
        assert t_of_s(h, h / (1 + h)) == 0.0
        assert t_of_s(h, 1 / (1 + h)) == 1.0


def test_t_of_s_surd_value():
    # (sqrt(6) - sqrt(2)) / 2 at h = 1/2, s = 1/2
    expect = (math.sqrt(6) - math.sqrt(2)) / 2
    assert t_of_s(0.5, 0.5) == pytest.approx(expect, abs=1e-14)
    # cross-check 2 atan(t) against the angle recovered from s_of_rho
    rho = 2 * math.atan(t_of_s(0.5, 0.5))
    assert s_of_rho(0.5, rho) == pytest.approx(0.5, abs=1e-12)


def test_t_of_s_domain_error():
    with pytest.raises(DomainError):
        t_of_s(0.5, 0.2)  # below h/(1+h) = 1/3
    with pytest.raises(DomainError):
        t_of_s(0.5, 0.7)  # above 1/(1+h) = 2/3


def _plain_map():
    """A map with an immersion's `eval` and `partial_table`, but no Immersion."""
    im = build(sasahara_data())
    return SimpleNamespace(eval=im.eval, partial_table=im.partial_table)


@pytest.mark.parametrize(
    "call,phrase",
    [
        (lambda: rho_max("x"), "h must lie in the open interval"),
        (lambda: rho_max(True), "h must lie in the open interval"),
        (lambda: rho_max((0.5, 0.5)), "h must lie in the open interval"),
        (lambda: closing_ratios(0.5, "x"), "s must lie strictly inside"),
        (lambda: direction_integrality(0.5, 1, 2, "x"), "rho must lie in"),
        (lambda: periodic_direction_search(0.5, 1, 2, ("a", "b")), "window must be contained"),
        (lambda: periodic_direction_search("x", 1, 2, (0.1, 1.0)), "h must lie in the open interval"),
        (lambda: boruvka_params("a", 3), "degrees must be >= 2"),
        (lambda: boruvka_params(2.5, 3), "degrees must be >= 2"),
        (lambda: t_of_s(0.5, math.nan), r"s=nan outside"),
        (lambda: s_of_rho(0.5, "x"), "rho must lie in"),
        (lambda: rho_tilde_of(0.5, "x"), "rho must lie in"),
        (lambda: structure_params(0.5, "x"), "structure range"),
        (
            lambda: fd_bitension_oracle(build(sasahara_data()), np.zeros(2), (1e-2, 1e-2)),
            r"step must lie in \[1e-4, 1e-1\], got \(0\.01, 0\.01\)",
        ),
        # squares (r1, degrees) and fourth powers (steps) past the double range
        (lambda: diagonal_sum_check(1e200), "r1 must be a finite real number"),
        (lambda: boruvka_params(10**200, 3), "degrees must be >= 2"),
        (lambda: fd_partial_table(build(sasahara_data()), np.zeros(2), 1e300), "step must be a finite"),
        (lambda: gaussian_brioschi_fd(build(sasahara_data()), np.zeros(2), 1e300),
         "step must be a finite"),
        # an exact s compared in floats, and an s past the double range
        (lambda: closing_ratios(0.5, Fraction(1, 3)), "s must lie strictly inside"),
        (lambda: closing_ratios(np.float64(0.5), 10**400), "s must lie strictly inside"),
        (lambda: t_of_s(np.float64(0.5), 10**400), "s=an integer of 1329 bits outside"),
        # a numpy h prints its interval as a float h does
        (lambda: t_of_s(np.float64(0.5), 10**400),
         r" = \[0\.3333333333333333, 0\.6666666666666666\]$"),
        # data that fails validation: the oldest weight underflows
        (lambda: from_structure(1e-300, 0), r"invalid immersion data \(weights_positive\)"),
        # a map that is not an Immersion, bare or with a table of its own
        (lambda: tension(object(), np.zeros(2)), "im must be an Immersion, got object"),
        (lambda: bitension(object(), np.zeros(2)), "im must be an Immersion, got object"),
        (lambda: fundamental_forms(object(), np.zeros(2)), "im must be an Immersion, got object"),
        (lambda: mean_curvature(object(), np.zeros(2)), "im must be an Immersion, got object"),
        (lambda: verify_immersion(object()), "im must be an Immersion, got object"),
        (lambda: tension(_plain_map(), np.zeros(2)), "im must be an Immersion, got SimpleNamespace"),
        (lambda: bitension(_plain_map(), np.zeros(2)), "im must be an Immersion, got SimpleNamespace"),
        (lambda: fundamental_forms(_plain_map(), np.zeros(2)),
         "im must be an Immersion, got SimpleNamespace"),
        (lambda: mean_curvature(_plain_map(), np.zeros(2)),
         "im must be an Immersion, got SimpleNamespace"),
        (lambda: verify_immersion(_plain_map()), "im must be an Immersion, got SimpleNamespace"),
    ],
    ids=[
        "rho_max-str", "rho_max-bool", "rho_max-tuple", "closing_ratios-s", "direction_integrality-rho",
        "periodic_direction_search-window", "periodic_direction_search-h",
        "boruvka_params-str", "boruvka_params-float", "t_of_s-nan",
        "s_of_rho-rho", "rho_tilde_of-rho", "structure_params-rho", "fd_bitension_oracle-step-tuple",
        "diagonal_sum_check-r1-huge", "boruvka_params-huge", "fd_partial_table-step-huge",
        "gaussian_brioschi_fd-step-huge", "closing_ratios-s-fraction-at-end",
        "closing_ratios-s-huge", "t_of_s-s-huge", "t_of_s-numpy-h-interval", "from_structure-h-tiny",
        "tension-object", "bitension-object", "fundamental_forms-object", "mean_curvature-object",
        "verify_immersion-object", "tension-plain-map", "bitension-plain-map",
        "fundamental_forms-plain-map", "mean_curvature-plain-map", "verify_immersion-plain-map",
    ],
)
def test_non_real_parameters_are_refused_by_name(call, phrase):
    # a string, a bool, a non-integer degree or a NaN weight is a DomainError
    # naming the parameter, not a TypeError from a comparison or a NaN result
    with pytest.raises(DomainError, match=phrase):
        call()


@pytest.mark.parametrize(
    "call,phrase",
    [
        (lambda: direction_integrality(0.5, "a", 2, 0.3), "k0 must be an integer"),
        (lambda: direction_integrality(0.5, 1.5, 2, 0.3), "k0 must be an integer"),
        (lambda: direction_integrality(0.5, 1, True, 0.3), "k1 must be an integer"),
        (lambda: period_vector(0.5, 1, "b", 0.3), "k1 must be an integer"),
        (lambda: period_vector(0.5, 2.0, 1, 0.3), "k0 must be an integer"),
        (lambda: periodic_direction_search(0.5, 1.5, 2, (0.1, 1.0)), "k0 must be an integer"),
        (lambda: periodic_direction_search(0.5, True, 2, (0.1, 1.0)), "k0 must be an integer"),
        (lambda: periodic_direction_search(0.5, 1, "a", (0.1, 1.0)), "k1 must be an integer"),
        (lambda: torus_case_ii(1, 2, 1, 2).member_condition(1.0, 2), "k0 must be an integer"),
        (lambda: torus_case_ii(1, 2, 1, 2).member_condition(1, 2.5), "k1 must be an integer"),
        (lambda: diagonal_sum_check("a"), "r1 must be a finite real number"),
        (lambda: diagonal_sum_check(math.nan), "r1 must be a finite real number"),
        (lambda: diagonal_sum_check(2.0, 1.5), "m must be a positive integer"),
        (lambda: diagonal_sum_check(2.0, True), "m must be a positive integer"),
        (lambda: diagonal_sum_check(2.0, 0), "m must be a positive integer"),
        # integers that no double holds
        (lambda: direction_integrality(0.5, 10**400, 1, 0.3), "k0 must be an integer"),
        (lambda: period_vector(0.5, 1, 10**400, 0.3), "k1 must be an integer"),
        (lambda: diagonal_sum_check(2.0, 10**200), "m must be a positive integer"),
    ],
    ids=[
        "direction_integrality-k0-str", "direction_integrality-k0-float",
        "direction_integrality-k1-bool", "period_vector-k1-str", "period_vector-k0-float",
        "periodic_direction_search-k0-float", "periodic_direction_search-k0-bool",
        "periodic_direction_search-k1-str", "member_condition-k0-float",
        "member_condition-k1-float", "diagonal_sum_check-r1-str", "diagonal_sum_check-r1-nan",
        "diagonal_sum_check-m-float", "diagonal_sum_check-m-bool", "diagonal_sum_check-m-zero",
        "direction_integrality-k0-huge", "period_vector-k1-huge", "diagonal_sum_check-m-huge",
    ],
)
def test_non_integer_parameters_are_refused_by_name(call, phrase):
    # a string, a bool or a non-integer float for an integer parameter is a
    # DomainError naming the parameter, not a TypeError or a silent result
    with pytest.raises(DomainError, match=phrase):
        call()


def test_rho_tilde_special_cases_exact():
    for h in (0.2, 0.5, 0.9):
        assert rho_tilde_of(h, 0.0) == -math.pi / 2
        assert rho_tilde_of(h, math.pi / 2) == 0.0
        # h * tan(rho) underflows to zero at the smallest subnormal rho
        assert rho_tilde_of(h, 5e-324) == -math.pi / 2
    # tan(rho) = 1/h gives exactly -pi/4
    for h in (0.3, 0.7):
        assert rho_tilde_of(h, math.atan(1.0 / h)) == pytest.approx(-math.pi / 4, abs=1e-12)


def test_rho_tilde_range(rng):
    for _ in range(100):
        h = float(rng.uniform(0.05, 0.95))
        rho = float(rng.uniform(0.0, math.pi / 2))
        rt = rho_tilde_of(h, rho)
        assert -math.pi / 2 <= rt <= 0.0


def test_weight_angle_roundtrip(rng):
    # t_of_s(s_of_rho(rho)) recovers tan(rho/2) to 1e-11
    for _ in range(50):
        h = float(rng.uniform(0.05, 0.95))
        rho = float(rng.uniform(0.0, math.pi / 2))
        t = t_of_s(h, s_of_rho(h, rho))
        assert abs(t - math.tan(rho / 2)) <= 1e-11


def test_endpoint_continuity():
    for h in (0.2, 0.5, 0.9):
        assert abs(s_of_rho(h, 1e-9) - h / (1 + h)) <= 1e-8
        assert abs(s_of_rho(h, math.pi / 2 - 1e-9) - 1 / (1 + h)) <= 1e-8
        assert abs(rho_tilde_of(h, 1e-9) - (-math.pi / 2)) <= 1e-8
        assert abs(rho_tilde_of(h, math.pi / 2 - 1e-9)) <= 1e-8


def test_validate_structure_lift_passes(rng):
    for _ in range(100):
        h = float(rng.uniform(0.05, 0.95))
        rho = float(rng.uniform(0.0, rho_max(h)))
        data = lift_structure(structure_params(h, rho))
        report = validate_miyata(data)
        assert report.passed, [c.name for c in report.failures()]


def test_validate_duplicate_frequency_fails():
    d = sasahara_data()
    bad = MiyataData(d.h, d.mu, (d.eta[0], d.eta[0]), d.r_weights, (0.5, 0.5))
    rep = validate_miyata(bad)
    assert not rep.check("eta_distinct").passed


def test_validate_bad_weight_sum_fails():
    d = sasahara_data()
    bad = MiyataData(d.h, d.mu, d.eta, d.r_weights, (0.5, 0.4))
    rep = validate_miyata(bad)
    assert not rep.check("rp_weights_sum").passed


def test_validate_balance_entry_name():
    d = sasahara_data()
    bad = MiyataData(d.h, d.mu, d.eta, d.r_weights, (0.55 / 1.05, 0.5 / 1.05))
    rep = validate_miyata(bad)
    assert not rep.check("miyata_balance").passed


def _grid_points(n=5, span=1.7):
    xs = np.linspace(-span, span, n)
    return np.array([(x, y) for x in xs for y in xs])


def test_canonicalize_rotation_matches_domain_rotation():
    base = sasahara_data()
    alpha = complex(math.cos(math.pi / 6), math.sin(math.pi / 6))
    rotated = MiyataData(
        base.h,
        (base.mu[0] * alpha,),
        tuple(e * alpha for e in base.eta),
        base.r_weights,
        base.rp_weights,
    )
    canon = canonicalize(rotated)
    assert canon.mu == (complex(1.0, 0.0),)
    im_in = build(rotated)
    im_out = build(canon)
    pts = _grid_points()
    c, s = math.cos(-math.pi / 6), math.sin(-math.pi / 6)
    back = pts @ np.array([[c, -s], [s, c]]).T  # domain rotation by -pi/6
    assert np.max(np.abs(im_out.eval(pts) - im_in.eval(back))) <= 1e-12


def test_canonicalize_idempotent_exactly():
    base = sasahara_data()
    alpha = complex(math.cos(0.7), math.sin(0.7))
    rotated = MiyataData(
        base.h,
        (base.mu[0] * alpha,),
        tuple(e * alpha for e in base.eta),
        base.r_weights,
        base.rp_weights,
    )
    once = canonicalize(rotated)
    twice = canonicalize(once)
    assert once == twice  # exact field equality


def test_canonicalize_already_canonical_unchanged():
    data = lift_structure(structure_params(0.4, 0.3))
    assert canonicalize(data) == data


def test_canonicalize_swaps_blocks_past_the_structure_range():
    h = 0.5
    rho = 0.8 * math.pi / 2  # beyond rho_max(0.5) ~ 0.955 < 1.257
    assert rho > rho_max(h)
    data = angle_family_data(h, rho)
    assert data.rp_weights[0] > 0.5
    canon = canonicalize(data)
    assert canon.rp_weights[0] <= 0.5
    assert canon.rp_weights == (data.rp_weights[1], data.rp_weights[0])
    assert validate_miyata(canon).passed
    # pointwise: canonical = (swap the two high-frequency planes) o psi o x-flip
    im_in = build(data)
    im_out = build(canon)
    pts = _grid_points()
    flipped = pts * np.array([-1.0, 1.0])
    vals = im_in.eval(flipped)
    swapped = vals.copy()
    swapped[:, 2:4], swapped[:, 4:6] = vals[:, 4:6], vals[:, 2:4]
    assert np.max(np.abs(im_out.eval(pts) - swapped)) <= 1e-12
    # the mirrored member sits at the angle with complementary weight
    sp = structure_params(h, 2 * math.atan(t_of_s(h, canon.rp_weights[0])))
    assert sp.r1_prime == pytest.approx(canon.rp_weights[0], abs=1e-12)


def test_canonicalize_rejects_multiblock():
    d = sasahara_data()
    two = MiyataData(d.h, (1 + 0j, 1j), d.eta, (0.5, 0.5), d.rp_weights)
    with pytest.raises(ValueError, match="m = 1"):
        canonicalize(two)


def test_miyata_json_roundtrip():
    data = lift_structure(structure_params(0.7, 0.2))
    again = miyata_from_dict(data.to_dict())
    assert again == data
    assert set(data.to_dict()) == {"h", "mu", "eta", "R", "Rp"}


def test_miyata_from_dict_malformed():
    with pytest.raises(ValueError, match="malformed"):
        miyata_from_dict({"h": 0.5, "mu": [[1, 0]]})


def test_angle_family_data_valid_on_open_range(rng):
    for _ in range(30):
        h = float(rng.uniform(0.05, 0.95))
        rho = float(rng.uniform(1e-3, math.pi / 2 - 1e-3))
        assert validate_miyata(angle_family_data(h, rho)).passed


@pytest.mark.parametrize(
    "fields,phrase",
    [
        (dict(mu=(1j,), r_weights=(0.5, 0.5)), "mu and r_weights lengths differ"),
        (dict(eta=(1j,), rp_weights=(0.5, 0.5)), "eta and rp_weights lengths differ"),
        (dict(mu=(), r_weights=()), "mu and eta must be nonempty"),
        (dict(eta=(), rp_weights=()), "mu and eta must be nonempty"),
    ],
    ids=["mu-lengths", "eta-lengths", "empty-mu", "empty-eta"],
)
def test_miyata_data_refuses_mismatched_or_empty_blocks(fields, phrase):
    base = dict(h=0.5, mu=(1 + 0j,), eta=(1 + 0j, 1j), r_weights=(1.0,), rp_weights=(0.5, 0.5))
    with pytest.raises(ValueError, match=phrase):
        MiyataData(**{**base, **fields})
