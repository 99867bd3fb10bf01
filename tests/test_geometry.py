import contextlib
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, note, settings, strategies as st

import dict_table_oracle as oracle
import fd_oracle
import symbol_oracle
import verify_oracle
from bihsurf import cli, geometry, immersion, parameters
from bihsurf.core import GEOMETRIC_TOL, Check, DomainError, VerificationReport
from bihsurf.parameters import MiyataData, miyata_from_dict, rho_max, validate_miyata
from bihsurf.immersion import (
    _split_blocks,
    build,
    extend_dimension,
    from_structure,
    sasahara_data,
    symmetric_weights_data,
)
from bihsurf.geometry import (
    bitension,
    boruvka_params,
    diagonal_sum_check,
    fundamental_forms,
    mean_curvature,
    tension,
    verify_immersion,
)
from fd_oracle import fd_bitension_oracle, fd_partial_table, gaussian_brioschi_fd


def _pts(rng, n=40, span=5.0):
    return rng.uniform(-span, span, size=(n, 2))


# ---------------------------------------------------------------------------
# fundamental forms / curvature


def test_metric_is_identity(structure_grid, rng):
    for _, _, im in structure_grid:
        forms = fundamental_forms(im, _pts(rng))
        eye = np.broadcast_to(np.eye(2), forms.g.shape)
        assert np.max(np.abs(forms.g - eye)) <= 1e-10


def test_forms_are_normal(structure_grid, rng):
    pts = _pts(rng)
    for _, _, im in structure_grid:
        forms = fundamental_forms(im, pts)
        psi = im.eval(pts)
        px = im.partial(pts, (1, 0))
        py = im.partial(pts, (0, 1))
        for bvec in (forms.b_xx, forms.b_xy, forms.b_yy):
            for w in (psi, px, py):
                assert np.max(np.abs(np.sum(bvec * w, axis=-1))) <= 1e-9


def test_bxx_orthogonal_to_position(sasahara_immersion):
    forms = fundamental_forms(sasahara_immersion, (0.0, 0.0))
    psi = sasahara_immersion.eval((0.0, 0.0))
    assert abs(float(np.dot(forms.b_xx, psi))) <= 1e-12


def test_mean_curvature_equals_h(structure_grid, rng):
    pts = _pts(rng, n=100)
    for h, _, im in structure_grid:
        summary = mean_curvature(im, pts)
        assert np.max(np.abs(summary.mean_curvature_norm - h)) <= 1e-9


def test_gaussian_curvature_vanishes(structure_grid, rng):
    pts = _pts(rng, n=100)
    for _, _, im in structure_grid:
        summary = mean_curvature(im, pts)
        assert np.max(np.abs(summary.gaussian)) <= 1e-8


def _degenerate():
    d = sasahara_data()
    # zero weight on the only low block collapses the yward derivative
    bad = MiyataData(d.h, d.mu, ((1 + 0j), (0 + 1j)), (1.0,), (1.0 - 1e-14, 1e-14))
    return build(bad, validate=False)


def test_degenerate_metric_raises():
    # from the metric's one constant determinant, whatever the point count
    for call in (tension, bitension, mean_curvature, fundamental_forms):
        for pts in (np.zeros((0, 2)), np.array([[0.3, 0.1]])):
            with pytest.raises(DomainError, match="degenerate"):
                call(_degenerate(), pts)


def test_verify_immersion_raises_on_degenerate_metric():
    # from the metric's one constant determinant, whatever the samples
    for samples in (1, 2049):
        with pytest.raises(DomainError, match="degenerate"):
            verify_immersion(_degenerate(), samples=samples, seed=4)


# ---------------------------------------------------------------------------
# pseudo-umbilicity


def _s7_pseudo_umbilical(h=0.5, delta=0.0):
    """m = m' = 2 configuration; eta_2 perturbed by delta radians."""
    mu = (complex(1.0, 0.0), complex(0.0, 1.0))  # mu_2^2 = -mu_1^2
    a = math.pi / 8
    eta1 = complex(math.cos(a), math.sin(a))
    eta2 = complex(math.cos(a + math.pi / 2 + delta), math.sin(a + math.pi / 2 + delta))
    return MiyataData(h, mu, (eta1, eta2), (0.5, 0.5), (0.5, 0.5))


def test_s7_configuration_is_pseudo_umbilical(rng):
    im = build(_s7_pseudo_umbilical())
    res = mean_curvature(im, _pts(rng)).pseudo_umbilical_residual
    assert np.max(res) <= 1e-9


def test_perturbed_s7_is_not_pseudo_umbilical(rng):
    im = build(_s7_pseudo_umbilical(delta=0.05), validate=False)
    res = mean_curvature(im, _pts(rng)).pseudo_umbilical_residual
    assert np.max(res) > 1e-4


def test_pseudo_umbilical_iff_block_sums_vanish(rng):
    # residual <= 1e-9 exactly when sum R mu^2 and sum R' eta^2 vanish
    cases = [
        _s7_pseudo_umbilical(0.5),
        _s7_pseudo_umbilical(0.25),
        _s7_pseudo_umbilical(0.5, delta=0.05),
        from_structure(0.5, 0.0).data,
        from_structure(0.7, 0.5).data,
        sasahara_data(),
    ]
    pts = _pts(rng)
    for data in cases:
        im = build(data, validate=False)
        res = float(np.max(mean_curvature(im, pts).pseudo_umbilical_residual))
        mu_sum = abs(sum(w * z * z for z, w in zip(data.mu, data.r_weights)))
        eta_sum = abs(sum(w * z * z for z, w in zip(data.eta, data.rp_weights)))
        sums_vanish = max(mu_sum, eta_sum) <= 1e-9
        assert (res <= 1e-9) == sums_vanish, (res, mu_sum, eta_sum)


# ---------------------------------------------------------------------------
# tension / bitension


def test_tension_is_twice_mean_curvature(structure_grid, rng):
    pts = _pts(rng)
    for h, _, im in structure_grid:
        tau = tension(im, pts)
        hv = mean_curvature(im, pts).h_vector
        assert np.max(np.abs(tau - 2.0 * hv)) <= 1e-10
        norms = np.linalg.norm(tau, axis=-1)
        assert np.max(np.abs(norms - 2.0 * h)) <= 1e-9


def test_tension_is_normal(structure_grid, rng):
    pts = _pts(rng)
    for _, _, im in structure_grid:
        tau = tension(im, pts)
        px = im.partial(pts, (1, 0))
        py = im.partial(pts, (0, 1))
        assert np.max(np.abs(np.sum(tau * px, axis=-1))) <= 1e-9
        assert np.max(np.abs(np.sum(tau * py, axis=-1))) <= 1e-9


def test_bitension_vanishes_on_constructions(structure_grid, rng):
    pts = _pts(rng, n=100)
    for _, _, im in structure_grid:
        t2 = bitension(im, pts)
        assert np.max(np.linalg.norm(t2, axis=-1)) <= 1e-7


def test_bitension_vanishes_on_extension(rng):
    im = extend_dimension(from_structure(0.45, 0.5))
    t2 = bitension(im, _pts(rng, n=60))
    assert np.max(np.linalg.norm(t2, axis=-1)) <= 1e-7


def _broken_balance():
    d = sasahara_data()
    return MiyataData(d.h, d.mu, d.eta, d.r_weights, (0.55 / 1.05, 0.5 / 1.05))


def test_bitension_negative_control_both_pipelines():
    im = build(_broken_balance(), validate=False)
    p = np.array([0.1, 0.2])
    assert np.linalg.norm(bitension(im, p)) > 1e-3
    assert np.linalg.norm(fd_bitension_oracle(im, p, 1e-2)) > 1e-3


def test_fd_oracle_agrees_with_analytic():
    im = from_structure(0.5, 0.3)
    p = np.array([0.1, 0.2])
    diff = fd_bitension_oracle(im, p, 1e-2) - bitension(im, p)
    assert np.linalg.norm(diff) <= 1e-5


def test_fd_pipeline_tolerance_on_constructions(structure_grid):
    # at step 1e-2 the fd bitension of every construction stays below 1e-4
    p = np.array([0.23, -0.41])
    for _, _, im in structure_grid:
        assert np.linalg.norm(fd_bitension_oracle(im, p, 1e-2)) <= 1e-4


def test_fd_oracle_fourth_order_halving():
    # steps chosen in the truncation-dominated regime: below ~1e-2 the
    # fourth-derivative stencils hit the double-precision rounding floor
    im = from_structure(0.5, 0.3)
    p = np.array([0.1, 0.2])
    ref = bitension(im, p)
    e1 = np.linalg.norm(fd_bitension_oracle(im, p, 4e-2) - ref)
    e2 = np.linalg.norm(fd_bitension_oracle(im, p, 2e-2) - ref)
    assert 8.0 <= e1 / e2 <= 32.0  # nominal factor 16


def test_fd_oracle_convergence_slope():
    im = from_structure(0.5, 0.3)
    p = np.array([0.1, 0.2])
    ref = bitension(im, p)
    steps = [1e-1, 5e-2, 2.5e-2, 1.25e-2]
    errs = [np.linalg.norm(fd_bitension_oracle(im, p, s) - ref) for s in steps]
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert slope >= 3.5


def test_fd_oracle_step_domain():
    im = from_structure(0.5, 0.3)
    with pytest.raises(DomainError):
        fd_bitension_oracle(im, np.zeros(2), 1e-5)


@pytest.mark.parametrize(
    "step", [0.0, -1e-3, math.nan, math.inf, "1e-3", None, True, 1e-100, 1e-170]
)
def test_fd_routes_reject_bad_step(step):
    im = from_structure(0.5, 0.3)
    p = np.array([0.1, 0.2])
    for call in (
        lambda: fd_partial_table(im, p, step),
        lambda: fd_bitension_oracle(im, p, step),
        lambda: gaussian_brioschi_fd(im, p, step=step),
    ):
        with pytest.raises(DomainError, match="step"):
            call()


@pytest.mark.parametrize("max_order", [-1, 5, 2.5, True])
def test_fd_partial_table_rejects_bad_max_order(max_order):
    with pytest.raises(DomainError, match="max_order"):
        fd_partial_table(from_structure(0.5, 0.3), np.zeros(2), 1e-2, max_order=max_order)


@pytest.mark.parametrize(
    "pts",
    [
        "ab", None, [math.nan, 0.0], [[0.0, 1.0], [0.0, -math.inf]], np.zeros(3), [1e308, 1e308],
        [10**400, 0.0],
    ],
)
def test_per_point_functions_reject_bad_points(pts):
    im = from_structure(0.5, 0.3)
    for call in (
        tension,
        bitension,
        fundamental_forms,
        mean_curvature,
        lambda im, p: fd_bitension_oracle(im, p, 1e-2),
        lambda im, p: fd_partial_table(im, p, 1e-2),
        gaussian_brioschi_fd,
    ):
        with pytest.raises(DomainError, match="points"):
            call(im, pts)


# ---------------------------------------------------------------------------
# intrinsic-curvature oracle on a curved fixture


class SmallSphere:
    """psi(x, y) = (c, r sin x cos y, r sin x sin y, r cos x), c^2 + r^2 = 1.

    A round two-sphere of radius r sitting in the unit three-sphere; induced
    metric r^2 (dx^2 + sin^2 x dy^2), K = 1/r^2, |H| = c/r, totally umbilic.
    With scale != 1 every coordinate is multiplied by it, so |psi| = scale.
    """

    def __init__(self, r=0.8, scale=1.0):
        self.r = r
        self.c = math.sqrt(1 - r * r)
        self.scale = scale

    def eval(self, p):
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        r = self.r
        return self.scale * np.stack(
            [np.full_like(x, self.c), r * np.sin(x) * np.cos(y), r * np.sin(x) * np.sin(y), r * np.cos(x)],
            axis=-1,
        )

    def partial(self, p, ax):
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        a, b = ax
        r = self.r
        # d^a/dx^a of sin/cos via quarter-turn phase shifts
        sx = np.sin(x + a * math.pi / 2)
        cx = np.cos(x + a * math.pi / 2)
        cy = np.cos(y + b * math.pi / 2)
        sy = np.sin(y + b * math.pi / 2)
        first = np.zeros_like(x) if (a or b) else np.full_like(x, self.c)
        comp_w = r * cx if b == 0 else np.zeros_like(x)
        return self.scale * np.stack([first, r * sx * cy, r * sx * sy, comp_w], axis=-1)

    def partial_table(self, p, max_order=2):
        return {
            (a, b): self.partial(p, (a, b))
            for a in range(max_order + 1)
            for b in range(max_order + 1 - a)
        }


def test_gauss_equation_on_round_sphere_fixture():
    fix = SmallSphere(r=0.8)
    pts = np.array([[1.1, 0.4], [0.7, -0.9], [1.9, 2.2]])
    summary = fd_oracle.mean_curvature(fix, pts)
    assert np.max(np.abs(summary.gaussian - 1.0 / 0.8**2)) <= 1e-10
    assert np.max(np.abs(summary.mean_curvature_norm - fix.c / fix.r)) <= 1e-10
    assert np.max(summary.pseudo_umbilical_residual) <= 1e-10  # totally umbilic


def test_brioschi_matches_gauss_equation_on_fixture():
    fix = SmallSphere(r=0.8)
    for p in ([1.1, 0.4], [0.7, -0.9]):
        k_intrinsic = gaussian_brioschi_fd(fix, np.array(p), step=1e-3)
        k_gauss = float(fd_oracle.mean_curvature(fix, np.array(p)).gaussian)
        assert abs(k_intrinsic - k_gauss) <= 1e-6


def test_brioschi_on_flat_immersion(rng):
    im = from_structure(0.5, 0.3)
    p = np.array([0.2, -0.4])
    assert abs(gaussian_brioschi_fd(im, p, step=1e-3)) <= 1e-6


def test_brioschi_rejects_a_batch_of_points():
    with pytest.raises(DomainError, match="points must be one point of shape"):
        gaussian_brioschi_fd(from_structure(0.5, 0.3), [[0.1, 0.2], [0.3, 0.4]])


# ---------------------------------------------------------------------------
# closed-form parameter checks


def test_diagonal_sum_hand_values():
    res = diagonal_sum_check(math.sqrt(2.0 / 3.0))
    assert res.r2 == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert res.h_norm_sq == pytest.approx(0.25, abs=1e-12)
    assert res.h_norm == pytest.approx(0.5, abs=1e-12)
    assert res.report.passed


def test_diagonal_sum_domain_errors():
    with pytest.raises(DomainError):
        diagonal_sum_check(1.0)  # harmonic case r1 = r2
    with pytest.raises(DomainError):
        diagonal_sum_check(0.6)  # below 1/sqrt(2)


def test_diagonal_sum_random_radii(rng):
    for _ in range(20):
        r1 = float(rng.uniform(0.72, 3.0))
        if abs(r1 - 1.0) < 0.05:
            continue
        res = diagonal_sum_check(r1, m=2)
        assert res.report.check("tau2_coefficient_1").residual <= 1e-12
        assert res.report.check("tau2_coefficient_2").residual <= 1e-12
        assert res.alpha_sq + res.beta_sq == pytest.approx(1.0, abs=1e-12)
        assert res.h_norm_sq == pytest.approx(1 - 1 / (r1**2 * res.r2**2), abs=1e-12)


def test_boruvka_two_three():
    bp = boruvka_params(2, 3)
    assert (bp.q1, bp.q2) == (6, 12)
    assert bp.h_norm == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert bp.alpha_sq == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert bp.r1**2 == pytest.approx(1.5, abs=1e-12)
    assert bp.r2**2 == pytest.approx(0.75, abs=1e-12)
    assert bp.alpha_sq * bp.r1**2 + bp.beta_sq * bp.r2**2 == pytest.approx(1.0, abs=1e-12)


def test_boruvka_symmetry_and_identity(rng):
    for _ in range(20):
        n1, n2 = sorted(rng.integers(2, 30, 2))
        if n1 == n2:
            continue
        a = boruvka_params(int(n1), int(n2))
        b = boruvka_params(int(n2), int(n1))
        assert a.h_norm == b.h_norm
        assert 1 / a.r1**2 + 1 / a.r2**2 == pytest.approx(2.0, abs=1e-12)


def test_boruvka_degenerate():
    with pytest.raises(DomainError):
        boruvka_params(3, 3)
    with pytest.raises(DomainError):
        boruvka_params(1, 2)


# ---------------------------------------------------------------------------
# the full report


def test_verify_immersion_clean(structure_grid, sasahara_immersion):
    # far boxes too: every partial is built from one cos/sin evaluation, so
    # the default tolerances hold at |p| ~ 1e9 as they do near the origin
    s11 = extend_dimension(extend_dimension(from_structure(0.3, 0.45)))
    assert s11.ambient_dim == 12
    for im in [im for _, _, im in structure_grid] + [sasahara_immersion, s11]:
        for box in (6.0, 1e6, 1e9):
            rep = verify_immersion(im, samples=60, seed=11, box=box)
            assert rep.passed, (im.data.h, im.ambient_dim, box, [c.name for c in rep.failures()])


# past 10^8 samples: 10^11 would take hours; refused before any work
@pytest.mark.parametrize("samples", [0, -1, 2.5, "10", True, 10**8 + 1, 10**11, 10**400])
def test_verify_immersion_rejects_bad_sample_counts(sasahara_immersion, samples):
    with pytest.raises(DomainError, match="samples"):
        verify_immersion(sasahara_immersion, samples=samples)


@pytest.mark.parametrize(
    "bad",
    [
        {"seed": -1},
        {"seed": 1.5},
        {"seed": True},
        {"box": math.nan},
        {"box": math.inf},
        {"box": -1.0},
        {"box": "6"},
        {"box": True},
        {"box": 1e308},
    ],
)
def test_verify_immersion_rejects_bad_seed_and_box(sasahara_immersion, bad):
    (name,) = bad
    with pytest.raises(DomainError, match=name):
        verify_immersion(sasahara_immersion, samples=5, **bad)


def test_verify_immersion_flags_broken_balance():
    im = build(_broken_balance(), validate=False)
    rep = verify_immersion(im, samples=60, seed=11)
    names = {c.name for c in rep.failures()}
    assert "miyata_balance" in names
    assert "bitension" in names


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-3, "1e-3", None, 1j, True])
def test_verify_immersion_rejects_bad_tolerance_overrides(sasahara_immersion, tol):
    with pytest.raises(DomainError, match="tolerance for gauss_flat"):
        verify_immersion(sasahara_immersion, samples=5, tolerances={"gauss_flat": tol})


# ---------------------------------------------------------------------------
# the whole-plane verifier against sampled oracles: one dict table over every
# sample, and the blocked sampled verifier it replaced (tests/verify_oracle.py)


def _sum_dot(u, v):
    return np.sum(u * v, axis=-1)


def _one_shot_verify(im, samples, seed, box):
    """Reference report: every sample point in one dict table, the dict-table
    kernel with every dot product reduced with np.sum, the check list written
    out by hand."""
    with mock.patch.object(oracle, "_dot", _sum_dot):
        data = im.data
        pts = np.random.default_rng(seed).uniform(-box, box, size=(samples, 2))
        table = oracle.partial_table(im, pts, 4)
        psi = table[(0, 0)]
        px, py = table[(1, 0)], table[(0, 1)]
        h = data.h
        lam1, lam2 = data.lambda1, data.lambda2
        forms = oracle.forms_from_table(table)
        g, _, inv, b_xx, b_xy, b_yy = forms
        eye = np.broadcast_to(np.eye(2), g.shape)
        curv = oracle.curvature_from_forms(forms)
        t1, t2 = _split_blocks(psi, im.m)
        lap_t1 = -(table[(2, 0)] + table[(0, 2)])[..., : 2 * im.m]
        lap_t2 = -(table[(2, 0)] + table[(0, 2)])[..., 2 * im.m :]
        tau, tau2 = oracle.tension_fields(table, inv)

        def maxabs(x):
            return float(np.max(np.abs(x)))

        normality = max(
            maxabs(_sum_dot(b, w)) for b in (b_xx, b_xy, b_yy) for w in (psi, px, py)
        )
        checks = [
            Check("unit_norm", maxabs(np.sqrt(_sum_dot(psi, psi)) - 1.0), 1e-12),
            Check("metric_identity", maxabs(g - eye), 1e-10),
            Check("forms_normal", normality, GEOMETRIC_TOL),
            Check("mean_curvature_norm", maxabs(curv.mean_curvature_norm - h), GEOMETRIC_TOL),
            Check("gauss_flat", maxabs(curv.gaussian), 1e-8),
            Check(
                "two_type_identity",
                maxabs(2.0 * curv.h_vector - (2.0 * h) * (t1 - t2)),
                GEOMETRIC_TOL,
            ),
            Check("block_norm_t1", maxabs(np.sqrt(_sum_dot(t1, t1)) - math.sqrt(0.5)), 1e-10),
            Check("block_norm_t2", maxabs(np.sqrt(_sum_dot(t2, t2)) - math.sqrt(0.5)), 1e-10),
            Check("block_orthogonal", maxabs(_sum_dot(t1, t2)), 1e-10),
            Check("eigenblock_t1", maxabs(lap_t1 - lam1 * t1[..., : 2 * im.m]), 1e-10),
            Check("eigenblock_t2", maxabs(lap_t2 - lam2 * t2[..., 2 * im.m :]), 1e-10),
            Check(
                "tension_normal",
                max(maxabs(_sum_dot(tau, px)), maxabs(_sum_dot(tau, py))),
                GEOMETRIC_TOL,
            ),
            Check("tension_vs_mean_curvature", maxabs(tau - 2.0 * curv.h_vector), 1e-10),
            Check("bitension", maxabs(np.sqrt(_sum_dot(tau2, tau2))), 1e-7),
        ]
    return VerificationReport(validate_miyata(data).checks + tuple(checks), samples)


_B = geometry._BLOCK


def _unnormalised(data, r_scale, rp_scales):
    """data with every weight rescaled, so the weights no longer sum to one:
    |psi| != 1, <tau, psi> != 0 and the metric is no multiple of the identity."""
    return MiyataData(
        data.h,
        data.mu,
        data.eta,
        tuple(w * r_scale for w in data.r_weights),
        tuple(w * f for w, f in zip(data.rp_weights, rp_scales)),
    )


@st.composite
def _immersions(draw):
    family = draw(st.sampled_from(["structure", "equal_weight", "broken_balance", "unnormalised"]))
    h = draw(st.floats(0.05, 0.95))
    if family == "broken_balance":
        return family, build(_broken_balance(), validate=False)
    if family == "equal_weight":
        im = build(symmetric_weights_data(h))
    else:
        im = from_structure(h, draw(st.floats(0.0, 1.0)) * rho_max(h))
    for _ in range(draw(st.integers(0, 6))):
        im = extend_dimension(im)
    if family == "unnormalised":
        scale = st.floats(0.5, 1.5)
        rp_scales = [draw(scale) for _ in im.data.rp_weights]
        data = _unnormalised(im.data, draw(scale), rp_scales)
        total = sum(data.r_weights) + sum(data.rp_weights)
        assume(abs(total - 2.0) > 1e-3)
        im = build(data, validate=False)
    return family, im


@st.composite
def _verify_case(draw):
    family, im = draw(_immersions())
    samples = draw(
        st.one_of(st.sampled_from([1, _B - 1, _B, _B + 1, 2 * _B + 1]), st.integers(1, 3 * _B))
    )
    box = 10.0 ** draw(st.floats(math.log10(6.0), 9.0))
    seed = draw(st.integers(0, 2**32 - 1))
    note("%s h=%r ambient_dim=%d samples=%d box=%r seed=%d"
         % (family, im.data.h, im.ambient_dim, samples, box, seed))
    return family in _ADMISSIBLE, im, samples, seed, box


_ADMISSIBLE = ("structure", "equal_weight")


# the checks of a field's coordinates, whose whole-plane sup the samples
# approach from below; every other check's quantity is the same at every
# point (or, for unit_norm, sampled by both routes)
_COORDINATE_CHECKS = ("two_type_identity", "eigenblock_t1", "eigenblock_t2", "tension_vs_mean_curvature")


def _assert_sup_of_samples(got, want, admissible):
    """got, the whole-plane report, against want, a sampled one: the same
    checks, order and tolerances; each residual at least the sampled worst
    (the sup property), up to rounding; every check that fails on the
    samples failing; a check of a quantity that is constant over the plane
    within 1e-12 relative; and on admissible data the same verdicts, with
    residuals within 1e-14."""
    assert got.sample_count == want.sample_count
    assert [c.name for c in got.checks] == [c.name for c in want.checks]
    assert [c.tolerance for c in got.checks] == [c.tolerance for c in want.checks]
    for g, w in zip(got.checks, want.checks):
        what = (g.name, g.residual, w.residual)
        assert g.residual >= w.residual - 1e-14 - 1e-12 * w.residual, what
        assert w.passed or not g.passed, what
        if g.name not in _COORDINATE_CHECKS:
            assert abs(g.residual - w.residual) <= 1e-12 * max(1.0, w.residual), what
        if admissible:
            assert abs(g.residual - w.residual) <= 1e-14, what
            assert g.passed == w.passed, g.name


@settings(max_examples=100, deadline=None)
@given(case=_verify_case())
def test_verify_immersion_matches_one_shot_oracle(case):
    admissible, im, samples, seed, box = case
    got = verify_immersion(im, samples=samples, seed=seed, box=box)
    want = _one_shot_verify(im, samples, seed, box)
    assert got.sample_count == samples
    _assert_sup_of_samples(got, want, admissible)


def _assert_close(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    bad = np.abs(got - want) > 1e-13 * np.maximum(1.0, np.abs(want))
    assert not np.any(bad), (what, float(np.max(np.abs(got - want))))


def _assert_per_point_functions_match_oracle(im, pts, fd_pts, step):
    _assert_close(tension(im, pts), oracle.tension(im, pts), "tension")
    _assert_close(bitension(im, pts), oracle.bitension(im, pts), "bitension")
    got, want = fundamental_forms(im, pts), oracle.fundamental_forms(im, pts)
    for name in ("g", "b_xx", "b_xy", "b_yy"):
        _assert_close(getattr(got, name), getattr(want, name), name)
    got, want = mean_curvature(im, pts), oracle.mean_curvature(im, pts)
    for name in ("mean_curvature_norm", "gaussian", "pseudo_umbilical_residual", "h_vector"):
        _assert_close(getattr(got, name), getattr(want, name), name)
    _assert_close(
        fd_bitension_oracle(im, fd_pts, step), oracle.fd_bitension_oracle(im, fd_pts, step), "fd"
    )


@settings(max_examples=60, deadline=None)
@given(
    case=_immersions(),
    shape=st.sampled_from([(), (1,), (9,), (17,), (3, 4), (2049,), (0,), (3, 0)]),
    box=st.floats(math.log10(6.0), 9.0),
    seed=st.integers(0, 2**32 - 1),
    step=st.sampled_from([1e-2, 2e-2, 5e-2]),
)
def test_per_point_functions_match_dict_table_oracle(case, shape, box, seed, step):
    # the symbol route and the table kernel against the per-entry oracle:
    # unnormalised weights (|psi| != 1, <tau, psi> != 0) and broken balance
    # (g_01 != 0) would expose a term dropped from the symbols that is not 0
    # on every Immersion
    family, im = case
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-(10.0**box), 10.0**box, shape + (2,))
    # finite differences resolve fourth derivatives only near the origin
    fd_pts = rng.uniform(-6.0, 6.0, shape + (2,))
    note("%s ambient_dim=%d box=1e%.2f" % (family, im.ambient_dim, box))
    _assert_per_point_functions_match_oracle(im, pts, fd_pts, step)


def test_per_point_functions_match_oracle_across_blocks():
    # more points than verify_immersion's block, read in one piece; broken
    # balance (g_01 != 0) and unnormalised weights (|psi| != 1) keep every
    # term dropped from the symbols visible
    s7 = extend_dimension(from_structure(0.4, 0.3))
    unnormalised = _unnormalised(s7.data, 0.8, [1.3, 0.6, 1.1])
    for im in (build(_broken_balance(), validate=False), build(unnormalised, validate=False)):
        pts = np.random.default_rng(23).uniform(-6.0, 6.0, (2 * _B + 7, 2))
        _assert_per_point_functions_match_oracle(im, pts, pts[-9:], 2e-2)


def test_forms_and_curvature_match_oracle_on_curved_fixture():
    # a metric that varies from point to point, through the fixture's own table
    fix = SmallSphere(r=0.8)
    pts = np.array([[1.1, 0.4], [0.7, -0.9], [1.9, 2.2]])
    forms = oracle.forms_from_table(fix.partial_table(pts, 2))
    got = fd_oracle.fundamental_forms(fix, pts)
    for name, want in zip(("g", "b_xx", "b_xy", "b_yy"), forms[:1] + forms[3:]):
        _assert_close(getattr(got, name), want, name)
    got, want = fd_oracle.mean_curvature(fix, pts), oracle.curvature_from_forms(forms)
    for name in ("mean_curvature_norm", "gaussian", "pseudo_umbilical_residual", "h_vector"):
        _assert_close(getattr(got, name), getattr(want, name), name)


@pytest.mark.parametrize("scale", [1.0, 1.3])
def test_tension_and_bitension_match_oracle_on_curved_fixture(scale):
    # the terms the symbols never see: beta and the tangential parts of tau
    # move the fixture's bitension by about 3, and alpha (1 - |psi|^2) psi
    # shows once |psi| != 1
    fix = SmallSphere(r=0.8, scale=scale)
    pts = np.array([[1.1, 0.4], [0.7, -0.9], [1.9, 2.2]])
    table = fix.partial_table(pts, 4)
    inv = oracle._metric(table)[2]
    tau, tau2 = oracle.tension_fields(table, inv)
    _assert_close(fd_oracle.tension(fix, pts), tau, "tension")
    _assert_close(fd_oracle.bitension(fix, pts), tau2, "bitension")


@pytest.mark.parametrize("shape", [(), (0,), (3, 4)])
def test_explicit_route_output_shapes(shape):
    # one kernel run per point, gathered into the caller's point shape
    fix = SmallSphere(r=0.8)
    pts = np.random.default_rng(8).uniform(0.5, 2.5, shape + (2,))
    vector, scalar = shape + (4,), shape
    assert fd_oracle.tension(fix, pts).shape == fd_oracle.bitension(fix, pts).shape == vector
    forms = fd_oracle.fundamental_forms(fix, pts)
    assert forms.g.shape == shape + (2, 2)
    assert forms.b_xx.shape == forms.b_xy.shape == forms.b_yy.shape == vector
    summary = fd_oracle.mean_curvature(fix, pts)
    assert summary.h_vector.shape == vector
    for name in ("mean_curvature_norm", "gaussian", "pseudo_umbilical_residual"):
        assert getattr(summary, name).shape == scalar, name
    for x in list(vars(forms).values()) + list(vars(summary).values()):
        assert x.flags.c_contiguous
    im = extend_dimension(from_structure(0.4, 0.3))
    fd = fd_bitension_oracle(im, np.zeros(shape + (2,)), 1e-2)
    assert fd.shape == shape + (im.ambient_dim,)
    if shape != (0,):
        _assert_close(fd, oracle.fd_bitension_oracle(im, np.zeros(shape + (2,)), 1e-2), "fd")
        want = oracle._bitension_from_table(fix.partial_table(pts, 4))
        _assert_close(fd_oracle.bitension(fix, pts), want, "bitension")


def test_verify_immersion_blocks_equal_one_unblocked_evaluation():
    # unit_norm, the one sampled check, evaluates psi at every point once, in
    # blocks of at most _BLOCK taken in order; its residual is the worst over all
    im = build(_broken_balance(), validate=False)
    samples = 3 * _B + 7
    pts = np.random.default_rng(197).uniform(-6.0, 6.0, size=(samples, 2))
    with mock.patch.object(
        immersion.Immersion, "eval", autospec=True, side_effect=immersion.Immersion.eval
    ) as spy:
        rep = verify_immersion(im, samples=samples, seed=197)
    blocks = [call.args[1] for call in spy.call_args_list]
    assert [len(b) for b in blocks] == [_B, _B, _B, 7]
    assert np.array_equal(np.concatenate(blocks), pts)
    assert rep.check("unit_norm").residual == geometry._unit_norm(im.eval(pts))


def _peak_traced_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_immersion_memory_bounded_by_block():
    s5 = from_structure(0.4, 0.3)
    s27 = s5
    for _ in range(6):
        s27 = extend_dimension(s27)
    assert s27.ambient_dim == 28
    for im, samples in ((s5, 100_000), (s27, 20_000)):
        peak = _peak_traced_bytes(lambda: verify_immersion(im, samples=samples, seed=3))
        assert peak < 32 * 2**20, (im.ambient_dim, samples, peak)


@pytest.mark.parametrize("call", [tension, bitension, mean_curvature, fundamental_forms])
def test_per_point_functions_memory_bounded_by_block(call):
    # on S^5 the outputs take up to 17.6 MB (fundamental_forms: g and three
    # forms); with a workspace sized to all 10^5 points the peaks were 42 to
    # 74 MB. On S^27 a vector output takes 22.4 MB and fundamental_forms's
    # 67 MB; the trig pair, written in place, adds one (P, D) array
    s5 = from_structure(0.4, 0.3)
    s27 = s5
    for _ in range(6):
        s27 = extend_dimension(s27)
    pts = np.random.default_rng(3).uniform(-6.0, 6.0, (100_000, 2))
    peak = _peak_traced_bytes(lambda: call(s5, pts))
    assert peak < 32 * 2**20, (call.__name__, peak)
    peak = _peak_traced_bytes(lambda: call(s27, pts))
    assert peak < (70 if call is fundamental_forms else 36) * 2**20, (call.__name__, peak)


def test_verify_immersion_runs_no_per_point_kernel():
    # the geometric checks come from the symbols: no partial table is read
    # and the symbols are not read at any point, however many samples there
    # are; the kernel runs once per call, on the (15, D) table at the origin
    def refuse(*args, **kwargs):
        raise AssertionError("verify_immersion read the geometry per point")

    im = from_structure(0.4, 0.3)
    point_geometry, tables = geometry._point_geometry, []

    def kernel(t):
        tables.append(t.shape)
        return point_geometry(t)

    with contextlib.ExitStack() as patches:
        patches.enter_context(mock.patch.object(immersion.Immersion, "partial_table", refuse))
        patches.enter_context(mock.patch.object(immersion.Immersion, "_read_symbols", refuse))
        patches.enter_context(mock.patch.object(geometry, "_point_geometry", kernel))
        for samples in (1, _B, 3 * _B + 7):
            del tables[:]
            assert verify_immersion(im, samples=samples, seed=3).passed
            assert tables == [(15, im.ambient_dim)], (samples, tables)


def test_verify_immersion_keeps_no_memory_after_the_call():
    im = from_structure(0.4, 0.3)
    for _ in range(6):
        im = extend_dimension(im)  # S^27: a workspace of about 10 MB would show if kept
    tracemalloc.start()
    try:
        rep = verify_immersion(im, samples=3 * _B + 7, seed=3)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert held < 2**20, held


# ---------------------------------------------------------------------------
# one factor table and one validation; the whole-plane checks against the
# sampled verifier they replaced (tests/verify_oracle.py)


@st.composite
def _family_verify_case(draw):
    family = draw(st.sampled_from(["structure", "equal_weight", "broken_balance", "off_circle"]))
    h = draw(st.floats(0.05, 0.95))
    if family == "equal_weight":
        im = build(symmetric_weights_data(h))
    else:
        im = from_structure(h, draw(st.floats(0.0, 1.0)) * rho_max(h))
    for _ in range(draw(st.integers(0, 4))):
        im = extend_dimension(im)
    d = im.data
    if family == "broken_balance":
        # weight moved from one high block to the next: the weights still sum
        # to one, but the balance no longer holds
        shift = draw(st.floats(0.01, 0.5)) * min(d.rp_weights)
        rp_weights = (d.rp_weights[0] + shift, d.rp_weights[1] - shift) + d.rp_weights[2:]
        im = build(replace(d, rp_weights=rp_weights), validate=False)
    elif family == "off_circle":
        scale = draw(st.floats(0.8, 1.25))
        assume(abs(scale - 1.0) > 1e-3)
        im = build(replace(d, eta=(d.eta[0] * scale,) + d.eta[1:]), validate=False)
    samples = draw(st.one_of(st.sampled_from([1, _B + 1, 5000]), st.integers(1, 5000)))
    box = 10.0 ** draw(st.floats(math.log10(6.0), 9.0))
    seed = draw(st.integers(0, 2**32 - 1))
    note("%s h=%r ambient_dim=%d samples=%d box=%r seed=%d"
         % (family, h, im.ambient_dim, samples, box, seed))
    return family in _ADMISSIBLE, im, samples, seed, box


_ALL_ORDERS = tuple((a, n - a) for n in range(5) for a in range(n, -1, -1))


@settings(max_examples=100, deadline=None)
@given(case=_family_verify_case())
def test_factor_table_and_stacked_projection_match_oracle(case):
    admissible, im, samples, seed, box = case
    for i, order in enumerate(_ALL_ORDERS):
        assert np.array_equal(im._factors()[i], verify_oracle.factor_rows(im, (order,))[0]), order
    assert np.array_equal(im._factors(), verify_oracle.factor_rows(im, _ALL_ORDERS))
    got = verify_immersion(im, samples=samples, seed=seed, box=box)
    want = verify_oracle.verify_immersion(im, samples=samples, seed=seed, box=box)
    _assert_sup_of_samples(got, want, admissible)


@settings(max_examples=100, deadline=None)
@given(case=_family_verify_case())
def test_kernel_at_the_origin_matches_the_symbol_oracle(case):
    # the one kernel keeps alpha, beta and the tangential parts; at the
    # origin they are 0.0 or cancel, so it gives the fields of the symbol
    # route that left them out, and the same verdicts
    _, im, samples, seed, box = case
    got, want = geometry._symbols(im), symbol_oracle.symbols(im)
    for name in ("g", "det", "forms", "h", "tau", "tau2", "lap"):
        _assert_close(getattr(got, name), getattr(want, name), name)
    constants = symbol_oracle.curvature_constants(want)
    for name, value in zip(("h_norm", "gauss", "umbilic"), constants):
        _assert_close(getattr(got, name), value, name)
    report = verify_immersion(im, samples=samples, seed=seed, box=box)
    want = symbol_oracle.symbol_residuals(im)
    for (name, tol), residual in zip(geometry._CHECKS[1:], want):
        check = report.check(name)
        _assert_close(check.residual, residual, name)
        assert check.passed == Check(name, residual, tol).passed, name


def test_verify_immersion_geometric_residuals_ignore_the_samples():
    # every residual but unit_norm is the whole plane's sup: the same for
    # every seed, sample count and box
    s11 = extend_dimension(extend_dimension(from_structure(0.3, 0.45)))
    scales = [1.3, 0.6, 1.1, 0.9, 1.2][: len(s11.data.rp_weights)]
    cases = (
        from_structure(0.6, 0.2),
        s11,
        build(_broken_balance(), validate=False),
        build(_unnormalised(s11.data, 0.8, scales), validate=False),
    )
    for im in cases:
        geometric = set()
        for samples in (1, 2049, 5000):
            for seed in (0, 7):
                for box in (6.0, 1e3, 1e9):
                    rep = verify_immersion(im, samples=samples, seed=seed, box=box)
                    geometric.add(tuple(c.residual for c in rep.checks if c.name != "unit_norm"))
        assert len(geometric) == 1, im.ambient_dim


def test_verify_immersion_nan_data_fails_as_the_sampled_oracle():
    # every max is numpy's, so a NaN reaches the capped residual: a NaN high
    # weight fails every check that reads the high block
    d = sasahara_data()
    nan_weight = build(replace(d, rp_weights=(math.nan, 0.5)), validate=False)
    got = verify_immersion(nan_weight, samples=60, seed=11)
    want = verify_oracle.verify_immersion(nan_weight, samples=60, seed=11)
    assert [c.name for c in got.failures()] == [c.name for c in want.failures()]
    geometric = [name for name, _ in geometry._CHECKS]
    assert [c.name for c in got.failures() if c.name in geometric] == [
        name for name in geometric if name not in ("block_norm_t1", "eigenblock_t1")
    ]
    # a NaN frequency component makes its phases NaN: both routes refuse it,
    # naming the wave vector rather than the finite sample points
    nan_frequency = build(replace(d, eta=(complex(math.nan, d.eta[0].imag), d.eta[1])), validate=False)
    for verify in (verify_immersion, verify_oracle.verify_immersion):
        with pytest.raises(DomainError, match="phase") as err:
            verify(nan_frequency, samples=60, seed=11)
        assert "wave_vectors[" in str(err.value) and "points" not in str(err.value)


# ---------------------------------------------------------------------------
# unit_norm's block loop, its block norms pooled by np.maximum: the serial
# loop's and the sampled oracle's residuals and errors at any sample count and
# box; a block's error reaches the caller; several blocks start no thread


def _residuals(report):
    return np.array([c.residual for c in report.checks])


def _verify_or_error(verify, im, samples, seed, box):
    try:
        return verify(im, samples=samples, seed=seed, box=box)
    except DomainError as err:
        return err


@st.composite
def _unit_norm_case(draw):
    family = draw(st.sampled_from(
        ["structure", "broken_balance", "off_circle", "nan_weight", "nan_frequency"]
    ))
    h = draw(st.floats(0.05, 0.95))
    im = from_structure(h, draw(st.floats(0.0, 1.0)) * rho_max(h))
    for _ in range(draw(st.integers(0, 2))):
        im = extend_dimension(im)
    d = im.data
    if family == "broken_balance":
        shift = draw(st.floats(0.01, 0.5)) * min(d.rp_weights)
        rp_weights = (d.rp_weights[0] + shift, d.rp_weights[1] - shift) + d.rp_weights[2:]
        im = build(replace(d, rp_weights=rp_weights), validate=False)
    elif family == "off_circle":
        scale = draw(st.floats(0.8, 1.25))
        im = build(replace(d, eta=(d.eta[0] * scale,) + d.eta[1:]), validate=False)
    elif family == "nan_weight":
        im = build(replace(d, rp_weights=(math.nan,) + d.rp_weights[1:]), validate=False)
    elif family == "nan_frequency":
        eta = (complex(math.nan, d.eta[0].imag),) + d.eta[1:]
        im = build(replace(d, eta=eta), validate=False)
    samples = draw(st.sampled_from([1, _B - 1, _B, _B + 1, 3 * _B + 7, 10_000]))
    box = 10.0 ** draw(st.floats(math.log10(6.0), 9.0))
    seed = draw(st.integers(0, 2**32 - 1))
    note("%s h=%r ambient_dim=%d samples=%d box=%r seed=%d"
         % (family, h, im.ambient_dim, samples, box, seed))
    return im, samples, seed, box


@settings(max_examples=100, deadline=None)
@given(case=_unit_norm_case())
@example(case=(from_structure(0.4, 0.3), 3 * _B + 7, 0, sys.float_info.max / 2))
def test_pooled_unit_norm_equals_the_serial_loop_and_the_oracle(case):
    # the data checks' and unit_norm's residuals, NaN included, and every
    # DomainError, as the sampled oracle's one (samples, 2) draw gives them; at
    # the widest box some phases leave the float range, and a block raises.
    # unit_norm is also the worst of _B-point slices of that one draw
    im, samples, seed, box = case
    got = _verify_or_error(verify_immersion, im, samples, seed, box)
    want = _verify_or_error(verify_oracle.verify_immersion, im, samples, seed, box)
    if isinstance(want, DomainError):
        assert isinstance(got, DomainError) and str(got) == str(want)
        return
    assert not isinstance(got, DomainError), got
    assert [c.name for c in got.checks] == [c.name for c in want.checks]
    assert got.sample_count == want.sample_count == samples
    # the data checks, then unit_norm; the oracle's other checks are sampled
    n = len(im._validation().checks) + 1
    assert got.checks[n - 1].name == "unit_norm"
    assert np.array_equal(_residuals(got)[:n], _residuals(want)[:n], equal_nan=True)
    pts = np.random.default_rng(seed).uniform(-box, box, size=(samples, 2))
    loop = functools.reduce(np.maximum, (
        geometry._unit_norm(im.eval(pts[i:i + _B])) for i in range(0, samples, _B)
    ))
    unit = got.check("unit_norm")
    assert unit == Check("unit_norm", loop, unit.tolerance), (unit, loop)


def test_pooled_block_error_reaches_the_caller():
    # at the widest box some phases leave the float range: the block that
    # meets them raises to the caller, and the immersion serves the next call
    im = from_structure(0.4, 0.3)
    samples = 3 * _B + 7
    with pytest.raises(DomainError, match="phase"):
        verify_immersion(im, samples=samples, box=sys.float_info.max / 2)
    assert verify_immersion(im, samples=samples).passed


def test_one_block_verify_starts_no_thread():
    # several blocks run one after another on the calling thread
    code = (
        "import sys, threading\n"
        "from bihsurf.geometry import verify_immersion\n"
        "from bihsurf.immersion import from_structure\n"
        "assert verify_immersion(from_structure(0.4, 0.3), samples=%d).passed\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "assert threading.active_count() == 1\n" % (3 * _B + 7)
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_verify_immersion_validates_once():
    calls = []

    def counting(data):
        calls.append(data)
        return validate_miyata(data)

    with contextlib.ExitStack() as patches:
        for module in (parameters, immersion, geometry):
            if hasattr(module, "validate_miyata"):
                patches.enter_context(mock.patch.object(module, "validate_miyata", counting))
        rep = verify_immersion(build(sasahara_data()), samples=50, seed=1)
        assert rep.passed and len(calls) == 1
        # validate=False builds without a report; verify makes the one it shows
        broken = build(_broken_balance(), validate=False)
        assert len(calls) == 1
        rep = verify_immersion(broken, samples=50, seed=1)
    assert len(calls) == 2
    assert "miyata_balance" in {c.name for c in rep.failures()}


@pytest.mark.parametrize("shape", [(17,), (3, 5), (2049,)])
def test_per_point_outputs_are_c_ordered(shape):
    im = extend_dimension(from_structure(0.4, 0.3))
    pts = np.random.default_rng(5).uniform(-6.0, 6.0, shape + (2,))
    outs = list(im.partial_table(pts, 4).values()) + [im.partial(pts, (2, 1))]
    outs += [tension(im, pts), bitension(im, pts)]
    outs += list(vars(mean_curvature(im, pts)).values())
    outs += list(vars(fundamental_forms(im, pts)).values())
    for x in outs:
        assert x.shape[: len(shape)] == shape
        assert x.flags.c_contiguous


# ---------------------------------------------------------------------------
# the S^27 chain of the console script against the oracles


def _outputs(x) -> list:
    """The arrays of a per-point function's output, in field order."""
    return list(vars(x).values()) if hasattr(x, "__dict__") else [x]


def test_s27_chain_geometry_against_the_oracles(tmp_path):
    # built as `bihsurf construct --extend` builds it: S^5 at (h, rho) =
    # (1/2, 0), then six extensions, each read back from its JSON file
    prev = tmp_path / "s5.json"
    assert cli.main(["construct", "--h", "0.5", "--rho", "0", "--out", str(prev)]) == 0
    for dim in (7, 11, 15, 19, 23, 27):
        out = tmp_path / ("s%d.json" % dim)
        assert cli.main(["construct", "--extend", str(prev), "--out", str(out)]) == 0
        prev = out
    data = miyata_from_dict(json.loads(prev.read_text()))
    im = build(data)
    assert im.ambient_dim == 28
    pts = np.random.default_rng(0).uniform(-6.0, 6.0, (2049, 2))
    assert np.max(np.linalg.norm(bitension(im, pts), axis=-1)) <= 1e-7
    assert np.max(np.abs(mean_curvature(im, pts).mean_curvature_norm - data.h)) <= 1e-9
    fd = fd_bitension_oracle(im, pts[:9], 1e-2)
    assert np.max(np.linalg.norm(fd, axis=-1)) <= 1e-4
    # a plain map with only eval and partial_table: the explicit-table route
    # runs the library's kernel at each point, and must give the symbols'
    # outputs
    plain = SimpleNamespace(eval=im.eval, partial_table=im.partial_table)
    pts = pts[:64]
    for call in (tension, bitension, fundamental_forms, mean_curvature):
        table_route = getattr(fd_oracle, call.__name__)
        for a, b in zip(_outputs(table_route(plain, pts)), _outputs(call(im, pts)), strict=True):
            assert a.shape == b.shape, call.__name__
            err = np.abs(a - b) / np.maximum(1.0, np.abs(b))
            assert np.all(err <= 1e-12), (call.__name__, float(np.max(err)))
