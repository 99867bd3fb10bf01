"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them)."""

import math
import time
from fractions import Fraction as F

import numpy as np

from bihsurf.parameters import (
    MiyataData,
    angle_family_data,
    rho_max,
    rho_tilde_of,
    s_of_rho,
    t_of_s,
)
from bihsurf.immersion import build, extend_dimension, from_structure, sasahara_data
from bihsurf.geometry import (
    bitension,
    boruvka_params,
    diagonal_sum_check,
    mean_curvature,
    verify_immersion,
)
from bihsurf.periodicity import (
    period_lattice,
    same_lattice,
    torus_case_i,
    torus_case_ii,
    torus_exists,
)
from bihsurf.admissibility import admissible, parse_lattice
from fd_oracle import fd_bitension_oracle

SQ2PI = math.sqrt(2.0) * math.pi

CRITERION_1_CHECKS = {
    "unit_norm": 1e-12,
    "metric_identity": 1e-10,
    "mean_curvature_norm": 1e-9,
    "gauss_flat": 1e-8,
    "eigenblock_t1": 1e-10,
    "eigenblock_t2": 1e-10,
    "bitension": 1e-7,
}


def _report(n: int, label: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print("[criterion %d] %s - %s" % (n, status, label))
    assert not failures, "criterion %d: %s" % (n, "; ".join(map(str, failures)))


def _immersion_meets_criterion_1(im, seed: int, failures: list, tag: str):
    rep = verify_immersion(im, samples=100, seed=seed)
    for name, tol in CRITERION_1_CHECKS.items():
        c = rep.check(name)
        assert c.tolerance == tol, (name, c.tolerance)
        if not c.passed:
            failures.append("%s: %s residual %.3e > %g" % (tag, name, c.residual, tol))
    return rep


def test_criterion_1_structure_family_verification():
    start = time.time()
    failures = []
    for i, h in enumerate(np.linspace(0.05, 0.95, 20)):
        for j, rho in enumerate(np.linspace(0.0, rho_max(float(h)), 10)):
            im = from_structure(float(h), float(rho))
            _immersion_meets_criterion_1(im, seed=1000 + 10 * i + j, failures=failures,
                                         tag="h=%.3f rho=%.3f" % (h, rho))
    elapsed = time.time() - start
    if elapsed > 60.0:
        failures.append("runtime %.1fs exceeds one minute" % elapsed)
    _report(1, "structure family 20x10 grid, 100 points each (%.1fs)" % elapsed, failures)


def test_criterion_2_independent_bitension_oracle():
    failures = []
    im = from_structure(0.5, 0.3)
    p = np.array([0.1, 0.2])
    ref = bitension(im, p)
    steps = [1e-1, 5e-2, 2.5e-2, 1.25e-2]
    errs = [float(np.linalg.norm(fd_bitension_oracle(im, p, s) - ref)) for s in steps]
    slope = float(np.polyfit(np.log(steps), np.log(errs), 1)[0])
    if slope < 3.5:
        failures.append("observed convergence order %.2f < 3.5" % slope)
    d = sasahara_data()
    broken = MiyataData(d.h, d.mu, d.eta, d.r_weights, (0.55 / 1.05, 0.5 / 1.05))
    imb = build(broken, validate=False)
    a = float(np.linalg.norm(bitension(imb, p)))
    f = float(np.linalg.norm(fd_bitension_oracle(imb, p, 1e-2)))
    if a <= 1e-3:
        failures.append("analytic negative control %.3e <= 1e-3" % a)
    if f <= 1e-3:
        failures.append("fd negative control %.3e <= 1e-3" % f)
    _report(2, "fd oracle order %.2f, negative controls %.2e/%.2e" % (slope, a, f), failures)


def _subgroup_points(gens, coeff: int):
    g1, g2 = (np.array(g) for g in gens)
    return {
        (round(float(a * g1[0] + b * g2[0]), 9), round(float(a * g1[1] + b * g2[1]), 9))
        for a in range(-coeff, coeff + 1)
        for b in range(-coeff, coeff + 1)
    }


def test_criterion_3_sasahara_reproduction():
    failures = []
    im = build(sasahara_data())
    lat = period_lattice(im, 20.0)
    expected = [(SQ2PI, 0.0), (0.0, 2.0 * math.pi)]  # subgroup {sqrt2 pi (n, sqrt2 m)}
    if lat.rank != 2:
        failures.append("rank %d != 2" % lat.rank)
    elif not same_lattice(lat.gens, expected):
        failures.append("lattice not unimodularly equal to sqrt2 pi (n, sqrt2 m)")
    elif _subgroup_points(lat.gens, 4) != _subgroup_points(expected, 4):
        failures.append("subgroup point sets differ on the comparison window")
    _report(3, "doubly periodic h=1/2 example lattice", failures)


def test_criterion_4_torus_oracle_closed_forms():
    failures = []
    cii = torus_case_ii(1, 2, 1, 2)
    if cii.params.h != F(1, 2):
        failures.append("case ii h = %s != 1/2" % cii.params.h)
    for got, want, name in [
        (cii.v1, (SQ2PI, 0.0), "v1"),
        (cii.v2, (-SQ2PI, 2 * math.pi), "v2"),
    ]:
        if max(abs(got[0] - want[0]), abs(got[1] - want[1])) > 1e-12:
            failures.append("%s = %r deviates beyond 1e-12" % (name, got))
    if torus_case_i(3).h != F(4, 5):
        failures.append("case i h(q=3) != 4/5")
    v_half = torus_exists(F(1, 2), 20)
    v_45 = torus_exists(F(4, 5), 20)
    if v_half.kind != "case_ii" or v_half.pqrt != (1, 2, 1, 2):
        failures.append("torus_exists(1/2) witness %s" % (v_half.pqrt,))
    if v_45.kind != "case_i" or v_45.q != 3:
        failures.append("torus_exists(4/5) witness %s" % v_45.q)
    im_half = build(angle_family_data(0.5, v_half.case_ii.rho))
    im_45 = from_structure(0.8, 0.0)
    for im, verdict in [(im_half, v_half), (im_45, v_45)]:
        psi0 = im.eval(np.zeros(2))
        for g in verdict.generators:
            res = float(np.max(np.abs(im.eval(np.array(g)) - psi0)))
            if res > 1e-8:
                failures.append("generator %r residual %.2e" % (g, res))
    _report(4, "torus constructors and existence witnesses", failures)


def test_criterion_5_weight_angle_round_trips():
    failures = []
    rng = np.random.default_rng(5)
    for _ in range(50):
        h = float(rng.uniform(0.05, 0.95))
        rho = float(rng.uniform(0.0, math.pi / 2))
        err = abs(t_of_s(h, s_of_rho(h, rho)) - math.tan(rho / 2))
        if err > 1e-11:
            failures.append("round trip error %.2e at h=%.3f rho=%.3f" % (err, h, rho))
    for h in (0.2, 0.5, 0.9):
        if t_of_s(h, h / (1 + h)) != 0.0 or t_of_s(h, 1 / (1 + h)) != 1.0:
            failures.append("endpoint values not exact at h=%g" % h)
        if rho_tilde_of(h, 0.0) != -math.pi / 2 or rho_tilde_of(h, math.pi / 2) != 0.0:
            failures.append("rho_tilde special cases not exact at h=%g" % h)
    _report(5, "t(s(rho)) = tan(rho/2) within 1e-11, exact endpoints", failures)


def _s7_config(h=0.5, delta=0.0):
    a = math.pi / 8
    return MiyataData(
        h,
        (complex(1.0, 0.0), complex(0.0, 1.0)),
        (
            complex(math.cos(a), math.sin(a)),
            complex(math.cos(a + math.pi / 2 + delta), math.sin(a + math.pi / 2 + delta)),
        ),
        (0.5, 0.5),
        (0.5, 0.5),
    )


def test_criterion_6_pseudo_umbilical_characterization():
    failures = []
    rng = np.random.default_rng(6)
    pts = rng.uniform(-5, 5, size=(50, 2))

    def residual(data):
        im = build(data, validate=False)
        return float(np.max(mean_curvature(im, pts).pseudo_umbilical_residual))

    clean = residual(_s7_config())
    if clean > 1e-9:
        failures.append("clean configuration residual %.2e > 1e-9" % clean)
    perturbed = residual(_s7_config(delta=0.05))
    if perturbed <= 1e-4:
        failures.append("perturbed configuration residual %.2e <= 1e-4" % perturbed)
    for data in (_s7_config(), _s7_config(0.3), _s7_config(delta=0.05),
                 from_structure(0.5, 0.0).data, sasahara_data()):
        mu_sum = abs(sum(w * z * z for z, w in zip(data.mu, data.r_weights)))
        eta_sum = abs(sum(w * z * z for z, w in zip(data.eta, data.rp_weights)))
        vanish = max(mu_sum, eta_sum) <= 1e-9
        small = residual(data) <= 1e-9
        if vanish != small:
            failures.append("residual/vanishing mismatch (sums %.1e,%.1e)" % (mu_sum, eta_sum))
    _report(6, "pseudo-umbilical residual tracks the block conditions", failures)


def test_criterion_7_admissibility_decisions():
    failures = []
    lat2pi = parse_lattice({"gens": [["2*pi", "0"], ["0", "2*pi"]]})
    if admissible(lat2pi, F(1, 2)).verdict != "none_empty_circle":
        failures.append("2pi Z^2 at h=1/2 not none_empty_circle")
    latpi = parse_lattice({"gens": [["pi", "0"], ["0", "pi"]]})
    for h in (F(1, 4), F(1, 2), F(3, 4)):
        if admissible(latpi, h).verdict != "none_empty_circle":
            failures.append("pi Z^2 at h=%s not none_empty_circle" % h)
    lat5 = parse_lattice({"gens": [["2*pi*sqrt(5)", "0"], ["0", "2*pi*sqrt(5)"]]})
    res = admissible(lat5, F(3, 5))
    if res.verdict != "exists_pseudo_umbilical":
        failures.append("sqrt5 lattice verdict %s" % res.verdict)
    else:
        im = build(res.witness)
        _immersion_meets_criterion_1(im, seed=7, failures=failures, tag="witness")
        psi0 = im.eval(np.zeros(2))
        for g in lat5.gens:
            resid = float(np.max(np.abs(im.eval(np.array(g)) - psi0)))
            if resid > 1e-8:
                failures.append("witness not periodic over input lattice (%.2e)" % resid)
    _report(7, "admissibility verdicts and witness verification", failures)


def test_criterion_8_diagonal_sum_algebra():
    failures = []
    rng = np.random.default_rng(8)
    done = 0
    while done < 20:
        r1 = float(rng.uniform(0.72, 3.0))
        if abs(r1 - 1.0) < 0.05:
            continue
        done += 1
        res = diagonal_sum_check(r1, m=2)
        for name in ("tau2_coefficient_1", "tau2_coefficient_2"):
            c = res.report.check(name)
            if c.residual > 1e-12:
                failures.append("%s residual %.2e at r1=%.3f" % (name, c.residual, r1))
        if abs(res.h_norm_sq - (1 - 1 / (r1**2 * res.r2**2))) > 1e-12:
            failures.append("mean curvature mismatch at r1=%.3f" % r1)
    bp = boruvka_params(2, 3)
    if abs(bp.h_norm - 1.0 / 3.0) > 1e-15:
        failures.append("degree (2,3) mean curvature %r != 1/3" % bp.h_norm)
    if abs(bp.alpha_sq * bp.r1**2 + bp.beta_sq * bp.r2**2 - 1.0) > 1e-12:
        failures.append("immersion constraint violated")
    if abs(1 / bp.r1**2 + 1 / bp.r2**2 - 2.0) > 1e-12:
        failures.append("radius identity violated")
    _report(8, "closed-form diagonal-sum and degree-pair identities", failures)


def test_criterion_9_extension_construction():
    failures = []
    base = from_structure(0.3, 0.45)
    im7 = extend_dimension(base)
    im11 = extend_dimension(im7)
    if (im7.ambient_dim, im11.ambient_dim) != (8, 12):
        failures.append("ambient dims %s" % [(im7.ambient_dim, im11.ambient_dim)])
    for tag, im in (("S7", im7), ("S11", im11)):
        rep = _immersion_meets_criterion_1(im, seed=9, failures=failures, tag=tag)
        hc = rep.check("mean_curvature_norm")
        if hc.residual > 1e-9:
            failures.append("%s mean curvature drifted %.2e" % (tag, hc.residual))
        if not rep.check("eta_distinct").passed:
            failures.append("%s frequency distinctness gate failed" % tag)
    _report(9, "dimension extension S5 -> S7 -> S11 at fixed mean curvature", failures)
