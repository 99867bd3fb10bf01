"""Consistency checks that tie the exact decision procedures to the
numeric constructions across module boundaries."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from bihsurf.parameters import (
    MiyataData,
    angle_family_data,
    canonicalize,
    rho_max,
    validate_miyata,
)
from bihsurf.immersion import build, from_structure
from bihsurf.geometry import verify_immersion
from bihsurf.periodicity import Lattice2, torus_case_i, torus_case_ii, torus_exists
from bihsurf.admissibility import admissible
from admissible_oracle import exact_squares


def test_torus_exists_finds_any_case_ii_mean_curvature(rng):
    # every h produced by the closed form must come back with some witness
    for _ in range(10):
        p, q, r, t = (int(x) for x in rng.integers(1, 7, 4))
        a, b = F(p * p, q * q), F(r * r, t * t)
        if (a - b) ** 2 >= 1:
            continue
        h = (1 - (a - b) ** 2) / (1 + (a - b) ** 2 + 2 * (a + b))
        verdict = torus_exists(h, search_bound=8)
        assert verdict.kind in ("case_i", "case_ii")
        if verdict.kind == "case_ii":
            wp, wq, wr, wt = verdict.pqrt
            wa, wb = F(wp * wp, wq * wq), F(wr * wr, wt * wt)
            assert (1 - (wa - wb) ** 2) / (1 + (wa - wb) ** 2 + 2 * (wa + wb)) == h


@pytest.mark.parametrize("q", [F(3), F(3, 2), F(5, 2)])
def test_case_i_lattice_is_admissible_at_its_mean_curvature(q):
    # the rho = 0 member quotients over its own period lattice, so the
    # admissibility decision on that lattice must confirm existence
    res = torus_case_i(q)
    out = admissible(res.lattice, res.h)
    assert out.exists, out.verdict
    # the low-frequency circle holds exactly the one point -lambda1
    lam1 = 2 * (1 - res.h)
    assert exact_squares(out.set_a) == ((-lam1, F(0)),)
    im = build(out.witness)
    assert verify_immersion(im, samples=60, seed=13).passed
    psi0 = im.eval(np.zeros(2))
    for g in res.lattice.gens:
        assert float(np.max(np.abs(im.eval(np.array(g)) - psi0))) <= 1e-8


def test_mirrored_family_members_pass_verification(rng):
    # angles past rho_max give the reflected copies; same invariants hold
    for _ in range(5):
        h = float(rng.uniform(0.1, 0.9))
        rho = float(rng.uniform(rho_max(h) * 1.05, math.pi / 2 * 0.98))
        im = build(angle_family_data(h, rho))
        rep = verify_immersion(im, samples=60, seed=17)
        assert rep.passed, [c.name for c in rep.failures()]


def test_case_ii_member_passes_verification():
    res = torus_case_ii(2, 3, 1, 2)
    im = build(angle_family_data(float(res.params.h), res.rho))
    assert verify_immersion(im, samples=60, seed=19).passed


def test_canonicalize_fuzz(rng):
    # random symmetry scrambles of family members all land on a valid,
    # idempotent normal form with the leading weight at most 1/2
    for _ in range(40):
        h = float(rng.uniform(0.1, 0.9))
        rho = float(rng.uniform(0.02, math.pi / 2 - 0.02))
        data = angle_family_data(h, rho)
        alpha = complex(math.cos(rng.uniform(0, 2 * math.pi)),
                        math.sin(rng.uniform(0, 2 * math.pi)))
        alpha /= abs(alpha)
        eta = [alpha * e * (-1.0 if rng.random() < 0.5 else 1.0) for e in data.eta]
        if rng.random() < 0.5:
            eta = eta[::-1]
            weights = (data.rp_weights[1], data.rp_weights[0])
        else:
            weights = data.rp_weights
        scrambled = MiyataData(h, (alpha * data.mu[0],), tuple(eta),
                               data.r_weights, weights)
        canon = canonicalize(scrambled)
        assert validate_miyata(canon).passed
        assert canon.mu == (complex(1.0, 0.0),)
        assert canon.rp_weights[0] <= 0.5 + 1e-12
        assert canonicalize(canon) == canon
        angles = [math.atan2(e.imag, e.real) for e in canon.eta]
        assert angles[0] >= 0.0 >= angles[1]
        assert -math.pi / 2 <= angles[1] and angles[0] < math.pi / 2


def test_rank1_lattice_type_roundtrip():
    lat = Lattice2(rank=1, gens=((1.5, 0.0),))
    assert (lat.rank, lat.gens, lat.exact) == (1, ((1.5, 0.0),), None)
    with pytest.raises(ValueError):
        Lattice2(rank=2, gens=((1.0, 0.0), (2.0, 0.0)))


def test_structure_and_family_agree_inside_structure_range(rng):
    for _ in range(10):
        h = float(rng.uniform(0.1, 0.9))
        rho = float(rng.uniform(0.01, rho_max(h) * 0.99))
        a = from_structure(h, rho).data
        b = angle_family_data(h, rho)
        assert a == b
