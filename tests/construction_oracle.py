"""Reference m = 1 family constructors: `lift_structure`, `angle_family_data`,
`symmetric_weights_data`, `canonicalize`, `build` and `extend_dimension`, kept
as they were before the family data came from one member constructor and the
dimension-raising search from one candidate stream. The library is tested
against them, output for output.
"""

import math

import numpy as np

from bihsurf.immersion import ConstructionError, Immersion, _pair_for_weight, _schedule
from bihsurf.parameters import (
    MiyataData,
    StructureParams,
    _fold_to_half_turn,
    _min_pm_distance,
    _sorted_eta,
    rho_tilde_of,
    s_of_rho,
    unit_circle,
    validate_miyata,
)


def lift_structure(sp: StructureParams) -> MiyataData:
    """Structure parameters as frequency/weight data: mu=(1,), eta=(e^{i rho},
    e^{i rho_tilde}), weights (1,) and (R'_1, R'_2)."""
    return MiyataData(
        h=sp.h,
        mu=(complex(1.0, 0.0),),
        eta=(unit_circle(sp.rho), unit_circle(sp.rho_tilde)),
        r_weights=(1.0,),
        rp_weights=(sp.r1_prime, sp.r2_prime),
    )


def angle_family_data(h: float, rho: float) -> MiyataData:
    """Family member for rho anywhere in [0, pi/2] (the unreduced angle range).

    The weight is s(rho); for rho past rho_max(h) this is the mirrored copy of
    a structure member (canonicalize maps it back).
    """
    s = s_of_rho(h, rho)
    return MiyataData(
        h=h,
        mu=(complex(1.0, 0.0),),
        eta=(unit_circle(rho), unit_circle(rho_tilde_of(h, rho))),
        r_weights=(1.0,),
        rp_weights=(s, 1.0 - s),
    )


def canonicalize(data: MiyataData) -> MiyataData:
    """Normal form under the solution symmetries, for m = 1 data.

    Rotates the domain so mu_1 = 1, negates each eta into angle range
    [-pi/2, pi/2), orders eta blocks by descending angle, and (for two eta
    blocks) conjugates + swaps so the leading weight is <= 1/2. Exactly
    idempotent.
    """
    if data.m != 1:
        raise ValueError("canonicalize supports m = 1 data only, got m = %d" % data.m)
    mu1 = data.mu[0]
    if mu1 == complex(1.0, 0.0):
        eta = data.eta
    else:
        rot = mu1.conjugate()
        eta = tuple(z * rot for z in data.eta)
    eta = tuple(_fold_to_half_turn(z) for z in eta)
    eta, rp = _sorted_eta(eta, data.rp_weights)
    if data.mp == 2 and rp[0] > 0.5:
        eta = tuple(_fold_to_half_turn(z.conjugate()) for z in eta)
        eta, rp = _sorted_eta(eta, rp)
    return MiyataData(
        h=data.h,
        mu=(complex(1.0, 0.0),),
        eta=eta,
        r_weights=data.r_weights,
        rp_weights=rp,
    )


def build(data: MiyataData, validate: bool = True) -> Immersion:
    """Assemble the frequency table from admissible data.

    For a unit frequency z at level lambda the wave vector is
    sqrt(lambda)*(Im z, Re z); amplitudes are sqrt(weight/2), so the squared
    amplitudes sum to one.
    """
    if validate:
        report = validate_miyata(data)
        if not report.passed:
            failing = ", ".join(c.name for c in report.failures())
            raise ValueError("invalid immersion data (%s)" % failing)
    rows = []
    amps = []
    for z, w in zip(data.mu, data.r_weights):
        rows.append((math.sqrt(data.lambda1) * z.imag, math.sqrt(data.lambda1) * z.real))
        amps.append(math.sqrt(w / 2.0))
    for z, w in zip(data.eta, data.rp_weights):
        rows.append((math.sqrt(data.lambda2) * z.imag, math.sqrt(data.lambda2) * z.real))
        amps.append(math.sqrt(w / 2.0))
    return Immersion(
        data=data,
        wave_vectors=np.array(rows, dtype=float),
        amplitudes=np.array(amps, dtype=float),
    )


def symmetric_weights_data(h: float) -> MiyataData:
    """The equal-weight family member: R' = (1/2, 1/2), eta_1 = sqrt(h/(1+h))
    + i sqrt(1/(1+h)), eta_2 its conjugate."""
    e1 = complex(math.sqrt(h / (1.0 + h)), math.sqrt(1.0 / (1.0 + h)))
    return MiyataData(
        h=h,
        mu=(complex(1.0, 0.0),),
        eta=(e1, e1.conjugate()),
        r_weights=(1.0,),
        rp_weights=(0.5, 0.5),
    )


def extend_dimension(im: Immersion) -> Immersion:
    """Raise the target dimension keeping the mean curvature.

    A two-eta-block input gains one block (ambient +2): weights become
    (h s, h(1-s), 1-h) with frequencies (i eta_1, i eta_2, i mu_1). Larger
    inputs gain two blocks (ambient +4): existing high weights are halved and
    a fresh pair with weights (s/2, (1-s)/2) is appended. The fresh pair comes
    from the deterministic schedule s in {1/2, 1/2 +- 1/8, ...}, skipping any
    s whose frequencies collide with existing ones.
    """
    data = im.data
    if data.m != 1:
        raise ValueError("dimension extension supports m = 1 data only, got m = %d" % data.m)
    h = data.h
    mu1 = data.mu[0]
    if data.mp == 2:
        candidates = [(data.rp_weights[0], data.eta[0], data.eta[1])]
        for s in _schedule(h):
            a, b = _pair_for_weight(h, s)
            candidates.append((s, mu1 * a, mu1 * b))
        for s, a, b in candidates:
            eta = (1j * a, 1j * b, 1j * mu1)
            if _min_pm_distance(eta) > 1e-9:
                out = MiyataData(
                    h=h,
                    mu=data.mu,
                    eta=eta,
                    r_weights=data.r_weights,
                    rp_weights=(h * s, h * (1.0 - s), 1.0 - h),
                )
                return build(out)
        raise ConstructionError("no admissible distinct frequency triple found")
    for s in _schedule(h):
        a, b = _pair_for_weight(h, s)
        a, b = mu1 * a, mu1 * b
        eta = data.eta + (a, b)
        if _min_pm_distance(eta) > 1e-9:
            out = MiyataData(
                h=h,
                mu=data.mu,
                eta=eta,
                r_weights=data.r_weights,
                rp_weights=tuple(w / 2.0 for w in data.rp_weights) + (s / 2.0, (1.0 - s) / 2.0),
            )
            return build(out)
    raise ConstructionError("no admissible distinct frequency pair found")
