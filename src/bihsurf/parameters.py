"""Parameter relations of the flat-surface family: the one-parameter structure
solutions, the closed forms linking the weight s and t = tan(rho/2), and the
admissibility conditions
on frequency/weight data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .core import Check, DomainError, VerificationReport, _finite_float, _is_real, _shown, exact_rational

_END_EPS = 8e-16  # endpoint snapping for s in [h/(1+h), 1/(1+h)]
_PRE_SLACK = 1e-12  # slack on closed-interval preconditions


@dataclass(frozen=True)
class StructureParams:
    """One member of the structure family for a given mean curvature h.

    lambda1 = 2(1-h) and lambda2 = 2(1+h); r1_prime + r2_prime = 1.
    """

    h: float
    rho: float
    rho_tilde: float
    r1_prime: float
    r2_prime: float
    lambda1: float
    lambda2: float


@dataclass(frozen=True)
class MiyataData:
    """Full parameter set (h, mu_k, eta_j, R_k, R'_j) defining an immersion.

    mu/eta are unit complex frequencies, r_weights/rp_weights the positive
    weights of the low/high frequency blocks, each block summing to one.
    """

    h: float
    mu: tuple[complex, ...]
    eta: tuple[complex, ...]
    r_weights: tuple[float, ...]
    rp_weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.mu) != len(self.r_weights):
            raise ValueError("mu and r_weights lengths differ")
        if len(self.eta) != len(self.rp_weights):
            raise ValueError("eta and rp_weights lengths differ")
        if not self.mu or not self.eta:
            raise ValueError("mu and eta must be nonempty")

    @property
    def m(self) -> int:
        return len(self.mu)

    @property
    def mp(self) -> int:
        return len(self.eta)

    @property
    def ambient_dim(self) -> int:
        return 2 * (self.m + self.mp)

    @property
    def lambda1(self) -> float:
        return spectral_levels(self.h)[0]

    @property
    def lambda2(self) -> float:
        return spectral_levels(self.h)[1]

    def to_dict(self) -> dict:
        return {
            "h": self.h,
            "mu": [[z.real, z.imag] for z in self.mu],
            "eta": [[z.real, z.imag] for z in self.eta],
            "R": list(self.r_weights),
            "Rp": list(self.rp_weights),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def spectral_levels(h):
    """(lambda1, lambda2) = (2(1-h), 2(1+h)), the squared frequency radii of
    the low and high blocks; exact for a Fraction h."""
    return 2 * (1 - h), 2 * (1 + h)


def miyata_from_dict(d: dict) -> MiyataData:
    try:
        return MiyataData(
            h=float(d["h"]),
            mu=tuple(complex(re, im) for re, im in d["mu"]),
            eta=tuple(complex(re, im) for re, im in d["eta"]),
            r_weights=tuple(float(w) for w in d["R"]),
            rp_weights=tuple(float(w) for w in d["Rp"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("malformed immersion data: %s" % exc) from exc


def unit_circle(angle: float) -> complex:
    """e^{i angle}, with exact values on the axes (angle a multiple of pi/2)."""
    if angle == 0.0:
        return complex(1.0, 0.0)
    if angle == math.pi / 2:
        return complex(0.0, 1.0)
    if angle == -math.pi / 2:
        return complex(0.0, -1.0)
    if angle == math.pi or angle == -math.pi:
        return complex(-1.0, 0.0)
    return complex(math.cos(angle), math.sin(angle))


def _check_h(h: float):
    if not (_is_real(h) and 0.0 < h < 1.0):
        raise DomainError("h must lie in the open interval (0,1), got %r" % (h,))


def _check_closed_rho(rho):
    if not (_is_real(rho) and -_PRE_SLACK <= rho <= math.pi / 2 + _PRE_SLACK):
        raise DomainError("rho must lie in [0, pi/2], got %r" % (rho,))


def _exact_h(h, name: str = "h") -> Fraction:
    """h as an exact rational in (0,1); anything else is refused by name,
    echoing h as given (the exact value of "1e400" has 401 digits)."""
    exact = exact_rational(h, name)
    if not (0 < exact < 1):
        raise DomainError("%s must be a rational in (0,1), got %s" % (name, h))
    return exact


def rho_max(h: float) -> float:
    """Upper end of the structure-family angle range for mean curvature h."""
    _check_h(h)
    return 0.5 * math.acos((h - 1.0) / (1.0 + h))


def s_of_rho(h: float, rho: float) -> float:
    """First high-frequency weight as a function of the angle rho.

    s = 2h / ((1+h)(1+h + (1-h) cos 2rho)); strictly increasing on [0, pi/2]
    with s(0) = h/(1+h) and s(pi/2) = 1/(1+h). Checks its input once; the
    library's loops call the unchecked kernel `_s_of_rho` instead.
    """
    _check_h(h)
    _check_closed_rho(rho)
    _check_s_defined(h, rho)
    return _s_of_rho(h, rho)


def _s_of_rho(h: float, rho: float) -> float:
    return 2.0 * h / ((1.0 + h) * (1.0 + h + (1.0 - h) * math.cos(2.0 * rho)))


def _check_s_defined(h: float, rho: float) -> None:
    """The denominator of `_s_of_rho`, 1 + h + (1 - h) cos 2rho, is 2h at
    rho = pi/2 but rounds to 0 there for h under about 1e-16 (h = 1e-300,
    say); the public callers refuse such an h by name before dividing."""
    if 1.0 + h + (1.0 - h) * math.cos(2.0 * rho) == 0.0:
        raise DomainError(
            "h must keep 1 + h + (1 - h) cos 2rho nonzero in doubles; h=%r does not at rho=%r"
            % (h, rho)
        )


def t_of_s(h: float, s: float) -> float:
    """tan(rho/2) recovered from the weight s.

    Uses the cancellation-free form sqrt(s(1+h)-h) / (sqrt(s(1-h^2)) +
    sqrt(h(1-s-hs))), identical to the surd quotient because the numerator
    difference of radicands collapses to s(1+h)-h.
    """
    _check_h(h)
    lo = h / (1.0 + h)
    hi = 1.0 / (1.0 + h)
    x = _finite_float(s)
    if not lo - 1e-9 <= x <= hi + 1e-9:
        raise DomainError(
            "s=%s outside [h/(1+h), 1/(1+h)] = [%r, %r]" % (_shown(s), float(lo), float(hi))
        )
    s = x
    if s - lo <= _END_EPS:
        return 0.0
    if hi - s <= _END_EPS:
        return 1.0
    num = math.sqrt(max(s * (1.0 + h) - h, 0.0))
    den = math.sqrt(s * (1.0 - h * h)) + math.sqrt(max(h * (1.0 - s - h * s), 0.0))
    return min(num / den, 1.0)


def rho_tilde_of(h: float, rho: float) -> float:
    """Second frequency angle: -pi/2 at rho=0, 0 at rho=pi/2, otherwise
    arctan(-1/(h tan rho)); always in [-pi/2, 0]. Checks its input once;
    the library's loops call the unchecked kernel `_rho_tilde_of` instead."""
    _check_h(h)
    _check_closed_rho(rho)
    return _rho_tilde_of(h, rho)


def _rho_tilde_of(h: float, rho: float) -> float:
    if rho <= 0.0 or h * math.tan(rho) == 0.0:  # the product underflows for subnormal rho
        return -math.pi / 2
    if rho >= math.pi / 2:
        return 0.0
    return math.atan(-1.0 / (h * math.tan(rho)))


def structure_params(h: float, rho: float) -> StructureParams:
    """Solve for (R'_1, R'_2, rho_tilde) at a given (h, rho).

    rho is restricted to [0, rho_max(h)]; rho=0 returns the exact branch
    (h/(1+h), 1/(1+h), -pi/2).
    """
    rmax = rho_max(h)
    if not (_is_real(rho) and -_PRE_SLACK <= rho <= rmax + _PRE_SLACK):
        raise DomainError(
            "rho=%r outside the structure range [0, %.17g] for h=%r" % (rho, rmax, h)
        )
    if rho <= 0.0:
        s = h / (1.0 + h)
        return StructureParams(h, 0.0, -math.pi / 2, s, 1.0 / (1.0 + h), *spectral_levels(h))
    _check_s_defined(h, rho)
    s = _s_of_rho(h, rho)
    return StructureParams(h, rho, _rho_tilde_of(h, rho), s, 1.0 - s, *spectral_levels(h))


def _member(h: float, eta: tuple[complex, ...], rp_weights: tuple[float, ...]) -> MiyataData:
    """m = 1 family data: mu = (1,) and R = (1,), with the given eta blocks
    and R' weights."""
    return MiyataData(h=h, mu=(complex(1.0, 0.0),), eta=eta, r_weights=(1.0,), rp_weights=rp_weights)


def lift_structure(sp: StructureParams) -> MiyataData:
    """Structure parameters as frequency/weight data: mu=(1,), eta=(e^{i rho},
    e^{i rho_tilde}), weights (1,) and (R'_1, R'_2)."""
    return _member(sp.h, (unit_circle(sp.rho), unit_circle(sp.rho_tilde)), (sp.r1_prime, sp.r2_prime))


def angle_family_data(h: float, rho: float) -> MiyataData:
    """Family member for rho anywhere in [0, pi/2] (the unreduced angle range).

    The weight is s(rho); for rho past rho_max(h) this is the mirrored copy of
    a structure member (canonicalize maps it back).
    """
    _check_h(h)
    _check_closed_rho(rho)
    _check_s_defined(h, rho)
    s = _s_of_rho(h, rho)
    return _member(h, (unit_circle(rho), unit_circle(_rho_tilde_of(h, rho))), (s, 1.0 - s))


def _min_pm_distance(zs: tuple[complex, ...]) -> float:
    """Smallest distance among {±z_k}: min over k<l of |z_k ∓ z_l|, and 2|z_k|
    for the z vs -z pairs."""
    best = min(2.0 * abs(z) for z in zs)
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            best = min(best, abs(zs[i] - zs[j]), abs(zs[i] + zs[j]))
    return best


def balance_sum(data: MiyataData) -> complex:
    """(1-h) Σ mu_k^2 R_k + (1+h) Σ eta_j^2 R'_j; zero for admissible data."""
    su = sum(w * z * z for z, w in zip(data.mu, data.r_weights))
    sv = sum(w * z * z for z, w in zip(data.eta, data.rp_weights))
    return (1.0 - data.h) * su + (1.0 + data.h) * sv


def validate_miyata(data: MiyataData) -> VerificationReport:
    """One check per admissibility condition; failures land in the report."""
    boolean = lambda ok: 0.0 if ok else 1.0
    checks = [
        Check("h_range", boolean(0.0 < data.h < 1.0), 0.5),
        Check("r_weights_sum", abs(math.fsum(data.r_weights) - 1.0), 1e-10),
        Check("rp_weights_sum", abs(math.fsum(data.rp_weights) - 1.0), 1e-10),
        Check(
            "weights_positive",
            boolean(min(min(data.r_weights), min(data.rp_weights)) >= 1e-12),
            0.5,
        ),
        Check("mu_unit_norm", max(abs(abs(z) - 1.0) for z in data.mu), 1e-12),
        Check("eta_unit_norm", max(abs(abs(z) - 1.0) for z in data.eta), 1e-12),
        Check("mu_distinct", max(0.0, 1e-9 - _min_pm_distance(data.mu)), 0.0),
        Check("eta_distinct", max(0.0, 1e-9 - _min_pm_distance(data.eta)), 0.0),
        Check("miyata_balance", abs(balance_sum(data)), 1e-10),
    ]
    return VerificationReport(tuple(checks), 1)


def _fold_to_half_turn(z: complex) -> complex:
    """Negate z if its angle is outside [-pi/2, pi/2)."""
    if z.real < 0.0 or (z.real == 0.0 and z.imag > 0.0):
        return -z
    return z


def _sorted_eta(eta, weights):
    order = sorted(range(len(eta)), key=lambda j: -math.atan2(eta[j].imag, eta[j].real))
    return tuple(eta[j] for j in order), tuple(weights[j] for j in order)


def canonicalize(data: MiyataData) -> MiyataData:
    """Normal form under the solution symmetries, for m = 1 data.

    Rotates the domain so mu_1 = 1, negates each eta into angle range
    [-pi/2, pi/2), orders eta blocks by descending angle, and (for two eta
    blocks) conjugates + swaps so the leading weight is <= 1/2. Exactly
    idempotent. A mu_1 off the unit circle (by more than the mu_unit_norm
    tolerance 1e-12) raises a `DomainError` that names mu, before the
    rotation would carry its modulus into every eta.
    """
    if data.m != 1:
        raise ValueError("canonicalize supports m = 1 data only, got m = %d" % data.m)
    if not abs(abs(data.mu[0]) - 1.0) <= 1e-12:
        raise DomainError("mu_1 must have modulus 1 (within 1e-12), got %r" % (data.mu[0],))
    return _normal_form(data)


def _normal_form(data: MiyataData) -> MiyataData:
    """`canonicalize` without its check on mu_1, for m = 1 data."""
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
    return replace(data, mu=(complex(1.0, 0.0),), eta=eta, rp_weights=rp)
