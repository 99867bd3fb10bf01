"""Reference admissibility decision on Fraction points.

The library clears the dual rows to integers once and runs its hull
predicates, weights and balance check on the integer numerators of the
circle squares. This module keeps the route it replaced: the dual rows and
Gram entries by chained Fraction operations, and every hull, weight and
balance computation on the Fraction squares (`exact_squares`). It shares
the library's generic hull routines, which take int or Fraction points.

Its witness frequencies take the float route the library had while its
dual lattice kept a float basis: the basis `float_dual_basis` from the
integer rows, and each frequency from numpy vectors m g_0 + n g_1
(`recover_frequency`).
"""

import math
from fractions import Fraction

import numpy as np

from bihsurf.admissibility import (
    VERDICT_EXISTS,
    VERDICT_EXISTS_PU,
    VERDICT_NONE_EMPTY,
    VERDICT_NONE_HULL,
    VERDICT_NONE_INFEASIBLE,
    AdmissibleResult,
    DualLattice,
    _aligned_weights,
    _hull_weights,
    circle_points,
    convex_hull,
    point_in_hull,
)
from bihsurf.core import DomainError, ExactnessError, exact_rational
from bihsurf.parameters import MiyataData, _normal_form, spectral_levels


def exact_squares(cs):
    """The squares of a circle set as Fraction pairs, in its order."""
    return tuple((Fraction(x, cs.den), Fraction(y, cs.den)) for x, y in cs.numerators)


def dual_gram(dual):
    """The dual Gram form ints ints^T / (den^2 surd), as Fractions."""
    den = dual.den * dual.den * dual.surd
    return tuple(
        tuple(Fraction(u[0] * v[0] + u[1] * v[1], den) for v in dual.ints) for u in dual.ints
    )


def fraction_dual(lat):
    """The dual rows and Gram entries by chained Fraction operations."""
    if lat.rank != 2:
        raise DomainError("dual lattice requires a rank-2 lattice")
    if lat.exact is None:
        raise ExactnessError("dual lattice requires exact generator data")
    (a, b), (c, d) = lat.exact.rows
    det = a * d - b * c
    # primal rows are pi sqrt(s) * C; dual rows are (2 / sqrt(s)) * inv(C)^T
    rows = ((2 * d / det, -2 * c / det), (-2 * b / det, 2 * a / det))
    s = lat.exact.surd

    def q(i, j):
        return (rows[i][0] * rows[j][0] + rows[i][1] * rows[j][1]) / s

    return rows, ((q(0, 0), q(0, 1)), (q(1, 0), q(1, 1)))


def dual_lattice(lat) -> DualLattice:
    """The Fraction rows over their least common denominator."""
    rows, _ = fraction_dual(lat)
    den = math.lcm(*(x.denominator for row in rows for x in row))
    ints = tuple(tuple(int(x * den) for x in row) for row in rows)
    return DualLattice(ints=ints, den=den, surd=lat.exact.surd)


def float_dual_basis(dual):
    """The float dual basis w_i = scale * (x / den) per integer entry x,
    scale = 1 / sqrt(surd)."""
    scale = 1.0 / math.sqrt(dual.surd)
    return tuple(tuple(scale * (x / dual.den) for x in row) for row in dual.ints)


def recover_frequency(dual, rep, lam: float) -> complex:
    """The unit frequency of the dual vector of rep at level lam, from the
    float basis as numpy vectors."""
    gens = float_dual_basis(dual)
    w = rep[0] * np.array(gens[0]) + rep[1] * np.array(gens[1])
    wc = complex(w[0], w[1])
    return (wc / complex(0.0, math.sqrt(lam))).conjugate()


def witness_weights(set_a, set_g):
    """The weights on the Fraction squares of both sets."""
    pa, pg = exact_squares(set_a), exact_squares(set_g)
    if not pa or not pg:
        return None
    return _hull_weights(pa, convex_hull(pa), pg, convex_hull(pg))


def build_witness(h: Fraction, set_a, set_g, weights) -> MiyataData:
    """Float witness data for exact weights, once a Fraction check on the
    squares shows they certify it, with the frequencies of
    `recover_frequency`."""
    ra, rg = weights
    if sum(ra) != 1 or sum(rg) != 1 or min(ra + rg) < 0:
        raise RuntimeError("witness weights are not convex combinations")
    for i in range(2):
        total = sum(w * p[i] for w, p in zip(ra, exact_squares(set_a)))
        if total + sum(w * p[i] for w, p in zip(rg, exact_squares(set_g))) != 0:
            raise RuntimeError("witness weights do not balance")
    lam1, lam2 = spectral_levels(float(h))
    mu, r_w = [], []
    for k, w in enumerate(ra):
        if w != 0:
            mu.append(recover_frequency(set_a.dual, set_a.reps[k], lam1))
            r_w.append(float(w))
    eta, rp_w = [], []
    for j, w in enumerate(rg):
        if w != 0:
            eta.append(recover_frequency(set_g.dual, set_g.reps[j], lam2))
            rp_w.append(float(w))
    data = MiyataData(
        h=float(h), mu=tuple(mu), eta=tuple(eta),
        r_weights=tuple(r_w), rp_weights=tuple(rp_w),
    )
    return _normal_form(data) if data.m == 1 else data


def admissible(lat, h) -> AdmissibleResult:
    """The library's decision order, on the Fraction squares."""
    h = exact_rational(h, "h")
    if not (0 < h < 1):
        raise DomainError("h must be a rational in (0,1), got %s" % h)
    dual = dual_lattice(lat)
    lam1, lam2 = spectral_levels(h)
    set_a = circle_points(dual, lam1)
    set_g = circle_points(dual, lam2)
    pa, pg = exact_squares(set_a), exact_squares(set_g)
    if not pa or not pg:
        return AdmissibleResult(VERDICT_NONE_EMPTY, h, set_a, set_g)
    origin = (Fraction(0), Fraction(0))
    hull_a = convex_hull(pa)
    hull_g = convex_hull(pg)
    if point_in_hull(origin, hull_a) and point_in_hull(origin, hull_g):
        verdict = VERDICT_EXISTS_PU
        weights = _aligned_weights(pa, hull_a, pg, hull_g, origin)
    else:
        joint = convex_hull(list(pa) + list(pg))
        if not point_in_hull(origin, joint):
            return AdmissibleResult(VERDICT_NONE_HULL, h, set_a, set_g)
        weights = _hull_weights(pa, hull_a, pg, hull_g)
        if weights is None:
            return AdmissibleResult(VERDICT_NONE_INFEASIBLE, h, set_a, set_g)
        verdict = VERDICT_EXISTS
    witness = build_witness(h, set_a, set_g, weights)
    return AdmissibleResult(verdict, h, set_a, set_g, weights, witness)
