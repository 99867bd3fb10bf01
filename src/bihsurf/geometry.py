"""Differential-geometry verifier for sphere-valued immersions of the plane:
fundamental forms, mean and Gaussian curvature, pseudo-umbilicity, tension and
bitension fields of an `Immersion`.

Conventions: the Laplacian on functions is -(d^2/dx^2 + d^2/dy^2), so
eigenblock checks read Delta psi_ti = lambda_i psi_ti. Tension and bitension
are those of the Riemannian immersion: all traces use the induced metric g,
so breaking the weight-balance condition (which destroys isometry) shows up
as a nonzero bitension. The frequency-table immersions have constant induced
metric, which keeps the covariant jet algebra closed-form. The bitension sign
combination (sum of second covariant derivatives of tau, traced with g^{ab})
+ 2 tau - g^{ab}<tau, dphi_b> dphi_a is the one under which the constructed
immersions are annihilated; the flipped curvature sign gives 4|tau|.

One kernel computes the geometry. `_point_geometry` takes one point's
partials, stacked (15, D) in `_ORDERS` order, and forms from them, with one
exit, the metric (orders <= 1), the forms, H, |H|, K, the pseudo-umbilicity
residual, tau and Delta psi (orders <= 2) and the bitension (orders <= 4),
keeping every term a varying metric or an inexact table needs: the
finite-difference and explicit-table oracles of `tests/fd_oracle.py` run it
at each point of such tables.

Plane k of an `Immersion` carries one circle, so every field formed from its
partials is s_k e^{i<w_k, z>} on plane k with a constant symbol s in C^K,
and every inner product of two fields is constant. The kernel run once on
the partials at the origin, which are the symbols (`_symbols`), therefore
gives in O(K) the symbol of every field and every scalar at every point. The
per-point functions (`tension`, `bitension`, `mean_curvature`,
`fundamental_forms`) read an `Immersion`'s vector outputs from those symbols
at the points, through the reader of `eval`, and write each scalar output
(g, |H|, K, the pseudo-umbilicity residual) as its constant; so memory is
the outputs and the phases, and nothing is kept after the call but the
immersion's own memo. Every slot of the plane layout is read in `immersion`.
`verify_immersion` computes its geometric checks from the same symbols:
each residual is the sup of its check over the whole plane, not a maximum
over samples. Only its unit_norm check reads psi at sample points, through
`eval`, so it still covers the evaluator that users read; it evaluates its
blocks of points one after another, and the module starts no thread.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import GEOMETRIC_TOL, Check, DomainError, VerificationReport, _is_int, _is_real, _shown
from .immersion import _ORDERS, Immersion, _plane_moduli, _split_blocks


# ---------------------------------------------------------------------------
# the kernel: the geometry at one point from its stacked partials

# The fields as combinations of the partials of `_ORDERS`, one row each of
# one coefficient table, the rows that need orders <= 2 first; the slots of
# their coefficients, in the order `_point_geometry` lists them.
_FIELD_TERMS = (
    ((0, 0), (1, 0), (0, 1), (2, 0)),  # B_xx
    ((0, 0), (1, 0), (0, 1), (1, 1)),  # B_xy
    ((0, 0), (1, 0), (0, 1), (0, 2)),  # B_yy
    ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)),  # H
    ((2, 0), (0, 2)),  # Delta psi
    ((0, 0), (2, 0), (1, 1), (0, 2)),  # tau
    ((1, 0), (3, 0), (2, 1), (1, 2)),  # J_x
    ((0, 1), (2, 1), (1, 2), (0, 3)),  # J_y
    ((2, 0), (1, 1), (0, 2), (4, 0), (3, 1), (2, 2), (1, 3), (0, 4)),  # L
)
_FIELD_SLOTS = np.array(
    [row * len(_ORDERS) + _ORDERS.index(o) for row, terms in enumerate(_FIELD_TERMS) for o in terms]
)


class _PointGeometry(NamedTuple):
    """The geometry at one point (`_point_geometry`)."""

    frame: np.ndarray  # (3, D): psi, psi_x, psi_y
    g: np.ndarray  # (2, 2)
    det: float
    forms: np.ndarray  # (3, D): B_xx, B_xy, B_yy
    h: np.ndarray  # (D,): H
    h_norm: float  # |H|
    gauss: float  # K
    umbilic: float  # max |<B_ab, H> - |H|^2 g_ab|
    lap: np.ndarray  # (D,): Delta psi
    tau: np.ndarray  # (D,)
    tau2: np.ndarray  # (D,): the bitension


def _point_geometry(t) -> _PointGeometry:
    """The geometry at one point from its partials t (15, D), the orders
    `_ORDERS` stacked: every field on every call. The metric comes from
    orders <= 1; the forms, H, |H|, K, the pseudo-umbilicity residual,
    Delta psi and tau from orders <= 2; the bitension from orders <= 4. The
    metric algebra is on floats, and the fields are one product of the
    coefficient table `_FIELD_TERMS` with t.

    With the frame F = (psi, psi_x, psi_y) and its dual F* = (psi,
    g^{xb} psi_b, g^{yb} psi_b), v - sum_c <v, F_c> F*_c takes out the psi
    part and the tangential part of v; the forms B_ab are the second
    partials so projected, and H = 1/2 g^{ab} B_ab. K = 1 + (<B_xx, B_yy> -
    |B_xy|^2) / det g is the Gauss equation in the unit sphere.

    The bitension, with tau = g^{ab} psi_ab + 2 psi: a frequency-table
    immersion has a constant metric, so the partials of tau are again
    combinations of partials, J_a = g^{bc} psi_abc + 2 psi_a. With
    P v = v - <v, psi> psi, the rough Laplacian g^{ab} P d_a(P d_b tau) is
    P v for v = L - alpha psi - beta_b F*_b, where L = g^{ab} J_ab,
    alpha = g^{ab} (<J_ab, psi> + <J_a, psi_b>) and beta_b = <J_b, psi>; the
    bitension adds 2 tau less its tangential part <tau, psi_b> F*_b. So it
    is L + 2 tau plus a combination of the frame, whose coefficients come
    from the dots of the fields with the frame. Every term is kept: on an
    Immersion alpha, beta and the tangential parts are 0, but a varying
    metric, |psi| != 1 or an inexact table needs them."""
    frame = t[:3]
    # <d^A psi, F_c> for the orders A <= 2 of t
    dots = (t[:6] @ frame.T).tolist()
    (psi_sq, _, _), (px_psi, g00, g01), (py_psi, _, g11) = dots[:3]
    g = np.array(((g00, g01), (g01, g11)))
    det = g00 * g11 - g01 * g01
    if det < 1e-12:
        raise DomainError("degenerate immersion: metric determinant below 1e-12")
    i00, i01, i11 = g11 / det, -(g01 / det), g00 / det
    # each form's coefficients on the frame: -<psi_ab, psi> and
    # -g^{cd} <psi_ab, psi_d> for c = x, y
    proj = [(-r, -(i00 * x + i01 * y), -(i01 * x + i11 * y)) for r, x, y in dots[3:]]
    # the weights of psi_xx, psi_xy and psi_yy in g^{ab} psi_ab
    u0, u1, u2 = i00, 2.0 * i01, i11
    h_frame = tuple(0.5 * (u0 * a + u1 * b + u2 * c) for a, b, c in zip(*proj))
    coeffs = np.zeros(len(_FIELD_TERMS) * len(_ORDERS))
    coeffs[_FIELD_SLOTS] = (
        proj[0] + (1.0,) + proj[1] + (1.0,) + proj[2] + (1.0,)
        + h_frame + (0.5 * u0, 0.5 * u1, 0.5 * u2)
        + (-1.0, -1.0)
        + (2.0, u0, u1, u2) * 3
        # L's order-4 weights are those of (u0 d_xx + u1 d_xy + u2 d_yy)^2
        + (2.0 * u0, 2.0 * u1, 2.0 * u2, u0 * u0, u0 * u1 + u1 * u0)
        + (u0 * u2 + u1 * u1 + u2 * u0, u1 * u2 + u2 * u1, u2 * u2)
    )
    fields = coeffs.reshape(len(_FIELD_TERMS), len(_ORDERS)) @ t
    # <B_i, B_j>, <B_i, H> and |H|^2
    (_, _, b02, bh0), (_, b11, _, bh1), (*_, bh2), (*_, h_sq) = (
        fields[:4] @ fields[:4].T
    ).tolist()
    # numpy's max, so that a NaN reaches the residual
    dev = np.abs((bh0 - h_sq * g00, bh1 - h_sq * g01, bh2 - h_sq * g11))
    scalars = math.sqrt(h_sq), (b02 - b11) / det + 1.0, float(dev.max())
    # <tau, F_c>, <J_x, F_c>, <J_y, F_c> and <L, F_c>
    (_, tau_x, tau_y), (jx, jxx, jxy), (jy, jyx, jyy), (l_psi, _, _) = (
        fields[5:] @ frame.T
    ).tolist()
    alpha = l_psi + i00 * jxx + i01 * (jxy + jyx) + i11 * jyy
    # beta_b F*_b and <tau, psi_b> F*_b, as coefficients of psi_x and psi_y
    bx, by = i00 * jx + i01 * jy, i01 * jx + i11 * jy
    tx, ty = i00 * tau_x + i01 * tau_y, i01 * tau_x + i11 * tau_y
    # <v, psi> for v = L - alpha psi - beta_b F*_b, which P v subtracts
    v_psi = l_psi - alpha * psi_sq - bx * px_psi - by * py_psi
    tau2 = fields[8] + fields[5] * 2.0
    tau2 += (-alpha - v_psi, -bx - tx, -by - ty) @ frame
    return _PointGeometry(frame, g, det, fields[:3], fields[3], *scalars, *fields[4:6], tau2)


# A field that is a constant combination of the partials of an Immersion is
# s_k e^{i theta_k(z)} on plane k, theta_k = <w_k, z>, with one symbol
# s in C^K; the symbol of d^A psi is c_k (i w_k1)^a (i w_k2)^b. A symbol is
# kept as the real D-vector (Re s_0, Im s_0, Re s_1, ...), the field at the
# origin, so the real dot of two symbols, sum_k Re(s_k conj t_k), is the
# inner product of their fields at every point. The symbol of each order of
# `_ORDERS` is its partial at the origin (`Immersion._origin`): its factor
# row on the cos slots (a+b even) or on the sin slots (a+b odd); the dot of
# an even symbol with an odd one is 0.0.
def _symbols(im: Immersion) -> _PointGeometry:
    """The kernel at the origin of an Immersion, whose partials there are
    the symbols: its fields are the symbols of the fields, the same at
    every point up to the phase, and its scalars the same at every point.
    Every field but the odd frame entries psi_x, psi_y is even: its symbol
    sits on the cos slots. The terms that are 0 on every Immersion come out
    0.0, or cancel to rounding: the tangential parts and beta are dots of
    an even symbol with an odd one, and alpha is the derivative of a
    constant."""
    return _point_geometry(im._origin())


def _check_immersion(im) -> None:
    """The one check of the map argument of the per-point functions and of
    `verify_immersion`: an `Immersion`, whose symbols they read."""
    if not isinstance(im, Immersion):
        raise DomainError("im must be an Immersion, got %s" % type(im).__name__)


# ---------------------------------------------------------------------------
# the per-point functions: an Immersion's from its symbols


def tension(im: Immersion, p) -> np.ndarray:
    """tau = g^{ab} psi_ab + 2 psi (metric trace of the second fundamental
    form of the map into the sphere); equals 2H."""
    _check_immersion(im)
    return im._read_symbols(p, (_symbols(im).tau,))[0]


def bitension(im: Immersion, p) -> np.ndarray:
    """Bitension field from exact order-<=4 partials; vanishes (to rounding)
    on every admissible construction and is order-one when the weight balance
    is broken."""
    _check_immersion(im)
    return im._read_symbols(p, (_symbols(im).tau2,))[0]


@dataclass(frozen=True, eq=False)
class FundamentalForms:
    """First form g and the three normal-valued second-form vectors."""

    g: np.ndarray  # (..., 2, 2)
    b_xx: np.ndarray
    b_xy: np.ndarray
    b_yy: np.ndarray


@dataclass(frozen=True, eq=False)
class CurvatureSummary:
    mean_curvature_norm: np.ndarray
    gaussian: np.ndarray
    pseudo_umbilical_residual: np.ndarray
    h_vector: np.ndarray


def fundamental_forms(im: Immersion, p) -> FundamentalForms:
    """g from first partials; B_ab = psi_ab + psi corrections projected onto
    the normal space (orthogonal to psi, psi_x, psi_y)."""
    _check_immersion(im)
    s = _symbols(im)
    forms = im._read_symbols(p, s.forms)
    return FundamentalForms(np.broadcast_to(s.g, forms[0].shape[:-1] + (2, 2)).copy(), *forms)


def mean_curvature(im: Immersion, p) -> CurvatureSummary:
    """Mean curvature vector (metric trace of B over 2), Gauss-equation
    curvature for the unit-sphere ambient, and the pseudo-umbilicity residual
    max |<B_ab, H> - |H|^2 g_ab|."""
    _check_immersion(im)
    s = _symbols(im)
    (h_vec,) = im._read_symbols(p, (s.h,))
    shape = h_vec.shape[:-1]
    return CurvatureSummary(*(np.full(shape, x) for x in (s.h_norm, s.gauss, s.umbilic)), h_vec)


# ---------------------------------------------------------------------------
# closed-form parameter checks


# largest r1, m or degree of the closed-form checks: their squares, and
# sums of two squares, stay doubles (below 1.8e308)
_MAX_SCALE = 10**150


@dataclass(frozen=True)
class DiagonalSumResult:
    r1: float
    r2: float
    alpha_sq: float
    beta_sq: float
    h_norm_sq: float
    report: VerificationReport

    @property
    def h_norm(self) -> float:
        return math.sqrt(self.h_norm_sq)


def diagonal_sum_check(r1: float, m: int = 2) -> DiagonalSumResult:
    """Verify the diagonal-sum biharmonicity identities at radius r1.

    Solves 1/r1^2 + 1/r2^2 = 2, sets alpha^2 = 1/(2 r1^2), beta^2 = 1/(2 r2^2),
    checks alpha^2 + beta^2 = 1, alpha^2 r1^2 + beta^2 r2^2 = 1, and that the
    two diagonal components of the closed-form bitension coefficient
        m^2 [(alpha^2 u + beta^2 v) alpha + alpha u^2],  u = 1 - 1/r1^2,
        m^2 [(alpha^2 u + beta^2 v) beta + beta v^2],    v = 1 - 1/r2^2,
    vanish. Reports |H|^2 = 1 - 1/(r1^2 r2^2). r1 and m are at most 1e150,
    so that their squares are doubles.

    Given 1/r1^2 + 1/r2^2 = 2 the two coefficients vanish identically:
    v = -u and alpha^2 u + beta^2 v = -u^2, so both brackets are
    -u^2 + u^2. The tau2 checks therefore measure only the rounding of
    these floats.
    """
    if not (_is_real(r1) and abs(r1) <= _MAX_SCALE):
        raise DomainError(
            "r1 must be a finite real number of at most %.4g, got %s" % (_MAX_SCALE, _shown(r1))
        )
    if not (_is_int(m) and 1 <= m <= _MAX_SCALE):
        raise DomainError(
            "m must be a positive integer of at most %.4g, got %s" % (_MAX_SCALE, _shown(m))
        )
    if r1 <= 1.0 / math.sqrt(2.0):
        raise DomainError("r1 must exceed 1/sqrt(2): no companion radius exists")
    if abs(r1 - 1.0) < 1e-12:
        raise DomainError("r1 = 1 gives r2 = r1 (harmonic, not proper)")
    inv_r2_sq = 2.0 - 1.0 / r1**2
    r2 = 1.0 / math.sqrt(inv_r2_sq)
    alpha_sq = 1.0 / (2.0 * r1**2)
    beta_sq = 0.5 * inv_r2_sq
    u = 1.0 - 1.0 / r1**2
    v = 1.0 - inv_r2_sq
    mix = alpha_sq * u + beta_sq * v
    coeff1 = m**2 * (mix + u * u) * math.sqrt(alpha_sq)
    coeff2 = m**2 * (mix + v * v) * math.sqrt(beta_sq)
    h_norm_sq = 1.0 - 1.0 / (r1**2 * r2**2)
    report = VerificationReport(
        (
            Check("alpha_beta_unit", abs(alpha_sq + beta_sq - 1.0), 1e-12),
            Check("immersion_constraint", abs(alpha_sq * r1**2 + beta_sq * r2**2 - 1.0), 1e-12),
            Check("tau2_coefficient_1", abs(coeff1), 1e-12),
            Check("tau2_coefficient_2", abs(coeff2), 1e-12),
        ),
        1,
    )
    return DiagonalSumResult(r1, r2, alpha_sq, beta_sq, h_norm_sq, report)


@dataclass(frozen=True)
class BoruvkaParams:
    n1: int
    n2: int
    q1: int
    q2: int
    alpha_sq: float
    beta_sq: float
    r1: float
    r2: float
    r: float
    h_norm: float


def boruvka_params(n1: int, n2: int) -> BoruvkaParams:
    """Diagonal-sum parameters for two degree-n minimal sphere immersions,
    q_i = n_i(n_i + 1); each degree is at most 1e150, so that q1 + q2 and
    2 q_i are doubles."""
    if not (_is_int(n1) and _is_int(n2) and 2 <= n1 <= _MAX_SCALE and 2 <= n2 <= _MAX_SCALE):
        raise DomainError(
            "degrees must be >= 2 (integers) and at most %.4g, got %s, %s"
            % (_MAX_SCALE, _shown(n1), _shown(n2))
        )
    if n1 == n2:
        raise DomainError("n1 = n2 is degenerate (harmonic, not proper)")
    q1 = n1 * (n1 + 1)
    q2 = n2 * (n2 + 1)
    tot = q1 + q2
    return BoruvkaParams(
        n1=n1,
        n2=n2,
        q1=q1,
        q2=q2,
        alpha_sq=q1 / tot,
        beta_sq=q2 / tot,
        r1=math.sqrt(tot / (2.0 * q1)),
        r2=math.sqrt(tot / (2.0 * q2)),
        r=0.5 * math.sqrt(tot),
        h_norm=abs(q1 - q2) / tot,
    )


# ---------------------------------------------------------------------------
# full verification suite: the geometric checks from per-plane symbols

# Report order and default tolerance of every geometric check.
# block_orthogonal is identically 0.0 for finite data: the zero-padded
# spectral blocks t1 and t2 have disjoint supports. It stays as a guard on
# the block split, computed from the blocks like the other block checks.
_CHECKS = (
    ("unit_norm", 1e-12),
    ("metric_identity", 1e-10),
    ("forms_normal", GEOMETRIC_TOL),
    ("mean_curvature_norm", GEOMETRIC_TOL),
    ("gauss_flat", 1e-8),
    ("two_type_identity", GEOMETRIC_TOL),
    ("block_norm_t1", 1e-10),
    ("block_norm_t2", 1e-10),
    ("block_orthogonal", 1e-10),
    ("eigenblock_t1", 1e-10),
    ("eigenblock_t2", 1e-10),
    ("tension_normal", GEOMETRIC_TOL),
    ("tension_vs_mean_curvature", 1e-10),
    ("bitension", 1e-7),
)

# Points per `eval` of verify_immersion's unit_norm check. Medians of 9
# alternating runs of the first verify-dense round (seed 0, 2-core VM, one
# thread, tan half-angle trig), timed in one process, at blocks of 1024 /
# 2048 / 4096: S^5 share 8.6 / 7.2 / 6.5 ms, S^7 6.4 / 5.3 / 5.1 ms, S^27
# 12.8 / 12.0 / 12.3 ms, round 27.9 / 24.5 / 24.3 ms (other runs of the same
# script read up to 30% slower).
_BLOCK = 2048

_EYE = np.eye(2)


def _symbol_residuals(im: Immersion) -> list[float]:
    """The residual of each check after unit_norm, in `_CHECKS` order, from
    `_symbols`. A norm check is a symbol's norm, sqrt(sum_k |s_k|^2), which
    its field has at every point; a coordinate check is max_k |s_k|. Each
    residual is the check's sup over the whole plane, and every max is
    numpy's, so a NaN symbol gives a NaN residual."""
    s = _symbols(im)
    k, m, h = im.num_planes, im.m, im.data.h
    # <B_i, F_c>, then <tau, F_c>
    against = np.concatenate((s.forms, s.tau[None])) @ s.frame.T

    # the zero-padded spectral blocks t1, t2
    blocks = np.array(_split_blocks(s.frame[0], m))
    (n1, orth), (_, n2) = (blocks @ blocks.T).tolist()
    # |s_k| by plane of 2 (H - h (t1 - t2)), Delta psi - lambda_i t_i and
    # tau - 2 H: the sup over R^2 of each real coordinate of plane k, since
    # theta_k takes every value when w_k != 0 (an upper bound when w_k = 0)
    coords = np.array((
        (s.h - (blocks[0] - blocks[1]) * h) * 2.0,
        s.lap - (im.data.lambda1, im.data.lambda2) @ blocks,
        s.tau - s.h * 2.0,
    ))
    sup = _plane_moduli(coords)
    # the checks that take a max: the max of |x| over one segment each
    segments = ((s.g - _EYE).ravel(), against[:3].ravel(), against[3, 1:], sup.ravel())
    starts = (0, 4, 13, 15, 15 + k, 15 + k + m, 15 + 2 * k)
    metric, normal, tension_normal, two_type, eigen1, eigen2, tension_h = np.maximum.reduceat(
        np.abs(np.concatenate(segments)), starts
    ).tolist()
    root_half = math.sqrt(0.5)
    return [
        metric,
        normal,
        abs(s.h_norm - h),
        abs(s.gauss),
        two_type,
        abs(math.sqrt(n1) - root_half),
        abs(math.sqrt(n2) - root_half),
        abs(orth),
        eigen1,
        eigen2,
        tension_normal,
        tension_h,
        math.sqrt(s.tau2 @ s.tau2),
    ]


def _unit_norm(psi) -> np.floating:
    """max | |psi| - 1 | over the rows of psi (P, D); NaN if a row has one."""
    return np.abs(np.sqrt(np.einsum("pd,pd->p", psi, psi)) - 1.0).max()


def _sampled_unit_norm(im: Immersion, samples: int, seed: int, box: float) -> np.floating:
    """The worst | |psi| - 1 | at `samples` seeded points of [-box, box]^2.

    The points are drawn in blocks of _BLOCK, in order, from the one stream
    default_rng(seed).uniform(-box, box): the same points as one draw of
    (samples, 2). Each block is evaluated and reduced in turn, so a NaN
    residual is kept and a block's DomainError is raised here.
    """
    rng = np.random.default_rng(seed)
    blocks = (
        rng.uniform(-box, box, size=(min(_BLOCK, samples - i), 2))
        for i in range(0, samples, _BLOCK)
    )
    return functools.reduce(np.maximum, (_unit_norm(im.eval(pts)) for pts in blocks))


def _tolerances(overrides) -> dict[str, float]:
    """Default tolerances by check name, with validated overrides applied."""
    tol = dict(_CHECKS)
    overrides = overrides or {}
    unknown = set(overrides) - set(tol)
    if unknown:
        raise DomainError("unknown check names in tolerance overrides: %s" % sorted(unknown))
    for name, value in overrides.items():
        if not (_is_real(value) and math.isfinite(value) and value > 0):
            raise DomainError(
                "tolerance for %s must be a positive finite number, got %r" % (name, value)
            )
        tol[name] = value
    return tol


def verify_immersion(
    im: Immersion,
    samples: int = 200,
    seed: int = 0,
    box: float = 6.0,
    tolerances: dict[str, float] | None = None,
) -> VerificationReport:
    """Certify one immersion: the data-admissibility checks, then every
    geometric invariant.

    Tolerances per check: unit sphere 1e-12, flat identity metric 1e-10,
    form normality 1e-9, |H| = h 1e-9, K = 0 1e-8, the two-type identity
    H = h (t1 - t2) 1e-9, spectral blocks 1e-10, eigenblocks 1e-10, tension
    normality 1e-9, tau = 2H 1e-10, bitension 1e-7; `tolerances` overrides
    them by check name (each override a positive finite number). The
    data-admissibility checks are the report `build` validated with, or,
    for an immersion built with validate=False, validate_miyata's, computed
    once per immersion.

    Every geometric check but unit_norm is computed once, in O(K), from the
    per-plane symbols (`_symbol_residuals`), and its residual is the sup of
    the checked quantity over the whole plane R^2: a pass certifies the
    identity at every point, to the tolerance, and no box or sample enters
    it. Only unit_norm depends on the samples: it evaluates psi, through
    `eval`, at `samples` seeded random points of [-box, box]^2, in blocks
    of 2048, so memory is O(2048 * ambient_dim) whatever the sample count,
    and reports the worst | |psi| - 1 | among them. The blocks run in
    order on the calling thread; no thread is started.
    """
    _check_immersion(im)
    if not _is_int(samples) or samples < 1:
        raise DomainError("samples must be a positive integer, got %r" % (samples,))
    if not _is_int(seed) or seed < 0:
        raise DomainError("seed must be a non-negative integer, got %r" % (seed,))
    if not (_is_real(box) and 0 <= box <= sys.float_info.max / 2):
        raise DomainError(
            "box must be a non-negative number with 2 * box finite, got %r" % (box,)
        )
    tol = _tolerances(tolerances)
    geometric = _symbol_residuals(im)
    unit = _sampled_unit_norm(im, samples, seed, box)
    checks = tuple(Check(name, r, tol[name]) for (name, _), r in zip(_CHECKS, [unit] + geometric))
    return VerificationReport(im._validation().checks + checks, int(samples))
