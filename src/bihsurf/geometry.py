"""Differential-geometry verifier for sphere-valued immersions of the plane:
fundamental forms, mean and Gaussian curvature, pseudo-umbilicity, tension and
bitension fields, plus finite-difference cross-check oracles.

Conventions: the Laplacian on functions is -(d^2/dx^2 + d^2/dy^2), so
eigenblock checks read Delta psi_ti = lambda_i psi_ti. Tension and bitension
are those of the Riemannian immersion: all traces use the induced metric g,
so breaking the weight-balance condition (which destroys isometry) shows up
as a nonzero bitension. The frequency-table immersions have constant induced
metric, which keeps the covariant jet algebra closed-form. The bitension sign
combination (sum of second covariant derivatives of tau, traced with g^{ab})
+ 2 tau - g^{ab}<tau, dphi_b> dphi_a is the one under which the constructed
immersions are annihilated; the flipped curvature sign gives 4|tau|.

One per-point kernel serves every caller (`verify_immersion`, `tension`,
`bitension`, `mean_curvature`, `fundamental_forms` and the finite-difference
oracle): it reads one partial table (for an `Immersion`, views into a single
array), computes the metric once, the tension and only its first partials,
projects the rough part of the bitension onto the sphere's tangent space
once, and projects the three second partials together as one stacked array.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import GEOMETRIC_TOL, Check, DomainError, VerificationReport
from .parameters import validate_miyata
from .immersion import Immersion, _as_points, _check_max_order, _is_int, _split_blocks


def _dot(u, v):
    return np.einsum("...i,...i->...", u, v)


def _sc(s, v):
    """Scalar field times vector field (broadcast over the ambient axis)."""
    return np.asarray(s)[..., None] * v


# ---------------------------------------------------------------------------
# the per-point kernel: metric, tension, bitension and forms from one table
# of ambient partials


def _metric(table):
    """Induced metric g (..., 2, 2), its determinant and the inverse-metric
    entries (g^00, g^01, g^11), from the first partials."""
    px, py = table[(1, 0)], table[(0, 1)]
    g00, g01, g11 = _dot(px, px), _dot(px, py), _dot(py, py)
    det = g00 * g11 - g01 * g01
    if np.any(det < 1e-12):
        raise DomainError("degenerate immersion: metric determinant below 1e-12")
    g = np.stack([np.stack([g00, g01], axis=-1), np.stack([g01, g11], axis=-1)], axis=-2)
    return g, det, (g11 / det, -g01 / det, g00 / det)


def _trace(inv, t_xx, t_xy, t_yy):
    """g^{ab} t_ab of a symmetric field given by its xx, xy and yy parts."""
    i00, i01, i11 = inv
    return _sc(i00, t_xx) + _sc(2.0 * i01, t_xy) + _sc(i11, t_yy)


def _tension(table, inv):
    """tau = g^{ab} psi_ab + 2 psi, from the second partials."""
    return _trace(inv, table[(2, 0)], table[(1, 1)], table[(0, 2)]) + 2.0 * table[(0, 0)]


def _bitension(table, inv, tau):
    """Bitension from order-<=4 partials and tau.

    The induced metric of a frequency-table immersion is constant in (x, y),
    so the partials of tau are again traces of table entries:
    J_a = g^{bc} psi_{abc} + 2 psi_a. With P v = v - <v, psi> psi, the
    rough Laplacian g^{ab} P d_a(P d_b tau) is P applied once to
    L - alpha psi - beta_x psi_x - beta_y psi_y, where L = g^{ab} J_ab is
    read off the five order-4 entries plus 2 tau - 4 psi,
    alpha = g^{ab} (<J_ab, psi> + <J_b, psi_a>) and
    beta_a = g^{ab} <J_b, psi>. The bitension adds 2 tau minus the
    tangential part g^{ab} <tau, psi_b> psi_a.
    """
    psi, px, py = table[(0, 0)], table[(1, 0)], table[(0, 1)]
    i00, i01, i11 = inv
    jx = _trace(inv, table[(3, 0)], table[(2, 1)], table[(1, 2)]) + 2.0 * px
    jy = _trace(inv, table[(2, 1)], table[(1, 2)], table[(0, 3)]) + 2.0 * py
    lap = (
        _sc(i00 * i00, table[(4, 0)])
        + _sc(4.0 * i00 * i01, table[(3, 1)])
        + _sc(2.0 * i00 * i11 + 4.0 * i01 * i01, table[(2, 2)])
        + _sc(4.0 * i01 * i11, table[(1, 3)])
        + _sc(i11 * i11, table[(0, 4)])
        + (2.0 * tau - 4.0 * psi)
    )
    alpha = (
        _dot(lap, psi)
        + i00 * _dot(jx, px)
        + i01 * (_dot(jy, px) + _dot(jx, py))
        + i11 * _dot(jy, py)
    )
    cx, cy = _dot(jx, psi), _dot(jy, psi)
    rough = lap - _sc(alpha, psi) - _sc(i00 * cx + i01 * cy, px) - _sc(i01 * cx + i11 * cy, py)
    rough -= _sc(_dot(rough, psi), psi)
    tx, ty = _dot(tau, px), _dot(tau, py)
    curv = _sc(i00 * tx + i01 * ty, px) + _sc(i01 * tx + i11 * ty, py)
    return rough + 2.0 * tau - curv


def _bitension_from_table(table):
    inv = _metric(table)[2]
    return _bitension(table, inv, _tension(table, inv))


def _forms(table, inv):
    """Second fundamental form (3, ..., D): B_xx, B_xy, B_yy, the second
    partials made normal to psi, psi_x and psi_y, projected as one array."""
    psi, px, py = table[(0, 0)], table[(1, 0)], table[(0, 1)]
    i00, i01, i11 = inv
    w = np.stack((table[(2, 0)], table[(1, 1)], table[(0, 2)]))
    w -= _sc(_dot(w, psi), psi)
    cx, cy = _dot(w, px), _dot(w, py)
    w -= _sc(i00 * cx + i01 * cy, px)
    w -= _sc(i01 * cx + i11 * cy, py)
    return w


def tension(im: Immersion, p) -> np.ndarray:
    """tau = g^{ab} psi_ab + 2 psi (metric trace of the second fundamental
    form of the map into the sphere); equals 2H."""
    table = im.partial_table(p, 2)
    return _tension(table, _metric(table)[2])


def bitension(im: Immersion, p) -> np.ndarray:
    """Bitension field from exact order-<=4 partials; vanishes (to rounding)
    on every admissible construction and is order-one when the weight balance
    is broken."""
    return _bitension_from_table(im.partial_table(p, 4))


# ---------------------------------------------------------------------------
# finite-difference oracle

_STENCILS = {
    0: {0: 1.0},
    1: {-2: 1 / 12, -1: -8 / 12, 1: 8 / 12, 2: -1 / 12},
    2: {-2: -1 / 12, -1: 16 / 12, 0: -30 / 12, 1: 16 / 12, 2: -1 / 12},
    3: {-3: 1 / 8, -2: -1.0, -1: 13 / 8, 1: -13 / 8, 2: 1.0, 3: -1 / 8},
    4: {-3: -1 / 6, -2: 2.0, -1: -39 / 6, 0: 56 / 6, 1: -39 / 6, 2: 2.0, 3: -1 / 6},
}


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_step(step) -> None:
    if not (_is_real(step) and math.isfinite(step) and step > 0):
        raise DomainError("step must be a positive finite number, got %r" % (step,))


def fd_partial_table(im, p, step: float, max_order: int = 4):
    """Partial-derivative table built only from point evaluations.

    Fourth-order central stencils, tensorized for mixed derivatives; the
    independent route against the closed-form partials.
    """
    p = _as_points(p)
    _check_step(step)
    _check_max_order(max_order)
    grid = np.array([(i, j) for i in range(-3, 4) for j in range(-3, 4)], dtype=float)
    vals = im.eval(p[..., None, :] + step * grid)  # (..., 49, dim)
    table = {}
    for a in range(max_order + 1):
        for b in range(max_order + 1 - a):
            coeff = np.zeros(49)
            for i, ci in _STENCILS[a].items():
                for j, cj in _STENCILS[b].items():
                    coeff[(i + 3) * 7 + (j + 3)] = ci * cj
            table[(a, b)] = np.einsum("...sd,s->...d", vals, coeff) / step ** (a + b)
    return table


def fd_bitension_oracle(im, p, step: float) -> np.ndarray:
    """Bitension with every derivative taken by finite differences of eval.

    Agrees with the analytic route to O(step^4).
    """
    if not (_is_real(step) and 1e-4 <= step <= 1e-1):
        raise DomainError("step must lie in [1e-4, 1e-1], got %r" % step)
    return _bitension_from_table(fd_partial_table(im, p, step, 4))


# ---------------------------------------------------------------------------
# fundamental forms and curvature


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


def fundamental_forms(im, p) -> FundamentalForms:
    """g from first partials; B_ab = psi_ab + psi corrections projected onto
    the normal space (orthogonal to psi, psi_x, psi_y)."""
    table = im.partial_table(p, 2)
    g, _, inv = _metric(table)
    b_xx, b_xy, b_yy = _forms(table, inv)
    return FundamentalForms(g=g, b_xx=b_xx, b_xy=b_xy, b_yy=b_yy)


def _curvature(g, det, inv, forms):
    """Curvature summary from the metric and the stacked forms of `_forms`."""
    h_vec = 0.5 * _trace(inv, *forms)
    h_sq = _dot(h_vec, h_vec)
    gauss = 1.0 + (_dot(forms[0], forms[2]) - _dot(forms[1], forms[1])) / det
    g_ab = np.stack((g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]))
    residual = np.max(np.abs(_dot(forms, h_vec) - h_sq * g_ab), axis=0)
    return CurvatureSummary(
        mean_curvature_norm=np.sqrt(h_sq),
        gaussian=gauss,
        pseudo_umbilical_residual=residual,
        h_vector=h_vec,
    )


def mean_curvature(im, p) -> CurvatureSummary:
    """Mean curvature vector (metric trace of B over 2), Gauss-equation
    curvature for the unit-sphere ambient, and the pseudo-umbilicity residual
    max |<B_ab, H> - |H|^2 g_ab|."""
    table = im.partial_table(p, 2)
    g, det, inv = _metric(table)
    return _curvature(g, det, inv, _forms(table, inv))


def gaussian_brioschi_fd(im, p, step: float = 1e-3) -> float:
    """Intrinsic Gaussian curvature from the metric alone (Brioschi formula),
    with metric derivatives by finite differences; oracle for the
    Gauss-equation route."""
    p = _as_points(p)
    _check_step(step)
    offs = np.arange(-2, 3)
    E = np.empty((5, 5))
    F = np.empty((5, 5))
    G = np.empty((5, 5))
    for i, oi in enumerate(offs):
        for j, oj in enumerate(offs):
            q = p + step * np.array([oi, oj], dtype=float)
            px = im.partial(q, (1, 0))
            py = im.partial(q, (0, 1))
            E[i, j] = float(_dot(px, px))
            F[i, j] = float(_dot(px, py))
            G[i, j] = float(_dot(py, py))
    d1 = np.array([1, -8, 0, 8, -1]) / (12 * step)
    d2 = np.array([-1, 16, -30, 16, -1]) / (12 * step**2)
    mid = np.array([0, 0, 1, 0, 0], dtype=float)

    def apply(m, cu, cv):
        return float(cu @ m @ cv)

    e, f, g = E[2, 2], F[2, 2], G[2, 2]
    e_u, e_v, e_vv = apply(E, d1, mid), apply(E, mid, d1), apply(E, mid, d2)
    g_u, g_v, g_uu = apply(G, d1, mid), apply(G, mid, d1), apply(G, d2, mid)
    f_u, f_v, f_uv = apply(F, d1, mid), apply(F, mid, d1), apply(F, d1, d1)
    m1 = np.array(
        [
            [-0.5 * e_vv + f_uv - 0.5 * g_uu, 0.5 * e_u, f_u - 0.5 * e_v],
            [f_v - 0.5 * g_u, e, f],
            [0.5 * g_v, f, g],
        ]
    )
    m2 = np.array([[0.0, 0.5 * e_v, 0.5 * g_u], [0.5 * e_v, e, f], [0.5 * g_u, f, g]])
    return float((np.linalg.det(m1) - np.linalg.det(m2)) / (e * g - f * f) ** 2)


# ---------------------------------------------------------------------------
# closed-form parameter checks


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
    vanish. Reports |H|^2 = 1 - 1/(r1^2 r2^2).
    """
    if m < 1:
        raise DomainError("m must be a positive integer")
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
    q_i = n_i(n_i + 1)."""
    if n1 < 2 or n2 < 2:
        raise DomainError("degrees must be >= 2")
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
# full verification suite

# Report order and default tolerance of every geometric check.
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

# Sample points evaluated together: the order-<=4 table of one block at
# ambient dimension 28 is 15 * 2048 * 28 doubles (6.9 MB), so the working set
# stays bounded whatever the sample count. Blocks of 1024 ran the verify-dense
# benchmark 21% slower (more per-block overhead at ambient dimension 6 and 8).
_BLOCK = 2048


def _maxabs(x) -> float:
    return float(np.max(np.abs(x)))


def _block_residuals(im: Immersion, pts) -> list[float]:
    """Worst residual of each check, in `_CHECKS` order, over the points pts."""
    table = im.partial_table(pts, 4)
    psi, px, py = table[(0, 0)], table[(1, 0)], table[(0, 1)]
    h = im.data.h
    lam1, lam2 = im.data.lambda1, im.data.lambda2
    low = 2 * im.m

    g, det, inv = _metric(table)
    forms = _forms(table, inv)
    curv = _curvature(g, det, inv, forms)
    eye = np.zeros_like(g)
    eye[..., 0, 0] = 1.0
    eye[..., 1, 1] = 1.0
    t1, t2 = _split_blocks(psi, im.m)
    lap = -(table[(2, 0)] + table[(0, 2)])
    tau = _tension(table, inv)
    tau2 = _bitension(table, inv, tau)

    return [
        _maxabs(np.sqrt(_dot(psi, psi)) - 1.0),
        _maxabs(g - eye),
        max(_maxabs(_dot(forms, w)) for w in (psi, px, py)),
        _maxabs(curv.mean_curvature_norm - h),
        _maxabs(curv.gaussian),
        _maxabs(2.0 * curv.h_vector - (2.0 * h) * (t1 - t2)),
        _maxabs(np.sqrt(_dot(t1, t1)) - math.sqrt(0.5)),
        _maxabs(np.sqrt(_dot(t2, t2)) - math.sqrt(0.5)),
        _maxabs(_dot(t1, t2)),
        _maxabs(lap[..., :low] - lam1 * t1[..., :low]),
        _maxabs(lap[..., low:] - lam2 * t2[..., low:]),
        max(_maxabs(_dot(tau, px)), _maxabs(_dot(tau, py))),
        _maxabs(tau - 2.0 * curv.h_vector),
        _maxabs(np.sqrt(_dot(tau2, tau2))),
    ]


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
    """Run every geometric invariant at `samples` seeded random points.

    Tolerances per check: unit sphere 1e-12, flat identity metric 1e-10,
    form normality 1e-9, |H| = h 1e-9, K = 0 1e-8, spectral blocks 1e-10,
    eigenblocks 1e-10, bitension 1e-7; `tolerances` overrides them by check
    name (each override a positive finite number). Includes the
    data-admissibility checks so a single report certifies one immersion.

    The points are evaluated in fixed blocks of 2048; each residual is the
    maximum over the blocks, so memory is O(2048 * ambient_dim) whatever the
    sample count.
    """
    if not _is_int(samples) or samples < 1:
        raise DomainError("samples must be a positive integer, got %r" % (samples,))
    if not _is_int(seed) or seed < 0:
        raise DomainError("seed must be a non-negative integer, got %r" % (seed,))
    if not (_is_real(box) and math.isfinite(box) and box >= 0):
        raise DomainError("box must be a finite non-negative number, got %r" % (box,))
    tol = _tolerances(tolerances)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-box, box, size=(samples, 2))
    worst = np.zeros(len(_CHECKS))
    for start in range(0, samples, _BLOCK):
        worst = np.maximum(worst, _block_residuals(im, pts[start : start + _BLOCK]))
    checks = tuple(Check(name, r, tol[name]) for (name, _), r in zip(_CHECKS, worst))
    return VerificationReport(validate_miyata(im.data).checks + checks, int(samples))
