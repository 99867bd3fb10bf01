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
oracle). It reads the partials through two operations, each writing into a
buffer the caller gives it: an entry d^o psi, and a combination
sum_o c_o(p) d^o psi with per-point coefficients. An `Immersion` is read
through the factored reader of `immersion`, which never builds the table, so
the order-3 and order-4 partials are only ever read inside the tension's and
the Laplacian's combinations. An explicit table (a dict, as `fd_partial_table`
returns) serves both by indexing and by accumulating in place, in one piece.
On an `Immersion` every function runs in blocks of `_BLOCK` points, all from
one workspace per call, each block written into the output arrays. Nothing
is kept after the call.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import GEOMETRIC_TOL, Check, DomainError, VerificationReport
from .parameters import validate_miyata
from .immersion import Immersion, _FactoredTable, _Workspace
from .immersion import _as_points, _check_max_order, _is_int, _unflatten


def _dot(u, v, out):
    """<u, v> over the ambient axis of (..., D, P) fields, into out (..., P)."""
    return np.einsum("...dp,...dp->...p", u, v, out=out)


# ---------------------------------------------------------------------------
# explicit tables, and the block loop over the points of an Immersion


class _ExplicitTable:
    """A table given as {(a, b): (..., D) array}, such as `fd_partial_table`'s,
    read as (D, P) fields over its points in row-major order."""

    def __init__(self, table: dict):
        dim = table[(0, 0)].shape[-1]
        self._table = {order: v.reshape(-1, dim).T for order, v in table.items()}

    def entry(self, order, out):
        np.copyto(out, self._table[order])
        return out

    def combo(self, orders, coeffs, out):
        np.multiply(coeffs[..., :1, :], self._table[orders[0]], out=out)
        for j in range(1, len(orders)):
            out += coeffs[..., j : j + 1, :] * self._table[orders[j]]
        return out


def _blocks(im: Immersion, pts):
    """(start, block, ws) over consecutive blocks of at most `_BLOCK` of the
    points pts (P, 2): one workspace ws, made for the first block, set to the
    points of each; no points give one empty block."""
    ws = _Workspace(min(len(pts), _BLOCK), im.ambient_dim)
    for start in range(0, max(len(pts), 1), _BLOCK):
        block = pts[start : start + _BLOCK]
        ws.points(len(block))
        yield start, block, ws


def _per_point(kernel, im, p, max_order: int):
    """The arrays (..., P) of kernel(table, metric, ws) at the points p
    (..., 2), in the caller's point shape: an Immersion's in blocks
    (`_blocks`) written into the outputs, any other map's `partial_table`
    in one piece."""
    if not isinstance(im, Immersion):
        return _explicit_kernel(kernel, im.partial_table(p, max_order))
    pts = _as_points(p)
    flat = pts.reshape(-1, 2)
    outs = None
    for start, block, ws in _blocks(im, flat):
        table = _FactoredTable(im, block, ws)
        parts = kernel(table, _metric(table, ws), ws)
        if outs is None:
            outs = [np.empty(x.shape[:-1] + (len(flat),)) for x in parts]
        for out, x in zip(outs, parts):
            out[..., start : start + len(block)] = x
    return [_unflatten(x, pts.shape[:-1]) for x in outs]


def _explicit_kernel(kernel, table: dict):
    """The arrays of kernel(table, metric, ws) over an explicit table, in its
    point shape."""
    shape, dim = table[(0, 0)].shape[:-1], table[(0, 0)].shape[-1]
    flat, ws = _ExplicitTable(table), _Workspace(math.prod(shape), dim)
    return [_unflatten(x, shape) for x in kernel(flat, _metric(flat, ws), ws)]


# ---------------------------------------------------------------------------
# the per-point kernel: metric, tension, bitension and forms from one table
# of ambient partials

# second partials, and the orders of the combinations tau = g^{ab} psi_ab + 2 psi
# and J_a = g^{bc} psi_abc + 2 psi_a, all weighted (g^00, 2 g^01, g^11, 2)
_SECOND = ((2, 0), (1, 1), (0, 2))
_TENSION = _SECOND + ((0, 0),)
_J = (((3, 0), (2, 1), (1, 2), (1, 0)), ((2, 1), (1, 2), (0, 3), (0, 1)))
# L = g^{ab} J_ab: the five order-4 partials, then 2 tau - 4 psi = 2 g^{ab} psi_ab
_LAPLACIAN = ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4)) + _SECOND
_FIRST = ((1, 0), (0, 1))


class _Metric(NamedTuple):
    psi: np.ndarray  # (D, P)
    d1: np.ndarray  # (2, D, P): psi_x, psi_y
    g: np.ndarray  # (2, 2, P)
    det: np.ndarray  # (P,)
    inv: np.ndarray  # (2, 2, P)
    weights: np.ndarray  # (4, P): g^00, 2 g^01, g^11, 2


def _metric(table, ws: _Workspace) -> _Metric:
    """psi, its first partials, the induced metric g_ab = <psi_a, psi_b>,
    det g, the inverse metric g^{ab} and the weights of `_TENSION`."""
    psi = table.entry((0, 0), ws.vec("psi"))
    d1 = ws.vec("d1", 2)
    for order, out in zip(_FIRST, d1):
        table.entry(order, out)
    g = np.einsum("adp,bdp->abp", d1, d1, out=ws.scalar("g", 2, 2))
    det = np.multiply(g[0, 0], g[1, 1], out=ws.scalar("det"))
    det -= np.multiply(g[0, 1], g[0, 1], out=ws.scalar("s"))
    if (det < 1e-12).any():
        raise DomainError("degenerate immersion: metric determinant below 1e-12")
    inv = ws.scalar("inv", 2, 2)
    np.divide(g[1, 1], det, out=inv[0, 0])
    np.negative(np.divide(g[0, 1], det, out=inv[0, 1]), out=inv[0, 1])
    inv[1, 0] = inv[0, 1]
    np.divide(g[0, 0], det, out=inv[1, 1])
    weights = ws.scalar("weights", 4)
    weights[0] = inv[0, 0]
    np.multiply(inv[0, 1], 2.0, out=weights[1])
    weights[2] = inv[1, 1]
    weights[3] = 2.0
    return _Metric(psi, d1, g, det, inv, weights)


def _sub_tangent(table, v, mt: _Metric, c, ws: _Workspace):
    """v -= g^{ab} c_b psi_a in place, for a field v (D, P) and coefficients
    c (2, P)."""
    beta = np.einsum("abp,bp->ap", mt.inv, c, out=ws.scalar("beta", 2))
    v -= table.combo(_FIRST, beta, ws.vec("tmp"))
    return v


def _normal_part(table, v, mt: _Metric, ws: _Workspace):
    """v minus its psi component, then minus its tangential part, in place."""
    v -= np.multiply(_dot(v, mt.psi, ws.scalar("r")), mt.psi, out=ws.vec("tmp"))
    return _sub_tangent(table, v, mt, _dot(v, mt.d1, ws.scalar("c", 2)), ws)


def _tension(table, mt: _Metric, ws: _Workspace):
    """tau = g^{ab} psi_ab + 2 psi, one combination of the table."""
    return table.combo(_TENSION, mt.weights, ws.vec("tau"))


def _bitension(table, mt: _Metric, tau, ws: _Workspace):
    """Bitension from order-<=4 partials and tau.

    The induced metric of a frequency-table immersion is constant in (x, y),
    so the partials of tau are again combinations of table entries:
    J_a = g^{bc} psi_{abc} + 2 psi_a. With P v = v - <v, psi> psi, the
    rough Laplacian g^{ab} P d_a(P d_b tau) is P applied once to
    L - alpha psi - beta_x psi_x - beta_y psi_y, where L = g^{ab} J_ab is
    one combination of the five order-4 entries and 2 tau - 4 psi,
    alpha = g^{ab} (<J_ab, psi> + <J_b, psi_a>) and
    beta_a = g^{ab} <J_b, psi>. The bitension adds 2 tau minus the
    tangential part g^{ab} <tau, psi_b> psi_a.
    """
    psi, d1 = mt.psi, mt.d1
    j = ws.vec("j", 2)
    for orders, out in zip(_J, j):
        table.combo(orders, mt.weights, out)
    # with u = (g^00, 2 g^01, g^11) the weights of d_xx, d_xy and d_yy, the
    # order-4 weights are those of (u0 d_xx + u1 d_xy + u2 d_yy)^2, and 2 u
    # weighs the second partials
    u = mt.weights[:3]
    w = ws.scalar("laplacian", 8)
    s = ws.scalar("s")
    w[:5] = 0.0
    for i in range(3):
        for k in range(3):
            w[i + k] += np.multiply(u[i], u[k], out=s)
    np.multiply(u, 2.0, out=w[5:])
    out = table.combo(_LAPLACIAN, w, ws.vec("tau2"))
    tmp = ws.vec("tmp")
    alpha = _dot(out, psi, ws.scalar("alpha"))
    m = np.einsum("adp,bdp->abp", j, d1, out=ws.scalar("m", 2, 2))
    alpha += np.einsum("abp,abp->p", mt.inv, m, out=s)
    out -= np.multiply(alpha, psi, out=tmp)
    _sub_tangent(table, out, mt, _dot(j, psi, ws.scalar("c", 2)), ws)
    out -= np.multiply(_dot(out, psi, s), psi, out=tmp)
    out += np.multiply(tau, 2.0, out=tmp)
    return _sub_tangent(table, out, mt, _dot(tau, d1, ws.scalar("c", 2)), ws)


def _forms(table, mt: _Metric, ws: _Workspace):
    """Second fundamental form (3, D, P): B_xx, B_xy, B_yy, the second
    partials made normal to psi, psi_x and psi_y."""
    w = ws.vec("forms", 3)
    for order, out in zip(_SECOND, w):
        _normal_part(table, table.entry(order, out), mt, ws)
    return w


def _bitension_kernel(table, mt: _Metric, ws: _Workspace):
    return (_bitension(table, mt, _tension(table, mt, ws), ws),)


def tension(im: Immersion, p) -> np.ndarray:
    """tau = g^{ab} psi_ab + 2 psi (metric trace of the second fundamental
    form of the map into the sphere); equals 2H."""
    return _per_point(lambda table, mt, ws: (_tension(table, mt, ws),), im, p, 2)[0]


def bitension(im: Immersion, p) -> np.ndarray:
    """Bitension field from exact order-<=4 partials; vanishes (to rounding)
    on every admissible construction and is order-one when the weight balance
    is broken."""
    return _per_point(_bitension_kernel, im, p, 4)[0]


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


# the stencils divide by up to step**4, which must stay a normal double
_MIN_STEP = sys.float_info.min**0.25


def _check_step(step) -> None:
    if not (_is_real(step) and math.isfinite(step) and step >= _MIN_STEP):
        raise DomainError(
            "step must be a finite number >= %.4g (step**4 a normal double), got %r"
            % (_MIN_STEP, step)
        )


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
    return _explicit_kernel(_bitension_kernel, fd_partial_table(im, p, step, 4))[0]


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
    return FundamentalForms(*_per_point(lambda t, mt, ws: (mt.g, *_forms(t, mt, ws)), im, p, 2))


def _curvature(table, mt: _Metric, forms, ws: _Workspace) -> CurvatureSummary:
    """Curvature summary over P points from the forms of `_forms`.
    The mean-curvature vector is half the normal part of one combination,
    g^{ab} psi_ab."""
    h_vec = table.combo(_SECOND, mt.weights[:3], ws.vec("h"))
    _normal_part(table, h_vec, mt, ws)
    h_vec *= 0.5
    h_sq = _dot(h_vec, h_vec, ws.scalar("h_sq"))
    s = ws.scalar("s")
    gauss = _dot(forms[0], forms[2], ws.scalar("gauss"))
    gauss -= _dot(forms[1], forms[1], s)
    gauss /= mt.det
    gauss += 1.0
    # |<B_ab, H> - |H|^2 g_ab| for ab = xx, xy, yy
    dev = _dot(forms, h_vec, ws.scalar("dev", 3))
    for row, (a, b) in zip(dev, ((0, 0), (0, 1), (1, 1))):
        row -= np.multiply(h_sq, mt.g[a, b], out=s)
    return CurvatureSummary(
        mean_curvature_norm=np.sqrt(h_sq, out=ws.scalar("h_norm")),
        gaussian=gauss,
        pseudo_umbilical_residual=np.abs(dev, out=dev).max(axis=0, out=ws.scalar("umbilic")),
        h_vector=h_vec,
    )


def mean_curvature(im, p) -> CurvatureSummary:
    """Mean curvature vector (metric trace of B over 2), Gauss-equation
    curvature for the unit-sphere ambient, and the pseudo-umbilicity residual
    max |<B_ab, H> - |H|^2 g_ab|."""

    def kernel(table, mt, ws):
        return vars(_curvature(table, mt, _forms(table, mt, ws), ws)).values()

    return CurvatureSummary(*_per_point(kernel, im, p, 2))


def gaussian_brioschi_fd(im, p, step: float = 1e-3) -> float:
    """Intrinsic Gaussian curvature at one point p of shape (2,) from the
    metric alone (Brioschi formula), with metric derivatives by finite
    differences; oracle for the Gauss-equation route. E, F and G on the
    5 x 5 stencil come from one first-order partial table and `_metric`."""
    p = _as_points(p)
    if p.shape != (2,):
        raise DomainError("points must be one point of shape (2,), got shape %s" % (p.shape,))
    _check_step(step)
    offs = np.arange(-2, 3, dtype=float)
    grid = np.stack(np.meshgrid(offs, offs, indexing="ij"), axis=-1)
    (g,) = _per_point(lambda table, mt, ws: (mt.g,), im, p + step * grid, 1)
    E, F, G = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
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

    Given 1/r1^2 + 1/r2^2 = 2 the two coefficients vanish identically:
    v = -u and alpha^2 u + beta^2 v = -u^2, so both brackets are
    -u^2 + u^2. The tau2 checks therefore measure only the rounding of
    these floats.
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
# block_orthogonal is identically 0.0 at finite points: the zero-padded
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

# Sample points evaluated together. The workspace of one verify_immersion
# call is 38 buffers, 2.7 MB at ambient dimension 6 and 9.6 MB at 28,
# whatever the sample count. Against 2048, blocks of 1024 ran the S^27 share
# of the verify-dense round about 15% faster and the S^5 share about 18%
# slower (the round within noise); blocks of 4096 ran it about 20% slower.
_BLOCK = 2048

_EYE = np.eye(2)[..., None]


def _maxabs(x, out) -> float:
    """max |x|, with |x| written to out (x's shape; may be x itself), so a
    NaN in x gives NaN."""
    return float(np.abs(x, out=out).max())


def _norm_minus(u, target, out):
    """|u| - target over the ambient axis, into out."""
    out = np.sqrt(_dot(u, u, out), out=out)
    out -= target
    return out


def _block_residuals(im: Immersion, pts, ws: _Workspace) -> list[float]:
    """Worst residual of each check, in `_CHECKS` order, over the points pts,
    every block-sized array taken from ws, which `_blocks` has set to the
    points."""
    table = _FactoredTable(im, pts, ws)
    h = im.data.h
    lam1, lam2 = im.data.lambda1, im.data.lambda2
    low = 2 * im.m

    mt = _metric(table, ws)
    psi, d1 = mt.psi, mt.d1
    forms = _forms(table, mt, ws)
    curv = _curvature(table, mt, forms, ws)
    tau = _tension(table, mt, ws)
    tau2 = _bitension(table, mt, tau, ws)
    # the zero-padded spectral blocks, and Delta psi = -(psi_xx + psi_yy)
    t1, t2 = ws.vec("t1"), ws.vec("t2")
    t1[:low] = psi[:low]
    t1[low:] = 0.0
    np.subtract(psi, t1, out=t2)
    minus = ws.scalar("minus", 2)
    minus.fill(-1.0)
    lap = table.combo(((2, 0), (0, 2)), minus, ws.vec("lap"))

    s, s2, s3 = ws.scalar("check"), ws.scalar("check", 2), ws.scalar("check", 3)
    s22 = ws.scalar("check", 2, 2)
    v, e = ws.vec("check"), ws.vec("eigen")
    two_type = np.subtract(t1, t2, out=v)
    two_type *= 2.0 * h
    np.subtract(np.multiply(curv.h_vector, 2.0, out=e), two_type, out=two_type)
    np.subtract(lap[:low], np.multiply(t1[:low], lam1, out=e[:low]), out=e[:low])
    np.subtract(lap[low:], np.multiply(t2[low:], lam2, out=e[low:]), out=e[low:])

    return [
        _maxabs(_norm_minus(psi, 1.0, s), s),
        _maxabs(np.subtract(mt.g, _EYE, out=s22), s22),
        max(_maxabs(_dot(forms, w, s3), s3) for w in (psi, d1[0], d1[1])),
        _maxabs(np.subtract(curv.mean_curvature_norm, h, out=s), s),
        _maxabs(curv.gaussian, s),
        _maxabs(two_type, v),
        _maxabs(_norm_minus(t1, math.sqrt(0.5), s), s),
        _maxabs(_norm_minus(t2, math.sqrt(0.5), s), s),
        _maxabs(_dot(t1, t2, s), s),
        _maxabs(e[:low], e[:low]),
        _maxabs(e[low:], e[low:]),
        _maxabs(_dot(tau, d1, s2), s2),
        _maxabs(np.subtract(tau, np.multiply(curv.h_vector, 2.0, out=v), out=v), v),
        _maxabs(np.sqrt(_dot(tau2, tau2, s), out=s), s),
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

    The points are evaluated in fixed blocks of 2048 (`_blocks`); each
    residual is the maximum over the blocks, and memory is
    O(2048 * ambient_dim) whatever the sample count.
    """
    if not _is_int(samples) or samples < 1:
        raise DomainError("samples must be a positive integer, got %r" % (samples,))
    if not _is_int(seed) or seed < 0:
        raise DomainError("seed must be a non-negative integer, got %r" % (seed,))
    if not (_is_real(box) and 0 <= box <= sys.float_info.max / 2):
        raise DomainError(
            "box must be a non-negative number with 2 * box finite, got %r" % (box,)
        )
    tol = _tolerances(tolerances)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-box, box, size=(samples, 2))
    worst = np.max([_block_residuals(im, block, ws) for _, block, ws in _blocks(im, pts)], axis=0)
    checks = tuple(Check(name, r, tol[name]) for (name, _), r in zip(_CHECKS, worst))
    return VerificationReport(validate_miyata(im.data).checks + checks, int(samples))
