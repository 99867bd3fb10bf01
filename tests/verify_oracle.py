"""Reference verifier: the factor rows built one order at a time, and the
second fundamental form, the curvature summary and `verify_immersion` as
they were before the one factor table, the stacked normal projection and the
single validation. Each second partial and the mean-curvature combination
are projected on their own (`_normal_part`), the `forms_normal` check takes
one dot product per frame vector, and the report validates the data again.

The bodies are kept as they were; an entry d^o psi is read through the
reader's `entries`, and the metric, tension, bitension and block loop are
the library's own, which this rewrite left as they were.
"""

import math
import sys

import numpy as np

from bihsurf.core import Check, DomainError, VerificationReport
from bihsurf.geometry import (
    _CHECKS,
    _EYE,
    _SECOND,
    CurvatureSummary,
    _bitension,
    _blocks,
    _dot,
    _is_real,
    _maxabs,
    _metric,
    _norm_minus,
    _sub_tangent,
    _tension,
    _tolerances,
)
from bihsurf.immersion import _QUARTER_TURN_SIGNS, Immersion, _FactoredTable, _is_int, _Workspace
from bihsurf.parameters import validate_miyata


def factor_rows(im: Immersion, orders: tuple) -> np.ndarray:
    """Factor rows (len(orders), D) of `orders`: per order (a, b),
    c*w_1^a*w_2^b on both slots of each plane times the slot signs of
    a+b quarter turns."""
    w1, w2 = im.wave_vectors[:, 0], im.wave_vectors[:, 1]
    rows = np.array([
        (im.amplitudes * w1**a * w2**b)[:, None] * _QUARTER_TURN_SIGNS[(a + b) % 4]
        for a, b in orders
    ])
    return rows.reshape(len(orders), -1)


def _entry(table, order, out):
    return table.entries((order,), out[None])[0]


def _normal_part(table, v, mt, ws: _Workspace):
    """v minus its psi component, then minus its tangential part, in place."""
    v -= np.multiply(_dot(v, mt.psi, ws.scalar("r")), mt.psi, out=ws.vec("tmp"))
    return _sub_tangent(table, v, mt, _dot(v, mt.d1, ws.scalar("c", 2)), ws)


def _forms(table, mt, ws: _Workspace):
    """Second fundamental form (3, D, P): B_xx, B_xy, B_yy, the second
    partials made normal to psi, psi_x and psi_y."""
    w = ws.vec("forms", 3)
    for order, out in zip(_SECOND, w):
        _normal_part(table, _entry(table, order, out), mt, ws)
    return w


def _curvature(table, mt, forms, ws: _Workspace) -> CurvatureSummary:
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


def verify_immersion(
    im: Immersion,
    samples: int = 200,
    seed: int = 0,
    box: float = 6.0,
    tolerances: dict[str, float] | None = None,
) -> VerificationReport:
    """Run every geometric invariant at `samples` seeded random points."""
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
