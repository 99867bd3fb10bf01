"""Reference verifier: the factor rows built one order at a time, and
`verify_immersion` as it was before the per-plane symbols, running the whole
per-point kernel on the samples. Each residual is the worst over the seeded
sample points, evaluated in blocks of `_BLOCK` through the factored reader,
so it can only bound the symbol route's whole-plane sup from below.

The bodies are kept as they were; the metric, forms, curvature, tension,
bitension and block loop are the library's own kernel, which the per-point
functions still run.
"""

import math
import sys

import numpy as np

from bihsurf.core import Check, DomainError, VerificationReport
from bihsurf.geometry import (
    _CHECKS,
    _bitension,
    _blocks,
    _curvature,
    _dot,
    _forms,
    _frame_dots,
    _is_real,
    _metric,
    _tension,
    _tolerances,
)
from bihsurf.immersion import _QUARTER_TURN_SIGNS, Immersion, _FactoredTable, _is_int, _Workspace

_EYE = np.eye(2)[..., None]


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


def _maxabs(x, out) -> float:
    """max |x|, with |x| written to out (x's shape; may be x itself), so a
    NaN in x gives NaN."""
    return float(np.abs(x, out=out).max())


def _norm_minus(u, target, out):
    """|u| - target over the ambient axis, into out."""
    out = np.sqrt(_dot(u, u, out), out=out)
    out -= target
    return out


def block_residuals(im: Immersion, pts, ws: _Workspace) -> list[float]:
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
    curv = _curvature(mt, forms, ws)
    tau = _tension(table, mt, ws)
    tau2 = _bitension(table, mt, tau, ws)
    # the zero-padded spectral blocks, and the eigenblock residuals
    # Delta psi - lambda_i psi_ti with Delta psi = -(psi_xx + psi_yy), in place
    t1, t2 = ws.vec("t1"), ws.vec("t2")
    t1[:low] = psi[:low]
    t1[low:] = 0.0
    np.subtract(psi, t1, out=t2)
    minus = ws.scalar("minus", 2)
    minus.fill(-1.0)
    e = table.combo(((2, 0), (0, 2)), minus, ws.vec("lap"))
    v = ws.vec("tmp")
    e[:low] -= np.multiply(t1[:low], lam1, out=v[:low])
    e[low:] -= np.multiply(t2[low:], lam2, out=v[low:])
    # 2 H - 2h (t1 - t2), as 2 (H - h (t1 - t2)): doubling is exact
    two_type = np.subtract(t1, t2, out=v)
    two_type *= h
    np.subtract(curv.h_vector, two_type, out=two_type)
    two_type *= 2.0

    normality = _frame_dots(forms, mt, ws)
    # the kernel's scratch scalars, free by now
    s, s2, s22 = ws.scalar("s"), ws.scalar("c", 2), ws.scalar("m", 2, 2)
    return [
        _maxabs(_norm_minus(psi, 1.0, s), s),
        _maxabs(np.subtract(mt.g, _EYE, out=s22), s22),
        _maxabs(normality, normality),
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
    worst = np.max([block_residuals(im, block, ws) for _, block, ws in _blocks(im, pts)], axis=0)
    checks = tuple(Check(name, r, tol[name]) for (name, _), r in zip(_CHECKS, worst))
    return VerificationReport(im._validation().checks + checks, int(samples))
