"""Reference verifier: the factor rows built one order at a time, and
`verify_immersion` as it was before the per-plane symbols, running every
geometric check on the seeded samples. Each residual is the worst over the
sample points, evaluated in blocks of `_BLOCK`, so it can only bound the
symbol route's whole-plane sup from below.

The geometry of each block is the per-entry dict table and the jet formulas
of `dict_table_oracle`; psi is read through `Immersion.eval`, so a frequency
whose phases are not finite is refused there, by name.
"""

import math
import sys

import numpy as np

import dict_table_oracle as oracle
from bihsurf.core import Check, DomainError, VerificationReport, _is_int, _is_real
from bihsurf.geometry import _BLOCK, _CHECKS, _tolerances
from bihsurf.immersion import _QUARTER_TURN_SIGNS, Immersion


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


def _maxabs(x) -> float:
    """max |x|; NaN if x has one."""
    return float(np.max(np.abs(x)))


def _dot(u, v):
    return np.einsum("...d,...d->...", u, v)


def block_residuals(im: Immersion, pts) -> list[float]:
    """Worst residual of each check, in `_CHECKS` order, over the points pts
    (P, 2)."""
    psi = im.eval(pts)
    table = oracle.partial_table(im, pts, 4)
    table[(0, 0)] = psi
    px, py = table[(1, 0)], table[(0, 1)]
    h, low = im.data.h, 2 * im.m
    lam1, lam2 = im.data.lambda1, im.data.lambda2

    forms = oracle.forms_from_table(table)
    g, _, inv, b_xx, b_xy, b_yy = forms
    curv = oracle.curvature_from_forms(forms)
    tau, tau2 = oracle.tension_fields(table, inv)
    # the zero-padded spectral blocks, and the eigenblock residuals
    # Delta psi - lambda_i psi_ti with Delta psi = -(psi_xx + psi_yy)
    t1 = np.zeros_like(psi)
    t1[:, :low] = psi[:, :low]
    t2 = psi - t1
    lap = -(table[(2, 0)] + table[(0, 2)])
    # 2 H - 2h (t1 - t2), as 2 (H - h (t1 - t2)): doubling is exact
    two_type = (curv.h_vector - (t1 - t2) * h) * 2.0
    normality = [_dot(b, w) for b in (b_xx, b_xy, b_yy) for w in (psi, px, py)]
    return [
        _maxabs(np.sqrt(_dot(psi, psi)) - 1.0),
        _maxabs(g - np.eye(2)),
        _maxabs(normality),
        _maxabs(curv.mean_curvature_norm - h),
        _maxabs(curv.gaussian),
        _maxabs(two_type),
        _maxabs(np.sqrt(_dot(t1, t1)) - math.sqrt(0.5)),
        _maxabs(np.sqrt(_dot(t2, t2)) - math.sqrt(0.5)),
        _maxabs(_dot(t1, t2)),
        _maxabs(lap[:, :low] - lam1 * t1[:, :low]),
        _maxabs(lap[:, low:] - lam2 * t2[:, low:]),
        _maxabs([_dot(tau, px), _dot(tau, py)]),
        _maxabs(tau - curv.h_vector * 2.0),
        _maxabs(np.sqrt(_dot(tau2, tau2))),
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
    blocks = (pts[i : i + _BLOCK] for i in range(0, samples, _BLOCK))
    worst = np.max([block_residuals(im, block) for block in blocks], axis=0)
    checks = tuple(Check(name, r, tol[name]) for (name, _), r in zip(_CHECKS, worst))
    return VerificationReport(im._validation().checks + checks, int(samples))
