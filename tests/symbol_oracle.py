"""Reference symbol route: `geometry._symbols`, `_curvature_constants` and
`_symbol_residuals` as they were while the geometry had two formula sets,
kept verbatim under public names. This `symbols` leaves out every term that
is 0 on an `Immersion` (the tangential parts of the forms and of tau, alpha
and beta); the library's one kernel keeps them, and is tested against these
functions at the origin.
"""

import math
from typing import NamedTuple

import numpy as np

from bihsurf.core import DomainError
from bihsurf.immersion import Immersion, _ORDERS

# A field that is a constant combination of the partials of an Immersion is
# s_k e^{i theta_k(z)} on plane k, theta_k = <w_k, z>, with one symbol
# s in C^K; the symbol of d^A psi is c_k (i w_k1)^a (i w_k2)^b. A symbol is
# kept as the real D-vector (Re s_0, Im s_0, Re s_1, ...), the field at the
# origin, so the real dot of two symbols, sum_k Re(s_k conj t_k), is the
# inner product of their fields at every point. The symbol of each order of
# `_ORDERS` is its factor row on the cos slots (a+b even) or on the sin
# slots (a+b odd); the dot of an even symbol with an odd one is 0.0.
_AT_ORIGIN = np.array([(1.0, 0.0) if sum(o) % 2 == 0 else (0.0, 1.0) for o in _ORDERS])[:, None]

_EYE = np.eye(2)


# The fields tau, L (the rough Laplacian's g^{ab} J_ab) and Delta psi as combinations
# of the partials of `_ORDERS`, one row each; the slots of their
# coefficients, in the order `symbols` lists them.
_FIELD_TERMS = (
    (0, ((0, 0), (2, 0), (1, 1), (0, 2))),
    (1, ((2, 0), (1, 1), (0, 2), (4, 0), (3, 1), (2, 2), (1, 3), (0, 4))),
    (2, ((2, 0), (0, 2))),
)
_FIELD_SLOTS = np.array(
    [row * len(_ORDERS) + _ORDERS.index(o) for row, orders in _FIELD_TERMS for o in orders]
)


class _Symbols(NamedTuple):
    frame: np.ndarray  # (3, D): psi, psi_x, psi_y
    g: np.ndarray  # (2, 2)
    det: float
    forms: np.ndarray  # (3, D): B_xx, B_xy, B_yy
    h: np.ndarray  # (D,): H
    tau: np.ndarray  # (D,)
    tau2: np.ndarray  # (D,): the bitension
    lap: np.ndarray  # (D,): Delta psi


def symbols(im: Immersion) -> _Symbols:
    """The metric and the symbols of the fields that the geometry forms,
    once, from the 15 symbols of the partials. Every field but the odd
    frame entries psi_x, psi_y is even: its symbol sits on the cos slots.

    The table kernel's terms that are 0 on every Immersion are left out:
    the tangential parts of the forms and of tau and beta_a are dots of an
    even symbol with an odd one, and alpha = g^{ab} d_b <J_a, psi> is the
    derivative of a constant, whose alpha psi the projection onto psi^perp
    removes again."""
    n, k = len(_ORDERS), im.num_planes
    sym = (im._factors().reshape(n, k, 2) * _AT_ORIGIN).reshape(n, 2 * k)
    frame, psi = sym[:3], sym[0]
    # <d^A psi, F_c> for the orders A <= 2 and the frame F = (psi, psi_x, psi_y)
    dots = sym[:6] @ frame.T
    (g00, g01), (_, g11) = dots[1:3, 1:].tolist()
    det = g00 * g11 - g01 * g01
    if det < 1e-12:
        raise DomainError("degenerate immersion: metric determinant below 1e-12")
    u0, u1, u2 = g11 / det, 2.0 * -(g01 / det), g00 / det
    coeffs = np.zeros(3 * n)
    coeffs[_FIELD_SLOTS] = (
        (2.0, u0, u1, u2)
        # L's order-4 weights are those of (u0 d_xx + u1 d_xy + u2 d_yy)^2
        + (2.0 * u0, 2.0 * u1, 2.0 * u2, u0 * u0, u0 * u1 + u1 * u0)
        + (u0 * u2 + u1 * u1 + u2 * u0, u1 * u2 + u2 * u1, u2 * u2, -1.0, -1.0)
    )
    tau, lap_j, lap = coeffs.reshape(3, n) @ sym
    # the forms: the second partials less their psi part
    forms = sym[3:6] - dots[3:, :1] * psi
    h_vec = ((u0, u1, u2) @ forms) * 0.5
    # the bitension: L made normal to psi, plus 2 tau
    tau2 = lap_j - (lap_j @ psi) * psi
    tau2 += tau * 2.0
    return _Symbols(frame, dots[1:3, 1:], det, forms, h_vec, tau, tau2, lap)


def curvature_constants(s: _Symbols) -> tuple[float, float, float]:
    """|H|, K = 1 + (<B_xx, B_yy> - |B_xy|^2) / det g and the
    pseudo-umbilicity residual max |<B_ab, H> - |H|^2 g_ab|: the same at
    every point."""
    (_, _, b02), (_, b11, _), _ = (s.forms @ s.forms.T).tolist()
    h_sq = float(s.h @ s.h)
    dev = s.forms @ s.h - h_sq * s.g.ravel()[[0, 1, 3]]
    return math.sqrt(h_sq), (b02 - b11) / s.det + 1.0, float(np.abs(dev).max())


def symbol_residuals(im: Immersion) -> list[float]:
    """The residual of each check after unit_norm, in `_CHECKS` order, from
    `symbols`. A norm check is a symbol's norm, sqrt(sum_k |s_k|^2), which
    its field has at every point; a coordinate check is max_k |s_k|. Each
    residual is the check's sup over the whole plane, and every max is
    numpy's, so a NaN symbol gives a NaN residual."""
    s = symbols(im)
    k, m, h = im.num_planes, im.m, im.data.h
    psi = s.frame[0]
    h_norm, gauss, _ = curvature_constants(s)
    # <B_i, F_c>, then <tau, F_c>
    against = np.concatenate((s.forms, s.tau[None])) @ s.frame.T

    # the zero-padded spectral blocks t1, t2
    blocks = np.zeros((2, 2 * k))
    blocks[0, : 2 * m] = psi[: 2 * m]
    np.subtract(psi, blocks[0], out=blocks[1])
    (n1, orth), (_, n2) = (blocks @ blocks.T).tolist()
    # |s_k| by plane of 2 (H - h (t1 - t2)), Delta psi - lambda_i t_i and
    # tau - 2 H: the sup over R^2 of each real coordinate of plane k, since
    # theta_k takes every value when w_k != 0 (an upper bound when w_k = 0)
    coords = np.array((
        (s.h - (blocks[0] - blocks[1]) * h) * 2.0,
        s.lap - (im.data.lambda1, im.data.lambda2) @ blocks,
        s.tau - s.h * 2.0,
    ))
    sup = np.hypot(coords[:, 0::2], coords[:, 1::2])
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
        abs(h_norm - h),
        abs(gauss),
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

