"""Reference per-point kernel: partial tables as dicts of separately built
arrays, one multiply-and-assemble per entry, and the tension jet of every
order up to 2 with each of the four (a, b) pairs of the bitension projected
on its own. The library's single-array table and single-projection kernel
are tested against these functions, kept as they were before that rewrite.
"""

import numpy as np

from bihsurf.core import DomainError
from bihsurf.geometry import CurvatureSummary, FundamentalForms, fd_partial_table

_JET2 = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

# k quarter turns send (cos, sin) to (cos, sin), (-sin, cos), (-cos, -sin), (sin, -cos):
# (swap the pair?, sign of the cos slot, sign of the sin slot) for k = 0..3
_QUARTER_TURNS = ((False, 1.0, 1.0), (True, -1.0, 1.0), (False, -1.0, -1.0), (True, 1.0, -1.0))


# ---------------------------------------------------------------------------
# the table


def _assemble(im, cos_part, sin_part):
    out = np.empty(cos_part.shape[:-1] + (im.ambient_dim,))
    out[..., 0::2] = cos_part
    out[..., 1::2] = sin_part
    return out


def partials(im, p, orders):
    """Quarter-turn kernel: one cos/sin evaluation; the (a, b) partial of
    plane c*(cos, sin) is that pair turned by a+b quarter turns (swapped
    when a+b is odd), the turn's signs folded into c*w_1^a*w_2^b."""
    theta = np.asarray(p, dtype=float) @ im.wave_vectors.T
    cos, sin = np.cos(theta), np.sin(theta)
    out = {}
    for a, b in orders:
        swap, sign_c, sign_s = _QUARTER_TURNS[(a + b) % 4]
        factor = im.amplitudes * im.wave_vectors[:, 0] ** a * im.wave_vectors[:, 1] ** b
        first, second = (sin, cos) if swap else (cos, sin)
        out[(a, b)] = _assemble(im, (sign_c * factor) * first, (sign_s * factor) * second)
    return out


def partial_table(im, p, max_order=4):
    orders = [(a, b) for a in range(max_order + 1) for b in range(max_order + 1 - a)]
    return partials(im, p, orders)


# ---------------------------------------------------------------------------
# the geometry kernel


def _dot(u, v):
    return np.einsum("...i,...i->...", u, v)


def _sc(s, v):
    """Scalar field times vector field (broadcast over the ambient axis)."""
    return np.asarray(s)[..., None] * v


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


def _tension_jet(table, inv, orders=_JET2):
    """Partials of tau = g^{ab} psi_ab + 2 psi, keyed by (a, b) in `orders`
    (default: all up to order 2).

    Valid because the induced metric of a frequency-table immersion is
    constant in (x, y); g^{ab} g_ab = 2 supplies the psi coefficient exactly.
    """
    i00, i01, i11 = inv
    jet = {}
    for a, b in orders:
        jet[(a, b)] = (
            _sc(i00, table[(a + 2, b)])
            + _sc(2.0 * i01, table[(a + 1, b + 1)])
            + _sc(i11, table[(a, b + 2)])
            + 2.0 * table[(a, b)]
        )
    return jet


def tension_fields(table, inv):
    """(tau, tau2): tension and bitension from order-<=4 partials."""
    psi = table[(0, 0)]
    i00, i01, i11 = inv
    tjet = _tension_jet(table, inv)
    tau = tjet[(0, 0)]
    rough = np.zeros_like(tau)
    pairs = (
        ((1, 0), (1, 0), i00),
        ((1, 0), (0, 1), i01),
        ((0, 1), (1, 0), i01),
        ((0, 1), (0, 1), i11),
    )
    for ea, eb, wt in pairs:
        pa = table[ea]
        tb = tjet[eb]
        tab = tjet[(ea[0] + eb[0], ea[1] + eb[1])]
        cb = _dot(tb, psi)
        # outer ambient derivative of the projected inner derivative, projected
        ue = tab - _sc(_dot(tab, psi) + _dot(tb, pa), psi) - _sc(cb, pa)
        rough = rough + _sc(wt, ue - _sc(_dot(ue, psi), psi))
    px, py = table[(1, 0)], table[(0, 1)]
    tx, ty = _dot(tau, px), _dot(tau, py)
    curv = _sc(i00 * tx + i01 * ty, px) + _sc(i01 * tx + i11 * ty, py)
    return tau, rough + 2.0 * tau - curv


def _bitension_from_table(table):
    return tension_fields(table, _metric(table)[2])[1]


def forms_from_table(table):
    psi = table[(0, 0)]
    px, py = table[(1, 0)], table[(0, 1)]
    g, det, inv = _metric(table)
    inv00, inv01, inv11 = inv

    def normal_part(w):
        w = w - _sc(_dot(w, psi), psi)
        cx = _dot(w, px)
        cy = _dot(w, py)
        return w - _sc(inv00 * cx + inv01 * cy, px) - _sc(inv01 * cx + inv11 * cy, py)

    b_xx = normal_part(table[(2, 0)])
    b_xy = normal_part(table[(1, 1)])
    b_yy = normal_part(table[(0, 2)])
    return g, det, inv, b_xx, b_xy, b_yy


def curvature_from_forms(forms):
    g, det, inv, b_xx, b_xy, b_yy = forms
    inv00, inv01, inv11 = inv
    h_vec = 0.5 * (_sc(inv00, b_xx) + _sc(2.0 * inv01, b_xy) + _sc(inv11, b_yy))
    h_norm = np.sqrt(_dot(h_vec, h_vec))
    gauss = 1.0 + (_dot(b_xx, b_yy) - _dot(b_xy, b_xy)) / det
    h_sq = _dot(h_vec, h_vec)
    r_xx = np.abs(_dot(b_xx, h_vec) - h_sq * g[..., 0, 0])
    r_xy = np.abs(_dot(b_xy, h_vec) - h_sq * g[..., 0, 1])
    r_yy = np.abs(_dot(b_yy, h_vec) - h_sq * g[..., 1, 1])
    residual = np.maximum(np.maximum(r_xx, r_yy), r_xy)
    return CurvatureSummary(
        mean_curvature_norm=h_norm,
        gaussian=gauss,
        pseudo_umbilical_residual=residual,
        h_vector=h_vec,
    )


# ---------------------------------------------------------------------------
# the per-point functions built on them


def tension(im, p):
    table = partial_table(im, p, 2)
    return _tension_jet(table, _metric(table)[2], ((0, 0),))[(0, 0)]


def bitension(im, p):
    return _bitension_from_table(partial_table(im, p, 4))


def fd_bitension_oracle(im, p, step):
    return _bitension_from_table(fd_partial_table(im, p, step, 4))


def fundamental_forms(im, p):
    g, _, _, b_xx, b_xy, b_yy = forms_from_table(partial_table(im, p, 2))
    return FundamentalForms(g=g, b_xx=b_xx, b_xy=b_xy, b_yy=b_yy)


def mean_curvature(im, p):
    return curvature_from_forms(forms_from_table(partial_table(im, p, 2)))
