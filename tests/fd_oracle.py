"""Finite-difference oracles and the explicit-table route of the geometry,
kept verbatim as they were in `bihsurf.geometry` while its per-point
functions also took any map with a `partial_table`.

Explicit tables run the library's one kernel, `geometry._point_geometry`, at
each of their points, one point at a time (`_per_point`): the
`partial_table` of any map with `eval` and `partial_table` (`tension`,
`bitension`, `fundamental_forms`, `mean_curvature`), the finite-difference
table of `fd_bitension_oracle` and the metric of `gaussian_brioschi_fd`. A
table that stops short of order 4 is filled with zeros, and only the fields
of its own orders are read. So the formulas are still written once, and a
map with a varying metric, such as a round sphere, checks the terms that are
0 on every `Immersion`.
"""

import sys

import numpy as np

from bihsurf.core import DomainError, _is_real
from bihsurf.geometry import CurvatureSummary, FundamentalForms, _point_geometry
from bihsurf.immersion import _ORDERS, _as_points, _check_max_order


def _per_point(table, *names) -> list[np.ndarray]:
    """The kernel run at each point of an explicit table {(a, b): (..., D)},
    one point at a time, the orders the table lacks read as zeros; for each
    of the `_PointGeometry` fields `names`, one array of the point shape
    followed by the field's own shape, an empty batch included."""
    zero = np.zeros_like(table[(0, 0)])
    t = np.stack([table.get(o, zero) for o in _ORDERS], axis=-2)
    shape, d = t.shape[:-2], t.shape[-1]
    points = [_point_geometry(x) for x in t.reshape((-1,) + t.shape[-2:])]
    tails = {"g": (2, 2), "forms": (3, d), "h_norm": (), "gauss": (), "umbilic": ()}
    return [
        np.array([getattr(x, name) for x in points], dtype=float).reshape(
            shape + tails.get(name, (d,))
        )
        for name in names
    ]


# ---------------------------------------------------------------------------
# the per-point functions of any map, from the kernel at each point of its
# `partial_table`


def tension(im, p) -> np.ndarray:
    return _per_point(im.partial_table(p, 2), "tau")[0]


def bitension(im, p) -> np.ndarray:
    return _per_point(im.partial_table(p, 4), "tau2")[0]


def fundamental_forms(im, p) -> FundamentalForms:
    g, forms = _per_point(im.partial_table(p, 2), "g", "forms")
    return FundamentalForms(g, *np.moveaxis(forms, -2, 0).copy())


def mean_curvature(im, p) -> CurvatureSummary:
    names = ("h_norm", "gauss", "umbilic", "h")
    return CurvatureSummary(*_per_point(im.partial_table(p, 2), *names))


# ---------------------------------------------------------------------------
# finite-difference oracles

_STENCILS = {
    0: {0: 1.0},
    1: {-2: 1 / 12, -1: -8 / 12, 1: 8 / 12, 2: -1 / 12},
    2: {-2: -1 / 12, -1: 16 / 12, 0: -30 / 12, 1: 16 / 12, 2: -1 / 12},
    3: {-3: 1 / 8, -2: -1.0, -1: 13 / 8, 1: -13 / 8, 2: 1.0, 3: -1 / 8},
    4: {-3: -1 / 6, -2: 2.0, -1: -39 / 6, 0: 56 / 6, 1: -39 / 6, 2: 2.0, 3: -1 / 6},
}


# the stencils divide by up to step**4, which must stay a normal double
# (4.5e307 at the upper end)
_MIN_STEP = sys.float_info.min**0.25


def _check_step(step) -> None:
    if not (_is_real(step) and _MIN_STEP <= step <= 1.0 / _MIN_STEP):
        raise DomainError(
            "step must be a finite number in [%.4g, %.4g] (step**4 a normal double), got %r"
            % (_MIN_STEP, 1.0 / _MIN_STEP, step)
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
        raise DomainError("step must lie in [1e-4, 1e-1], got %r" % (step,))
    return _per_point(fd_partial_table(im, p, step, 4), "tau2")[0]


def gaussian_brioschi_fd(im, p, step: float = 1e-3) -> float:
    """Intrinsic Gaussian curvature at one point p of shape (2,) from the
    metric alone (Brioschi formula), with metric derivatives by finite
    differences; oracle for the Gauss-equation route. E, F and G on the
    5 x 5 stencil come from the map's first-order `partial_table` and the
    kernel's metric step at each point.

    On an `Immersion` the metric is the same constant at every point, so
    every difference vanishes and this returns 0.0 up to rounding (below
    1e-9 at step 1e-3, the stencils dividing by step^2); it is an oracle
    only on maps with a varying metric."""
    p = _as_points(p)
    if p.shape != (2,):
        raise DomainError("points must be one point of shape (2,), got shape %s" % (p.shape,))
    _check_step(step)
    offs = np.arange(-2, 3, dtype=float)
    grid = np.stack(np.meshgrid(offs, offs, indexing="ij"), axis=-1)
    (g,) = _per_point(im.partial_table(p + step * grid, 1), "g")
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
