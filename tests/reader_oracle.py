"""Reference readers: `eval` with its order-(0, 0) memo,
`_entries` with its gather of factor rows, and `geometry._read`, as they were
before `Immersion._read` became the one reader, kept verbatim over the
library's `_pair`, factor table and `_symbols`; and the per-point
functions of an `Immersion` read through them. The memo that `eval` kept in
the immersion lives here, keyed by immersion.
"""

import weakref

import numpy as np

from bihsurf.geometry import CurvatureSummary, FundamentalForms, _symbols
from bihsurf.immersion import _ORDERS, Immersion

_POSITION = weakref.WeakKeyDictionary()


def pair(im: Immersion, p) -> np.ndarray:
    """(cos<w, p>, sin<w, p>) on the two slots of each plane, shape
    (..., D): the trig pair of the even orders at the points p. It is the
    library's `Immersion._pair` (tested against np.cos/np.sin in
    tests/trig_oracle.py), so the readers are compared bit for bit, not
    the trig kernel."""
    return im._pair(p)


def factors(im: Immersion, orders: tuple) -> np.ndarray:
    """Factor rows (len(orders), D) of `orders`, gathered from the table."""
    rows = np.array([_ORDERS.index(o) for o in orders], dtype=np.intp)
    return im._factors().take(rows, axis=0)


def eval(im: Immersion, p) -> np.ndarray:
    """psi(p); |psi| = 1 identically."""
    psi = pair(im, p)
    row = _POSITION.get(im)
    if row is None:
        row = _POSITION[im] = np.repeat(im.amplitudes, 2)
    psi *= row
    return psi


def entries(im: Immersion, p, orders: tuple) -> dict[tuple[int, int], np.ndarray]:
    """{order: partial} at the points p (..., 2): the factor rows of each
    parity times its trig pair, written into one point-major
    (len(orders), P, D) array, the even orders first, so each entry is
    C-ordered."""
    trig_pair = pair(im, p)
    shape, k = trig_pair.shape[:-1], im.num_planes
    # (P, K, 2), (cos, sin) per plane; its last axis reversed is the odd
    # orders' (sin, cos)
    trig_pair = trig_pair.reshape(-1, k, 2)
    groups = ([], [])
    for o in orders:
        groups[sum(o) % 2].append(o)
    even, odd = map(tuple, groups)
    out = np.empty((len(orders),) + trig_pair.shape)
    parts = ((even, out[: len(even)], trig_pair), (odd, out[len(even):], trig_pair[..., ::-1]))
    for group, rows, trig in parts:
        if group:
            np.multiply(factors(im, group).reshape(-1, 1, k, 2), trig, out=rows)
    by_order = {o: x.reshape(shape + (im.ambient_dim,)) for o, x in zip(even + odd, out)}
    return {o: by_order[o] for o in orders}


def partial(im: Immersion, p, ax: tuple) -> np.ndarray:
    return entries(im, p, (ax,))[ax]


def partial_table(im: Immersion, p, max_order: int = 4) -> dict[tuple[int, int], np.ndarray]:
    return entries(im, p, _ORDERS[: (max_order + 1) * (max_order + 2) // 2])


def read(im: Immersion, p, symbols) -> list[np.ndarray]:
    """The fields of the even symbols (rows (D,), `_symbols`) at the points
    p (..., 2), one C-ordered (..., D) array each: the symbol's cos slots, on
    both slots of their plane, times (cos <w, p>, sin <w, p>), the read of
    `eval` with another row. The last field is the trig pair itself, scaled
    in place."""
    trig_pair = pair(im, p)
    rows = [np.repeat(row[0::2], 2) for row in symbols]
    fields = [trig_pair * row for row in rows[:-1]]
    trig_pair *= rows[-1]
    return fields + [trig_pair]


def tension(im: Immersion, p) -> np.ndarray:
    return read(im, p, (_symbols(im).tau,))[0]


def bitension(im: Immersion, p) -> np.ndarray:
    return read(im, p, (_symbols(im).tau2,))[0]


def fundamental_forms(im: Immersion, p) -> FundamentalForms:
    s = _symbols(im)
    forms = read(im, p, s.forms)
    return FundamentalForms(np.broadcast_to(s.g, forms[0].shape[:-1] + (2, 2)).copy(), *forms)


def mean_curvature(im: Immersion, p) -> CurvatureSummary:
    s = _symbols(im)
    (h_vec,) = read(im, p, (s.h,))
    shape = h_vec.shape[:-1]
    return CurvatureSummary(*(np.full(shape, x) for x in (s.h_norm, s.gauss, s.umbilic)), h_vec)
