"""Reference kernels of an `Immersion`, kept verbatim as they were before
the trig pair came from one tan of the half angle and the factor table from
one preallocated array of powers: `pair` calls np.cos and np.sin over the
library's `_phases`, and `factors` builds the table from a list of scalar
powers and fancy-indexed rows.
"""

import numpy as np

from bihsurf.immersion import _ORDER_A, _ORDER_B, _ORDER_SIGNS, _ORDERS


def pair(im, p, odd: int = 0) -> np.ndarray:
    """The trig pair of the orders of parity `odd` at the points p, shape
    (..., D): (cos<w, p>, sin<w, p>) on the two slots of each plane for
    even orders, (sin, cos) for odd ones."""
    theta = im._phases(p)
    out = np.empty(theta.shape[:-1] + (im.ambient_dim,))
    np.cos(theta, out=out[..., odd::2])
    np.sin(theta, out=out[..., 1 - odd::2])
    return out


def factors(im) -> np.ndarray:
    """The factor table (15, D): per order (a, b) of `_ORDERS`,
    c*w_1^a*w_2^b on both slots of each plane times the slot signs of
    a+b quarter turns."""
    # w^k (5, K, 2) from scalar exponents: numpy squares for k = 2,
    # where an array of exponents would call pow
    powers = np.array([im.wave_vectors**k for k in range(5)])
    rows = (im.amplitudes * powers[..., 0])[_ORDER_A] * powers[_ORDER_B, :, 1]
    table = rows[:, :, None] * _ORDER_SIGNS
    return table.reshape(len(_ORDERS), -1)
