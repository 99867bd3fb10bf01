"""Reference cylinder-direction search: `periodic_direction_search` as it was
when it dropped a root within 1e-10 of any root kept before it, a quadratic
scan. The library compares each root with the last one kept only, and is
tested against this function.
"""

import math

import numpy as np

from bihsurf.core import DomainError
from bihsurf.immersion import build
from bihsurf.parameters import _check_h, angle_family_data, spectral_levels
from bihsurf.periodicity import (
    _DIRECTION_GRID,
    PeriodicDirection,
    direction_integrality,
    period_vector,
)


def periodic_direction_search(
    h: float,
    k0: int,
    k1: int,
    window: tuple[float, float],
) -> list[PeriodicDirection]:
    """All rho in the window where the closing quantity hits an integer.

    Scans a grid, brackets each integer crossing, bisects to 1e-12, and keeps
    only roots whose period vector returns psi to psi(0) within 1e-8.
    """
    _check_h(h)
    try:
        lo, hi = window
    except (TypeError, ValueError):
        raise DomainError("window must be a pair (lo, hi), got %r" % (window,)) from None
    lam1, lam2 = spectral_levels(h)
    ratio = math.sqrt(lam2 / lam1)
    if abs(k1 - ratio * k0) <= 1e-12:
        raise DomainError(
            "degenerate pair: requires |K1 - sqrt(lambda2/lambda1) K0| > 0"
        )
    if not (0.0 < lo < hi < math.pi / 2):
        raise DomainError("window must be contained in (0, pi/2)")

    f = lambda rho: direction_integrality(h, k0, k1, rho)
    xs = np.linspace(lo, hi, _DIRECTION_GRID)
    fs = [f(x) for x in xs]
    roots = []
    for idx in range(_DIRECTION_GRID - 1):
        fa, fb = fs[idx], fs[idx + 1]
        k_lo, k_hi = math.ceil(min(fa, fb)), math.floor(max(fa, fb))
        for k in range(k_lo, k_hi + 1):
            a, b = xs[idx], xs[idx + 1]
            ga, gb = fa - k, fb - k
            if ga == 0.0:
                roots.append((a, k))
                continue
            if ga * gb > 0:
                continue
            for _ in range(80):
                mid = 0.5 * (a + b)
                gm = f(mid) - k
                if gm == 0.0 or b - a < 1e-12:
                    break
                if ga * gm < 0:
                    b = mid
                else:
                    a, ga = mid, gm
            roots.append((0.5 * (a + b), k))
    out = []
    seen = []
    for rho, k in sorted(roots):
        if any(abs(rho - r) < 1e-10 for r in seen):
            continue
        seen.append(rho)
        v = period_vector(h, k0, k1, rho)
        im = build(angle_family_data(h, rho))
        res = float(np.max(np.abs(im.eval(np.array(v)) - im.eval(np.zeros(2)))))
        if res <= 1e-8:
            out.append(PeriodicDirection(rho=rho, k2=k, v=v))
    return out
