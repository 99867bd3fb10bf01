"""Reference cylinder-direction search: `periodic_direction_search` as it was
when it dropped a root within 1e-10 of any root kept before it, a quadratic
scan. The library compares each root with the last one kept only, and is
tested against this function, which bisects as the library does: to float
resolution (`bisect_to_resolution`). `bisect_1e12` is the bisection the
search had before, 80 steps or a bracket under 1e-12 in rho, kept as the
reference that the finer one must not lose a direction of
(`periodic_direction_search_1e12`).

The closed forms it calls are copies of `direction_integrality`,
`period_vector`, `rho_tilde_of` and `s_of_rho` as they were before each was
split into its input checks and an unchecked kernel, so that the oracle
does not follow the kernels it checks. They import only the input checks.
"""

import math

import numpy as np

from bihsurf.core import DomainError
from bihsurf.immersion import build
from bihsurf.parameters import _check_closed_rho, _check_h, angle_family_data, spectral_levels
from bihsurf.periodicity import _DIRECTION_GRID, PeriodicDirection, _check_k, _check_rho


def s_of_rho(h: float, rho: float) -> float:
    """First high-frequency weight as a function of the angle rho.

    s = 2h / ((1+h)(1+h + (1-h) cos 2rho)); strictly increasing on [0, pi/2]
    with s(0) = h/(1+h) and s(pi/2) = 1/(1+h).
    """
    _check_h(h)
    _check_closed_rho(rho)
    return 2.0 * h / ((1.0 + h) * (1.0 + h + (1.0 - h) * math.cos(2.0 * rho)))


def rho_tilde_of(h: float, rho: float) -> float:
    """Second frequency angle: -pi/2 at rho=0, 0 at rho=pi/2, otherwise
    arctan(-1/(h tan rho)); always in [-pi/2, 0]."""
    _check_h(h)
    _check_closed_rho(rho)
    if rho <= 0.0 or h * math.tan(rho) == 0.0:  # the product underflows for subnormal rho
        return -math.pi / 2
    if rho >= math.pi / 2:
        return 0.0
    return math.atan(-1.0 / (h * math.tan(rho)))


def direction_integrality(h: float, k0: int, k1: int, rho: float) -> float:
    """The quantity that must be an integer for (k0, k1) to close up at rho."""
    _check_h(h)
    _check_k(k0, k1)
    _check_rho(rho)
    lam1, lam2 = spectral_levels(h)
    ratio = math.sqrt(lam2 / lam1)
    rt = rho_tilde_of(h, rho)
    return (math.sin(rt) / math.sin(rho)) * (k1 - ratio * k0 * math.cos(rho)) + ratio * k0 * math.cos(rt)


def period_vector(h: float, k0: int, k1: int, rho: float) -> tuple[float, float]:
    _check_h(h)
    _check_k(k0, k1)
    _check_rho(rho)
    lam1, lam2 = spectral_levels(h)
    tx = (2.0 * math.pi / math.sin(rho)) * (k1 / math.sqrt(lam2) - k0 * math.cos(rho) / math.sqrt(lam1))
    return (tx, 2.0 * math.pi * k0 / math.sqrt(lam1))


def bisect_to_resolution(f, a, b, ga, k):
    """The root of f = k in [a, b], f(a) - k = ga != 0: bisect until no
    float lies strictly between a and b, or f hits k exactly."""
    mid = 0.5 * (a + b)
    while a < mid < b:
        gm = f(mid) - k
        if gm == 0.0:
            break
        if ga * gm < 0:
            b = mid
        else:
            a, ga = mid, gm
        mid = 0.5 * (a + b)
    return mid


def bisect_1e12(f, a, b, ga, k):
    """The root of f = k in [a, b] by the earlier bisection: at most 80
    steps, stopping once the bracket is under 1e-12."""
    for _ in range(80):
        mid = 0.5 * (a + b)
        gm = f(mid) - k
        if gm == 0.0 or b - a < 1e-12:
            break
        if ga * gm < 0:
            b = mid
        else:
            a, ga = mid, gm
    return 0.5 * (a + b)


def periodic_direction_search_1e12(h, k0, k1, window):
    """`periodic_direction_search` with the earlier 1e-12 bisection."""
    return periodic_direction_search(h, k0, k1, window, bisect=bisect_1e12)


def periodic_direction_search(
    h: float,
    k0: int,
    k1: int,
    window: tuple[float, float],
    bisect=bisect_to_resolution,
) -> list[PeriodicDirection]:
    """All rho in the window where the closing quantity hits an integer.

    Scans a grid, brackets each integer crossing, bisects each (`bisect`),
    and keeps only roots whose period vector returns psi to psi(0) within
    1e-8.
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
            roots.append((bisect(f, a, b, ga, k), k))
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
