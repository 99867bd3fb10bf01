"""Period lattices of the constructed immersions, cylinder/torus quotient
classification, and the exact rational torus-existence oracles.

All yes/no torus decisions run in exact arithmetic (Fraction, or rationals
cleared to integers); floats appear only in emitted generator vectors.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import MAX_SQUAREFREE, DomainError, _is_int, _is_real, _shown, exact_rational, isqrt_exact
from .core import squarefree_decompose
from .parameters import _check_h, _exact_h, _rho_tilde_of, angle_family_data, spectral_levels, t_of_s
from .immersion import Immersion, build


@dataclass(frozen=True)
class ExactBasis:
    """Generators pi * sqrt(surd) * rows[i]; rows are exact rationals and
    surd is squarefree, so Gram data and dual squares stay rational."""

    rows: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    surd: int

    def float_rows(self) -> tuple[tuple[float, float], tuple[float, float]]:
        scale = math.pi * math.sqrt(self.surd)
        return tuple(tuple(scale * float(c) for c in row) for row in self.rows)

    def gram_over_pi2(self) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
        """Exact Gram matrix in units of pi^2."""
        d = self.surd
        r = self.rows
        def entry(i, j):
            return d * (r[i][0] * r[j][0] + r[i][1] * r[j][1])
        return ((entry(0, 0), entry(0, 1)), (entry(1, 0), entry(1, 1)))

    def lattice(self) -> "Lattice2":
        """The rank-2 lattice these rows generate."""
        return Lattice2(rank=2, gens=self.float_rows(), exact=self)


@dataclass(frozen=True)
class Lattice2:
    """Discrete subgroup of the plane of rank 0, 1 or 2 (reduced basis)."""

    rank: int
    gens: tuple[tuple[float, float], ...]
    exact: Optional[ExactBasis] = None

    def __post_init__(self):
        if self.rank != len(self.gens):
            raise ValueError("rank must equal the number of generators")
        # exact rows are tested exactly: a skewed basis can look dependent in
        # floats. a d = b c is cross-multiplied over the rows' integer parts.
        if self.rank == 2 and self.exact is not None:
            (a, b), (c, d) = self.exact.rows
            if (a.numerator * d.numerator * b.denominator * c.denominator
                    == b.numerator * c.numerator * a.denominator * d.denominator):
                raise ValueError("lattice generators are linearly dependent")
        elif self.rank == 2 and not _independent(*self.gens):
            raise ValueError("rank-2 generators are linearly dependent")

    def points(self, coeff_bound: int) -> np.ndarray:
        """All integer combinations with coefficients in [-bound, bound]."""
        if self.rank == 0:
            return np.zeros((1, 2))
        rng = range(-coeff_bound, coeff_bound + 1)
        if self.rank == 1:
            g = np.array(self.gens[0])
            return np.array([k * g for k in rng])
        g1, g2 = np.array(self.gens[0]), np.array(self.gens[1])
        return np.array([a * g1 + b * g2 for a in rng for b in rng])


def _independent(u, v) -> bool:
    """The float rank-2 test: |u x v| above 1e-12 |u| |v| (false for NaN)."""
    return abs(u[0] * v[1] - u[1] * v[0]) > 1e-12 * math.hypot(*u) * math.hypot(*v)


def lagrange_gauss(u, v):
    """Reduced basis of the lattice spanned by u, v (shortest vector first)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    while True:
        if u @ u > v @ v:
            u, v = v, u
        mu = round((u @ v) / (u @ u))
        w = v - mu * u
        if w @ w >= u @ u:
            return u, w
        v = w


def _canonical_sign(v):
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        return -v
    return v


def _plain(v) -> tuple[float, float]:
    return (float(v[0]) + 0.0, float(v[1]) + 0.0)


def _reduced_pair(u, v):
    u, v = lagrange_gauss(u, v)
    u, v = _canonical_sign(u), _canonical_sign(v)
    if (u @ u, u[0], u[1]) > (v @ v, v[0], v[1]):
        u, v = v, u
    return _plain(u), _plain(v)


# how far from an integer matrix a change of basis may be in `same_lattice`
_SAME_LATTICE_TOL = 1e-9


def same_lattice(gens_a, gens_b) -> bool:
    """Do two rank-2 bases generate the same subgroup (unimodular change)?"""
    a = np.asarray(gens_a, dtype=float)
    b = np.asarray(gens_b, dtype=float)
    try:
        c = b @ np.linalg.inv(a)
        d = a @ np.linalg.inv(b)
    except np.linalg.LinAlgError:
        return False
    for m in (c, d):
        if np.max(np.abs(m - np.round(m))) > _SAME_LATTICE_TOL:
            return False
    return abs(abs(np.linalg.det(c)) - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# period lattice of an immersion


# (ki, kj) pairs `period_lattice` screens per numpy pass: bounds its memory
_SCREEN_CHUNK = 16384
# Most (ki, kj) pairs `period_lattice` screens in one call: about 20 s on a
# 2-core VM, where the 7.6e6 pairs of search_bound 5000 took 1.7 s. It also
# caps the (p, q) box of `torus_exists` at search_bound 10^4.
_MAX_GRID_PAIRS = 10**8


def period_lattice(im: Immersion, search_bound: float) -> Lattice2:
    """Solve <w_i, z> = 0 (mod 2 pi) for every frequency wave vector.

    Enumerates integer right-hand sides (ki, kj) for the two best-conditioned
    congruences and keeps the z = M (ki, kj) in the disk |z| <= search_bound
    whose remaining phases are integers. The grid is screened with numpy in
    chunks of ki rows, about 16384 pairs each, and the screen decides: its
    disk and phase tests are the only ones a pair meets, with no slack and
    no per-candidate re-test. It stacks the matrix-vector and dot products
    of a pair-by-pair scan, so each z and each test is that scan's, bit for
    bit. Memory follows the chunk, not the grid (1.0 MB traced peak at
    search_bound 1500, where the grid has 690k pairs). search_bound
    truncates the reported window (a grid over _MAX_GRID_PAIRS is refused).

    The candidates of all chunks form one (n, 2) array, and one `eval` of
    the stacked points [origin; candidates] certifies them all
    (|psi(z) - psi(0)| <= 1e-9). The tail reduces the certified periods as
    arrays (`_lattice_of_periods`): one sort, one pick off the first
    period's line, and one product each for the rank-1 and rank-2
    membership tests; the basis is Lagrange-Gauss reduced.

    A period whose float length equals search_bound can be dropped, because
    the disk test's z @ z rounds above search_bound**2: the case-ii member
    (1, 1, 1, 4) at 4.511768952112552, the float length of its shortest
    generator, gives rank 0, as the loop oracle does. An exact period
    lattice would decide membership without this rounding.
    """
    try:
        valid = _is_real(search_bound) and math.isfinite(search_bound) and search_bound > 0
    except OverflowError:  # an int too large for a float
        valid = False
    if not valid:
        raise DomainError(
            "search_bound must be a positive finite number, got %r" % (search_bound,)
        )
    if im.m != 1 or abs(im.data.mu[0] - 1.0) > 1e-12:
        raise ValueError("period_lattice requires canonical data (m = 1, mu_1 = 1)")
    v_rows = im.wave_vectors / (2.0 * math.pi)
    rows = v_rows.tolist()
    best, pair = -1.0, None
    for i, (xi, yi) in enumerate(rows):
        for j in range(i + 1, len(rows)):
            d = abs(xi * rows[j][1] - yi * rows[j][0])
            if d > best:
                best, pair = d, (i, j)
    if best <= 1e-12:
        raise ValueError("frequency wave vectors do not span the plane")
    i, j = pair
    best_rows = v_rows[[i, j]]
    m2 = np.linalg.inv(best_rows)
    others = [l for l in range(len(rows)) if l not in (i, j)]

    # |v_i| and |v_j| from the stacked dot product, which is the 1-D x @ x
    # that np.linalg.norm takes the square root of, bit for bit
    norms2 = (best_rows[:, None, :] @ best_rows[:, :, None]).ravel().tolist()
    widths = [math.sqrt(n2) * search_bound for n2 in norms2]
    pairs = (2.0 * widths[0] + 3.0) * (2.0 * widths[1] + 3.0)  # grid size, bar ceil
    if pairs > _MAX_GRID_PAIRS:
        raise DomainError(
            "search_bound must be a positive finite number whose (ki, kj) grid has at most "
            "%d pairs; the grid for %r has %.3g" % (_MAX_GRID_PAIRS, search_bound, pairs)
        )
    ki_max, kj_max = (int(math.ceil(w)) + 1 for w in widths)
    kj_all = np.arange(-kj_max, kj_max + 1, dtype=float)
    step = max(1, _SCREEN_CHUNK // len(kj_all))
    v_others = v_rows[others]
    cands = np.concatenate([
        _screen(m2, v_others, np.arange(first, min(first + step, ki_max + 1), dtype=float),
                kj_all, search_bound)
        for first in range(-ki_max, ki_max + 1, step)
    ])
    # one eval certifies every candidate: row 0 is the origin
    psi = im.eval(np.concatenate((np.zeros((1, 2)), cands)))
    off = np.max(np.abs(psi[1:] - psi[0]), axis=-1)
    return _lattice_of_periods(cands[off <= 1e-9])


def _screen(m2, v_others, ki, kj, search_bound):
    """The z = M (ki, kj) of the grid ki x kj but the origin, in row-major
    order, in the disk |z| <= search_bound and with every remaining phase an
    integer to 1e-10 relative: the one test of each pair, with no slack and
    no re-test. Each product stacks the ones `m2 @ (ki, kj)`, `z @ z` and
    `v @ z` run on one pair, so z and the tests are a pair-by-pair scan's,
    bit for bit; a batched `k @ m2.T` or `(z * z).sum(-1)` rounds otherwise
    (fused multiply-adds) and moves pairs across the disk's edge."""
    k = np.stack(np.broadcast_arrays(ki[:, None], kj[None, :]), axis=-1)
    z = (m2 @ k[..., None])[..., 0]
    inside = (z[..., None, :] @ z[..., None])[..., 0, 0] <= search_bound**2
    z = z[inside & k.any(axis=-1)]
    phase = (v_others[:, None, :] @ z[:, None, :, None])[..., 0, 0]
    keep = np.all(np.abs(phase - np.rint(phase)) <= 1e-10 * np.maximum(1.0, np.abs(phase)), axis=-1)
    return z[keep]


def _lattice_of_periods(sols: np.ndarray) -> Lattice2:
    """Reduced lattice generated by the certified periods `sols` (n, 2):
    the shortest period, then the shortest one off its line, Lagrange-Gauss
    reduced; every period must lie in the lattice they span.

    Ties fall as in a per-period loop with tuple sorts: |z|^2 is the stacked
    dot product `_screen` uses (the 1-D z @ z, bit for bit); a stable
    `np.lexsort` by (|z|^2, z0, z1) is the tuple sort's order, so the first
    least area d in it is the pick by (d, |z|^2, z0, z1). The integer and
    containment tests are one product each, read only through their 1e-6
    thresholds."""
    if len(sols) == 0:
        return Lattice2(rank=0, gens=())
    norms2 = (sols[:, None, :] @ sols[:, :, None])[:, 0, 0]
    order = np.lexsort((sols[:, 1], sols[:, 0], norms2))
    sols, norms2 = sols[order], norms2[order]
    v1, n1 = sols[0], norms2[0]
    area = np.abs(v1[0] * sols[:, 1] - v1[1] * sols[:, 0])
    off_line = area > 1e-9 * np.sqrt(n1 * norms2)
    if not off_line.any():
        k = (sols @ v1) / n1
        if np.max(np.abs(k - np.rint(k))) > 1e-6:
            raise RuntimeError("period set is not generated by its shortest vector")
        return Lattice2(rank=1, gens=(_plain(_canonical_sign(v1)),))
    v2 = sols[off_line][np.argmin(area[off_line])]
    u, w = _reduced_pair(v1, v2)
    c = sols @ np.linalg.inv(np.array([u, w]))
    if np.max(np.abs(c - np.rint(c))) > 1e-6:
        raise RuntimeError("period basis does not generate all found periods")
    return Lattice2(rank=2, gens=(u, w))


# ---------------------------------------------------------------------------
# periodic directions at fixed integer pair (K0, K1)


@dataclass(frozen=True)
class PeriodicDirection:
    rho: float
    k2: int
    v: tuple[float, float]


def _check_rho(rho) -> None:
    if not (_is_real(rho) and 0.0 < rho <= math.pi / 2):
        raise DomainError("rho must lie in (0, pi/2], got %r" % (rho,))


# largest |k0| and |k1|: the largest double, as an int (float(k) overflows
# past it; an int bound compares faster than the float)
_K_MAX = int(sys.float_info.max)


def _check_k(k0, k1) -> None:
    for name, k in (("k0", k0), ("k1", k1)):
        if not (_is_int(k) and -_K_MAX <= k <= _K_MAX):
            raise DomainError(
                "%s must be an integer of at most %.4g in magnitude (a double), got %s"
                % (name, _K_MAX, _shown(k))
            )


def direction_integrality(h: float, k0: int, k1: int, rho: float) -> float:
    """The quantity that must be an integer for (k0, k1) to close up at rho.
    Checks its input once; loops call the unchecked `_direction_integrality`."""
    _check_h(h)
    _check_k(k0, k1)
    _check_rho(rho)
    return _direction_integrality(h, k0, k1, rho)


def _direction_integrality(h: float, k0: int, k1: int, rho: float) -> float:
    lam1, lam2 = spectral_levels(h)
    ratio = math.sqrt(lam2 / lam1)
    rt = _rho_tilde_of(h, rho)
    return (math.sin(rt) / math.sin(rho)) * (k1 - ratio * k0 * math.cos(rho)) + ratio * k0 * math.cos(rt)


def closing_ratios(h: float, s: float) -> tuple[float, float]:
    """Coefficients (A, B) with A k0 + B k1 = the closing quantity.

    Closed forms in the weight s: A = sqrt(h / ((1-s)(s-(1-s)h))) > 0 and
    B = -sqrt(s(1-s-hs) / ((1-s)(s-(1-s)h))) < 0. Double periodicity needs
    both rational, i.e. 1/A^2 and B^2/A^2 rational squares.
    """
    _check_h(h)
    lo, hi = h / (1.0 + h), 1.0 / (1.0 + h)
    if not (_is_real(s) and lo < s < hi):
        raise DomainError("s must lie strictly inside (h/(1+h), 1/(1+h))")
    den = (1.0 - s) * (s - (1.0 - s) * h)
    return math.sqrt(h / den), -math.sqrt(s * (1.0 - s - h * s) / den)


def period_vector(h: float, k0: int, k1: int, rho: float) -> tuple[float, float]:
    """The period vector of (k0, k1) at rho. Checks its input once; loops
    call the unchecked `_period_vector`."""
    _check_h(h)
    _check_k(k0, k1)
    _check_rho(rho)
    return _period_vector(h, k0, k1, rho)


def _period_vector(h: float, k0: int, k1: int, rho: float) -> tuple[float, float]:
    lam1, lam2 = spectral_levels(h)
    tx = (2.0 * math.pi / math.sin(rho)) * (k1 / math.sqrt(lam2) - k0 * math.cos(rho) / math.sqrt(lam1))
    return (tx, 2.0 * math.pi * k0 / math.sqrt(lam1))


# angles `periodic_direction_search` scans before bracketing its roots
_DIRECTION_GRID = 4096
# Most integer crossings `periodic_direction_search` bisects in one call:
# about 20 s on a 2-core VM, where a crossing (its bisection, and its root's
# check) took 106-123 us, e.g. 7.1 s for the 66 988 of (0.5, 1, 2, (4e-6, 1)).
_MAX_CROSSINGS = 160_000


def periodic_direction_search(
    h: float,
    k0: int,
    k1: int,
    window: tuple[float, float],
) -> list[PeriodicDirection]:
    """All rho in the window where the closing quantity hits an integer.

    Scans a grid, brackets each integer crossing, bisects to 1e-12, and keeps
    only roots whose period vector returns psi to psi(0) within 1e-8. Checks
    its input once: the grid, the bisection and the period vectors call the
    unchecked kernels. A window whose grid gives a non-finite closing
    quantity, or over _MAX_CROSSINGS integer crossings, is refused before
    any bisection.
    """
    _check_h(h)
    _check_k(k0, k1)
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
    if not (_is_real(lo) and _is_real(hi) and 0.0 < lo < hi < math.pi / 2):
        raise DomainError("window must be contained in (0, pi/2)")

    f = lambda rho: _direction_integrality(h, k0, k1, rho)
    xs = np.linspace(lo, hi, _DIRECTION_GRID)
    fs = [f(x) for x in xs]
    finite = all(map(math.isfinite, fs))
    pairs = zip(fs, fs[1:]) if finite else ()
    spans = [(math.ceil(min(fa, fb)), math.floor(max(fa, fb))) for fa, fb in pairs]
    if not finite or sum(k_hi - k_lo + 1 for k_lo, k_hi in spans) > _MAX_CROSSINGS:
        raise DomainError(
            "window must keep the closing quantity finite, with at most %d integer crossings "
            "on its %d-point grid; %r does not" % (_MAX_CROSSINGS, _DIRECTION_GRID, window)
        )
    roots = []
    for idx, (k_lo, k_hi) in enumerate(spans):
        fa = fs[idx]
        for k in range(k_lo, k_hi + 1):
            # k lies between fa and fb: fa - k and fb - k never share a sign
            a, b = xs[idx], xs[idx + 1]
            ga = fa - k
            if ga == 0.0:
                roots.append((a, k))
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
    last = -math.inf  # the roots come sorted, so the nearest kept root is the last
    for rho, k in sorted(roots):
        if rho - last < 1e-10:
            continue
        last = rho
        v = _period_vector(h, k0, k1, rho)
        im = build(angle_family_data(h, rho))
        res = float(np.max(np.abs(im.eval(np.array(v)) - im.eval(np.zeros(2)))))
        if res <= 1e-8:
            out.append(PeriodicDirection(rho=float(rho), k2=k, v=v))
    return out


# ---------------------------------------------------------------------------
# torus constructions (exact)


def _torus_squares(p: int, q: int, r: int, t: int) -> tuple[int, int, int]:
    """(A, B, D) = (p^2 t^2, r^2 q^2, q^2 t^2), so that a = A/D and b = B/D."""
    qt = q * t
    return (p * t) ** 2, (r * q) ** 2, qt * qt


@dataclass(frozen=True)
class TorusParams:
    """Exact torus data derived from positive integers p, q, r, t: the
    squares (a, b) = (p^2/q^2, r^2/t^2), the mean curvature
    h = (1-(a-b)^2)/(1+(a-b)^2+2(a+b)) and the weight s = (1+a-b)/2.

    Each is one Fraction of integers: with (A, B, D) = (p^2 t^2, r^2 q^2,
    q^2 t^2), a = A/D and b = B/D, so (a-b)^2 < 1 is (A-B)^2 < D^2,
    h = (D^2 - (A-B)^2) / (D^2 + (A-B)^2 + 2D(A+B)) and
    s = (D + A - B) / (2D).
    """

    p: int
    q: int
    r: int
    t: int
    a: Fraction = field(init=False)
    b: Fraction = field(init=False)
    h: Fraction = field(init=False)
    s: Fraction = field(init=False)

    def __post_init__(self):
        for name in ("p", "q", "r", "t"):
            v = getattr(self, name)
            if not _is_int(v) or v < 1:
                raise DomainError("%s must be a positive integer, got %r" % (name, v))
            object.__setattr__(self, name, int(v))
        a = Fraction(self.p * self.p, self.q * self.q)
        b = Fraction(self.r * self.r, self.t * self.t)
        big_a, big_b, big_d = _torus_squares(self.p, self.q, self.r, self.t)
        x, dd = (big_a - big_b) ** 2, big_d * big_d
        if x >= dd:
            raise DomainError("(a-b)^2 must be < 1, got a=%s b=%s" % (a, b))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "h", Fraction(dd - x, dd + x + 2 * big_d * (big_a + big_b)))
        object.__setattr__(self, "s", Fraction(big_d + big_a - big_b, 2 * big_d))


@dataclass(frozen=True)
class CaseIResult:
    h: Fraction
    q: Fraction
    lattice: Lattice2


@dataclass(frozen=True)
class CaseIIResult:
    params: TorusParams
    v1: tuple[float, float]
    v2: tuple[float, float]
    rho: float
    lattice_condition: str
    sublattice: tuple[tuple[float, float], tuple[float, float]]
    lattice: Lattice2

    def member_condition(self, k0: int, k1: int) -> bool:
        """Is k1*v1 + k0*v2 a period? Exact integer congruence."""
        _check_k(k0, k1)
        p, q, r, t = self.params.p, self.params.q, self.params.r, self.params.t
        return (k0 * q * t - k1 * q * r) % (p * t) == 0


def torus_case_i(q) -> CaseIResult:
    """Mean curvature h = (q^2-1)/(q^2+1) for rational q > 1, with the exact
    rank-2 period lattice of the rho = 0 member.

    With q = num/den in lowest terms, h = (num^2 - den^2)/(num^2 + den^2)
    and the generators are pi sqrt(d) (s/num, 0) and pi sqrt(d) (0, s) for
    num^2 + den^2 = s^2 d, d squarefree: one Fraction for h and one per
    row entry, built into a lattice by `ExactBasis.lattice`. num^2 + den^2
    over MAX_SQUAREFREE is refused.
    """
    q = exact_rational(q, "q")
    num, den = q.numerator, q.denominator
    if num <= den:
        raise DomainError("q must be a rational strictly greater than 1")
    n2, d2 = num * num, den * den
    big = n2 + d2
    if big > MAX_SQUAREFREE:
        raise DomainError(
            "q must have numerator^2 + denominator^2 at most %d (trial division), got %s"
            % (MAX_SQUAREFREE, q)
        )
    s, d = squarefree_decompose(big)
    # v1 = (2 pi / sqrt(lambda2), 0), y-generator den * (0, 2 pi / sqrt(lambda1))
    rows = ((Fraction(s, num), Fraction(0)), (Fraction(0), Fraction(s)))
    return CaseIResult(h=Fraction(n2 - d2, big), q=q, lattice=ExactBasis(rows, d).lattice())


def _kernel_basis(alpha: int, beta: int, mod: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Basis of {(m, n) : alpha m + beta n = 0 (mod mod)}."""
    d = math.gcd(alpha, mod)
    n1 = d // math.gcd(beta, d)
    rhs = (-beta * n1) % mod
    # both sides divisible by d; invert alpha/d modulo mod/d
    a_red, m_red, r_red = alpha // d, mod // d, rhs // d
    if m_red == 1:
        m1 = 0
    else:
        m1 = (pow(a_red, -1, m_red) * r_red) % m_red
    return (mod // d, 0), (m1, n1)


# largest p, q, r or t of `torus_case_ii`, whose floats it bounds
_MAX_TORUS_INT = 10**50


def _shown_pqrt(p: int, q: int, r: int, t: int) -> str:
    return "(p, q, r, t) = (%s)" % ", ".join(_shown(v) for v in (p, q, r, t))


def torus_case_ii(p: int, q: int, r: int, t: int) -> CaseIIResult:
    """Torus member for a = p^2/q^2, b = r^2/t^2 with exact h and the closed
    generator vectors; the full period lattice follows from the integer
    congruence m q/p - n q r/(p t) in Z.

    With e = (a-b)^2 + a + b and f = e + a + b + 1, the generators are
    v1 = (pi sqrt(e/a), 0) and v2 = (-pi sqrt(b/a) (1-(a-b)) / sqrt(e),
    pi sqrt(f/e)). Each radicand is a quotient of integers in the
    (A, B, D) of `TorusParams`, e/a = ((A-B)^2 + D(A+B)) / (D A) say, taken
    to a float by int / int, which rounds as float(Fraction) does.

    p, q, r and t are at most _MAX_TORUS_INT = 10**50: every entry of v1 and
    v2 is then at most 2 pi 10**50, every entry of the congruence's kernel
    basis in (v2, v1) at most 4 pi 10**150, and every squared length (in the
    Lagrange-Gauss reduction too) below 10**304, so all of them are doubles.
    Within that bound two inputs are still refused by p, q, r and t: an h
    whose double is 1 (rho needs h < 1), and a float kernel basis that fails
    the rank-2 test of `Lattice2`, which the float reduction cannot reduce.
    """
    params = TorusParams(p, q, r, t)
    p, q, r, t = params.p, params.q, params.r, params.t
    for name, v in zip("pqrt", (p, q, r, t)):
        if v > _MAX_TORUS_INT:
            raise DomainError(
                "%s must be a positive integer of at most 10**50 (the torus generators and "
                "their squared lengths stay doubles), got %s" % (name, _shown(v))
            )
    big_a, big_b, big_d = _torus_squares(p, q, r, t)
    diff, total = big_a - big_b, big_a + big_b
    e_num = diff * diff + big_d * total  # e = e_num / D^2
    v1 = (math.pi * math.sqrt(e_num / (big_d * big_a)), 0.0)
    v2 = (
        -math.pi * math.sqrt(big_b / big_a) * ((big_d - diff) / big_d)
        / math.sqrt(e_num / (big_d * big_d)),
        math.pi * math.sqrt((e_num + big_d * (total + big_d)) / e_num),
    )
    h = float(params.h)
    if h == 1.0:  # h > 1/(2(D + A + B)) > 1e-201 does not round to 0
        raise DomainError(
            "p, q, r and t must give a mean curvature h that is a double below 1; "
            "%s gives 1 - h = %.3g" % (_shown_pqrt(p, q, r, t), float(1 - params.h))
        )
    rho = 2.0 * math.atan(t_of_s(h, float(params.s)))
    cond = "m*%d/%d - n*%d/%d in Z" % (q, p, q * r, p * t)
    sub = (
        (p * v2[0], p * v2[1]),
        (p * t * v1[0], p * t * v1[1]),
    )
    (m_a, n_a), (m_b, n_b) = _kernel_basis(q * t, -q * r, p * t)
    w1 = np.array([m_a * v2[0] + n_a * v1[0], m_a * v2[1] + n_a * v1[1]])
    w2 = np.array([m_b * v2[0] + n_b * v1[0], m_b * v2[1] + n_b * v1[1]])
    # past the rank-2 test the float basis has lost the lattice (w1 = w2 to
    # the last bit at (5e49, 1e50 - 2, 1e25, 1e50 - 2))
    if not _independent(w1, w2):
        raise DomainError(
            "p, q, r and t must give a kernel basis of the period congruence that stays "
            "independent in doubles; for %s it cancels" % _shown_pqrt(p, q, r, t)
        )
    g1, g2 = _reduced_pair(w1, w2)
    return CaseIIResult(
        params=params,
        v1=v1,
        v2=v2,
        rho=rho,
        lattice_condition=cond,
        sublattice=sub,
        lattice=Lattice2(rank=2, gens=(g1, g2)),
    )


@dataclass(frozen=True)
class TorusVerdict:
    """Outcome of the torus-existence decision for a rational h.

    kind is "case_i", "case_ii" or "not_found"; not_found means no witness
    within the search bound, never proven nonexistence.
    """

    h: Fraction
    kind: str
    q: Optional[Fraction] = None
    pqrt: Optional[tuple[int, int, int, int]] = None
    case_i: Optional[CaseIResult] = None
    case_ii: Optional[CaseIIResult] = None

    @property
    def generators(self) -> tuple[tuple[float, float], ...]:
        if self.kind == "case_i":
            return self.case_i.lattice.gens
        if self.kind == "case_ii":
            return self.case_ii.lattice.gens
        return ()

    def to_dict(self) -> dict:
        out = {"h": "%d/%d" % (self.h.numerator, self.h.denominator), "verdict": self.kind}
        if self.kind == "case_i":
            out["witness"] = {"q": "%d/%d" % (self.q.numerator, self.q.denominator)}
        elif self.kind == "case_ii":
            out["witness"] = {"p": self.pqrt[0], "q": self.pqrt[1], "r": self.pqrt[2], "t": self.pqrt[3]}
            out["witness"]["condition"] = self.case_ii.lattice_condition
        else:
            out["witness"] = None
        out["generators"] = [list(g) for g in self.generators]
        return out


def torus_exists(h, search_bound: int = 20) -> TorusVerdict:
    """Decide torus existence at exact rational mean curvature h.

    Case i is decided on integers: with h = n/m in lowest terms,
    (1+h)/(1-h) = (m+n)/(m-n), and after dividing both by their gcd g (1 or
    2) it is a rational square exactly when both are perfect squares: one
    gcd and two `isqrt`s. Then q = sqrt((m+n)/g) / sqrt((m-n)/g) in lowest
    terms. Its lattice needs the squarefree part of 2m/g = num^2 + den^2,
    so an h whose 2m/g exceeds MAX_SQUAREFREE is refused.

    Case ii solves for (r, t) at each p, q <= search_bound: with a = p^2/q^2
    and d = a - b, h fixes (1+h) d^2 - 2h d + (4ha + h - 1) = 0, whose
    discriminant 1 - 4h(1+h)a must be a rational square; a root gives a
    witness when b = a - d is r^2/t^2 with r, t <= search_bound in lowest
    terms. |d| < 1 holds for both roots. The lexicographically smallest
    witness (p, q, r, t) wins.

    The scan is O(search_bound^2) integer square tests. With h = n/m in
    lowest terms and K = 4n(n+m), the discriminant is X/(mq)^2 with
    X = (mq)^2 - K p^2; its denominator is a square, so it is a rational
    square exactly when X is a perfect square S^2. The roots give
    b = Y/Z with Y = (m+n)p^2 - nq^2 -+ qS and Z = (m+n)q^2, a witness when
    Y > 0 and Y/g, Z/g are the squares r^2, t^2 for g = gcd(Y, Z). No
    float enters the decision. search_bound is capped at
    sqrt(_MAX_GRID_PAIRS).
    """
    h = _exact_h(h)
    if not _is_int(search_bound) or search_bound < 1 or search_bound > math.isqrt(_MAX_GRID_PAIRS):
        raise DomainError(
            "search_bound must be a positive integer whose (p, q) grid has at most %d pairs, "
            "got %r" % (_MAX_GRID_PAIRS, search_bound)
        )
    n, m = h.numerator, h.denominator
    g = math.gcd(m + n, m - n)
    top, bot = isqrt_exact((m + n) // g), isqrt_exact((m - n) // g)
    if top is not None and bot is not None:
        if 2 * m // g > MAX_SQUAREFREE:
            raise DomainError(
                "h must be a rational whose case-i lattice factors an integer of at most %d "
                "(trial division), got %s" % (MAX_SQUAREFREE, h)
            )
        root = Fraction(top, bot)
        return TorusVerdict(h=h, kind="case_i", q=root, case_i=torus_case_i(root))
    k = 4 * n * (n + m)
    for p in range(1, search_bound + 1):
        kp2 = k * p * p
        for q in range(1, search_bound + 1):
            s = isqrt_exact((m * q) ** 2 - kp2)
            if s is None:
                continue
            z = (m + n) * q * q
            y0 = (m + n) * p * p - n * q * q
            witnesses = []
            for y in (y0 - q * s, y0 + q * s):
                if y <= 0:
                    continue
                # in lowest terms, (r, t) is the smallest pair with b = r^2/t^2
                g = math.gcd(y, z)
                r, t = isqrt_exact(y // g), isqrt_exact(z // g)
                if r is not None and t is not None and max(r, t) <= search_bound:
                    witnesses.append((r, t))
            if witnesses:
                r, t = min(witnesses)
                case_ii = torus_case_ii(p, q, r, t)
                return TorusVerdict(h=h, kind="case_ii", pqrt=(p, q, r, t), case_ii=case_ii)
    return TorusVerdict(h=h, kind="not_found")
