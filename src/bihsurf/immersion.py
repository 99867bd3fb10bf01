"""Evaluatable immersions of the plane into round spheres, built from
frequency/weight data. Every coordinate plane carries a circle
c*(cos<w,p>, sin<w,p>), so every partial derivative is that same cos/sin pair
scaled by w_1^a w_2^b and turned by a+b quarter turns: one evaluation of cos
and sin serves every order. This module is the one place that knows that
layout. An immersion's factor rows c*w_1^a*w_2^b (signed by the a+b quarter
turns) are one table of all 15 orders a+b <= 4, computed in one vectorised
pass the first time any order is read and kept for the immersion's life;
every order tuple is a gather of its rows. `eval` keeps its own copy of the
order-(0, 0) row, the amplitudes on both slots, so it never builds the
table. `partial_table` and `partial` read each partial as its factor row
times the trig pair of its parity, (cos, sin) per plane for even a+b and
(sin, cos) for odd, from one evaluation of cos and sin, and return C-ordered
arrays of the caller's point shape.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import DomainError, VerificationReport
from .parameters import (
    MiyataData,
    _check_h,
    _member,
    lift_structure,
    structure_params,
    t_of_s,
    rho_tilde_of,
    unit_circle,
    validate_miyata,
    _min_pm_distance,
)


class ConstructionError(RuntimeError):
    """A frequency-extension search exhausted its schedule."""


@dataclass(frozen=True, eq=False)
class Immersion:
    """Unit-sphere valued map with one frequency per coordinate plane.

    Plane i occupies coordinates (2i, 2i+1); the first m planes are the
    low-frequency (|w| = sqrt(lambda1)) blocks. Immutable; eval/partial are
    pure and accept batched points of shape (..., 2).
    """

    data: MiyataData
    wave_vectors: np.ndarray  # (K, 2)
    amplitudes: np.ndarray  # (K,)
    # values derived from the fields above, computed once: the factor table
    # ("factors"), its order-(0, 0) row on its own ("position") and
    # validate_miyata's report on `data` ("validation")
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def m(self) -> int:
        return self.data.m

    @property
    def num_planes(self) -> int:
        return len(self.amplitudes)

    @property
    def ambient_dim(self) -> int:
        return 2 * self.num_planes

    def _phases(self, p) -> np.ndarray:
        """<w, p> for every wave vector w. The one finiteness check is on
        the phases: it rejects points that are not finite and points so far
        out that a phase leaves the float range, and names the wave vector
        when the points are finite but a wave vector is not."""
        pts, w = _as_points(p), self.wave_vectors.T
        with np.errstate(over="ignore", invalid="ignore"):
            # the @ operator skips np.matmul's argument parsing on eval's path
            theta = pts @ w
        if not np.isfinite(theta).all():
            bad = np.flatnonzero(~np.isfinite(self.wave_vectors).all(axis=1))
            if bad.size and np.isfinite(pts).all():
                raise DomainError(
                    "wave_vectors[%d] = %s is not finite, so its phase <w, p> is not finite"
                    % (bad[0], self.wave_vectors[bad[0]].tolist())
                )
            raise DomainError("points must be finite, with every phase <w, p> finite")
        return theta

    def _pair(self, p) -> np.ndarray:
        """(cos<w, p>, sin<w, p>) on the two slots of each plane, shape
        (..., D): the trig pair of the even orders at the points p."""
        theta = self._phases(p)
        out = np.empty(theta.shape[:-1] + (self.ambient_dim,))
        out[..., 0::2] = np.cos(theta)
        out[..., 1::2] = np.sin(theta)
        return out

    def _factors(self, orders: tuple) -> np.ndarray:
        """Factor rows (len(orders), D) of `orders`: per order (a, b),
        c*w_1^a*w_2^b on both slots of each plane times the slot signs of
        a+b quarter turns, gathered from the one table of `_ORDERS`."""
        table = self._memo.get("factors")
        if table is None:
            # w^k (5, K, 2) from scalar exponents: numpy squares for k = 2,
            # where an array of exponents would call pow
            powers = np.array([self.wave_vectors**k for k in range(5)])
            rows = (self.amplitudes * powers[..., 0])[_ORDER_A] * powers[_ORDER_B, :, 1]
            table = rows[:, :, None] * _ORDER_SIGNS
            table = self._memo["factors"] = table.reshape(len(_ORDERS), -1)
        return table.take(_rows(orders), axis=0)

    def _validation(self) -> VerificationReport:
        """validate_miyata's report on `data`, computed once; `build` keeps
        the one it validated with."""
        report = self._memo.get("validation")
        if report is None:
            report = self._memo["validation"] = validate_miyata(self.data)
        return report

    def eval(self, p) -> np.ndarray:
        """psi(p); |psi| = 1 identically."""
        psi = self._pair(p)
        row = self._memo.get("position")
        if row is None:
            row = self._memo["position"] = np.repeat(self.amplitudes, 2)
        psi *= row
        return psi

    def partial(self, p, ax: tuple[int, int]) -> np.ndarray:
        """Exact partial derivative of order ax = (a, b), a+b <= 4.

        Each derivative in x multiplies a plane by its w_1 and turns its
        (cos, sin) pair a quarter turn (likewise w_2 for y), so the result is
        again a closed trig form, never a difference quotient.
        """
        if not (
            isinstance(ax, tuple)
            and len(ax) == 2
            and all(_is_int(k) and k >= 0 for k in ax)
            and sum(ax) <= 4
        ):
            raise DomainError(
                "ax must be a pair (a, b) of non-negative integers of total "
                "derivative order a + b <= 4, got %r" % (ax,)
            )
        return self._entries(p, (ax,))[ax]

    def partial_table(self, p, max_order: int = 4) -> dict[tuple[int, int], np.ndarray]:
        """All partials up to total order max_order, keyed by (a, b) in
        order of a+b, each of shape (..., D), from one cos/sin evaluation."""
        _check_max_order(max_order)
        return self._entries(p, _ORDERS[: (max_order + 1) * (max_order + 2) // 2])

    def _entries(self, p, orders: tuple) -> dict[tuple[int, int], np.ndarray]:
        """{order: partial} at the points p (..., 2): the factor rows of each
        parity times its trig pair, written into one point-major
        (len(orders), P, D) array, the even orders first, so each entry is
        C-ordered."""
        pair = self._pair(p)
        shape, k = pair.shape[:-1], self.num_planes
        # (P, K, 2), (cos, sin) per plane; its last axis reversed is the odd
        # orders' (sin, cos)
        pair = pair.reshape(-1, k, 2)
        groups = ([], [])
        for o in orders:
            groups[sum(o) % 2].append(o)
        even, odd = map(tuple, groups)
        out = np.empty((len(orders),) + pair.shape)
        parts = ((even, out[: len(even)], pair), (odd, out[len(even):], pair[..., ::-1]))
        for group, rows, trig in parts:
            if group:
                np.multiply(self._factors(group).reshape(-1, 1, k, 2), trig, out=rows)
        by_order = {o: x.reshape(shape + (self.ambient_dim,)) for o, x in zip(even + odd, out)}
        return {o: by_order[o] for o in orders}

    def spectral_split(self, p) -> tuple[np.ndarray, np.ndarray]:
        """(psi_t1, psi_t2): low/high frequency blocks, zero-padded to full
        ambient dimension. psi_t1 + psi_t2 = eval(p)."""
        return _split_blocks(self.eval(p), self.m)


# k quarter turns send (cos, sin) to (cos, sin), (-sin, cos), (-cos, -sin), (sin, -cos),
# i.e. (cos, sin) or (sin, cos) times these slot signs, for k = 0..3
_QUARTER_TURN_SIGNS = np.array(((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)))

# every order (a, b) with a+b <= 4, by a+b, then by descending a: the rows of
# an immersion's factor table and the keys of `partial_table`
_ORDERS = tuple((a, n - a) for n in range(5) for a in range(n, -1, -1))
_ORDER_A, _ORDER_B = np.array(_ORDERS).T
_ORDER_SIGNS = _QUARTER_TURN_SIGNS[(_ORDER_A + _ORDER_B) % 4][:, None, :]


@functools.lru_cache(maxsize=256)
def _rows(orders: tuple) -> np.ndarray:
    """The table rows of `orders` (read-only)."""
    rows = np.array([_ORDERS.index(o) for o in orders], dtype=np.intp)
    rows.flags.writeable = False
    return rows


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_max_order(max_order) -> None:
    """Partial tables go up to total derivative order 4."""
    if not (_is_int(max_order) and 0 <= max_order <= 4):
        raise DomainError("max_order must be an integer in 0..4, got %r" % (max_order,))


def _as_points(p) -> np.ndarray:
    """p as a float array of shape (..., 2); `Immersion._phases` checks that
    the points are finite."""
    try:
        p = np.asarray(p, dtype=float)
    except (TypeError, ValueError):
        raise DomainError("points must be real numbers, got %s" % type(p).__name__) from None
    if p.ndim == 0 or p.shape[-1] != 2:
        raise DomainError("points must have shape (..., 2), got shape %s" % (p.shape,))
    return p


def _split_blocks(full: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero-padded low (first m planes) and high frequency parts of `full`."""
    t1 = np.zeros_like(full)
    t1[..., : 2 * m] = full[..., : 2 * m]
    return t1, full - t1


def build(data: MiyataData, validate: bool = True) -> Immersion:
    """Assemble the frequency table from admissible data.

    For a unit frequency z at level lambda the wave vector is
    sqrt(lambda)*(Im z, Re z); amplitudes are sqrt(weight/2), so the squared
    amplitudes sum to one.
    """
    if validate:
        report = validate_miyata(data)
        if not report.passed:
            failing = ", ".join(c.name for c in report.failures())
            raise ValueError("invalid immersion data (%s)" % failing)
    radii = (math.sqrt(data.lambda1),) * data.m + (math.sqrt(data.lambda2),) * data.mp
    rows, amps = [], []
    for r, z, w in zip(radii, (*data.mu, *data.eta), (*data.r_weights, *data.rp_weights)):
        rows.append((r * z.imag, r * z.real))
        amps.append(math.sqrt(w / 2.0))
    im = Immersion(
        data=data,
        wave_vectors=np.array(rows, dtype=float),
        amplitudes=np.array(amps, dtype=float),
    )
    if validate:
        im._memo["validation"] = report
    return im


def from_structure(h: float, rho: float) -> Immersion:
    """Six-dimensional ambient immersion of the structure family."""
    return build(lift_structure(structure_params(h, rho)))


def symmetric_weights_data(h: float) -> MiyataData:
    """The equal-weight family member: R' = (1/2, 1/2), eta_1 = sqrt(h/(1+h))
    + i sqrt(1/(1+h)), eta_2 its conjugate."""
    _check_h(h)
    e1 = complex(math.sqrt(h / (1.0 + h)), math.sqrt(1.0 / (1.0 + h)))
    return _member(h, (e1, e1.conjugate()), (0.5, 0.5))


def sasahara_data() -> MiyataData:
    """The h = 1/2 doubly periodic example."""
    return symmetric_weights_data(0.5)


_S_SCHEDULE_OFFSETS = [0.0] + [
    sgn / 2.0**k for k in range(3, 24) for sgn in (1.0, -1.0)
]


def _pair_for_weight(h: float, s: float) -> tuple[complex, complex]:
    """Unit pair (e^{i rho}, e^{i rho~}) with weight s, from the t(s) formula."""
    rho = 2.0 * math.atan(t_of_s(h, s))
    return unit_circle(rho), unit_circle(rho_tilde_of(h, rho))


def _schedule(h: float):
    lo = h / (1.0 + h)
    hi = 1.0 / (1.0 + h)
    for off in _S_SCHEDULE_OFFSETS:
        s = 0.5 + off
        if lo < s < hi:
            yield s


def extend_dimension(im: Immersion) -> Immersion:
    """Raise the target dimension keeping the mean curvature.

    A two-eta-block input gains one block (ambient +2): weights become
    (h s, h(1-s), 1-h) with frequencies (i eta_1, i eta_2, i mu_1). Larger
    inputs gain two blocks (ambient +4): existing high weights are halved and
    a fresh pair with weights (s/2, (1-s)/2) is appended. The fresh pair comes
    from the deterministic schedule s in {1/2, 1/2 +- 1/8, ...}, skipping any
    s whose frequencies collide with existing ones.
    """
    data = im.data
    if data.m != 1:
        raise ValueError("dimension extension supports m = 1 data only, got m = %d" % data.m)
    h, mu1 = data.h, data.mu[0]
    scheduled = ((s, *(mu1 * z for z in _pair_for_weight(h, s))) for s in _schedule(h))
    if data.mp == 2:
        # the input's own pair first, then the schedule
        candidates = itertools.chain([(data.rp_weights[0], *data.eta)], scheduled)
        blocks = lambda s, a, b: ((1j * a, 1j * b, 1j * mu1), (h * s, h * (1.0 - s), 1.0 - h))
        what = "triple"
    else:
        halved = tuple(w / 2.0 for w in data.rp_weights)
        candidates = scheduled
        blocks = lambda s, a, b: (data.eta + (a, b), halved + (s / 2.0, (1.0 - s) / 2.0))
        what = "pair"
    for s, a, b in candidates:
        eta, rp_weights = blocks(s, a, b)
        if _min_pm_distance(eta) > 1e-9:
            return build(replace(data, eta=eta, rp_weights=rp_weights))
    raise ConstructionError("no admissible distinct frequency %s found" % what)
