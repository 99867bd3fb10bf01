"""Evaluatable immersions of the plane into round spheres, built from
frequency/weight data. Every coordinate plane carries a circle
c*(cos<w,p>, sin<w,p>), so every partial derivative is that same cos/sin pair
scaled by w_1^a w_2^b and turned by a+b quarter turns: one evaluation of cos
and sin serves the whole derivative table. The table is one array with a row
per derivative order, filled by one multiply for the even orders and one for
the odd orders; its entries are views into that array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import DomainError
from .parameters import (
    MiyataData,
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
    # memo of `_factors`, derived from the fields above
    _factor_memo: dict = field(default_factory=dict, init=False, repr=False)

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
        return _as_points(p) @ self.wave_vectors.T

    def _assemble(self, cos_part, sin_part) -> np.ndarray:
        out = np.empty(cos_part.shape[:-1] + (self.ambient_dim,))
        out[..., 0::2] = cos_part
        out[..., 1::2] = sin_part
        return out

    def _factors(self, orders: tuple, ndim: int) -> np.ndarray:
        """Factor rows of `orders`, shaped (len(orders), 1, ..., 1, D) to
        broadcast against (..., D) with ndim axes: per order (a, b),
        c*w_1^a*w_2^b on both slots of each plane times the slot signs of
        a+b quarter turns. Computed once per (orders, ndim)."""
        key = (orders, ndim)
        if key not in self._factor_memo:
            w1, w2 = self.wave_vectors[:, 0], self.wave_vectors[:, 1]
            rows = np.array([
                (self.amplitudes * w1**a * w2**b)[:, None] * _QUARTER_TURN_SIGNS[(a + b) % 4]
                for a, b in orders
            ])
            self._factor_memo[key] = rows.reshape((len(orders),) + (1,) * (ndim - 1) + (-1,))
        return self._factor_memo[key]

    def eval(self, p) -> np.ndarray:
        """psi(p); |psi| = 1 identically."""
        return self._partials(p, ((0, 0),), ())[(0, 0)]

    def _partials(self, p, even: tuple, odd: tuple) -> dict[tuple[int, int], np.ndarray]:
        """Quarter-turn kernel: one cos/sin evaluation for every order. The
        (a, b) partial of plane c*(cos, sin) is that pair turned by a+b
        quarter turns: (cos, sin) up to signs when a+b is even, the swapped
        pair (sin, cos) up to signs when it is odd. Each pair is built once
        and the signs go into the order's factor row, so the even orders are
        one multiply into a single (n_orders, ..., D) array and the odd
        orders another; the entries are views into that array. `even` and
        `odd` list the orders (a, b) with a+b even and odd."""
        theta = self._phases(p)
        cos, sin = np.cos(theta), np.sin(theta)
        out = np.empty((len(even) + len(odd),) + theta.shape[:-1] + (self.ambient_dim,))
        groups = ((even, (cos, sin), out[: len(even)]), (odd, (sin, cos), out[len(even) :]))
        for group, pair, rows in groups:
            if group:
                np.multiply(self._factors(group, theta.ndim), self._assemble(*pair), out=rows)
        return dict(zip(even + odd, out))

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
        even, odd = ((ax,), ()) if sum(ax) % 2 == 0 else ((), (ax,))
        return self._partials(p, even, odd)[ax]

    def partial_table(self, p, max_order: int = 4) -> dict[tuple[int, int], np.ndarray]:
        """All partials up to total order max_order, keyed by (a, b); the
        entries are views into one array filled from one cos/sin evaluation
        (see `_partials`)."""
        _check_max_order(max_order)
        return self._partials(p, *_TABLE_ORDERS[max_order])

    def spectral_split(self, p) -> tuple[np.ndarray, np.ndarray]:
        """(psi_t1, psi_t2): low/high frequency blocks, zero-padded to full
        ambient dimension. psi_t1 + psi_t2 = eval(p)."""
        return _split_blocks(self.eval(p), self.m)


# k quarter turns send (cos, sin) to (cos, sin), (-sin, cos), (-cos, -sin), (sin, -cos),
# i.e. (cos, sin) or (sin, cos) times these slot signs, for k = 0..3
_QUARTER_TURN_SIGNS = np.array(((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)))

# (orders with a+b even, orders with a+b odd) of the table up to each max_order
_TABLE_ORDERS = tuple(
    tuple(
        tuple((a, n - a) for n in range(k + 1) if n % 2 == parity for a in range(n, -1, -1))
        for parity in (0, 1)
    )
    for k in range(5)
)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_max_order(max_order) -> None:
    """Partial tables go up to total derivative order 4."""
    if not (_is_int(max_order) and 0 <= max_order <= 4):
        raise DomainError("max_order must be an integer in 0..4, got %r" % (max_order,))


def _as_points(p) -> np.ndarray:
    """p as a float array of finite points, shape (..., 2)."""
    try:
        p = np.asarray(p, dtype=float)
    except (TypeError, ValueError):
        raise DomainError("points must be real numbers, got %s" % type(p).__name__) from None
    if p.ndim == 0 or p.shape[-1] != 2:
        raise DomainError("points must have shape (..., 2), got shape %s" % (p.shape,))
    if not np.isfinite(p).all():
        raise DomainError("points must be finite")
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
    rows = []
    amps = []
    for z, w in zip(data.mu, data.r_weights):
        rows.append((math.sqrt(data.lambda1) * z.imag, math.sqrt(data.lambda1) * z.real))
        amps.append(math.sqrt(w / 2.0))
    for z, w in zip(data.eta, data.rp_weights):
        rows.append((math.sqrt(data.lambda2) * z.imag, math.sqrt(data.lambda2) * z.real))
        amps.append(math.sqrt(w / 2.0))
    return Immersion(
        data=data,
        wave_vectors=np.array(rows, dtype=float),
        amplitudes=np.array(amps, dtype=float),
    )


def from_structure(h: float, rho: float) -> Immersion:
    """Six-dimensional ambient immersion of the structure family."""
    return build(lift_structure(structure_params(h, rho)))


def symmetric_weights_data(h: float) -> MiyataData:
    """The equal-weight family member: R' = (1/2, 1/2), eta_1 = sqrt(h/(1+h))
    + i sqrt(1/(1+h)), eta_2 its conjugate."""
    e1 = complex(math.sqrt(h / (1.0 + h)), math.sqrt(1.0 / (1.0 + h)))
    return MiyataData(
        h=h,
        mu=(complex(1.0, 0.0),),
        eta=(e1, e1.conjugate()),
        r_weights=(1.0,),
        rp_weights=(0.5, 0.5),
    )


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
    h = data.h
    mu1 = data.mu[0]
    if data.mp == 2:
        candidates = [(data.rp_weights[0], data.eta[0], data.eta[1])]
        for s in _schedule(h):
            a, b = _pair_for_weight(h, s)
            candidates.append((s, mu1 * a, mu1 * b))
        for s, a, b in candidates:
            eta = (1j * a, 1j * b, 1j * mu1)
            if _min_pm_distance(eta) > 1e-9:
                out = MiyataData(
                    h=h,
                    mu=data.mu,
                    eta=eta,
                    r_weights=data.r_weights,
                    rp_weights=(h * s, h * (1.0 - s), 1.0 - h),
                )
                return build(out)
        raise ConstructionError("no admissible distinct frequency triple found")
    for s in _schedule(h):
        a, b = _pair_for_weight(h, s)
        a, b = mu1 * a, mu1 * b
        eta = data.eta + (a, b)
        if _min_pm_distance(eta) > 1e-9:
            out = MiyataData(
                h=h,
                mu=data.mu,
                eta=eta,
                r_weights=data.r_weights,
                rp_weights=tuple(w / 2.0 for w in data.rp_weights) + (s / 2.0, (1.0 - s) / 2.0),
            )
            return build(out)
    raise ConstructionError("no admissible distinct frequency pair found")
