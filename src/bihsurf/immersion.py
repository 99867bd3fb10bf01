"""Evaluatable immersions of the plane into round spheres, built from
frequency/weight data. Every coordinate plane carries a circle
c*(cos<w,p>, sin<w,p>), so every partial derivative is that same cos/sin pair
scaled by w_1^a w_2^b and turned by a+b quarter turns: one evaluation of cos
and sin serves every order. `Immersion._pair` evaluates that pair from one
tan of the half phase per plane, cos = 2/(1+t^2) - 1 and sin = t*2/(1+t^2):
about 5x cheaper than np.cos and np.sin, and within a few ulp of 1 of them
in absolute terms (at most 3.3e-16 over 1.2e7 phases up to 1e300 and near
multiples of pi/2; the tests hold it to 1e-15). This module is the one place
that knows that layout, plane k on slots (2k, 2k+1). An immersion's one
derived table holds the factor rows c*w_1^a*w_2^b (signed by the a+b quarter
turns) of all 15 orders a+b <= 4, computed in one vectorised pass on first
use. One reader, `Immersion._read`, multiplies rows by the trig pair of
their parity, (cos, sin) per plane for even a+b and (sin, cos) for odd, into
C-ordered arrays of the caller's point shape: `eval` reads row (0, 0),
`partial` one row, `partial_table` its even rows against the even pair and
its odd rows against the odd one, and the geometry its symbols
(`_read_symbols`). The geometry's other slot helpers live here too:
`_origin`, `_split_blocks` and `_plane_moduli`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import DomainError, VerificationReport, _is_int
from .parameters import (
    MiyataData,
    _check_h,
    _member,
    lift_structure,
    structure_params,
    t_of_s,
    _rho_tilde_of,
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
    # ("factors") and validate_miyata's report on `data` ("validation")
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

    def _pair(self, p, odd: int = 0) -> np.ndarray:
        """The trig pair of the orders of parity `odd` at the points p, shape
        (..., D): (cos<w, p>, sin<w, p>) on the two slots of each plane for
        even orders, (sin, cos) for odd ones.

        One tan per phase, in the half-angle form: with t = tan(theta/2),
        cos theta = 2/(1+t^2) - 1 and sin theta = t * 2/(1+t^2), so the pair
        is exact, (1, 0), at theta = 0 and sin is odd in theta. It differs
        from np.cos/np.sin by at most a few ulp of 1 in absolute terms
        (3.3e-16 seen; relative accuracy near the zeros of cos is not
        kept), and every caller compares absolute values. Computed in place
        in the phases and the output, so it allocates nothing beyond
        them."""
        theta = self._phases(p)
        out = np.empty(theta.shape[:-1] + (self.ambient_dim,))
        cos, sin = out[..., odd::2], out[..., 1 - odd::2]
        theta *= 0.5
        t = np.tan(theta, out=theta)
        np.multiply(t, t, out=cos)
        cos += 1.0
        np.divide(2.0, cos, out=cos)
        np.multiply(t, cos, out=sin)
        cos -= 1.0
        return out

    def _factors(self) -> np.ndarray:
        """The factor table (15, D): per order (a, b) of `_ORDERS`,
        c*w_1^a*w_2^b on both slots of each plane times the slot signs of
        a+b quarter turns, computed in one pass on first use."""
        table = self._memo.get("factors")
        if table is None:
            # w^k (5, K, 2) from scalar exponents, one power per k written
            # in place: an array of exponents rounds differently
            powers = np.empty((5,) + self.wave_vectors.shape)
            for k in range(5):
                np.power(self.wave_vectors, k, out=powers[k])
            rows = (self.amplitudes * powers[..., 0]).take(_ORDER_A, axis=0)
            rows *= powers[..., 1].take(_ORDER_B, axis=0)
            table = rows[:, :, None] * _ORDER_SIGNS
            table = self._memo["factors"] = table.reshape(len(_ORDERS), -1)
        return table

    @staticmethod
    def _read(pair: np.ndarray, rows: np.ndarray) -> list[np.ndarray]:
        """Each row (D,) of rows (n, D) times the trig pair (..., D): all but
        the last in one broadcast multiply, the last in place into the pair,
        so each result is C-ordered and one row allocates only the pair."""
        fields = []
        if len(rows) > 1:
            shape = (len(rows) - 1,) + (1,) * (pair.ndim - 1) + rows.shape[1:]
            fields = list(rows[:-1].reshape(shape) * pair)
        pair *= rows[-1]
        return fields + [pair]

    def _origin(self) -> np.ndarray:
        """The partials (15, D) at p = 0, where the trig pair is (1, 0) per
        plane for even orders and (0, 1) for odd ones: the symbols."""
        n = len(_ORDERS)
        return (self._factors().reshape(n, -1, 2) * _AT_ORIGIN).reshape(n, -1)

    def _read_symbols(self, p, symbols) -> list[np.ndarray]:
        """The fields of even symbols (n, D) at the points p: each symbol's
        cos slots, on both slots of their plane, read as rows."""
        return self._read(self._pair(p), np.repeat(np.asarray(symbols)[..., 0::2], 2, axis=-1))

    def _validation(self) -> VerificationReport:
        """validate_miyata's report on `data`, computed once; `build` keeps
        the one it validated with."""
        report = self._memo.get("validation")
        if report is None:
            report = self._memo["validation"] = validate_miyata(self.data)
        return report

    def eval(self, p) -> np.ndarray:
        """psi(p); |psi| = 1 identically."""
        return self._read(self._pair(p), self._factors()[:1])[0]

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
        i = _ORDERS.index(ax)
        return self._read(self._pair(p, int(_ORDER_ODD[i])), self._factors()[i : i + 1])[0]

    def partial_table(self, p, max_order: int = 4) -> dict[tuple[int, int], np.ndarray]:
        """All partials up to total order max_order, keyed by (a, b) in
        order of a+b, each of shape (..., D): the even orders read the
        (cos, sin) pair `_pair(p)`, the odd ones the (sin, cos) pair
        `_pair(p, 1)` that `partial` reads."""
        _check_max_order(max_order)
        n = (max_order + 1) * (max_order + 2) // 2
        table, odd = self._factors()[:n], _ORDER_ODD[:n]
        by_order = {}
        for rows, parity in ((~odd, 0), (odd, 1)):
            if rows.any():
                orders = itertools.compress(_ORDERS, rows)
                by_order.update(zip(orders, self._read(self._pair(p, parity), table[rows])))
        return {o: by_order[o] for o in _ORDERS[:n]}

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
_ORDER_ODD = (_ORDER_A + _ORDER_B) % 2 == 1

# the trig pair of each order at p = 0, per plane
_AT_ORIGIN = np.where(_ORDER_ODD[:, None, None], (0.0, 1.0), (1.0, 0.0))


def _check_max_order(max_order) -> None:
    """Partial tables go up to total derivative order 4."""
    if not (_is_int(max_order) and 0 <= max_order <= 4):
        raise DomainError("max_order must be an integer in 0..4, got %r" % (max_order,))


def _as_points(p) -> np.ndarray:
    """p as a float array of shape (..., 2); an int past the double range is
    refused here, and `Immersion._phases` checks that the points are
    finite."""
    try:
        p = np.asarray(p, dtype=float)
    except (TypeError, ValueError):
        raise DomainError("points must be real numbers, got %s" % type(p).__name__) from None
    except OverflowError:
        raise DomainError(
            "points must be finite doubles, got an integer past the double range"
        ) from None
    if p.ndim == 0 or p.shape[-1] != 2:
        raise DomainError("points must have shape (..., 2), got shape %s" % (p.shape,))
    return p


def _split_blocks(full: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero-padded low (first m planes) and high frequency parts of `full`."""
    t1 = np.zeros_like(full)
    t1[..., : 2 * m] = full[..., : 2 * m]
    return t1, full - t1


def _plane_moduli(x) -> np.ndarray:
    """|x_k| per plane k of x (..., D): the hypot of the plane's two slots."""
    return np.hypot(x[..., 0::2], x[..., 1::2])


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
            raise DomainError("invalid immersion data (%s)" % failing)
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
    """Unit pair (e^{i rho}, e^{i rho~}) with weight s, from the t(s) formula;
    t_of_s checks h, and rho = 2 atan(t) lies in [0, pi/2] for t in [0, 1]."""
    rho = 2.0 * math.atan(t_of_s(h, s))
    return unit_circle(rho), unit_circle(_rho_tilde_of(h, rho))


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
    s whose frequencies collide with existing ones. When every s collides, a
    `ConstructionError` names the sphere S^n the input lies in.
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
    raise ConstructionError(
        "no admissible distinct frequency %s found to extend the immersion in S^%d"
        % (what, data.ambient_dim - 1)
    )
