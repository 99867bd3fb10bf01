"""The four benchmark workloads: seeded inputs, the operations run on them,
and the checks applied to each result.

Every workload is one client in a closed loop: it sends the next operation
only after the previous one returns. Operations are grouped into rounds of
fixed composition; the timed loop runs whole rounds, so every run sees the
same mix of operation classes and only the drawn values change with the seed.

Library calls go through module attributes (``geometry.verify_immersion``,
``immersion.build`` ...) at call time, so the tracer's wrappers see them.

The exact workloads draw their inputs from finite pools; ``reference.json``
holds the exact JSON output of every pool member, produced by
``make_reference.py``. An exact result that differs from it by one byte is a
failed operation.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np
from bihsurf import admissibility, geometry, immersion, parameters, periodicity

# verify_immersion's default sampling box; the sweep also uses far boxes.
DEFAULT_BOX = 6.0
# At these boxes and below every sample verifies; beyond them the verifier's
# own rounding is known to fail eigenblock_t2 / tension_vs_mean_curvature.
# Failures past this box are counted, not treated as wrong output.
KNOWN_ROUNDING_BOX = 1e5
SWEEP_BOXES = (6.0, 1e2, 1e3, 1e4, 1e5, 1e6)
SWEEP_SAMPLES = 200  # the CLI default
TORUS_BOUND = 20  # the CLI default search bound
TORUS_SMALL_BOUND = 12


@dataclass
class Op:
    """One request: the timed call and what its result is checked against."""

    kind: str
    call: Callable[[], object]
    key: str = ""  # reference key (exact ops)
    samples: int = 0  # sample points verified (verify ops)
    box: float = DEFAULT_BOX
    seed: int = 0  # verify_immersion's sample seed
    subject: object = None  # the Immersion or MiyataData a verify op checks


@dataclass
class Tally:
    """What the checks saw over a run."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failures that contradict the reference or the verifier's claim
    samples: int = 0
    failures: dict = field(default_factory=dict)  # kind -> count
    verdicts: dict = field(default_factory=dict)  # "periodicity.verdict.case_i" -> count
    checks_failed: int = 0
    max_residual_over_tol: float = 0.0

    def fail(self, kind: str, wrong: bool = True):
        self.failures[kind] = self.failures.get(kind, 0) + 1
        self.wrong += int(wrong)

    def verdict(self, name: str):
        self.verdicts[name] = self.verdicts.get(name, 0) + 1


def lattice_json(lat) -> str:
    """Period lattice as ``bihsurf lattice`` prints it (15 significant digits)."""
    return json.dumps(
        {"rank": lat.rank, "generators": [[float("%.15g" % x) for x in g] for g in lat.gens]}
    )


def check(op: Op, result, reference: dict, tally: Tally):
    """Count op as attempted and record whether (and how) it failed."""
    tally.attempted += 1
    tally.samples += op.samples
    if isinstance(result, BaseException):
        tally.failed += 1
        tally.fail("exception:%s" % type(result).__name__)
        return
    if op.kind == "verify":
        bad = [c.name for c in result.checks if not c.passed]
        tally.checks_failed += len(bad)
        for c in result.checks:
            if c.tolerance > 0:
                ratio = c.residual / c.tolerance
            else:
                ratio = 0.0 if c.residual == 0 else math.inf
            tally.max_residual_over_tol = max(tally.max_residual_over_tol, ratio)
        if bad:
            tally.failed += 1
            for name in bad:
                tally.fail("check:%s" % name, wrong=op.box <= KNOWN_ROUNDING_BOX)
        return
    if op.kind == "period_lattice":
        text = lattice_json(result)
    else:
        d = result.to_dict()
        text = json.dumps(d)
        layer = "periodicity" if op.kind == "torus_exists" else "admissibility"
        tally.verdict("%s.verdict.%s" % (layer, d["verdict"]))
    expected = reference.get(op.kind, {}).get(op.key)
    if expected is None:
        tally.failed += 1
        tally.fail("no_reference")
    elif text != expected:
        tally.failed += 1
        tally.fail("json_mismatch")


# ---------------------------------------------------------------------------
# pools of exact inputs (finite, so reference.json can cover every member)


def _is_rational_square(x: Fraction) -> bool:
    return all(math.isqrt(n) ** 2 == n for n in (x.numerator, x.denominator))


def _torus_h(p: int, q: int, r: int, t: int) -> Fraction:
    a, b = Fraction(p * p, q * q), Fraction(r * r, t * t)
    return (1 - (a - b) ** 2) / (1 + (a - b) ** 2 + 2 * (a + b))


def case_i_pool() -> list[Fraction]:
    """h = (q^2-1)/(q^2+1) for q = n/d > 1 with n <= 12, d <= 6."""
    out = []
    for d in range(1, 7):
        for n in range(d + 1, 13):
            if math.gcd(n, d) == 1:
                q = Fraction(n, d)
                out.append((q * q - 1) / (q * q + 1))
    return out


def case_ii_pool() -> list[tuple[tuple[int, int, int, int], Fraction]]:
    """h from (p, q, r, t) with p <= 2 and q, r, t <= 8, one tuple per h.

    p <= 2 keeps the lexicographically first witness, and so the scan that
    finds it, within the first tenth of the bound-20 search box; the full
    not_found scans stay the expensive class.
    """
    seen, out = set(), []
    for p in (1, 2):
        for q in range(1, 9):
            for r in range(1, 9):
                for t in range(1, 9):
                    if math.gcd(p, q) != 1 or math.gcd(r, t) != 1:
                        continue
                    a, b = Fraction(p * p, q * q), Fraction(r * r, t * t)
                    if (a - b) ** 2 >= 1:
                        continue
                    h = _torus_h(p, q, r, t)
                    if h in seen or _is_rational_square((1 + h) / (1 - h)):
                        continue
                    seen.add(h)
                    out.append(((p, q, r, t), h))
    return out


def small_denominator_pool() -> list[Fraction]:
    """Every n/d in (0, 1) with d <= 12 that is not a case-i value."""
    out = []
    for d in range(2, 13):
        for n in range(1, d):
            h = Fraction(n, d)
            if math.gcd(n, d) == 1 and not _is_rational_square((1 + h) / (1 - h)):
                out.append(h)
    return out


def torus_key(h: Fraction, bound: int) -> str:
    return "h=%s bound=%d" % (h, bound)


def period_bound(pqrt) -> float:
    """Search bound just past the longer generator of the case-ii lattice."""
    gens = periodicity.torus_case_ii(*pqrt).lattice.gens
    return float(math.ceil(max(math.hypot(*g) for g in gens)) + 1)


def period_key(pqrt, bound: float) -> str:
    return "pqrt=%d,%d,%d,%d bound=%g" % (tuple(pqrt) + (bound,))


def case_ii_immersion(pqrt):
    """Canonical immersion data of the case-ii torus member for (p, q, r, t)."""
    res = periodicity.torus_case_ii(*pqrt)
    data = parameters.angle_family_data(float(res.params.h), res.rho)
    return immersion.build(parameters.canonicalize(data))


# admissibility: the test suite's lattices, each at its own h
BASE_LATTICES = {
    "2pi": ({"gens": [["2*pi", "0"], ["0", "2*pi"]]}, Fraction(1, 2)),
    "pi": ({"gens": [["pi", "0"], ["0", "pi"]]}, Fraction(1, 2)),
    "sqrt5": ({"gens": [["2*pi*sqrt(5)", "0"], ["0", "2*pi*sqrt(5)"]]}, Fraction(3, 5)),
    "rect_exists": ({"gens": [["pi*sqrt(5)/2", "0"], ["0", "pi*sqrt(5)"]]}, Fraction(3, 5)),
    "rect_none_hull": ({"gens": [["pi*sqrt(5)", "0"], ["0", "pi*sqrt(5)/5"]]}, Fraction(3, 5)),
    "rect_infeasible": ({"gens": [["pi*sqrt(13)/2", "0"], ["0", "pi*sqrt(13)/3"]]}, Fraction(5, 13)),
}
SMALL_SCALES = (1, 2, 3)
SMALL_BASES = (((1, 0), (0, 1)), ((1, 1), (0, 1)), ((1, 0), (1, 1)))
# large scales per lattice, chosen so one decision takes roughly 0.1-0.25 s
LARGE_SCALES = {
    "2pi": (11, 12, 13),
    "pi": (21, 22, 23),
    "sqrt5": (5, 6, 7),
    "rect_exists": (11, 12, 13),
    "rect_none_hull": (11, 12, 13),
    "rect_infeasible": (11, 12, 13),
}
SKEWED_BASES = (((2, 1), (1, 1)), ((1, 1), (1, 2)))


def admissible_pool() -> list[tuple[str, int, tuple]]:
    out = []
    for base in BASE_LATTICES:
        for k in SMALL_SCALES:
            for u in SMALL_BASES:
                out.append((base, k, u))
        for k in LARGE_SCALES[base]:
            for u in SKEWED_BASES:
                out.append((base, k, u))
    return out


def admissible_key(base: str, k: int, u) -> str:
    (a, b), (c, d) = u
    return "%s scale=%d basis=%d,%d,%d,%d h=%s" % (base, k, a, b, c, d, BASE_LATTICES[base][1])


def make_lattice(base: str, k: int, u):
    """k times the named lattice, given in the basis u @ (generators)."""
    lat = admissibility.parse_lattice(BASE_LATTICES[base][0])
    rows = tuple(tuple(k * c for c in row) for row in lat.exact.rows)
    scaled = periodicity.ExactBasis(rows=rows, surd=lat.exact.surd)
    lat = periodicity.Lattice2(rank=2, gens=scaled.float_rows(), exact=scaled)
    return admissibility.unimodular_image(lat, u)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Seeded inputs for one workload, built at set-up as a deck of rounds."""

    name = ""
    sizes: dict = {}
    deck_rounds = 16  # rounds of inputs built at set-up; the timed loop cycles them
    traced_rounds = 1  # rounds in the fixed pass of a traced run

    def __init__(self, seed: int, tiny: bool, reference: dict):
        self.rng = random.Random(seed)
        self.tiny = tiny
        self.reference = reference
        self.rounds = [self.make_round() for _ in range(1 if tiny else self.deck_rounds)]

    def make_round(self) -> list[Op]:
        raise NotImplementedError

    def probe(self, tracer):
        """Standalone geometry probes on the points of the first round's
        verify ops: bitension and mean curvature, each on its own."""
        for op in self.rounds[0]:
            if op.kind != "verify":
                continue
            pts = np.random.default_rng(op.seed).uniform(-op.box, op.box, size=(op.samples, 2))
            with tracer.span("bench.probe"):
                im = op.subject
                if not isinstance(im, immersion.Immersion):
                    im = immersion.build(im)
                geometry.bitension(im, pts)
                geometry.mean_curvature(im, pts)


def _verify_op(subject, samples: int, seed: int, box: float = DEFAULT_BOX) -> Op:
    if isinstance(subject, immersion.Immersion):
        call = lambda: geometry.verify_immersion(subject, samples=samples, seed=seed, box=box)
    else:  # fresh data: the op builds the immersion itself
        call = lambda: geometry.verify_immersion(
            immersion.build(subject), samples=samples, seed=seed, box=box
        )
    return Op("verify", call, samples=samples, box=box, seed=seed, subject=subject)


def _structure_data(rng: random.Random):
    h = rng.uniform(0.05, 0.95)
    rho = rng.uniform(0.0, parameters.rho_max(h))
    return parameters.lift_structure(parameters.structure_params(h, rho))


def _extended(im, times: int):
    for _ in range(times):
        im = immersion.extend_dimension(im)
    return im


class VerifyDense(Workload):
    name = "verify-dense"
    # (immersion slot, samples); slots: 0 structure member (S^5), 1 equal-weight
    # member extended once (S^7), 2 structure member extended six times (S^27)
    # Cost classes per round: 4 ops near 0.1 s, 4 near 0.3 s, 3 near 0.65 s
    # and 1 near 1 s, so the median and p75 each sit inside one class.
    ROUND = ((0, 10_000), (0, 10_000), (1, 10_000), (1, 10_000),
             (2, 10_000), (2, 10_000), (2, 10_000), (2, 10_000),
             (2, 20_000), (2, 20_000), (1, 60_000), (0, 100_000))
    TINY_ROUND = ((0, 500), (1, 300), (2, 200))
    sizes = {"samples_per_op": [10_000, 100_000], "spheres": ["S^5", "S^7", "S^27"],
             "box": DEFAULT_BOX, "ops_per_round": len(ROUND)}

    def __init__(self, seed, tiny, reference):
        rng = random.Random(seed ^ 0x5EED)
        member = immersion.build(_structure_data(rng))
        equal = immersion.build(immersion.symmetric_weights_data(rng.uniform(0.05, 0.95)))
        chain = immersion.build(_structure_data(rng))
        self.immersions = (member, _extended(equal, 1), _extended(chain, 2 if tiny else 6))
        super().__init__(seed, tiny, reference)

    def make_round(self):
        spec = self.TINY_ROUND if self.tiny else self.ROUND
        return [_verify_op(self.immersions[slot], n, self.rng.randrange(2**31)) for slot, n in spec]


class VerifySweep(Workload):
    name = "verify-sweep"
    KINDS = ("structure", "equal_weight", "chain")
    sizes = {"samples_per_op": SWEEP_SAMPLES, "boxes": list(SWEEP_BOXES),
             "families": list(KINDS), "chain_extensions": "1-3",
             "ops_per_round": len(KINDS) * len(SWEEP_BOXES)}
    deck_rounds = 32
    traced_rounds = 16

    def make_round(self):
        ops = []
        for kind in self.KINDS:
            for box in SWEEP_BOXES:
                if kind == "structure":
                    data = _structure_data(self.rng)
                elif kind == "equal_weight":
                    data = immersion.symmetric_weights_data(self.rng.uniform(0.05, 0.95))
                else:
                    base = immersion.build(_structure_data(self.rng))
                    data = _extended(base, self.rng.randint(1, 3)).data
                ops.append(_verify_op(data, SWEEP_SAMPLES, self.rng.randrange(2**31), box))
        self.rng.shuffle(ops)
        return ops


def _torus_op(h: Fraction, bound: int) -> Op:
    return Op(
        "torus_exists",
        lambda: periodicity.torus_exists(h, bound),
        key=torus_key(h, bound),
    )


def _verdict(reference: dict, kind: str, key: str) -> str:
    return json.loads(reference[kind][key])["verdict"]


class TorusSearch(Workload):
    name = "torus-search"
    # Per round: full not_found scans at bounds 20 and 12, case-ii witness
    # scans, case-i square tests and period lattices of case-ii members. Of
    # the 50 ops the case-i ones hold the median and the bound-12 scans (ranks
    # 0.92-0.98) hold p95; the scans take over 90% of the time.
    MIX = {"scan20": 1, "scan12": 3, "case_ii": 6, "period": 6, "case_i": 34}
    TINY_MIX = {"scan20": 0, "scan12": 0, "case_ii": 2, "period": 2, "case_i": 4}
    sizes = {"search_bounds": [TORUS_SMALL_BOUND, TORUS_BOUND], "ops_per_round": sum(MIX.values()),
             "mix_per_round": MIX}

    def __init__(self, seed, tiny, reference):
        self.case_i = case_i_pool()
        self.case_ii = case_ii_pool()
        small = small_denominator_pool()
        kind = "torus_exists"
        self.scan = {
            b: [h for h in small if _verdict(reference, kind, torus_key(h, b)) == "not_found"]
            for b in (TORUS_BOUND, TORUS_SMALL_BOUND)
        }
        self._immersions = {}
        super().__init__(seed, tiny, reference)

    def _period_op(self, pqrt) -> Op:
        if pqrt not in self._immersions:
            self._immersions[pqrt] = (case_ii_immersion(pqrt), period_bound(pqrt))
        im, bound = self._immersions[pqrt]
        return Op(
            "period_lattice",
            lambda: periodicity.period_lattice(im, bound),
            key=period_key(pqrt, bound),
        )

    def make_round(self):
        mix = self.TINY_MIX if self.tiny else self.MIX
        rng = self.rng
        ops = [_torus_op(rng.choice(self.scan[TORUS_BOUND]), TORUS_BOUND) for _ in range(mix["scan20"])]
        ops += [_torus_op(rng.choice(self.scan[TORUS_SMALL_BOUND]), TORUS_SMALL_BOUND)
                for _ in range(mix["scan12"])]
        ops += [_torus_op(rng.choice(self.case_ii)[1], TORUS_BOUND) for _ in range(mix["case_ii"])]
        ops += [self._period_op(rng.choice(self.case_ii)[0]) for _ in range(mix["period"])]
        ops += [_torus_op(rng.choice(self.case_i), TORUS_BOUND) for _ in range(mix["case_i"])]
        rng.shuffle(ops)
        return ops


class AdmissibleLattices(Workload):
    name = "admissible-lattices"
    SMALL_PER_BASE = 3
    # Each base's large (scale, skewed basis) pairs are dealt in seeded order,
    # every pair equally often in a deck, so the deck's cost (large decisions
    # are most of it) does not change with the seed; the order does.
    deck_rounds = 12  # each base's 6 large pairs twice
    traced_rounds = 2
    sizes = {"lattices": list(BASE_LATTICES), "small_scales": list(SMALL_SCALES),
             "large_scales": LARGE_SCALES, "ops_per_round": len(BASE_LATTICES) * 4}

    def __init__(self, seed, tiny, reference):
        self._large = {}
        super().__init__(seed, tiny, reference)

    def _next_large(self, base):
        if not self._large.get(base):
            pairs = [(k, u) for k in LARGE_SCALES[base] for u in SKEWED_BASES]
            self.rng.shuffle(pairs)
            self._large[base] = pairs
        return self._large[base].pop()

    def make_round(self):
        rng = self.rng
        ops = []
        for base, (_, h) in BASE_LATTICES.items():
            picks = [(rng.choice(SMALL_SCALES), rng.choice(SMALL_BASES))
                     for _ in range(self.SMALL_PER_BASE)]
            if not self.tiny:
                picks.append(self._next_large(base))
            for k, u in picks:
                lat = make_lattice(base, k, u)
                ops.append(Op(
                    "admissible",
                    lambda lat=lat, h=h: admissibility.admissible(lat, h),
                    key=admissible_key(base, k, u),
                ))
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (VerifyDense, VerifySweep, TorusSearch, AdmissibleLattices)}
