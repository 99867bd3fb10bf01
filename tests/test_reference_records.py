"""Every exact record of the benchmark's input pools, recomputed through the
library and compared with `bench/reference.json` byte for byte: the 90
`admissible` decisions, the 312 `torus_exists` verdicts and the 197
`period_lattice` lattices. The pools, keys and JSON forms are those of
`bench/workloads.py`, so these are the records the benchmark checks each
operation against."""

import json
import pathlib
import sys

import pytest

from bihsurf.admissibility import admissible
from bihsurf.periodicity import period_lattice, torus_exists

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

import workloads as W  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def _assert_same_records(got: dict, want: dict):
    assert got.keys() == want.keys(), sorted(got.keys() ^ want.keys())[:5]
    bad = [key for key in got if got[key] != want[key]]
    assert not bad, bad[:5]


def test_admissible_records_equal_the_reference(reference):
    pool = W.admissible_pool()
    got = {
        W.admissible_key(base, k, u): json.dumps(
            admissible(W.make_lattice(base, k, u), W.BASE_LATTICES[base][1]).to_dict()
        )
        for base, k, u in pool
    }
    assert len(pool) == len(got) == 90
    _assert_same_records(got, reference["admissible"])


def test_torus_exists_records_equal_the_reference(reference):
    inputs = [(h, W.TORUS_BOUND) for h in W.case_i_pool()]
    inputs += [(h, W.TORUS_BOUND) for _, h in W.case_ii_pool()]
    inputs += [(h, b) for h in W.small_denominator_pool() for b in (W.TORUS_BOUND, W.TORUS_SMALL_BOUND)]
    # the pools share a few h: 317 inputs, 312 records
    got = {W.torus_key(h, b): json.dumps(torus_exists(h, b).to_dict()) for h, b in inputs}
    assert len(got) == 312
    _assert_same_records(got, reference["torus_exists"])


def test_period_lattice_records_equal_the_reference(reference):
    got = {}
    for pqrt, _ in W.case_ii_pool():
        bound = W.period_bound(pqrt)
        got[W.period_key(pqrt, bound)] = W.lattice_json(period_lattice(W.case_ii_immersion(pqrt), bound))
    assert len(got) == 197
    _assert_same_records(got, reference["period_lattice"])
