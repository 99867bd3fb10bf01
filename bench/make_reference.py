"""Regenerate bench/reference.json from the library as it stands.

    python3 bench/make_reference.py

Runs every exact input the workload generators can draw (torus_exists,
period_lattice, admissible) and the README's exact CLI examples, and stores
their JSON output. Takes a few minutes, mostly the bound-20 not_found scans.
Regenerate only when an exact output is meant to change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from bihsurf import admissibility, periodicity  # noqa: E402

import cli_probe  # noqa: E402
import workloads as W  # noqa: E402

REFERENCE = os.path.join(BENCH, "reference.json")


def main() -> int:
    torus, period, adm = {}, {}, {}
    for h in W.case_i_pool():
        torus[W.torus_key(h, W.TORUS_BOUND)] = json.dumps(periodicity.torus_exists(h, W.TORUS_BOUND).to_dict())
    for pqrt, h in W.case_ii_pool():
        torus[W.torus_key(h, W.TORUS_BOUND)] = json.dumps(periodicity.torus_exists(h, W.TORUS_BOUND).to_dict())
        bound = W.period_bound(pqrt)
        lat = periodicity.period_lattice(W.case_ii_immersion(pqrt), bound)
        period[W.period_key(pqrt, bound)] = W.lattice_json(lat)
    for h in W.small_denominator_pool():
        for bound in (W.TORUS_BOUND, W.TORUS_SMALL_BOUND):
            torus[W.torus_key(h, bound)] = json.dumps(periodicity.torus_exists(h, bound).to_dict())
    for base, k, u in W.admissible_pool():
        res = admissibility.admissible(W.make_lattice(base, k, u), W.BASE_LATTICES[base][1])
        adm[W.admissible_key(base, k, u)] = json.dumps(res.to_dict())
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        cli = {
            cli_probe.reference_key(argv): stdout
            for argv, rc, stdout in cli_probe.run_examples(tmp)
            if argv[0] in cli_probe.EXACT_COMMANDS
        }
    ref = {"torus_exists": torus, "period_lattice": period, "admissible": adm, "cli": cli}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s: %s" % (REFERENCE, {k: len(v) for k, v in ref.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
