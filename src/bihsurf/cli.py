"""Command-line interface: construct immersion data, verify it, compute
period lattices, decide torus existence/admissibility and export samples.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
Exact flags (torus-exists, admissible) take rationals as "num/den"; decimals
are refused there to prevent silent rounding.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

import numpy as np

from .core import DomainError, exact_rational, rational_sqrt_exact
from .parameters import (
    MiyataData,
    _exact_h,
    canonicalize,
    lift_structure,
    miyata_from_dict,
    structure_params,
)
from .immersion import build, extend_dimension, sasahara_data
from .geometry import verify_immersion
from .periodicity import TorusVerdict, period_lattice, torus_case_ii, torus_exists
from .admissibility import admissible, parse_lattice


def _write_atomic(path: str, text: str):
    tmp = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _emit(text: str, out_path):
    if out_path:
        _write_atomic(out_path, text)
    else:
        print(text)


def _sig15(x: float) -> float:
    return float("%.15g" % x)


_FRACTION_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_exact_fraction(text: str, name: str = "value") -> Fraction:
    """Exact rational from 'num/den' or an integer literal; refusals name the flag."""
    if not _FRACTION_RE.match(text.strip()):
        raise DomainError(
            "%s: exact rational required (e.g. 1/2); decimal input %r refused" % (name, text)
        )
    return exact_rational(text, name)


def _parse_real(text: str, name: str) -> float:
    """A float from text; a refusal names the flag."""
    try:
        return float(text)
    except ValueError:
        raise DomainError("%s must be a real number, got %r" % (name, text)) from None


def _load_data(path: str) -> MiyataData:
    with open(path, "r", encoding="utf-8") as fh:
        return miyata_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# commands


def cmd_construct(args) -> int:
    if args.preset:  # argparse's choices allow "sasahara" only
        data = sasahara_data()
    elif args.extend:
        data = extend_dimension(build(_load_data(args.extend))).data
    else:
        if args.h is None or args.rho is None:
            raise DomainError("construct needs --h and --rho (or --preset / --extend)")
        h = float(_exact_h(args.h, "--h"))
        data = lift_structure(structure_params(h, _parse_real(args.rho, "--rho")))
    data = canonicalize(data)
    echo = {
        "h": data.h,
        "lambda1": data.lambda1,
        "lambda2": data.lambda2,
        "m": data.m,
        "mp": data.mp,
        "ambient_dim": data.ambient_dim,
    }
    if data.mp == 2:
        echo.update({
            "R1p": data.rp_weights[0],
            "R2p": data.rp_weights[1],
            "rho_tilde": math.atan2(data.eta[1].imag, data.eta[1].real),
        })
    print(json.dumps(echo, indent=2), file=sys.stderr)
    _emit(data.to_json(), args.out)
    return 0


def _parse_tolerance_overrides(entries):
    out = {}
    for entry in entries or []:
        name, _, value = entry.partition("=")
        if not name or not value:
            raise DomainError("tolerance override must look like name=value, got %r" % entry)
        try:
            out[name] = float(value)
        except ValueError:
            out[name] = value  # not a number: verify_immersion rejects it by check name
    return out


def cmd_verify(args) -> int:
    data = _load_data(args.params)
    im = build(data, validate=False)
    report = verify_immersion(
        im,
        samples=args.samples,
        seed=args.seed,
        tolerances=_parse_tolerance_overrides(args.tol),
    )
    _emit(report.to_json(), args.out)
    if not report.passed:
        failing = ", ".join(c.name for c in report.failures())
        print("FAIL: %s" % failing, file=sys.stderr)
        return 1
    print("PASS (%d checks, %d samples)" % (len(report.checks), report.sample_count),
          file=sys.stderr)
    return 0


def cmd_lattice(args) -> int:
    data = canonicalize(_load_data(args.params))
    im = build(data)
    lat = period_lattice(im, args.search_bound)
    out = {
        "rank": lat.rank,
        "generators": [[_sig15(x) for x in g] for g in lat.gens],
    }
    _emit(json.dumps(out, indent=2), args.out)
    return 0


def cmd_torus_exists(args) -> int:
    if args.a is not None or args.b is not None:
        if args.h is not None or args.a is None or args.b is None:
            raise DomainError("give either --h, or both --a and --b")
        a, b = parse_exact_fraction(args.a, "--a"), parse_exact_fraction(args.b, "--b")
        d = _case_ii_from_squares(a, b)
    else:
        if args.h is None:
            raise DomainError("torus-exists needs --h or --a/--b")
        verdict = torus_exists(parse_exact_fraction(args.h, "--h"), args.search_bound)
        d = verdict.to_dict()
    d["generators"] = [[_sig15(x) for x in g] for g in d["generators"]]
    _emit(json.dumps(d, indent=2), args.out)
    return 0


def _case_ii_from_squares(a: Fraction, b: Fraction) -> dict:
    """Torus data for explicit a = p^2/q^2, b = r^2/t^2."""
    if a <= 0 or b <= 0:
        raise DomainError("--a and --b must be positive rationals")
    ra = rational_sqrt_exact(a)
    rb = rational_sqrt_exact(b)
    if ra is None or rb is None:
        raise DomainError("--a and --b must be squares of positive rationals")
    p, q, r, t = ra.numerator, ra.denominator, rb.numerator, rb.denominator
    res = torus_case_ii(p, q, r, t)
    return TorusVerdict(h=res.params.h, kind="case_ii", pqrt=(p, q, r, t), case_ii=res).to_dict()


def cmd_admissible(args) -> int:
    with open(args.lattice, "r", encoding="utf-8") as fh:
        lat = parse_lattice(json.load(fh))
    res = admissible(lat, parse_exact_fraction(args.h, "--h"))
    _emit(json.dumps(res.to_dict(), indent=2), args.out)
    return 0


def _pca3(samples: np.ndarray) -> np.ndarray:
    centered = samples - samples.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:3]
    # deterministic sign: largest-magnitude entry of each component positive
    for i in range(comps.shape[0]):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    # an export has at least 4 points and 6 coordinates: always 3 components
    return centered @ comps.T


def cmd_export(args) -> int:
    data = canonicalize(_load_data(args.params))
    im = build(data)
    nx, ny = args.grid
    if nx < 2 or ny < 2:
        raise DomainError("grid must be at least 2x2")
    xs = np.linspace(args.x_range[0], args.x_range[1], nx)
    ys = np.linspace(args.y_range[0], args.y_range[1], ny)
    pts = np.array([(x, y) for x in xs for y in ys])
    vals = im.eval(pts)
    # before the first write, so that a refused search bound leaves no file
    lat = period_lattice(im, args.search_bound)
    dim = im.ambient_dim

    header = "x,y," + ",".join("psi_%d" % (i + 1) for i in range(dim))
    lines = [header]
    for p, v in zip(pts, vals):
        lines.append(",".join("%.17g" % c for c in (*p, *v)))
    _write_atomic(args.out + ".csv", "\n".join(lines) + "\n")

    if args.projection == "coords":
        verts = vals[:, :3]
    else:
        verts = _pca3(vals)
    obj = []
    for v in verts:
        obj.append("v %.17g %.17g %.17g" % (v[0], v[1], v[2]))
    for ix in range(nx - 1):
        for iy in range(ny - 1):
            a = ix * ny + iy + 1
            b = (ix + 1) * ny + iy + 1
            c = (ix + 1) * ny + iy + 2
            d = ix * ny + iy + 2
            obj.append("f %d %d %d" % (a, b, c))
            obj.append("f %d %d %d" % (a, c, d))
    _write_atomic(args.out + ".obj", "\n".join(obj) + "\n")

    written = [args.out + ".csv", args.out + ".obj"]
    if lat.rank == 2:
        v1, v2 = (np.array(g) for g in lat.gens)
        poly = [np.zeros(2), v1, v1 + v2, v2]
        domain = {
            "polygon": [[_sig15(c) for c in p] for p in poly],
            "generators": [[_sig15(c) for c in g] for g in lat.gens],
        }
        _write_atomic(args.out + ".domain.json", json.dumps(domain, indent=2))
        written.append(args.out + ".domain.json")
    print("wrote %s" % ", ".join(written), file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bihsurf",
        description="CMC biharmonic flat surfaces in spheres: construct, "
        "verify, classify quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="write canonical immersion data JSON")
    c.add_argument("--h", help="mean curvature in (0,1); decimal or num/den")
    c.add_argument("--rho", help="family angle in [0, rho_max(h)]")
    c.add_argument("--preset", choices=["sasahara"], help="named example")
    c.add_argument("--extend", metavar="FILE", help="raise dimension of existing data")
    c.add_argument("--out", help="output JSON path (default: stdout)")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="run the geometric invariant suite")
    v.add_argument("--params", required=True, metavar="FILE")
    v.add_argument("--samples", type=int, default=200)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="override one check tolerance (repeatable)")
    v.add_argument("--out", help="report JSON path (default: stdout)")
    v.set_defaults(func=cmd_verify)

    l = sub.add_parser("lattice", help="period lattice of an immersion")
    l.add_argument("--params", required=True, metavar="FILE")
    l.add_argument("--search-bound", type=float, default=40.0)
    l.add_argument("--out")
    l.set_defaults(func=cmd_lattice)

    t = sub.add_parser("torus-exists", help="decide torus existence at rational h")
    t.add_argument("--h", help="exact rational, e.g. 1/2")
    t.add_argument("--a", help="exact rational square p^2/q^2 (with --b)")
    t.add_argument("--b", help="exact rational square r^2/t^2 (with --a)")
    t.add_argument("--search-bound", type=int, default=20)
    t.add_argument("--out")
    t.set_defaults(func=cmd_torus_exists)

    a = sub.add_parser("admissible", help="decide immersion existence on a torus")
    a.add_argument("--lattice", required=True, metavar="FILE",
                   help='JSON {"gens": [["2*pi","0"],["0","2*pi"]]}')
    a.add_argument("--h", required=True, help="exact rational, e.g. 1/2")
    a.add_argument("--out")
    a.set_defaults(func=cmd_admissible)

    e = sub.add_parser("export", help="sample the immersion to CSV/OBJ")
    e.add_argument("--params", required=True, metavar="FILE")
    e.add_argument("--grid", nargs=2, type=int, required=True, metavar=("NX", "NY"))
    e.add_argument("--x-range", nargs=2, type=float, default=[0.0, 2.0 * math.pi])
    e.add_argument("--y-range", nargs=2, type=float, default=[0.0, 2.0 * math.pi])
    e.add_argument("--projection", choices=["coords", "pca3"], default="coords")
    e.add_argument("--search-bound", type=float, default=40.0)
    e.add_argument("--out", required=True, help="output path prefix")
    e.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:  # DomainError, ExactnessError, JSON too
        # contract: only exit codes 0 (ok), 1 (verification failed), 2 (error)
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
