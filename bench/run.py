"""bihsurf benchmark: one seeded, closed-loop, single-client workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads: verify-dense, verify-sweep, torus-search, admissible-lattices (see
workloads.py and BENCHMARK.json for why each exists). Run from any directory;
the library is imported from ``src/`` next to this directory.

--trace 0 times whole rounds of operations for --seconds (end-to-end metrics).
--trace 1 runs a fixed pass of operations twice, untraced then traced with
every public bihsurf function wrapped (per-layer metrics), then the standalone
geometry probes and the CLI probe; spans go to .bench_out/ when it ends.

Throughput and set-up time are reported on the scale of a steady machine
(see machine.py): ops_per_s, samples_per_s and setup_s are wall figures
scaled by a machine-speed probe timed beside them, which takes out most of a
shared host's drift; the raw wall figures are printed beside them
(ops_per_s_wall, setup_s_wall, machine_slowdown). Latencies are wall times.

Every result is checked; the last stdout line is one JSON object with keys
correct, attempted, failed and metrics (the metrics BENCHMARK.json lists for
the mode). Exit code 0 unless the benchmark itself could not run.
"""

from __future__ import annotations

import os

# one compute thread per process, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import machine  # noqa: E402
from machine import SpeedProbe  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("verify-dense", "verify-sweep", "torus-search", "admissible-lattices")
# nearest-rank percentiles; the tail is the highest with >= 10 samples beyond it
PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99)
SETUP_REPEATS = 5
WAITS_NOTE = "waits: none measured; the library is single-threaded, so no layer waits on another"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, reference or config)."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, one round (self-test)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read %s: %s" % (path, exc)) from exc


def import_library():
    if not os.path.isfile(os.path.join(SRC, "bihsurf", "__init__.py")):
        raise BenchError("no bihsurf sources under %s" % SRC)
    for path in (BENCH, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import bihsurf
    import workloads

    return bihsurf, workloads


# ---------------------------------------------------------------------------
# environment stamp


def _git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "bihsurf")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        return "unknown"


def env_stamp() -> dict:
    import numpy as np

    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# measuring


def build_workload(args):
    bihsurf, workloads = import_library()
    reference = load_json(os.path.join(BENCH, "reference.json"))
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, reference)
    return bihsurf, workloads, wl


def measure_setup(args) -> tuple[float, float]:
    """Wall and steady time of a fresh process that imports bihsurf, builds
    this run's inputs and stops where the first timed op would start. A bare
    interpreter start is timed just before and just after it."""
    before = machine.start_probe()
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError("set-up process failed: %s" % proc.stderr.strip()[-500:])
    wall = time.perf_counter() - start
    probe_s = (before + machine.start_probe()) / 2
    return wall, wall * machine.NOMINAL_START_S / probe_s


def run_ops(ops, reference, tally, workloads, latencies=None, tracer=None, probe=None):
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        span = tracer.span("bench.op") if tracer is not None else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                result = op.call()
        except Exception as exc:  # an op that raises is counted, the loop goes on
            result = exc
        if latencies is not None:
            latencies.append(time.perf_counter() - start)
        workloads.check(op, result, reference, tally)
        if probe is not None:  # after the check, so the probe sees all timed work
            probe.after(time.perf_counter() - start)


def tail(latencies):
    """(percentile, value) at the highest percentile with >= 10 samples beyond."""
    xs = sorted(latencies)
    n = len(xs)
    best = None
    for q in PERCENTILES:
        idx = max(0, math.ceil(q / 100.0 * n) - 1)
        if n - 1 - idx >= 10:
            best = (q, xs[idx])
    return best if best else (100, xs[-1])


def fmt_failures(tally) -> str:
    if not tally.failures:
        return "none"
    return ", ".join("%s=%d" % kv for kv in sorted(tally.failures.items()))


def end_to_end(args, wl, workloads):
    repeats = 1 if args.tiny else SETUP_REPEATS
    setup = [measure_setup(args)]
    tally = workloads.Tally()
    latencies = []
    probe = SpeedProbe()
    rounds = 0
    elapsed = 0.0  # time in rounds only; set-up samples between rounds are not counted
    while True:  # closed loop over whole rounds
        start = time.perf_counter()
        run_ops(wl.rounds[rounds % len(wl.rounds)], wl.reference, tally, workloads, latencies,
                probe=probe)
        elapsed += time.perf_counter() - start
        rounds += 1
        if args.tiny or elapsed >= args.seconds:
            break
        # spread the set-up samples over the run, so their median sees more
        # than one state of a shared machine
        if len(setup) < repeats and elapsed >= len(setup) * args.seconds / repeats:
            setup.append(measure_setup(args))
    while len(setup) < repeats:
        setup.append(measure_setup(args))
    work = elapsed - probe.probe_s  # the ops and their checks, without the probe units
    slowdown = probe.slowdown()
    q, tail_s = tail(latencies)
    n = len(latencies)
    setup_wall = [w for w, _ in setup]
    setup_steady = [t for _, t in setup]
    metrics = {
        "setup_s": (statistics.median(setup_steady), "s",
                    "steady; median of %d set-ups: %s" % (len(setup), ", ".join("%.4f" % t for t in setup_steady))),
        "setup_s_wall": (statistics.median(setup_wall), "s",
                         "wall; median of %d set-ups: %s" % (len(setup), ", ".join("%.4f" % t for t in setup_wall))),
        "ops_per_s": (n * slowdown / work, "1/s",
                      "steady; %d ops in %d rounds, %.3f s wall" % (n, rounds, work)),
        "ops_per_s_wall": (n / work, "1/s", "wall"),
        "machine_slowdown": (slowdown, "ratio", "mean of %d probe units over %.3f s nominal, %.3f s "
                             "of probing" % (len(probe.units), machine.NOMINAL_UNIT_S, probe.probe_s)),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms", "wall; %d samples" % n),
        "op_tail_ms": (1e3 * tail_s, "ms", "wall; p%g, %d samples" % (q, n)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "ru_maxrss of this process"),
        "fail_frac": (tally.failed / tally.attempted, "ratio",
                      "%d failed / %d attempted; by kind: %s" % (tally.failed, tally.attempted,
                                                                 fmt_failures(tally))),
    }
    if tally.samples:
        metrics["samples_per_s"] = (tally.samples * slowdown / work, "1/s",
                                    "steady; %d sample points in %.3f s wall" % (tally.samples, work))
    return tally, metrics, []


SPANS = (
    "immersion.Immersion.partial_table", "immersion.Immersion.spectral_split", "immersion.build",
    "immersion.extend_dimension", "geometry.verify_immersion", "geometry.bitension",
    "geometry.mean_curvature", "parameters.validate_miyata", "parameters.canonicalize",
    "core.rational_sqrt_exact", "periodicity.torus_exists", "periodicity.torus_case_i",
    "periodicity.torus_case_ii", "periodicity.period_lattice", "admissibility.admissible",
    "admissibility.dual_lattice", "admissibility.circle_points", "admissibility.convex_hull",
    "admissibility.point_in_hull", "admissibility.intersect_hulls",
    "admissibility.witness_weights", "cli.main",
)
TORUS_VERDICTS = ("case_i", "case_ii", "not_found")
ADMISSIBLE_VERDICTS = ("none_empty_circle", "exists_pseudo_umbilical", "none_hull", "exists",
                       "none_infeasible", "undecided")


def per_layer(args, wl, workloads, bihsurf):
    import cli_probe
    from tracing import Tracer

    ops = [op for r in wl.rounds[: wl.traced_rounds] for op in r]

    def untraced_pass():
        start = time.perf_counter()
        run_ops(ops, wl.reference, workloads.Tally(), workloads)
        return time.perf_counter() - start

    untraced = untraced_pass()
    tracer = Tracer()
    counters = {
        "immersion.Immersion.partial_table":
            lambda a, k, r: {"immersion.partial_table.bytes": sum(x.nbytes for x in r.values())},
        "admissibility.circle_points":
            lambda a, k, r: {"admissibility.circle_points.preimages": len(r.preimages)},
    }
    tally = workloads.Tally()
    os.makedirs(OUT, exist_ok=True)
    tracer.install(bihsurf, counters)
    try:
        tracer.op = "setup"  # the same inputs built again, so set-up layers show
        with tracer.span("bench.setup"):
            type(wl)(args.seed, args.tiny, wl.reference)
        tracer.op = None
        start = time.perf_counter()
        run_ops(ops, wl.reference, tally, workloads, tracer=tracer)
        traced = time.perf_counter() - start
        tracer.op = "probe"
        wl.probe(tracer)
        tracer.op = "cli"
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            examples = cli_probe.run_examples(tmp, tracer)
    finally:
        tracer.uninstall()
    untraced = (untraced + untraced_pass()) / 2  # bracket the traced pass
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        startup_s, rc, stdout = cli_probe.run_startup(SRC, tmp)
    cli_bad = cli_probe.failures(examples + [(cli_probe.STARTUP_EXAMPLE, rc, stdout)], wl.reference)

    summary = tracer.summary()
    metrics = {}
    for name in SPANS:
        row = summary.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        metrics[name + ".calls"] = (row["calls"], "count", "")
        metrics[name + ".busy_s"] = (row["busy_s"], "s", "")
        metrics[name + ".self_s"] = (row["self_s"], "s", "")
    metrics["immersion.partial_table.bytes"] = (
        int(tracer.counts["immersion.partial_table.bytes"]), "B", "computed from array sizes")
    metrics["admissibility.circle_points.preimages"] = (
        int(tracer.counts["admissibility.circle_points.preimages"]), "count", "")
    metrics["geometry.checks_failed"] = (tally.checks_failed, "count", "over the traced pass")
    ratio = tally.max_residual_over_tol
    metrics["geometry.max_residual_over_tol"] = (ratio if math.isfinite(ratio) else 1e300, "ratio", "")
    for v in TORUS_VERDICTS:
        name = "periodicity.verdict." + v
        metrics[name] = (tally.verdicts.get(name, 0), "count", "")
    for v in ADMISSIBLE_VERDICTS:
        name = "admissibility.verdict." + v
        metrics[name] = (tally.verdicts.get(name, 0), "count", "")
    for argv in cli_probe.README_EXAMPLES:
        name = "cli.main.%s" % argv[0]
        metrics[name + ".busy_s"] = (summary[name]["busy_s"], "s",
                                     "%d README example(s), in-process" % summary[name]["calls"])
    metrics["cli.startup_s"] = (startup_s, "s", "subprocess: bihsurf %s" % " ".join(cli_probe.STARTUP_EXAMPLE))
    metrics["trace.overhead_frac"] = ((traced - untraced) / untraced, "ratio",
                                      "%d ops: traced %.4f s, untraced %.4f s (mean of the passes "
                                      "before and after)" % (len(ops), traced, untraced))

    path = os.path.join(OUT, "trace-%s-seed%d.json" % (args.workload, args.seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env_stamp(), "workload": args.workload, "seed": args.seed,
                   "summary": summary, "counts": dict(tracer.counts), "spans": tracer.dump()}, fh)
    lines = ["span %-44s calls=%-7d busy_s=%.6f self_s=%.6f" % (n, r["calls"], r["busy_s"], r["self_s"])
             for n, r in sorted(summary.items())]
    lines.append("spans written to %s" % os.path.relpath(path, ROOT))
    tally.attempted += len(examples) + 1
    tally.failed += len(cli_bad)
    for kind in cli_bad:
        tally.fail(kind)
    return tally, metrics, lines


# ---------------------------------------------------------------------------


def run_one(args) -> int:
    bihsurf, workloads, wl = build_workload(args)
    if args.setup_only:
        return 0
    config = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    print("env: %s" % json.dumps(env_stamp()))
    print("workload: %s  loop: closed, 1 client  seed: %d  trace: %d%s"
          % (wl.name, args.seed, args.trace, "  (tiny)" if args.tiny else ""))
    print("why: %s" % next(w["why"] for w in config["workloads"] if w["name"] == wl.name))
    print("inputs: %s" % json.dumps(wl.sizes))
    if args.trace:
        tally, metrics, lines = per_layer(args, wl, workloads, bihsurf)
        wanted = config["per_layer"]
    else:
        tally, metrics, lines = end_to_end(args, wl, workloads)
        wanted = config["end_to_end"]
    for line in lines:
        print(line)
    # every measured metric is printed; the JSON line carries those BENCHMARK.json lists
    for name, (value, unit, note) in metrics.items():
        print("metric %-48s %.6g %s%s" % (name, value, unit, ("  (%s)" % note) if note else ""))
    print("failures: %d of %d ops; by kind: %s" % (tally.failed, tally.attempted, fmt_failures(tally)))
    print(WAITS_NOTE)
    out = {}
    for spec in wanted:
        if spec["name"] not in metrics:
            raise BenchError("metric %s was not measured" % spec["name"])
        value, unit, _ = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise BenchError("metric %s has unit %s, BENCHMARK.json says %s" % (spec["name"], unit, spec["unit"]))
        out[spec["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": out}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process, then a summary table."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("\nsummary (seed %d, trace %d)" % (args.seed, args.trace))
    for name, res in rows:
        cells = ["%s=%.6g %s" % (k, v["value"], v["unit"]) for k, v in res["metrics"].items()]
        print("%-20s correct=%s failed=%d/%d %s" % (name, res["correct"], res["failed"],
                                                      res["attempted"], " ".join(cells)))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
