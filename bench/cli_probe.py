"""CLI probe: every README example through ``cli.main([...])`` in-process, in a
scratch directory, and one ``bihsurf torus-exists --h 1/2`` as a subprocess.

The stdout of the exact commands (lattice, torus-exists, admissible) must
match ``reference.json`` byte for byte; every example must exit with 0.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time

from bihsurf import cli

STD2PI = '{"gens": [["2*pi","0"],["0","2*pi"]]}'
README_EXAMPLES = (
    ("construct", "--h", "0.5", "--rho", "0", "--out", "member.json"),
    ("construct", "--preset", "sasahara", "--out", "sasahara.json"),
    ("construct", "--extend", "member.json", "--out", "extended.json"),
    ("verify", "--params", "member.json", "--samples", "200", "--seed", "0", "--out", "report.json"),
    ("lattice", "--params", "sasahara.json", "--search-bound", "20"),
    ("torus-exists", "--h", "1/2"),
    ("torus-exists", "--h", "4/5"),
    ("torus-exists", "--a", "1/4", "--b", "1/4"),
    ("admissible", "--lattice", "std2pi.json", "--h", "1/2"),
    ("export", "--params", "sasahara.json", "--grid", "64", "64", "--projection", "pca3",
     "--out", "mesh"),
)
EXACT_COMMANDS = ("lattice", "torus-exists", "admissible")
STARTUP_EXAMPLE = ("torus-exists", "--h", "1/2")


def run_examples(workdir: str, tracer=None) -> list[tuple[tuple, int, str]]:
    """(argv, exit code, stdout) for each README example, run in workdir."""
    with open(os.path.join(workdir, "std2pi.json"), "w", encoding="utf-8") as fh:
        fh.write(STD2PI)
    out = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in README_EXAMPLES:
            buf = io.StringIO()
            span = tracer.span("cli.main.%s" % argv[0]) if tracer else contextlib.nullcontext()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()), span:
                rc = cli.main(list(argv))
            out.append((argv, rc, buf.getvalue()))
    finally:
        os.chdir(cwd)
    return out


def run_startup(src_dir: str, workdir: str) -> tuple[float, int, str]:
    """Wall time, exit code and stdout of one CLI subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bihsurf.cli", *STARTUP_EXAMPLE],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
    )
    return time.perf_counter() - start, proc.returncode, proc.stdout


def reference_key(argv) -> str:
    return " ".join(argv)


def failures(results, reference: dict) -> list[str]:
    """Failure kinds for (argv, exit code, stdout) triples."""
    bad = []
    expected = reference.get("cli", {})
    for argv, rc, stdout in results:
        if rc != 0:
            bad.append("cli_exit:%s" % argv[0])
        elif argv[0] in EXACT_COMMANDS and stdout != expected.get(reference_key(argv)):
            bad.append("cli_json_mismatch:%s" % argv[0])
    return bad
