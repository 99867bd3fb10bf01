"""Self-test of the benchmark at tiny sizes: every workload, traced and not,
prints every metric it owes with a unit, and ends with the result line.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import re

import pytest

import run

CONFIG = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8"))
METRIC_LINE = re.compile(r"^metric (\S+)\s+(\S+) (\S+)")
PRINTED_END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                      "fail_frac": "ratio", "peak_rss_mb": "MB"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_prints_every_metric_with_unit(workload, trace, capsys):
    rc = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    printed = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            float(m.group(2))
            printed[m.group(1)] = m.group(3)
    wanted = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    for spec in wanted:
        assert printed.get(spec["name"]) == spec["unit"], spec["name"]
    if not trace:  # printed for every workload, whether BENCHMARK.json gates them or not
        for name, unit in PRINTED_END_TO_END.items():
            assert printed.get(name) == unit, name
        if workload.startswith("verify"):
            assert printed["samples_per_s"] == "1/s"
    assert any(line.startswith("env: ") for line in lines)
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(spec["name"] for spec in wanted)
    for spec in wanted:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
