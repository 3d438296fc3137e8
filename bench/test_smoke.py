"""Smoke test of the benchmark at its smallest size.

Run from the root of a checkout with

    python3 -m pytest bench/test_smoke.py -q

It runs every workload once untraced and once traced at ``--size smoke`` and
checks that every metric BENCHMARK.json names is reported with its unit, that
tracing leaves the accuracy figures unchanged, and that forward_sweep writes
byte-identical CSV files in both runs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# sphere_invert is not in BENCHMARK.json but stays runnable, so it is tested too.
WORKLOADS = ["plane_invert", "sphere_invert", "forward_sweep"]


def _run(workload: str, trace: int):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    run_dir = BENCH / "out" / f"{workload}-smoke-seed3-trace{trace}"
    details = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
    return result, details, run_dir


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload):
    plain, plain_details, plain_dir = _run(workload, 0)
    traced, traced_details, traced_dir = _run(workload, 1)

    for result, listed in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in listed}

    assert plain_details["figures"] == traced_details["figures"]

    if workload == "forward_sweep":
        plain_csv = {p.name: p.read_bytes() for p in (plain_dir / "csv").iterdir()}
        traced_csv = {p.name: p.read_bytes() for p in (traced_dir / "csv").iterdir()}
        assert len(plain_csv) == 14 and plain_csv == traced_csv
