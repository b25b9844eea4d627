#!/usr/bin/env python3
"""Smoke test of the benchmark harness (not of speed).

    python3 perfbench/test_smoke.py

Runs every workload in smoke mode (small shapes, one set-up round, one
second), untraced and traced, and checks that each run exits 0 and that
its last line is a result object naming exactly the metrics and units
BENCHMARK.json declares, with finite values and every output correct.
Exits non-zero on the first failure.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(spec: dict, workload: str, trace: int) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}"
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{where}: metrics {sorted(got)} != {sorted(want)}"
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), f"{where}: {name} not finite"
    if not trace:
        for name, m in result["metrics"].items():
            assert m["value"] > 0, f"{where}: end-to-end {name} is 0"
    print(f"ok  {where}: {result['attempted']} operations checked")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
