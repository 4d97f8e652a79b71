"""Self-test of the benchmark: every workload at tiny size, every metric named.

    python3 perfbench/smoke.py

Runs run.py on all three workloads with --scale tiny and one round per
kind, untraced and then traced, and checks that each result line is
correct and carries exactly the metrics BENCHMARK.json declares, with
their units.  Takes well under a minute.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def results(trace: int) -> list[dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--scale", "tiny",
           "--seconds", "0", "--seed", "7", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"run.py --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for trace, metrics in wanted.items():
        lines = results(trace)
        if len(lines) != len(spec["workloads"]):
            raise SystemExit(f"--trace {trace}: {len(lines)} result lines for {len(spec['workloads'])} workloads")
        for w, res in zip(spec["workloads"], lines):
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                raise SystemExit(f"{w['name']}: result keys {sorted(res)}")
            if not res["correct"] or res["attempted"] < 1:
                raise SystemExit(f"{w['name']}: not correct or nothing attempted: {res}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in metrics}
            if got != want:
                raise SystemExit(f"{w['name']} --trace {trace}: metrics {got} != declared {want}")
            print(f"ok  {w['name']:<13} trace {trace}  {len(got)} metrics  "
                  f"{res['attempted']} ops  {res['failed']} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
