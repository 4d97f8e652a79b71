"""Capture the SHA-256 digest of stdout for every cold-tables request.

    python3 perfbench/capture_golden.py

Runs every request any seed can draw (ColdTables.universe) through
`ktops.cli.run` and writes perfbench/golden/cold-tables.json, keyed by
"<command> <spectrum> <q> <n>" (ColdTables.describe), holding the exit code and the digest.
The committed file was captured from the sources the benchmark was
defined on; the checking round compares against it, which pins the
byte-identical JSON a refactor must keep.  Recapture only when a change
is meant to alter that output.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    wl = workloads.ColdTables(0, "full")
    golden = {}
    for op in wl.universe():
        code, out, _ = wl.run(op)
        golden[wl.describe(op)] = {"code": code, "sha256": wl.digest(op, (code, out, ""))}
    workloads.GOLDEN.parent.mkdir(exist_ok=True)
    workloads.GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"{len(golden)} digests written to {workloads.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
