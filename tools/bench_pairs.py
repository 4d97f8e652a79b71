"""Alternating parent/change runs of perfbench/run.py, summarised into one JSON file.

    python3 tools/bench_pairs.py --out BENCH_<n>.json --workload verdicts --seed 1

The change is the working tree of this repository.  The parent, a git
revision (--parent, HEAD by default, so run it before committing; use
HEAD~1 after), is exported with `git archive` into a temporary directory,
the committed files alone, and removed at the end; no worktree is
registered.  Before every run the __pycache__ directories of that side are
removed and the run gets PYTHONDONTWRITEBYTECODE=1, so each side compiles
its own sources, as a fresh checkout does.

There are PAIRS = 10 pairs, the fewest a claimed gain is judged on.
Pair k runs seed --seed + k on both sides for the run_seconds that
BENCHMARK.json declares, the parent first on even k and the change first
on odd k, each workload in turn.  The output holds, per workload and end-to-end metric of
BENCHMARK.json, the parent's median and quartiles, the change's median
and quartiles, and the pairs the change won (strictly better in the
direction BENCHMARK.json gives; ties count for neither side); then every
run with its metrics, failed and attempted ops and the reasons printed
for the failed ones.  The file is rewritten after each pair, so a run cut
short keeps what it measured.  Exit code 1 means some run did not end
with a result line.  Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold-tables", "warm-algebra", "verdicts")
PAIRS = 10


def export(rev: str, dest: Path) -> str:
    """The committed files of rev under dest; returns its full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    data = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True,
                          capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=data, check=True)
    return commit


def clear_bytecode(tree: Path) -> None:
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run of workload on tree: its result line and failure reasons."""
    clear_bytecode(tree)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=4 * seconds + 300)
    except subprocess.TimeoutExpired:
        return {"exit": None, "error": "timed out"}
    lines = proc.stdout.strip().splitlines()
    out = {"exit": proc.returncode,
           "failed_ops": [line.strip() for line in lines if line.startswith("  failed")]}
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out["error"] = proc.stderr[-2000:]
        return out
    out.update(correct=result["correct"], attempted=result["attempted"], failed=result["failed"],
               metrics={name: m["value"] for name, m in result["metrics"].items()})
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summary(runs: list[dict], declared: list[dict]) -> dict:
    """Per metric: medians, quartiles and wins over the pairs where both sides gave it."""
    out = {}
    for spec in declared:
        name, lower = spec["name"], spec["better"] == "lower"
        pairs = [(r["parent"]["metrics"][name], r["change"]["metrics"][name]) for r in runs
                 if name in r["parent"].get("metrics", {}) and name in r["change"].get("metrics", {})]
        if not pairs:
            continue
        parent, change = zip(*pairs)
        p1, pm, p3 = quartiles(list(parent))
        c1, cm, c3 = quartiles(list(change))
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent_median": pm, "parent_q1": p1, "parent_q3": p3, "parent_iqr": p3 - p1,
            "change_median": cm, "change_q1": c1, "change_q3": c3,
            "change_vs_parent": cm / pm - 1 if pm else None,
            "wins": sum((c < p) if lower else (c > p) for p, c in pairs),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="verdicts")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = ap.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    code = 0
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp) / "parent"
        parent_commit = export(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        settings = {
            "parent": args.parent, "parent_commit": parent_commit,
            "change": "working tree", "change_head": head,
            "workloads": list(workloads), "pairs": PAIRS, "seconds": seconds,
            "seeds": [args.seed + k for k in range(PAIRS)],
            "first_side": ["parent" if k % 2 == 0 else "change" for k in range(PAIRS)],
            "python": platform.python_version(), "cpus": len(os.sched_getaffinity(0)),
            "command": "perfbench/run.py --workload W --seed S --seconds T --trace 0",
        }
        for k in range(PAIRS):
            seed = args.seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for w in workloads:
                pair = {"pair": k, "seed": seed, "first": order[0]}
                for side in order:
                    t = time.perf_counter()
                    pair[side] = run(trees[side], w, seed, seconds)
                    pair[side]["wall_s"] = round(time.perf_counter() - t, 1)
                    if "metrics" not in pair[side]:
                        code = 1
                runs[w].append(pair)
                total = {s: pair[s].get("metrics", {}).get("total_s") for s in order}
                print(f"pair {k} seed {seed} {w}: total_s {total}", file=sys.stderr, flush=True)
            doc = {"settings": settings,
                   "workloads": {w: {"metrics": summary(runs[w], declared), "runs": runs[w]}
                                 for w in workloads}}
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
