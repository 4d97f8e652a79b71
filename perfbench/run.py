"""Benchmark runner for ktops: seeded workloads, checked outputs, one JSON line.

    python3 perfbench/run.py --workload cold-tables --seed 1 --seconds 45 --trace 0

Runs fresh-process rounds of the workload (perfbench/round.py) one at a
time until --seconds have passed, at least MIN_ROUNDS of them, each
pinned to one CPU with the CPUs taken in turn.  Every
round runs the same seeded ops; the first also checks every output in
full, and later rounds must reproduce its outcomes and output digests.
An op's time is its minimum wall time over the rounds, because the
host's speed drifts in multi-second phases and the minimum is what
stays put.  Slower drift, over minutes, moves every op of a run by the
same share, so every time is then scaled to the reference speed:
multiplied by calibrate.REFERENCE_S over the time this run measured for
the reference kernel, timed between ops and taken like an op's time.
The table prints the times as measured beside the scaled ones.

With --trace 0 the last line of stdout carries the end-to-end metrics:
total_s (sum of per-op minima), op_p50_ms, op_p90_ms, setup_s (minimum
over rounds), peak_rss_mb (highest over the unchecked rounds).  With
--trace 1, untraced and traced rounds alternate and the last line
carries the per-layer metrics of perfbench/tracing.py plus
trace.overhead_s, the traced minus the untraced total_s.  Lines before
it are a human-readable table, including fail_ratio.

--workload all runs the three workloads in turn.  Exit code 1 means an
op failed for a reason other than the known int-to-str refusal, or a
round broke; 2 means the tree has no ktops sources to measure.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from tracing import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold-tables", "warm-algebra", "verdicts")
MIN_ROUNDS = 3  # per kind: untraced, and traced with --trace 1
HARD_LIMIT_S = 150  # the whole run ends well inside three minutes
# Each CPU of the host turns slow and fast on its own, for seconds to
# minutes at a time, and a lone busy process stays on one CPU; rounds take
# the CPUs in turn, so one slow CPU does not set every sample of an op.
CPUS = sorted(os.sched_getaffinity(0))

END_TO_END = (
    ("total_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("coalgebra.self_s", "s"), ("coalgebra.coproduct_matrix.calls", "count"),
    ("coalgebra.basis_coords.calls", "count"), ("coalgebra.coef_bits_max", "bits"),
    ("coalgebra.table_repeat_ratio", "ratio"),
    ("laurent.self_s", "s"), ("laurent.theta.calls", "count"),
    ("laurent.newton_coeffs.calls", "count"), ("laurent.exact_divide.calls", "count"),
    ("laurent.mul.calls", "count"),
    ("checks.self_s", "s"), ("checks.cells", "count"), ("checks.cross_expansions", "count"),
    ("checks.control_fail_cells", "count"),
    ("dual.self_s", "s"), ("dual.multiply.calls", "count"), ("dual.invert.calls", "count"),
    ("dual.expand.calls", "count"), ("dual.is_unit.calls", "count"), ("dual.coef_bits_max", "bits"),
    ("modules.self_s", "s"), ("modules.validate_module.calls", "count"),
    ("modules.relations", "count"),
    ("spectra.self_s", "s"), ("spectra.make_spectrum.calls", "count"),
    ("rationals.self_s", "s"), ("rationals.nu.calls", "count"),
    ("cli.self_s", "s"), ("cli.bytes_out", "bytes"),
    ("trace.overhead_s", "s"),
)


class RoundError(RuntimeError):
    pass


def run_round(workload: str, seed: int, scale: str, check: bool, traced: bool,
              timeout: float, spans: Path | None, cpu: int) -> dict:
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
           "--seed", str(seed), "--scale", scale]
    if check:
        cmd.append("--check")
    if traced:
        cmd.append("--traced")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0),
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        raise RoundError(f"a {workload} round ran past {timeout:.0f} s")
    if proc.returncode != 0:
        raise RoundError(f"a {workload} round exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    data["wall_s"] = time.perf_counter() - t
    data["checked"], data["traced"], data["cpu"] = check, traced, cpu
    return data


def schedule(workload, seed, scale, seconds, trace, min_rounds):
    """Rounds one at a time until the time is spent and each kind has its minimum."""
    kinds = (False, True) if trace else (False,)
    rounds: list[dict] = []
    start = time.perf_counter()
    out_dir = HERE / "out"
    i = 0
    while True:
        traced = kinds[i % len(kinds)]
        spans = None
        if traced:
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{workload}-seed{seed}.jsonl"
        elapsed = time.perf_counter() - start
        rounds.append(run_round(workload, seed, scale, check=(i == 0), traced=traced,
                                timeout=HARD_LIMIT_S - elapsed, spans=spans,
                                cpu=CPUS[(i // len(kinds)) % len(CPUS)]))
        i += 1
        elapsed = time.perf_counter() - start
        longest = max(r["wall_s"] for r in rounds)
        enough = all(sum(1 for r in rounds if r["traced"] == k) >= min_rounds for k in kinds)
        if elapsed + longest > HARD_LIMIT_S:
            if not enough:
                raise RoundError(f"{workload}: rounds too slow for {min_rounds} within {HARD_LIMIT_S} s")
            return rounds
        if enough and elapsed + longest > seconds:
            return rounds


def per_op_minimum(rounds: list[dict]) -> list[float]:
    return [min(ts) for ts in zip(*(r["times"] for r in rounds))]


def failures(rounds: list[dict]) -> list[tuple[int, str, bool]]:
    """(op index, reason, known defect) for each failed op."""
    first = rounds[0]
    out = []
    for i, desc in enumerate(first["ops"]):
        reason, known = first["reasons"][i], first["known"][i]
        if reason is None:
            for r in rounds[1:]:
                if r["ops"][i] != desc:
                    reason = "inputs differ between rounds"
                elif r["reasons"][i] is not None:
                    reason, known = r["reasons"][i], r["known"][i]
                elif r["digests"][i] != first["digests"][i]:
                    reason = "output differs between rounds"
                else:
                    continue
                break
        if reason is not None:
            out.append((i, f"{desc}: {reason}", known))
    return out


def calibration(rounds: list[dict]) -> float:
    """The reference kernel's time in this run, as an op's time is taken:
    its minimum over rounds at each of its places in a round, then the
    median over the places."""
    return statistics.median(min(ts) for ts in zip(*(r["calib"] for r in rounds)))


def time_metrics(rounds: list[dict], scale: float) -> dict:
    mins = [t * scale for t in per_op_minimum(rounds)]
    return {
        "total_s": sum(mins),
        "op_p50_ms": statistics.median(mins) * 1e3,
        "op_p90_ms": statistics.quantiles(mins, n=10, method="inclusive")[8] * 1e3,
        "setup_s": min(r["setup_s"] for r in rounds) * scale,
    }


def summarize(rounds: list[dict], trace: bool) -> tuple[dict, dict]:
    plain = [r for r in rounds if not r["traced"]]
    calib = calibration(rounds)
    scale = calibrate.REFERENCE_S / calib
    e2e = time_metrics(plain, scale)
    e2e["peak_rss_mb"] = max(r["rss_kb"] for r in plain[1:] or plain) / 1024
    failed = failures(rounds)
    n = len(plain[0]["times"])
    info = {
        "ops": n,
        "rounds": len(plain),
        "round_sums": [(sum(r["times"]), r["cpu"]) for r in rounds],
        "calib_s": calib,
        "measured": time_metrics(plain, 1.0),
        "failed": failed,
        "fail_ratio": len(failed) / n,
        "correct": all(known for _, _, known in failed),
    }
    layers = {}
    if trace:
        traced = [r for r in rounds if r["traced"]]
        first = traced[0]["layers"]
        layers = {k: v for k, v in first.items() if not k.endswith(("self_s", "busy_s"))}
        for k in first:
            if k.endswith(("self_s", "busy_s")):
                layers[k] = min(r["layers"][k] for r in traced) * scale
        layers["trace.overhead_s"] = time_metrics(traced, scale)["total_s"] - e2e["total_s"]
        info["traced_rounds"] = len(traced)
    return e2e, {"info": info, "layers": layers}


def report(workload: str, seed: int, e2e: dict, extra: dict, trace: bool) -> dict:
    info, layers = extra["info"], extra["layers"]
    print(f"# {workload}  seed {seed}  ops {info['ops']}  rounds {info['rounds']}"
          + (f" + {info['traced_rounds']} traced" if trace else "")
          + "  (round sums " + " ".join(f"{t:.3f}@{c}" for t, c in info["round_sums"]) + " s)")
    print(f"# reference kernel {info['calib_s'] * 1e3:.4f} ms, so times are scaled by "
          f"{calibrate.REFERENCE_S / info['calib_s']:.4f}; as measured on the right")
    for name, unit in END_TO_END:
        measured = info["measured"].get(name)
        print(f"{name:<34} {e2e[name]:>14.6g} {unit}"
              + (f"   {measured:>12.6g} {unit}" if measured is not None else ""))
    print(f"{'fail_ratio':<34} {info['fail_ratio']:>14.6g} ratio  ({len(info['failed'])}/{info['ops']})")
    for _, reason, known in info["failed"]:
        print(f"  failed{' (known defect)' if known else ''}: {reason}")
    metrics = {}
    if trace:
        print("# per layer (ops only for times; calls include set-up)")
        for m in MODULES + ("trace",):
            print(f"{m + '.self_s':<34} {layers.get(m + '.self_s', 0.0):>14.6g} s"
                  f"   busy {layers.get(m + '.busy_s', 0.0):.6g} s")
        for name, unit in PER_LAYER:
            value = layers.get(name, 0)
            metrics[name] = {"value": value, "unit": unit}
            if not name.endswith("self_s"):
                print(f"{name:<34} {value:>14.6g} {unit}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": info["correct"], "attempted": info["ops"],
            "failed": len(info["failed"]), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload and needs one round, for a self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ktops" / "__init__.py").is_file():
        print(f"error: no ktops sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    code = 0
    for name in names:
        try:
            min_rounds = 1 if args.scale == "tiny" else MIN_ROUNDS
            rounds = schedule(name, args.seed, args.scale, args.seconds, args.trace, min_rounds)
        except RoundError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        e2e, extra = summarize(rounds, args.trace)
        result = report(name, args.seed, e2e, extra, args.trace)
        if not result["correct"]:
            code = 1
        print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
