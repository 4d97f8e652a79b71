"""One round: a fresh single-threaded process that runs every op once.

Started by run.py, one round at a time.  Everything from the first
import of ktops to the end of input generation and warming is set-up;
each op is then timed on its own with perf_counter, from a collected
heap, and at calibrate.SLOTS places the reference kernel is timed too.
The round prints one JSON object on stdout: set-up time, per-op times,
kernel times, failure reasons, output digests, peak RSS and, when traced,
the per-layer figures.

    python3 perfbench/round.py --workload verdicts --seed 1 [--check] [--traced]
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    t0 = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--check", action="store_true", help="verify every output in full")
    ap.add_argument("--traced", action="store_true", help="record spans around ktops calls")
    ap.add_argument("--spans", help="file the spans are written to when traced")
    args = ap.parse_args()

    sys.path.insert(0, str(HERE.parent / "src"))
    tracer = None
    if args.traced:
        import ktops  # noqa: F401  every module must be loaded before wrapping
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import calibrate
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    wl.tracer = tracer
    setup_s = time.perf_counter() - t0

    clock = time.perf_counter
    times, reasons, known, digests, calib = [], [], [], [], []
    calibrate_at = {k * len(wl.ops) // calibrate.SLOTS for k in range(calibrate.SLOTS)}
    for i, op in enumerate(wl.ops):
        # each op starts on a collected heap with everything older frozen,
        # so a full collection that earlier ops ran up is not charged to
        # whichever op the seeded order puts next
        gc.collect()
        gc.freeze()
        if i in calibrate_at:
            t = clock()
            calibrate.kernel()
            calib.append(clock() - t)
        if tracer is not None:
            tracer.op = i
        t = clock()
        try:
            result = wl.run(op)
        except Exception as e:  # an op's exception is its outcome
            result = e
        times.append(clock() - t)
        if tracer is not None:
            tracer.op = -1
        reason = wl.outcome(op, result)
        if reason is None and args.check:
            try:
                reason = wl.check(op, result)
            except Exception as e:  # a malformed output fails its check
                reason = f"check raised {type(e).__name__}: {e}"
        reasons.append(reason)
        known.append(reason is not None and wl.known_defect(op, reason))
        digests.append(wl.digest(op, result))

    out = {
        "setup_s": setup_s,
        "times": times,
        "ops": [wl.describe(op) for op in wl.ops],
        "reasons": reasons,
        "known": known,
        "digests": digests,
        "calib": calib,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
