"""One benchmark worker: a fresh process running one closed-loop client.

Protocol (stdout): the line READY once magrad, numpy and scipy are imported,
then one JSON line with the run's raw results (only the host's speed at
set-up with --setup-only).  The worker imports magrad
from the `src/` of the checkout that holds it, never from an installed copy.
A traced worker writes its spans to `.magbench_out/trace-<W>-seed<N>.jsonl`
in that checkout.

    worker.py --workload W --seed N (--seconds S | --rounds R)
              [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".magbench_out")


def _import_magrad():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import magrad
    if not os.path.abspath(magrad.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"magrad imported from {magrad.__file__}, not {src}")
    import numpy  # noqa: F401  (the import cost is part of set-up)
    import scipy  # noqa: F401
    from magrad import bch, convexity, kernels, magnus, specrad, umqnorm  # noqa: F401
    return magrad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_magrad()
    print("READY", flush=True)
    import hostspeed  # the benchmark's own modules, next to this file
    setup_speed = hostspeed.speed([hostspeed.probe()
                                   for _ in range(hostspeed.SETUP_PROBES)])
    if args.setup_only:
        print(json.dumps({"setup_speed": setup_speed}), flush=True)
        return 0

    import ops
    import plan
    from tracing import Tracer

    tracer = Tracer()
    if args.trace:
        tracer.install()

    records = []            # one per attempted operation
    results = []            # (round, op, value) kept for the checks
    round_seconds = []      # wall time of each round, input construction included
    clock = time.perf_counter
    t_start = clock()
    rnd = 0
    while True:
        if args.rounds is not None and rnd >= args.rounds:
            break
        if args.rounds is None and rnd > 0 and clock() - t_start >= args.seconds:
            break
        t_round = clock()
        for op in plan.plan_round(args.workload, args.seed, rnd):
            call = ops.prepare(op)
            probe_s = hostspeed.probe()
            tracer.op = len(records)
            tracer.active = args.trace
            t0 = clock()
            try:
                value, error = call(), None
            except Exception as exc:        # recorded, the run goes on
                value, error = None, f"{type(exc).__name__}: {exc}"[:300]
            dt = clock() - t0
            tracer.active = False
            records.append({"round": rnd, "kind": op["kind"], "seconds": dt,
                            "probe_s": probe_s, "error": error})
            results.append((rnd, op, value))
        round_seconds.append(clock() - t_round)
        rnd += 1
    op_seconds = sum(r["seconds"] for r in records)
    hostspeed.annotate(records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layer = tracer.layer_metrics(rnd, op_seconds) if args.trace else None

    # correctness, outside the timed window
    ctx_by_round: dict = {}
    for rec, (r, op, value) in zip(records, results):
        if rec["error"] is not None:
            continue
        try:
            reason = ops.check(op, value, ctx_by_round.setdefault(r, {}))
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"[:300]
        rec["wrong"] = reason

    out = {"rounds": rnd, "op_seconds": op_seconds, "round_seconds": round_seconds,
           "setup_speed": setup_speed,
           "records": records, "peak_rss_mb": peak_rss_mb,
           "stamp": _stamp(plan, args)}
    if args.trace:
        out["layers"] = layer
        out["spans_seen"] = tracer.spans_seen()
        out["spans"] = len(tracer.spans)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        with open(path, "w") as fh:
            for span in tracer.span_records():
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(out), flush=True)
    return 0


def _stamp(plan, args) -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "seed": args.seed, "inputs_digest": plan.inputs_digest(args.workload, args.seed),
            "git_sha": _git_sha()}


def _git_sha():
    """The checkout's commit id; None outside a git repository."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


if __name__ == "__main__":
    sys.exit(main())
