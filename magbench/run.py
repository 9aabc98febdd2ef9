"""magrad benchmark runner: one workload, one seed, one closed-loop client.

    python3 magbench/run.py --workload float-bounds --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each run starts fresh worker processes
(`worker.py`) that import magrad from `src/`; this parent only spawns, times
and summarizes them, so it imports nothing beyond the standard library.

--trace 0  end-to-end metrics: set-up time (median of several spawns),
           certified operations per second (median over rounds), median
           operation latency and the worker's peak memory.  The times are
           scaled to the host at nominal speed (hostspeed.py).
--trace 1  per-layer metrics from a traced worker, plus the tracing overhead
           against an untraced worker that ran the same rounds.

Human-readable lines, with every metric the run computed, come first; the
last line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"} whose metrics are those BENCHMARK.json lists for the mode.
Exit codes: 0 when every operation was certified, 1 when the run finished
but some operation failed or was wrong (or the trace was incomplete), 2 when
the benchmark could not run at all (no magrad sources, unknown workload);
no result is printed then.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import plan  # noqa: E402  (stdlib only)
from tracing import METRICS as LAYER_METRICS  # noqa: E402

#: set-up-only spawns timed before and after the measured worker, whose own
#: set-up is the middle sample of setup_s
SETUP_SPAWNS = 4
#: wall-clock budget of one invocation, under the 180 s a run may take
BUDGET_S = 170.0
#: end-to-end metrics printed in the final JSON line, with units
END_TO_END = (("setup_s", "s"), ("certified_per_s", "1/s"), ("op_p50_s", "s"),
              ("peak_rss_mb", "MB"))
#: per-layer metrics the run adds to the tracer's, with units
TRACE_METRICS = (("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio"),
                 ("trace.spans", "count"))
#: op_p90_s needs this many operations so that ten samples lie beyond it
P90_MIN_OPS = 100


class WorkerError(RuntimeError):
    pass


def listed(kind: str) -> list:
    """Names of the `kind` metrics ("end_to_end" or "per_layer") in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def _env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list, deadline: float):
    """Run one worker; returns (set-up seconds, parsed result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT,
                            text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if ready.strip() != "READY":
            proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
            raise WorkerError(f"worker did not start (exit {proc.returncode})")
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker exceeded the run's time budget")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def percentile(latencies: list, q: float):
    """Nearest-rank percentile; failures are +inf, and landing on one is None."""
    xs = sorted(latencies)
    v = xs[max(math.ceil(q * len(xs)) - 1, 0)]
    return None if math.isinf(v) else v


def summarize(res: dict) -> dict:
    """Run statistics; every time is scaled by the host's speed around it.

    The host's load slows everything for spells longer than a run, so an
    operation's wall time times the host's speed around it (hostspeed.py)
    is what the benchmark reports.
    """
    recs = res["records"]
    ok = [r["error"] is None and not r.get("wrong") for r in recs]
    bad = [r for r, good in zip(recs, ok) if not good]
    scaled = [r["seconds"] * r["speed"] for r in recs]
    certified = [0] * res["rounds"]
    busy = [0.0] * res["rounds"]
    for r, good, t in zip(recs, ok, scaled):
        certified[r["round"]] += good
        busy[r["round"]] += t
    lat = [t if good else math.inf for good, t in zip(ok, scaled)]
    per_round = [n / t for n, t in zip(certified, busy)]
    return {
        "attempted": len(recs), "failed": len(bad), "per_round": per_round,
        "certified_per_s": statistics.median(per_round),
        "op_p50_s": percentile(lat, 0.5),
        "op_p90_s": percentile(lat, 0.9) if len(recs) >= P90_MIN_OPS else None,
        "first_round_s": res["round_seconds"][0],
        "fail_frac": len(bad) / len(recs),
        "peak_rss_mb": res["peak_rss_mb"],
        "problems": sorted({f"{r['kind']}: {r['error'] or r['wrong']}" for r in bad}),
    }


def scaled_op_seconds(res: dict) -> float:
    """A worker's time inside operations, scaled by the host's speed."""
    return sum(r["seconds"] * r["speed"] for r in res["records"])


def _fmt(v) -> str:
    return "missing" if v is None else f"{v:.6g}"


def run(args) -> int:
    deadline = time.perf_counter() + BUDGET_S
    names = listed("per_layer" if args.trace else "end_to_end")
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    print(f"magbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    if args.trace:
        # the untraced reference takes half the run, the traced worker repeats
        # its rounds, so a traced run lasts about as long as an untraced one
        _, ref = spawn(base + ["--seconds", str(args.seconds / 2)], deadline)
        _, res = spawn(base + ["--rounds", str(ref["rounds"]), "--trace"],
                       deadline)
        setups = []
    else:
        def scaled_setup(extra):
            setup, out = spawn(base + extra, deadline)
            return setup * out["setup_speed"], out

        def setup_only():
            return [scaled_setup(["--setup-only"])[0] for _ in range(SETUP_SPAWNS)]

        setups = setup_only()
        setup, res = scaled_setup(["--seconds", str(args.seconds)])
        setups += [setup] + setup_only()

    s = summarize(res)
    print("stamp " + json.dumps(res["stamp"], sort_keys=True))
    print(f"rounds={res['rounds']} ops={s['attempted']} "
          f"op_time_s={res['op_seconds']:.3f}")
    correct = s["failed"] == 0
    if args.trace:
        layers = dict(res["layers"])
        # the two workers may see the host at different speeds
        traced, untraced = scaled_op_seconds(res), scaled_op_seconds(ref)
        overhead = traced - untraced
        layers["trace.overhead_s"] = overhead / res["rounds"]
        layers["trace.overhead_frac"] = overhead / untraced
        layers["trace.spans"] = res["spans"] / res["rounds"]
        units = dict(LAYER_METRICS + TRACE_METRICS)
        missing = [l for l in plan.EXPECTED_LAYERS[args.workload]
                   if res["spans_seen"][l] == 0]
        if missing and correct:
            print(f"TRACE INCOMPLETE: layers {missing} recorded no spans on "
                  f"{args.workload}; the tracer no longer reaches them")
            correct = False
        print("per-layer metrics, per round (no layer has a queue: "
              "there is no waiting time to report):")
        for name, unit in units.items():
            print(f"  {name:32s} {_fmt(layers[name])} {unit}")
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in names}
    else:
        e2e = {"setup_s": statistics.median(setups), **s}
        print(f"setup samples, scaled (s): {', '.join(f'{x:.4f}' for x in setups)}")
        speeds = [[] for _ in range(res["rounds"])]
        for r in res["records"]:
            speeds[r["round"]].append(r["speed"])
        print("host speed by round: "
              + ", ".join(f"{statistics.median(x):.3f}" for x in speeds))
        print("certified/s by round: "
              + ", ".join(f"{x:.3f}" for x in s["per_round"]))
        extra = (("op_p90_s", "s"), ("first_round_s", "s"), ("fail_frac", "ratio"))
        for name, unit in END_TO_END + extra:
            note = ""
            if name == "op_p90_s" and s["attempted"] < P90_MIN_OPS:
                note = f" (n/a: {s['attempted']} ops < {P90_MIN_OPS})"
            print(f"  {name:20s} {_fmt(e2e[name])} {unit}{note}")
        units = dict(END_TO_END)
        metrics = {k: {"value": e2e[k], "unit": units[k]} for k in names}
    for p in s["problems"]:
        print(f"FAILED {p}")
    print(json.dumps({"correct": correct, "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(plan.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "magrad", "__init__.py")):
        print(f"error: no magrad sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        return run(args)
    except (WorkerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
