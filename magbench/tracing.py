"""Span tracing around the public entry points of magrad's modules.

`Tracer.install` wraps every public module-level function of each layer
module and rebinds every name in every loaded magrad module that refers to
it, so calls made through `from .simplex import simplex_min`-style imports
are caught as well.  A span records its name, start, end, parent span and
operation id; spans stay in memory until the run ends.

Per-layer self time is a span's duration minus the durations of its direct
child spans, summed over the layer's spans.  Every layer is single-threaded
and has no queue, so there is no waiting time to report.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("freealg", "umqnorm", "simplex", "kernels", "specrad", "magnus",
          "bch", "convexity")

#: called once per permutation inside the permutation sums; counted as part
#: of the calling freealg span rather than given spans of their own
UNTRACED = {("freealg", "ascent_descent")}

#: per-layer metrics, in report order: (name, unit)
METRICS = (
    ("simplex.solves", "count"), ("simplex.solve_s", "s"),
    ("simplex.verify_s", "s"), ("simplex.tableau_cells", "count"),
    ("simplex.rows_max", "count"), ("simplex.failed", "count"),
    ("simplex.solves_per_theta", "ratio"), ("simplex.self_s", "s"),
    ("umqnorm.theta_calls", "count"), ("umqnorm.norm_calls", "count"),
    ("umqnorm.theta_cache_hit_ratio", "ratio"), ("umqnorm.self_s", "s"),
    ("freealg.calls", "count"), ("freealg.self_s", "s"),
    ("kernels.reduced_kernel_calls", "count"), ("kernels.self_s", "s"),
    ("specrad.radius_calls", "count"), ("specrad.discretize_s", "s"),
    ("specrad.discretize_points", "count"), ("specrad.power_iter_s", "s"),
    ("specrad.iterations", "count"), ("specrad.doublings", "count"),
    ("specrad.unconverged", "count"), ("specrad.self_s", "s"),
    ("magnus.lambda_evals", "count"), ("magnus.self_s", "s"),
    ("bch.calls", "count"), ("bch.self_s", "s"),
    ("convexity.trials", "count"), ("convexity.violations", "count"),
    ("convexity.self_s", "s"),
    ("bench.self_s", "s"),
)


class Tracer:
    def __init__(self):
        self.spans = []           # [name, layer, parent, op, start, end, info]
        self._stack = []
        self.op = None
        self.active = False
        self.originals = {}       # "layer.name" -> unwrapped function

    def install(self):
        """Wrap the layer modules' public functions wherever they are bound."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"magrad.{layer}")
            for attr, obj in list(vars(mod).items()):
                is_function = (inspect.isfunction(obj)
                               or hasattr(obj, "cache_info"))   # lru_cache
                if (attr.startswith("_") or not is_function
                        or getattr(obj, "__module__", None) != mod.__name__
                        or (layer, attr) in UNTRACED):
                    continue
                self.originals[f"{layer}.{attr}"] = obj
                wrapped[id(obj)] = self._wrap(layer, attr, obj)
        for name, mod in list(sys.modules.items()):
            if name != "magrad" and not name.startswith("magrad."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])

    def _wrap(self, layer, attr, fn):
        name = f"{layer}.{attr}"
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, layer, stack[-1] if stack else None, self.op, 0.0,
                   0.0, None]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            rec[4] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[5] = clock()
                rec[6] = {"raised": True}
                raise
            finally:
                stack.pop()
            rec[5] = clock()
            rec[6] = _info(name, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = attr
        return traced

    # -----------------------------------------------------------------------

    def layer_metrics(self, rounds: int, op_seconds: float) -> dict:
        """Per-round layer metrics (totals divided by rounds; max and ratios not).

        `bench.self_s` is operation time outside every layer span: the
        benchmark's own glue and calls into modules that are not layers.
        """
        sp = self.spans
        child = [0.0] * len(sp)
        n_disc = [0] * len(sp)
        for rec in sp:
            parent = rec[2]
            if parent is not None:
                child[parent] += rec[5] - rec[4]
                if rec[0] == "specrad.discretize":
                    n_disc[parent] += 1
        tot = {k: 0.0 for k, _ in METRICS}
        rows_max = 0
        for i, (name, layer, parent, _op, start, end, info) in enumerate(sp):
            dur = end - start
            tot[f"{layer}.self_s"] += dur - child[i]
            if parent is None:
                tot["bench.self_s"] -= dur
            entry = parent is None or sp[parent][1] != layer
            info = info or {}
            if entry and f"{layer}.calls" in tot:
                tot[f"{layer}.calls"] += 1
            if name == "simplex.simplex_min":
                tot["simplex.solves"] += 1
                tot["simplex.solve_s"] += dur
                tot["simplex.tableau_cells"] += info.get("cells", 0)
                rows_max = max(rows_max, info.get("rows", 0))
            elif name == "simplex.verify_certificate":
                tot["simplex.verify_s"] += dur
            if layer == "simplex" and (info.get("raised")
                                       or info.get("verified") is False):
                tot["simplex.failed"] += 1
            if name in ("umqnorm.theta_ab", "umqnorm.theta_k"):
                tot["umqnorm.theta_calls"] += 1
            elif name == "umqnorm.fa_norm_exact":
                tot["umqnorm.norm_calls"] += 1
            elif name == "kernels.reduced_kernel":
                tot["kernels.reduced_kernel_calls"] += 1
                tot["magnus.lambda_evals"] += (parent is not None
                                               and sp[parent][1] == "magnus")
            elif name == "specrad.discretize":
                tot["specrad.discretize_s"] += dur
                tot["specrad.discretize_points"] += info.get("n", 0)
            elif name == "specrad.power_iteration_hopf":
                tot["specrad.power_iter_s"] += dur
                tot["specrad.iterations"] += info.get("iterations", 0)
            elif name == "specrad.radius_refined":
                tot["specrad.doublings"] += max(n_disc[i] - 1, 0)
            elif name.startswith("convexity.check_"):
                tot["convexity.trials"] += info.get("trials", 0)
                tot["convexity.violations"] += info.get("violations", 0)
            if layer == "specrad" and entry:
                if name in ("specrad.radius_refined", "specrad.power_iteration_hopf",
                            "specrad.convolution_radius"):
                    tot["specrad.radius_calls"] += 1
                tot["specrad.unconverged"] += info.get("unconverged", 0)
        tot["bench.self_s"] = max(tot["bench.self_s"] + op_seconds, 0.0)
        out = {k: v / rounds for k, v in tot.items()}
        out["simplex.rows_max"] = float(rows_max)
        theta = self.originals.get("umqnorm.theta_ab")
        ci = theta.cache_info() if theta is not None else None
        calls = (ci.hits + ci.misses) if ci else 0
        out["umqnorm.theta_cache_hit_ratio"] = ci.hits / calls if calls else 0.0
        out["simplex.solves_per_theta"] = (
            tot["simplex.solves"] / ci.misses if ci and ci.misses else 0.0)
        return out

    def spans_seen(self) -> dict:
        counts = {layer: 0 for layer in LAYERS}
        for rec in self.spans:
            counts[rec[1]] += 1
        return counts

    def span_records(self):
        for i, (name, layer, parent, op, start, end, info) in enumerate(self.spans):
            yield {"id": i, "parent": parent, "op": op, "name": name,
                   "start": start, "end": end, **({"info": info} if info else {})}


def _info(name, args, kwargs, out):
    """Counts taken at the boundary from arguments and results."""
    if name == "simplex.simplex_min":
        A, c = args[0], args[2]
        return {"rows": len(A), "cells": len(A) * len(c)}
    if name == "simplex.verify_certificate":
        return {"verified": bool(out)}
    if name == "specrad.discretize":
        return {"n": args[1] if len(args) > 1 else kwargs.get("n", 0)}
    if name in ("specrad.power_iteration_hopf", "specrad.radius_refined"):
        bad = (not out.converged) or out.warning is not None
        return {"iterations": out.iterations, "unconverged": int(bad)}
    if name.startswith("convexity.check_"):
        return {"trials": out.trials, "violations": len(out.violations)}
    return None
