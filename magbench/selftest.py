"""Self-tests of the benchmark: oracles, plans and tracer.

    python3 magbench/selftest.py

Each checker must accept a true value and reject a perturbed one; plans must
be reproducible from the seed and keep their shape across seeds; reported
times must not move with the host's speed; the tracer must reach names bound
by `from .module import name`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import unittest
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ops  # noqa: E402
import plan  # noqa: E402
from magrad import bch, convexity, kernels, magnus, specrad, umqnorm  # noqa: E402
from magrad.freealg import NCPoly  # noqa: E402
from magrad.umqnorm import PLAIN, NormCertificate, NormValue  # noqa: E402

LAM = Fraction(2, 7)


def shape(op: dict) -> tuple:
    """The seed-independent part of an operation: kind and sizes, not values."""
    drop = {"lam", "merge", "n", "p", "sample_seed", "x1", "x2"}
    keep = tuple(sorted((k, repr(v)) for k, v in op.items() if k not in drop))
    if op["kind"] == "norm":
        keep += (("generators", len(set(op["merge"]))),)
    return keep


def accepts(op, value, ctx=None):
    return ops.check(op, value, {} if ctx is None else ctx) is None


class CheckersRejectPerturbations(unittest.TestCase):
    def test_log_bound_golden(self):
        for q, (want, tol) in ops.LOG_BOUND_GOLDEN.items():
            op = {"kind": "log_bound", "q": q, "grid": 101}
            self.assertTrue(accepts(op, SimpleNamespace(lower=want)))
            self.assertFalse(accepts(op, SimpleNamespace(lower=want + 2 * tol)))

    def test_c2_golden(self):
        for q, want in ops.C2_GOLDEN.items():
            op = {"kind": "c2", "q": q}
            self.assertTrue(accepts(op, SimpleNamespace(value=want)))
            self.assertFalse(accepts(op, SimpleNamespace(value=want + 2e-6)))
        op = {"kind": "c2", "q": "plain"}
        self.assertTrue(accepts(op, SimpleNamespace(value=2.89825)))
        self.assertFalse(accepts(op, SimpleNamespace(value=2.9)))

    def test_critical(self):
        self.assertTrue(accepts({"kind": "critical"}, (1.0 + 1e-8, 0.36)))
        self.assertFalse(accepts({"kind": "critical"}, (1.0 + 1e-5, 0.36)))

    def test_plain_kernel_against_series(self):
        for pm1 in (0, 3, 5):
            op = {"kind": "kernel", "p_minus_1": pm1, "lam": str(LAM)}
            rk = kernels.plain_reduced_kernel(pm1, LAM)
            self.assertTrue(accepts(op, rk))
            bad = list(rk.coeffs)
            bad[-1] += Fraction(1, 10 ** 9)
            self.assertFalse(accepts(op, dataclasses.replace(rk, coeffs=tuple(bad))))

    def test_plain_theta_against_series(self):
        for a, b in ((0, 4), (2, 3), (3, 3)):
            op = {"kind": "theta", "a": a, "b": b, "lam": str(LAM)}
            val = umqnorm.theta_ab(a, b, LAM, PLAIN)
            self.assertTrue(accepts(op, val))
            off = val.value + Fraction(1, 10 ** 12)
            self.assertFalse(accepts(op, NormValue(off, off)))

    def test_radius(self):
        for pm1 in (0, 2):
            op = {"kind": "radius", "p_minus_1": pm1, "lam": str(LAM)}
            rk = kernels.plain_reduced_kernel(pm1, LAM)
            rr = specrad.radius_refined(rk.two_sided(), tol=1e-8)
            self.assertTrue(accepts(op, (rk, rr)))
            off = dataclasses.replace(rr, radius=rr.radius * (1 + 1e-5))
            self.assertFalse(accepts(op, (rk, off)))
        op = {"kind": "radius", "p_minus_1": 0, "lam": str(LAM)}
        off = dataclasses.replace(rr, radius=1.0 / ops.c_plain(float(LAM)) + 1e-5)
        self.assertFalse(accepts(op, (kernels.plain_reduced_kernel(0, LAM), off)))

    def test_scan(self):
        op = {"kind": "scan", "q": "plain", "grid": 3}
        rows = [(0.0, 0.0, float("inf")), (0.25, 0.02, 2.2), (0.5, 0.03125, 2.0)]
        self.assertTrue(accepts(op, (rows, True)))
        self.assertFalse(accepts(op, (rows, False)))
        rows[1] = (0.25, 0.04, 1.9)
        self.assertFalse(accepts(op, (rows, True)))

    def test_convexity(self):
        space = convexity.LpSpace(n=4, p=3.0)
        rep = convexity.check_umq_sampled(space, 50, seed=3)
        op = {"kind": "convexity", "check": "umq", "n": 4, "p": "3",
              "trials": 50, "sample_seed": 3}
        self.assertTrue(accepts(op, rep))
        self.assertFalse(accepts(op, dataclasses.replace(rep, violations=[7])))

    def test_float_bound_kinds(self):
        lam = LAM
        want = ops.c_plain(float(lam))
        op = {"kind": "ode", "lam": str(lam)}
        self.assertTrue(accepts(op, magnus.ode_blowup(float(lam))))
        self.assertFalse(accepts(op, want * (1 + 1e-5)))
        op = {"kind": "crude_ratio", "lam": str(lam)}
        rep = magnus.crude_ratio_bound(lam, ops.P, PLAIN)
        self.assertTrue(accepts(op, rep))
        self.assertFalse(accepts(op, SimpleNamespace(lower=want * (1 + 1e-6))))
        op = {"kind": "gain", "q": "1", "lam": str(lam), "x1": 1.2, "x2": 0.9}
        val = ops.prepare(op)()
        self.assertTrue(accepts(op, val))
        ups, g = val
        self.assertFalse(accepts(op, (ups, dataclasses.replace(g, bound=g.bound * 0.9))))

    def test_pointwise_not_below_minimized(self):
        op = {"kind": "pth_root", "q": "1", "lam": "1/4", "grid": "on"}
        ctx = {("log_bound", "1"): 2.0718}
        self.assertTrue(accepts(op, SimpleNamespace(lower=2.3), ctx))
        self.assertFalse(accepts(op, SimpleNamespace(lower=2.07), ctx))
        self.assertFalse(accepts(op, SimpleNamespace(lower=2.3), {}))

    def test_norm_certificate(self):
        # a monomial costs its coefficient: e_w is dual feasible at kappa = 1/2
        # because no quasi-monomial puts more than 1/2 on a single word
        w, c = (1, 1, 2, 2, 3), Fraction(3, 7)
        target = NCPoly({w: c})
        qms = umqnorm.enumerate_quasimonomials(5, w)
        idx = next(i for i, qm in enumerate(qms)
                   if qm.xi_count == 0 and qm.evaluate() == NCPoly.monomial(w))
        kappa = Fraction(1, 2)
        op = {"kind": "norm", "q": "1", "pair": 0, "_target": target}

        def value(v, duals, coeff):
            cert = NormCertificate(kappa=kappa, value=v, coefficients={idx: coeff},
                                   duals=duals, basis=[])
            return NormValue(v, v, [cert])

        self.assertTrue(accepts(op, value(c, {w: Fraction(1)}, c)))
        self.assertFalse(accepts(op, value(c + Fraction(1, 7), {w: Fraction(1)}, c)))
        self.assertFalse(accepts(op, value(c, {w: Fraction(2)}, c)))      # dual objective
        # a dual of 2 on a word outside the target: its own monomial column
        # is violated while the dual objective stays at the value
        self.assertFalse(accepts(op, value(c, {w: Fraction(1), (1, 2, 1, 2, 3): Fraction(2)}, c)))
        self.assertFalse(accepts(op, value(c, {w: Fraction(1)}, 2 * c)))  # primal


class PlansAreSeeded(unittest.TestCase):
    def test_same_seed_same_digest(self):
        for w in plan.WORKLOADS:
            self.assertEqual(plan.inputs_digest(w, 5), plan.inputs_digest(w, 5))

    def test_other_seed_other_inputs_same_shape(self):
        for w in plan.WORKLOADS:
            self.assertNotEqual(plan.inputs_digest(w, 5), plan.inputs_digest(w, 6))
            for r in range(3):
                a, b = plan.plan_round(w, 5, r), plan.plan_round(w, 6, r)
                self.assertNotEqual(a, b)
                self.assertEqual(sorted(map(shape, a)), sorted(map(shape, b)))

    def test_float_lams_distinct_within_a_run(self):
        for w in ("float-bounds", "kernel-series"):
            lams = [op["lam"] for r in range(20) for op in plan.plan_round(w, 9, r)
                    if "lam" in op]
            self.assertEqual(len(lams), len(set(lams)))

    def test_float_bounds_grids_share_only_0_and_half(self):
        # lam = k/(2m) for 0 < k < m, over every log-bound and scan grid
        seen = set()
        for r in range(min(len(plan.LOG_GRID_M), len(plan.SCAN_GRID_M))):
            for op in plan.plan_round("float-bounds", 9, r):
                if op["kind"] in ("log_bound", "scan"):
                    m = op["grid"] - 1
                    pts = {Fraction(k, 2 * m) for k in range(1, m)}
                    self.assertFalse(pts & seen, (r, op))
                    seen |= pts

    def test_norm_lp_sizes_independent_of_seed(self):
        def sizes(seed):
            out = []
            for op in plan.plan_round("norm-deg5", seed, 0):
                t = ops.merged_target(op["a"], Fraction(op["lam"]), op["merge"])
                gens = t.generator_multiset()
                out.append((len(t.terms),
                            len(umqnorm.enumerate_quasimonomials(5, gens))))
            return sorted(out)

        s5 = sizes(5)
        self.assertEqual(s5, sizes(6))
        self.assertEqual(sorted(set(s5)), [(30, 150), (60, 348)])


class BenchmarkJsonMatchesCode(unittest.TestCase):
    def test_metric_names_and_units(self):
        import run

        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        self.assertEqual(e2e, dict(run.END_TO_END))
        units = dict(run.LAYER_METRICS + run.TRACE_METRICS)
        for m in bench["per_layer"]:
            self.assertEqual(units.get(m["name"]), m["unit"], m["name"])
        for w in bench["workloads"]:
            self.assertIn(w["name"], plan.WORKLOADS)


class HostSpeedScalesTimes(unittest.TestCase):
    @staticmethod
    def run_at(slowdown: float, n: int = 40) -> dict:
        """Records of two rounds on a host `slowdown` times slower than nominal."""
        import hostspeed

        recs = [{"round": i * 2 // n, "kind": "radius", "error": None,
                 "seconds": slowdown * 0.01 * (1 + i % 5),
                 "probe_s": slowdown * hostspeed.NOMINAL_S} for i in range(n)]
        hostspeed.annotate(recs)
        return {"records": recs, "rounds": 2, "round_seconds": [1.0, 1.0],
                "peak_rss_mb": 80.0}

    def test_speed_is_that_of_the_probes_around(self):
        import hostspeed

        recs = [{"probe_s": hostspeed.NOMINAL_S * (1 if i < 20 else 2)}
                for i in range(40)]
        hostspeed.annotate(recs)
        self.assertEqual(recs[0]["speed"], 1.0)
        self.assertEqual(recs[-1]["speed"], 0.5)
        self.assertEqual(recs[19]["speed"], 1.0)    # 5 of its 9 probes nominal
        self.assertEqual(recs[20]["speed"], 0.5)

    def test_summary_does_not_move_with_the_host(self):
        import run

        calm, loaded = (run.summarize(self.run_at(k)) for k in (1.0, 1.5))
        for name in ("certified_per_s", "op_p50_s"):
            self.assertAlmostEqual(calm[name], loaded[name], places=9)
        self.assertAlmostEqual(calm["op_p50_s"], 0.03)


class TracerReachesImportedNames(unittest.TestCase):
    def test_spans_through_from_imports(self):
        from tracing import Tracer

        tr = Tracer()
        tr.install()
        self.assertTrue(hasattr(umqnorm.simplex_min, "__wrapped__"))
        self.assertTrue(hasattr(kernels.theta_ab, "__wrapped__"))
        self.assertFalse(hasattr(bch.LambdaPoly, "__wrapped__"))
        tr.active = True
        magnus.c_bound_pth_root(Fraction(1, 3), 3, PLAIN)
        tr.active = False
        seen = tr.spans_seen()
        for layer in ("magnus", "kernels", "umqnorm", "freealg", "specrad"):
            self.assertGreater(seen[layer], 0, layer)
        m = tr.layer_metrics(1, 1.0)
        self.assertGreater(m["specrad.discretize_points"], 0)
        self.assertGreaterEqual(m["bench.self_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
