"""Seeded operation plans for the magrad benchmark workloads.

A plan is an endless sequence of rounds.  Every round of a workload has the
same composition (the same operation kinds, classes, degrees and LP shapes);
only the seeded parameters differ: rational lam values, letter merges, sample
spaces and sampling seeds.  Round r depends only on (workload, seed, r), so a
run that completes more rounds sees a longer prefix of the same sequence.

This module uses the standard library only: the parent process and the
self-tests build plans without importing magrad.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

#: rounds covered by the input digest (far more than any run executes)
DIGEST_ROUNDS = 32

#: float workloads draw lam = k/LAM_DEN without repeats across the first
#: len(pool)/LAM_SLOTS rounds, so no two operations of a run share a cached
#: Theta by coincidence of the seed
LAM_DEN = 1009
LAM_SLOTS = 48


def _primes_near(center: int, count: int) -> tuple:
    """The `count` primes nearest `center`, nearest first."""
    primes = [n for n in range(2, 2 * center)
              if all(n % d for d in range(2, int(n ** 0.5) + 1))]
    return tuple(sorted(primes, key=lambda n: (abs(n - center), n))[:count])


#: float-bounds round r runs the lam-minimized log bound and the scan on the
#: lam grids k/(2m) with m = LOG_GRID_M[r] and SCAN_GRID_M[r] (cycled): two
#: distinct primes share no grid point other than 0 and 1/2, so no round finds
#: an earlier scan's Theta values in the theta_ab cache, and the grid sizes
#: stay near the CLI defaults (101 and 41 points) on average
LOG_GRID_M = _primes_near(100, 12)
SCAN_GRID_M = _primes_near(40, 12)


def _rng(workload: str, seed: int, rnd: int) -> random.Random:
    # str seeds hash through sha512, independent of PYTHONHASHSEED
    return random.Random(f"magbench/{workload}/{seed}/{rnd}")


def _lam(rng: random.Random, den: int = 60) -> str:
    """A rational lam in (0, 1) other than 1/2, as "num/den"."""
    k = rng.choice([k for k in range(3, den - 2) if 2 * k != den])
    return str(Fraction(k, den))


class _LamPool:
    """Distinct lam = k/LAM_DEN per run: round r takes slots r*LAM_SLOTS on."""

    def __init__(self, workload: str, seed: int, rnd: int):
        self.ks = list(range(3, LAM_DEN - 2))
        random.Random(f"magbench/{workload}/{seed}/lam").shuffle(self.ks)
        self.i = rnd * LAM_SLOTS
        self.end = self.i + LAM_SLOTS

    def __call__(self) -> str:
        if self.i == self.end:
            raise ValueError("round draws more than LAM_SLOTS lam values")
        k = self.ks[self.i % len(self.ks)]
        self.i += 1
        return str(Fraction(k, LAM_DEN))


def _merge(rng: random.Random, multiplicities: tuple) -> list:
    """Seeded map of the letters 1..5 onto generators with given multiplicities."""
    letters = [g for g, m in enumerate(multiplicities, start=1) for _ in range(m)]
    rng.shuffle(letters)
    return letters


def _space(rng: random.Random, check: str) -> dict:
    return {"kind": "convexity", "check": check, "n": rng.randint(4, 8),
            "p": rng.choice(["5/4", "3/2", "3", "4"]), "trials": 1000,
            "sample_seed": rng.randrange(1 << 16)}


def _float_bounds(rng: random.Random, lam, rnd: int) -> list:
    # radius costs: p-1 = 2 ~10 ms; 3, 4 ~20 ms; 0, 1, 5 ~40 ms; 6 ~300 ms
    # (mostly the kernel's permutation sums).  The 3/4 block holds the median
    # latency; the cheap p-1 <= 2 radii give specrad the largest self time,
    # ahead of the permutation sums of the fresh-grid scans and p-1 = 6, 7.
    log_m = LOG_GRID_M[rnd % len(LOG_GRID_M)]
    scan_m = SCAN_GRID_M[rnd % len(SCAN_GRID_M)]
    ops = [{"kind": "log_bound", "q": "plain", "grid": log_m + 1},
           {"kind": "scan", "q": "plain", "grid": scan_m + 1}]
    for pm1 in (2,) * 14 + (3, 4) * 7 + (0, 1) * 6 + (5,) * 2 + (6,):
        ops.append({"kind": "radius", "p_minus_1": pm1, "lam": lam()})
    ops += [{"kind": "kernel", "p_minus_1": 6, "lam": lam()},
            {"kind": "kernel", "p_minus_1": 7, "lam": lam()}]
    ops += [{"kind": "c2", "q": q} for q in ("plain", "1", "2")]
    ops.append({"kind": "critical"})
    ops += [_space(rng, "umd"), _space(rng, "umq")]
    return ops


def _kernel_series(rng: random.Random, lam, rnd: int) -> list:
    # the ~20-30 ms block (crude-ratio bounds, warm C2 scans, p-1 = 5
    # kernels) holds the median latency; cheaper and dearer ops balance it
    ops = [{"kind": "kernel", "p_minus_1": pm1, "lam": lam()}
           for pm1 in (5, 5, 6, 6, 7)]
    for a, b in ((0, 4), (2, 2), (1, 4), (3, 2), (2, 4), (3, 3)):
        ops.append({"kind": "theta", "a": a, "b": b, "lam": lam()})
    ops += [{"kind": "c2", "q": q} for q in ("plain", "1", "2")]
    ops.append({"kind": "critical"})
    for q in ("plain", "1", "2", "plain", "1", "2"):
        ops.append({"kind": "gain", "q": q, "lam": lam(),
                    "x1": round(rng.uniform(0.5, 1.5), 4),
                    "x2": round(rng.uniform(0.5, 1.5), 4)})
    ops += [{"kind": "ode", "lam": lam()} for _ in range(3)]
    ops += [{"kind": "crude_ratio", "lam": lam()} for _ in range(6)]
    ops += [_space(rng, "umd"), _space(rng, "umq"),
            _space(rng, "umd"), _space(rng, "umq")]
    return ops


def _norm_deg5(rng: random.Random, lam, rnd: int) -> list:
    ops = []
    slots = [(a, (2, 2, 1)) for a in (1, 2, 3, 4)] + [(2, (2, 1, 1, 1))]
    for pair, (a, mult) in enumerate(slots):
        target = {"a": a, "lam": _lam(rng), "merge": _merge(rng, mult)}
        for q in ("1", "2"):
            ops.append({"kind": "norm", "q": q, "pair": pair, **target})
    return ops


def _lambda_scan(rng: random.Random, lam, rnd: int) -> list:
    # one round holds a scan of each q (q = 1 ~17 s, q = 2 ~40 s), so a run
    # of 45 s holds one round and its throughput does not hinge on where the
    # run stops.  Round 0 uses the CLI default grid=101; round r moves to
    # 101+2r so that it does not find an earlier scan's Theta values in the
    # theta_ab cache (which would make it ten times cheaper).
    grid = 101 + 2 * rnd
    half = grid - 1                                 # scan points lam = k/(2*half)
    ops = []
    for q in ("1", "2"):
        ops.append({"kind": "log_bound", "q": q, "grid": grid})
        for k in rng.sample(range(1, half), 2):     # on the scan grid
            ops.append({"kind": "pth_root", "q": q,
                        "lam": str(Fraction(k, 2 * half)), "grid": "on"})
        for k in rng.sample(range(0, half), 2):     # halfway between grid points
            ops.append({"kind": "pth_root", "q": q,
                        "lam": str(Fraction(2 * k + 1, 4 * half)), "grid": "off"})
    return ops


#: workload -> function making one round; the first two run cleanly at HEAD,
#: the LP-backed pair needs a working exact LP (see README.md)
WORKLOADS = {
    "float-bounds": _float_bounds,
    "kernel-series": _kernel_series,
    "norm-deg5": _norm_deg5,
    "lambda-scan": _lambda_scan,
}

#: layers that must record spans on a workload whose operations all succeed
EXPECTED_LAYERS = {
    "float-bounds": ("freealg", "umqnorm", "kernels", "specrad", "magnus",
                     "bch", "convexity"),
    "kernel-series": ("freealg", "umqnorm", "kernels", "magnus", "bch",
                      "convexity"),
    "norm-deg5": ("umqnorm", "simplex"),
    "lambda-scan": ("freealg", "umqnorm", "simplex", "kernels", "specrad",
                    "magnus"),
}


def plan_round(workload: str, seed: int, rnd: int) -> list:
    """Operations of round `rnd`; order shuffled by the same seeded stream."""
    rng = _rng(workload, seed, rnd)
    ops = WORKLOADS[workload](rng, _LamPool(workload, seed, rnd), rnd)
    rng.shuffle(ops)
    if workload == "lambda-scan":
        # pointwise queries share Theta with, and are checked against, their scan
        ops.sort(key=lambda op: op["kind"] != "log_bound")
    return ops


def inputs_digest(workload: str, seed: int, rounds: int = DIGEST_ROUNDS) -> str:
    """sha256 of the canonical JSON of the first `rounds` rounds."""
    plan = [plan_round(workload, seed, r) for r in range(rounds)]
    blob = json.dumps({"workload": workload, "seed": seed, "plan": plan},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
