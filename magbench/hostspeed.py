"""A fixed reference computation that tracks the speed of the host.

The benchmark shares a few cores with other tenants of its machine, whose
load slows every operation by up to 1.8x, in spells of tens of seconds to
minutes: longer than a run.  The worker times `probe` just before every
operation, and 30 times right after its set-up.  The probe is independent of
magrad, so its time moves with the host only.  `speed` turns a stretch of
probes into the host's speed over it, 1 at nominal speed and below 1 when
loaded; a time multiplied by it is the time the same work would have taken
on the host at nominal speed.  A change to magrad changes these scaled times,
a change of the host's load does not.

The mix follows magrad's own: exact rational arithmetic (permutation sums,
exact LPs), dense matrix-vector products (the discretized spectral radius)
and many small numpy calls (ODEs, sampling, scalar minimization).  Of the
candidates tried against fixed magrad operations while the host's load
varied by up to 1.8x, this mix tracked them best, to about 5 %.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

import numpy as np

#: the probe's time, in seconds, on the host at its nominal speed: about the
#: median probe on a quiet 2-core Intel Xeon VM (Python 3.11, numpy 2.4)
NOMINAL_S = 0.0024
#: probes taken right after set-up, for the speed of a set-up
SETUP_PROBES = 30
#: an operation's speed is that of the probes of the WINDOW operations before
#: it, its own and those of the WINDOW after it
WINDOW = 4

_M = np.random.default_rng(0).random((256, 256))
_V = np.ones(256)
_S = np.random.default_rng(1).random((48, 48))
_W = np.ones(48)


def probe() -> float:
    """Seconds taken by the reference computation.

    The garbage collector is paused, so that the probe does not pay for the
    garbage of the operation before it, and the matrix is read once untimed,
    so that it does not pay for the caches that operation evicted.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _M.sum()
        t0 = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 120):
            acc += Fraction(k, k + 1) * Fraction(k + 2, 2 * k + 3)
        v = _V
        for _ in range(40):
            v = _M @ v
            v /= np.linalg.norm(v)
        w = _W
        for _ in range(300):
            w = _S @ w
            w = w / np.abs(w).max()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed(probes: list) -> float:
    """The host's speed over a stretch of probes: NOMINAL_S / their median."""
    return NOMINAL_S / statistics.median(probes)


def annotate(records: list) -> None:
    """Give each operation record the host's `speed` around it.

    Record i holds the probe taken just before operation i, so the probes of
    the WINDOW records on either side bracket it (records are in run order).
    """
    probes = [r["probe_s"] for r in records]
    for i, rec in enumerate(records):
        rec["speed"] = speed(probes[max(i - WINDOW, 0):i + WINDOW + 1])
