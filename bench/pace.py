"""A fixed reference kernel, run between timed steps, that measures how
fast the machine runs at that moment.

The benchmark runs on shared hosts whose speed changes by 20-40 % over
seconds to minutes, in CPU time as much as in wall time, so the same
operation on the same input reads differently from run to run.  `time_slice`
runs a slice of a fixed kernel, written here and sharing no code with
cliptrap, and returns the kernel's time per repetition; bench/run.py runs
one after each timed step, so that each step lies between two slices.  A
step's time divided by the kernel's time around it, times REF_REP_MS, is
its time in ref_ms: the milliseconds it would take on a machine that runs
the kernel in exactly REF_REP_MS.  A change of the program's own speed
shows in ref_ms in full; the machine's drift, which slows the kernel
alike, cancels.

The kernel does the kinds of work the program does, since the host's
interference slows kinds of code unequally: a 2-D adaptive quadrature of
a Python integrand (the cloud volumes), a vectorised scalar series (the
per-pixel K1), array arithmetic (the rate-model evaluations) and a small
least-squares solve (the fits).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from tracer import clock

# The kernel's time per repetition on a quiet 2-core x86 VM; only a scale.
REF_REP_MS = 2.0

_T = np.linspace(0.0, 40.0, 2000)
_X = np.linspace(0.05, 6.0, 150)
_A = np.vander(np.linspace(-1.0, 1.0, 200), 6)
_B = np.cos(np.linspace(0.0, 3.0, 200))


def _series(x: float) -> float:
    """exp(-x) I0(x) by its power series: scalar Python, like the K1."""
    term = total = 1.0
    for k in range(1, 30):
        term *= x * x / (4.0 * k * k)
        total += term
        if term < 1e-16 * total:
            break
    return total * math.exp(-x)


_vectorized_series = np.vectorize(_series, otypes=[float])


def kernel() -> float:
    """One repetition, about 2 ms."""
    s = integrate.dblquad(
        lambda y, x: math.exp(-math.hypot(x, y) - 0.3 * y),
        -4.0, 4.0, -4.0, 4.0, epsabs=0.0, epsrel=1e-3)[0]
    s += float(_vectorized_series(_X).sum())
    for g in (0.01, 0.02, 0.03, 0.05, 0.07, 0.1, 0.2, 0.3):
        n = np.tanh(g * _T) / (1.0 + g * np.exp(-_T / 7.0))
        s += float(np.sum((n - 0.5) ** 2))
    s += float(np.linalg.lstsq(_A, _B, rcond=None)[0].sum())
    return s


def time_slice(at_least_s: float) -> float:
    """Run whole kernel repetitions for at least `at_least_s` seconds (one
    at least); returns the seconds per repetition."""
    reps = 0
    t0 = clock()
    while True:
        kernel()
        reps += 1
        elapsed = clock() - t0
        if elapsed >= at_least_s:
            return elapsed / reps
