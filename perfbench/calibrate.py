"""A fixed pure-Python kernel that measures how fast the host runs right now.

The hosts this benchmark runs on switch between faster and slower states
every few seconds, and the share of time spent in each drifts from one
minute to the next: whole runs of the same code differed by a third.
Timing this kernel just before, during (``Sampler``) and just after each
op, and dividing the op's time by the kernel's mean time, removes most of
that drift.  The kernel uses none of the package's code, so a change to the
package never changes it.  It mixes the kinds of work the package does:
recursion over byte strings, building and hashing small tuples, and complex
arithmetic.

``REFERENCE_S`` is the kernel's duration on a fast, quiet run of the
machine the baseline was taken on (2-CPU Intel Xeon virtual machine,
Python 3.11.7).  A duration divided by the kernel's duration and multiplied
by ``REFERENCE_S`` is the duration the same work takes at that speed.
"""

from __future__ import annotations

import signal
import time

REFERENCE_S = 0.0013
SAMPLE_EVERY_S = 0.05  # Sampler's timer interval: about 2.5% of an op's time


def _necklaces(max_len: int) -> int:
    weights = (2, 2, 3, 3)
    buf = bytearray()
    count = 0

    def dfs(used: int) -> None:
        nonlocal count
        s = bytes(buf)
        n = len(s)
        if n:
            s2 = s + s
            if all(s2[i : i + n] >= s for i in range(1, n)):
                count += 1
        for o, w in enumerate(weights):
            if used + w <= max_len:
                buf.append(o)
                dfs(used + w)
                buf.pop()

    dfs(0)
    return count


def _tuples(n: int) -> int:
    seen = set()
    for i in range(n):
        key = tuple((i * k) % 7 - 3 for k in range(1, 6))
        seen.add(key[i % 5 :] + key[: i % 5])
    return len(seen)


def _horner(n: int) -> complex:
    coeffs = [float((-1) ** k * (k + 1)) for k in range(12)]
    acc = 0j
    for i in range(n):
        z = complex(1.0 + i * 1e-4, 0.5)
        v = 0j
        for c in coeffs:
            v = v * z + c
        acc += v
    return acc


def kernel() -> None:
    _necklaces(11)
    _tuples(250)
    _horner(100)


def block(seconds: float) -> tuple[float, int]:
    """Run the kernel for at least ``seconds`` (and at least once);
    return (elapsed seconds, runs)."""
    start = time.perf_counter()
    runs = 0
    while True:
        kernel()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed, runs


class Sampler:
    """Runs the kernel from a SIGALRM interval timer while a long op runs,
    so the host's speed is measured during the op and not only around it.

    The handler runs in the main thread between bytecodes; its own time is
    in ``elapsed`` so the caller can subtract it from the op's time.
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self.runs = 0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.elapsed += time.perf_counter() - t0
        self.runs += 1

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
