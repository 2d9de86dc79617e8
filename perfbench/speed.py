"""Machine speed, measured by a fixed reference computation timed between ops.

The shared hosts this benchmark runs on change speed all the time: the same
10 ms of work takes 7 ms or 11 ms depending on what the neighbours on the core
are doing, and the mix drifts from minute to minute. ``Speedometer`` times
``reference_chunk`` right after each timed piece of work, for about ``SHARE``
of that piece's time, so that its samples cover the same stretch of the run as
the work. ``to_reference`` turns wall seconds measured in a stretch into
reference seconds: the time the work would have taken on a machine where the
chunk takes ``REF_S``. Stretches are summarised by the mean chunk time, not the
median: chunk times cluster around a fast and a slow value, the work's time
grows with the share of slow stretches and so does the mean, while the median
jumps between the two.

The chunk mixes what the workloads spend their time on: small-array numpy
steps with a fancy-index gather of delayed states, a larger gather, float
formatting and a pure-Python loop. It does not touch selfsync, so a change to
selfsync cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# about the mean time of one chunk on a 2-vCPU x86-64 sandbox (Python 3.11, numpy 2.4)
REF_S = 0.009
SHARE = 0.1

_rng = np.random.default_rng(20070925)
_N, _M = 40, 20
_W = _rng.uniform(0.0, 1.0, (_N, _N))
_LAG = _rng.integers(0, _M + 1, (_N, _N))
_X = _rng.normal(size=(_M + 150, _N))
_COLS = np.arange(_N)[None, :]
_BIG_N, _BIG_M = 300, 28
_BIG_W = _rng.uniform(0.0, 1.0, (_BIG_N, _BIG_N))
_BIG_LAG = _rng.integers(0, _BIG_M + 1, (_BIG_N, _BIG_N))
_BIG_X = _rng.normal(size=(_BIG_M + 1, _BIG_N))
_BIG_COLS = np.arange(_BIG_N)[None, :]
_VALUES = _rng.normal(size=400).tolist()


def reference_chunk() -> float:
    """Fixed work of about ``REF_S``; returns a checksum so nothing is skipped."""
    acc = 0.0
    for step in range(150):
        delayed = _X[_M + step - _LAG, _COLS]
        acc += float(np.einsum("ij,ij->i", _W, delayed).sum())
    for _ in range(6):
        delayed = _BIG_X[_BIG_M - _BIG_LAG, _BIG_COLS]
        acc += float(np.einsum("ij,ij->i", _BIG_W, delayed).sum())
    acc += len(",".join("%.18e" % v for v in _VALUES))
    return acc + sum(i * i for i in range(20_000))


def to_reference(wall_s: float, chunk_s: float) -> float:
    """Wall seconds measured while a chunk took ``chunk_s``, in reference seconds."""
    return wall_s * REF_S / chunk_s


class Speedometer:
    def __init__(self) -> None:
        self.samples: list[float] = []
        reference_chunk()  # warm-up: the first call is slower

    def sample(self, after_s: float = 0.0) -> float:
        """Time chunks for at least ``SHARE * after_s`` seconds, and at least
        one; returns their mean time."""
        spent, count = 0.0, 0
        while not count or spent < SHARE * after_s:
            t0 = time.perf_counter()
            reference_chunk()
            took = time.perf_counter() - t0
            self.samples.append(took)
            spent += took
            count += 1
        return spent / count

    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)

    def factor(self) -> float:
        """Reference seconds per wall second over all the samples so far."""
        return to_reference(1.0, self.mean_s())
