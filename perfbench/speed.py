"""Host-speed reference for the timed metrics.

On a shared host the same single-threaded code runs up to twice as fast in
one second as in another, and the swings do not average out within a run.
So the benchmark times a fixed chunk of reference work right after every
query.  The chunk uses only the standard library, in the way the library's
inner loops do (string keys in a dict memo, exact rational arithmetic, small
min/max matrices, recursion), and never calls the library, so a change to
the program cannot move it.

A query's latency is reported in reference seconds: multiplied by
``REFERENCE_S`` over the mean chunk time of the chunks run around it.  That
is the time the query would have taken on a host where one chunk takes
``REFERENCE_S``.  Over a minute of conj_strips blocks on a shared 2-vCPU
host, the ratio of query time to chunk time had a coefficient of variation
of 3.5%, where the raw block times had one of 18.5%.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Mean time of one chunk on a 2.1 GHz Xeon vCPU in a quiet period.
REFERENCE_S = 0.003
# Chunks on each side of a query that set its scale.
WINDOW = 15


def chunk() -> float:
    """Run the reference work once; return its wall time."""
    start = time.perf_counter()
    memo: dict[str, Fraction] = {}

    def value(n: int, a: int) -> Fraction:
        key = f"r({a}|{n})"
        hit = memo.get(key)
        if hit is not None:
            return hit
        if n <= 0:
            v = Fraction(a % 3 - 1)
        else:
            rows = [[value(n - i - j - 1, (a * 7 + i * 3 + j) % 13) for j in range(2)] for i in range(2)]
            low = max(min(row) for row in rows)
            high = min(max(col) for col in zip(*rows))
            v = (low + high) / 2 + Fraction(1, n + 3)
        memo[key] = v
        return v

    for a in range(8):
        value(12, a)
    ",".join(sorted(memo))
    return time.perf_counter() - start


def scales(chunk_times: list[float]) -> list[float]:
    """For each position, REFERENCE_S over the mean of the chunk times
    within WINDOW positions of it."""
    prefix = [0.0]
    for t in chunk_times:
        prefix.append(prefix[-1] + t)
    out = []
    for i in range(len(chunk_times)):
        lo, hi = max(0, i - WINDOW), min(len(chunk_times), i + WINDOW + 1)
        out.append(REFERENCE_S * (hi - lo) / (prefix[hi] - prefix[lo]))
    return out
