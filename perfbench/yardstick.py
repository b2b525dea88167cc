"""A fixed pure-Python workload that measures how fast the machine runs now.

The benchmark runs the yardstick right before every task and reports task
times scaled by ``REFERENCE_S / yardstick time``. On a shared machine the
speed of the same code drifts by more than half over minutes; the
yardstick drifts with it, so the scaled time follows the program rather
than its neighbours. The yardstick is the benchmark's own code and must
never change, or results before and after the change stop comparing.

Its parts mirror the program's hot paths: a memoised bitmask search
(exact search and packing), a pairwise join over bitmasks into a set
(cube enumeration), a big-integer polynomial recurrence printed as
decimal text (qpoly_rec and the CLI's output) and binomials (closed
forms and the identity audit). Its allocations add about 1.5 MB to the
``peak_rss_mb`` of the in-process workloads, the same on every version.
"""

from __future__ import annotations

from math import comb
from time import perf_counter

# about the yardstick's time on the 2-vCPU Intel Xeon VM (Python 3.11) the
# benchmark was written on; scaled times read in seconds of that machine
REFERENCE_S = 0.1


def _search() -> int:
    n = 40
    adj = [0] * n
    for v in range(n):
        for d in (1, 5, 11):
            adj[v] |= 1 << (v + d) % n
            adj[(v + d) % n] |= 1 << v
    memo: dict[int, int] = {}

    def count(avail: int) -> int:
        if avail == 0:
            return 1
        got = memo.get(avail)
        if got is not None:
            return got
        v = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << v)
        result = count(rest) + count(rest & ~adj[v])
        memo[avail] = result
        return result

    return count((1 << n) - 1)


def _join() -> int:
    masks = [(i * 2654435761) & ((1 << 48) - 1) | 1 << (i % 48) for i in range(520)]
    found: set[int] = set()
    for i, a in enumerate(masks):
        for j in range(i + 1, len(masks)):
            b = masks[j]
            if (a ^ b).bit_count() < 20 and a & b:
                found.add(a & b & 0xFFF)
    return len(found)


def _polynomials() -> int:
    rows: list[tuple[int, ...]] = [(1,), (0, 1), (1, 1)]  # the last three only
    printed = 0
    for m in range(3, 640):
        shifted, plain = rows[-2], rows[-3]
        out = [0] * max(len(shifted) + 1, len(plain))
        for i, c in enumerate(shifted):
            out[i + 1] += c
        for i, c in enumerate(plain):
            out[i] += c
        rows = [rows[1], rows[2], tuple(out)]
        if m >= 600:
            printed += len(",".join(str(c) for c in out))
    return printed


def _binomials() -> int:
    return sum(comb(n, k) % 1009 for n in range(0, 330, 3) for k in range(0, n + 1, 2))


def yardstick() -> float:
    """Seconds the fixed workload took just now."""
    start = perf_counter()
    _search()
    _join()
    _polynomials()
    _binomials()
    return perf_counter() - start
