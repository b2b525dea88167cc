"""Exact integer sequences and combinatorial triangles.

Fibonacci, Lucas and Padovan numbers, binomial coefficients with the
C(-1,-1) = 1 boundary convention the cube-factor formulas rely on, and the
(1,2)-Pascal triangle (Lucas triangle). Everything is plain Python ints, so
values stay exact at every index exercised by the test suite (up to n = 500).

Nothing is memoised. The three sequences and the triangle's rows are
streamed, each by one forward pass that holds only the terms or the row
its recurrence reads; a single term is read from its stream, computed from
index 0 on every call. The binomial row C(n, 0..n) is built the same way,
by the multiplicative step C(n, k+1) = C(n, k) * (n-k) / (k+1).
"""

from __future__ import annotations

from collections import deque
from itertools import count, islice
from math import comb
from operator import add
from typing import Iterable, Iterator, TypeVar

__all__ = [
    "fib",
    "lucas",
    "padovan",
    "padovan_closed",
    "binom_ext",
    "binomial_row",
    "lucas_triangle_additive_row",
    "lucas_triangle_rows",
    "lucas_triangle_row",
]


_T = TypeVar("_T")


def _check_index(n: int, name: str = "index") -> None:
    """Refuse a negative order, index or count; ``name`` is the argument's
    name, as every refusal message gives it."""
    if n < 0:
        raise ValueError(f"{name} must be non-negative, got {n}")


# each streamed sequence by name, with its first terms: the seed window of ``_terms``
_SEEDS: dict[str, tuple[int, ...]] = {"fibonacci": (0, 1), "lucas": (2, 1), "padovan": (1, 1, 1)}


def _terms(name: str) -> Iterator[int]:
    """Terms 0, 1, 2, ... of a sequence named in ``_SEEDS``, in one forward pass.

    Each is x(m + w) = x(m) + x(m + 1) run from its first w terms, the seed
    window: w = 2 gives the Fibonacci step x(m + 2) = x(m) + x(m + 1), and
    w = 3 gives Padovan's x(m + 3) = x(m) + x(m + 1).
    """
    window = deque(_SEEDS[name])
    while True:
        oldest = window.popleft()
        yield oldest
        window.append(oldest + window[0])


def _term(stream: Iterable[_T], n: int, name: str = "index") -> _T:
    """Term n of the stream, after :func:`_check_index` refuses a negative n."""
    _check_index(n, name)
    return next(islice(stream, n, None))


def fib(n: int) -> int:
    """n-th Fibonacci number, F(0) = 0, F(1) = 1."""
    return _term(_terms("fibonacci"), n)


def lucas(n: int) -> int:
    """n-th Lucas number, L(0) = 2, L(1) = 1."""
    return _term(_terms("lucas"), n)


def padovan(n: int) -> int:
    """n-th Padovan number: p(0) = p(1) = p(2) = 1, p(n) = p(n-2) + p(n-3)."""
    return _term(_terms("padovan"), n)


def padovan_closed(n: int) -> int:
    """Padovan number as the binomial sum over j of C(j+1, n-2j).

    Independent of :func:`padovan`; the two must agree everywhere. The sum
    runs over floor((n+1)/3) <= j <= floor(n/2), outside of which every
    term vanishes.
    """
    _check_index(n)
    return sum(binom_ext(j + 1, n - 2 * j) for j in range((n + 1) // 3, n // 2 + 1))


def binom_ext(n: int, k: int) -> int:
    """Binomial coefficient with extended boundary conventions.

    Standard C(n, k) for 0 <= k <= n, the single special value
    C(-1, -1) = 1, and 0 for every other pair (k < 0, k > n, or n < 0).
    """
    if n == -1 and k == -1:
        return 1
    if n < 0 or k < 0 or k > n:
        return 0
    return comb(n, k)


def binomial_row(n: int) -> list[int]:
    """C(n, 0), ..., C(n, n): up to the middle each from the last by
    C(n, k+1) = C(n, k) * (n-k) / (k+1), the rest mirrored by
    C(n, k) = C(n, n-k)."""
    _check_index(n)
    row = [1]
    for k in range(n // 2):
        row.append(row[-1] * (n - k) // (k + 1))
    return row + row[: (n + 1) // 2][::-1]


def lucas_triangle_additive_row(n: int) -> list[int]:
    """Row n of the Lucas triangle by the additive formula C(n,k) + C(n-1,k-1).

    The second term's row is C(n-1, k-1) for k = 0..n: 0 then row n-1, or at
    the apex the single C(-1,-1) = 1, which makes Y(0,0) = 2.
    """
    _check_index(n)
    shifted = [binom_ext(-1, -1)] if n == 0 else [0, *binomial_row(n - 1)]
    return list(map(add, binomial_row(n), shifted))


def lucas_triangle_rows() -> Iterator[list[int]]:
    """Rows 0, 1, 2, ... of the Lucas triangle, by the Pascal-style recurrence.

    Interior entries satisfy Y(n,k) = Y(n-1,k-1) + Y(n-1,k); the boundary
    columns are seeds (the Pascal step alone would give row 1 = [2, 2]
    instead of [1, 2]). The second, independent route next to
    :func:`lucas_triangle_additive_row`; each row handed out is a fresh list
    it no longer reads.
    """
    row = [2]
    for m in count(1):
        following = [1] + [row[k - 1] + row[k] for k in range(1, m)] + [2]
        yield row
        row = following


def lucas_triangle_row(n: int) -> list[int]:
    """Row n of the Lucas triangle, read from :func:`lucas_triangle_rows`."""
    return _term(lucas_triangle_rows(), n)
