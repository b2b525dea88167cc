"""Optimal cube factor polynomials of the two cube families.

The coefficient q_k of the polynomial for index n counts the dimension-k
components of an optimal (minimum-component) cube factor. Three independent
routes compute the same coefficients:

* ``qpoly_rec``  -- the base cases plus the recurrence
                    Q(n, x) = x * Q(n-2, x) + Q(n-3, x);
* ``q_closed_row`` -- binomial / Lucas-triangle closed forms, one row of
                      coefficients at a time;
* ``gf_series``  -- truncated expansion of the rational generating function
                    in y, with polynomial-in-x coefficients.

Every generating function here -- the two families' and Padovan's
(1 + y) / (1 - y^2 - y^3) -- is one call of a single expander,
``_expand_rational``, with its own numerator over 1 - x*y^2 - y^3. The
expander shares no loop with the recurrence (only ``_strip`` and
``_family``), so the audit's comparison of the two routes means something.

The closed form is written once, in ``q_closed_row``. Each of its terms is
a line of binomials C(m+i, j+3i) over one residue of k mod 3: the line
starts from one ``binom_ext`` (a ``math.comb``) and steps to the next term
by the exact ratio C(m+1, j+3) / C(m, j), which turns 0 past the line's
support and stays there. A row costs one ``math.comb`` per line and a few
small-integer products per coefficient. The walk runs along the binomial
lines and never reads a coefficient row, so it stays independent of the
recurrence Q(n) = x*Q(n-2) + Q(n-3) it is audited against.

The recurrence and the series are streamed (``qpoly_rows``, ``gf_terms``):
one forward pass holds only the three rows or terms it reads, and nothing
is memoised, so memory stays bounded. Each step builds the new row as
x times one earlier row (a list with a leading 0), zero-padded to the
longest input, then adds the other rows into it by slice assignment of
``map(operator.add, ...)``: whole rows are added in C, not one
coefficient at a time in Python. Each route writes its own step,
``_shift_add`` for the recurrence and the loop body of the expander.

``identity_audit`` replays every identity and case-split formula as a
prediction and returns a list of PASS / FAIL / INFO ``AuditEntry`` values,
the shape every suite in ``audit`` returns; predictions are never used as
the computation path, so a wrong prediction shows up as an entry instead
of poisoning the numbers. Its coefficient checks run a row at a time. The
diagonal slices are read by plain indexing off the recurrence rows, each
zero-padded once to n_max + 1 entries. Each prediction is one row per n:
a ``sequences.binomial_row``, a ``sequences.lucas_triangle_additive_row``
(the Lucas-triangle entries Y(m, k) of the omega case splits), a prefix of
a diagonal C(m+k, k) built by its multiplicative step, or one ``math.comb``
per entry. No prediction reads ``q_closed_row``, ``qpoly_rows`` or
``_expand_rational``, so the routes stay independent. Rows are compared
with ``==``, and k is walked only inside a row that differs, to name its
first differing entry. Every check over a range of indices, here and in
``audit``, builds its PASS / FAIL entry with one helper, ``_check``, which
reads a lazy stream of failures and names the first; the audit reads the
Fibonacci, Lucas and Padovan numbers from one stream each.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import count, islice, zip_longest
from math import comb
from operator import add
from typing import Iterable, Iterator, Sequence

from .oeis import _INT_PATTERN
from .sequences import _check_index, _term, _terms, binom_ext, binomial_row, lucas_triangle_additive_row

__all__ = [
    "Family",
    "CubeFactorPolynomial",
    "AuditEntry",
    "qpoly_rows",
    "qpoly_rec",
    "q_closed_row",
    "gf_terms",
    "gf_series",
    "padovan_gf_series",
    "eval_at",
    "poly_degree",
    "identity_audit",
    "poly_to_json",
    "poly_from_json",
]


class Family(str, Enum):
    """The two graph families with cube-factor polynomials."""

    GAMMA = "gamma"
    OMEGA = "omega"


def _family(value: Family | str) -> Family:
    if isinstance(value, Family):
        return value
    try:
        return Family(str(value).lower())
    except ValueError:
        raise ValueError(f"unknown family {value!r}; expected 'gamma' or 'omega'") from None


# base-case coefficient rows; the recurrence takes over right after them
_BASE: dict[Family, tuple[tuple[int, ...], ...]] = {
    Family.GAMMA: ((1,), (0, 1), (1, 1)),
    Family.OMEGA: ((1,), (0, 1), (1, 1), (0, 2), (1, 1, 1)),
}


@dataclass(frozen=True)
class CubeFactorPolynomial:
    """Dense coefficient array for one family member; coeffs[k] = q_k."""

    family: Family
    n: int
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def nonzero_count(self) -> int:
        return sum(1 for c in self.coeffs if c != 0)


def _strip(coeffs: list[int]) -> tuple[int, ...]:
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _shift_add(shifted: Sequence[int], plain: Sequence[int]) -> tuple[int, ...]:
    # x * shifted + plain, as coefficient arrays; one row addition in C
    out = [0, *shifted]
    out += [0] * (len(plain) - len(out))
    out[: len(plain)] = map(add, out, plain)
    return _strip(out)


def qpoly_rows(family: Family | str) -> Iterator[CubeFactorPolynomial]:
    """Polynomials n = 0, 1, 2, ... by the recurrence, holding three rows."""
    fam = _family(family)
    base = _BASE[fam]
    a = b = c = ()  # rows n-3, n-2, n-1
    for n in count():
        a, b, c = b, c, base[n] if n < len(base) else _shift_add(b, a)
        yield CubeFactorPolynomial(fam, n, c)


def qpoly_rec(family: Family | str, n: int) -> CubeFactorPolynomial:
    """Polynomial for index n via the base cases and the recurrence."""
    return _term(qpoly_rows(family), n, "n")


def poly_degree(family: Family | str, n: int) -> int:
    """Degree of the polynomial: ceil(n/2) for gamma, floor(n/2) for omega.

    The omega value follows the tabulated polynomials: degree 0 at n = 0
    and degree 1 at n = 1, then floor(n/2) from n = 2 on.
    """
    fam = _family(family)
    _check_index(n, "n")
    if fam is Family.GAMMA:
        return (n + 1) // 2
    return 1 if n == 1 else n // 2


# each closed-form term as lines C((n+k+s)/3 + d, k + e) over k = k0, k0+3, ...,
# one (s, d, e) per binomial: k0 is the residue of k mod 3 that makes the
# upper index an integer; the Lucas-triangle term Y(m, k) is two lines
_LINES: dict[Family, tuple[tuple[int, int, int], ...]] = {
    Family.GAMMA: ((0, 0, 0), (1, 0, 0)),
    Family.OMEGA: ((1, -1, 0), (0, -1, -1), (-1, 0, 0), (-1, -1, -1)),
}


def q_closed_row(family: Family | str, n: int, count: int) -> list[int]:
    """Coefficients q_0 .. q_{count-1} by the closed form, independent of the
    recurrence; past the degree they are 0.

    gamma (n >= 0):  C((n+k)/3, k) + C((n+k+1)/3, k), a term vanishing
    whenever 3 does not divide its numerator.

    omega (n >= 2):  C((n+k+1)/3 - 1, k) + C((n+k)/3 - 1, k-1)
    + Y((n+k-1)/3, k), with the same vanishing rule; exactly one term can
    survive. The formula is not valid below n = 2 (it would give 2 instead
    of 0 for q_0 at n = 1), so n < 2 delegates to the recurrence.

    Every term is a line C(m+i, j+3i), i = 0, 1, ..., over one residue of k
    mod 3. A line starts from one ``binom_ext`` at its first lower index
    j >= 0 and steps by the exact ratio
    C(m+1, j+3) = C(m, j) * (m+1)(m-j)(m-j-1) / ((j+1)(j+2)(j+3)),
    which reaches 0 past the support and keeps it there.
    """
    fam = _family(family)
    _check_index(n, "n")
    _check_index(count, "count")
    if fam is Family.OMEGA and n < 2:
        coeffs = qpoly_rec(fam, n).coeffs
        return list(coeffs[:count]) + [0] * (count - len(coeffs))
    row = [0] * count
    for s, d, e in _LINES[fam]:
        k0 = (-n - s) % 3
        if k0 + e < 0:
            k0 += 3
        m, j = (n + k0 + s) // 3 + d, k0 + e
        c = binom_ext(m, j)
        for k in range(k0, count, 3):
            row[k] += c
            c = c * (m + 1) * (m - j) * (m - j - 1) // ((j + 1) * (j + 2) * (j + 3))
            m, j = m + 1, j + 3
    return row


def _expand_rational(numerator: dict[int, list[int]]) -> Iterator[tuple[int, ...]]:
    """Expand numerator / (1 - x*y^2 - y^3) in y, one term at a time.

    ``numerator`` maps a power of y to its coefficients in x. Exact
    polynomial long division: the quotient terms R satisfy
    R[n] = numerator[n] + x * R[n-2] + R[n-3], which is the
    multiply-accumulate form of the denominator's geometric series. Every
    generating function of this module is one call: ``gf_terms`` with the
    family numerators, ``padovan_gf_series`` with 1 + y.
    """
    r3 = r2 = r1 = ()  # R[n-3], R[n-2], R[n-1]; empty before R[0]
    for n in count():
        term = numerator.get(n, ())
        acc = [0, *r2]  # x * R[n-2]
        acc += [0] * (max(len(r3), len(term)) - len(acc))
        acc[: len(r3)] = map(add, acc, r3)
        acc[: len(term)] = map(add, acc, term)
        r3, r2, r1 = r2, r1, _strip(acc)
        yield r1


# each family's numerator over 1 - x*y^2 - y^3, as {power of y: coefficients in x}
_NUMERATOR: dict[Family, dict[int, list[int]]] = {
    Family.GAMMA: {0: [1], 1: [0, 1], 2: [1]},
    Family.OMEGA: {0: [1], 1: [0, 1], 2: [1], 3: [-1, 2, -1], 4: [1, -1]},
}


def gf_terms(family: Family | str) -> Iterator[tuple[int, ...]]:
    """Coefficients of y^0, y^1, ... in the family's generating function.

    gamma:  (1 + x*y + y^2) / (1 - x*y^2 - y^3)
    omega:  (1 + y)(1 + y - y^3) / (1 - x*y^2 - y^3) + (x - 2)*y

    Omega's correction is folded into its numerator:
    (1 + y)(1 + y - y^3) + (x - 2)*y*(1 - x*y^2 - y^3)
    = 1 + x*y + y^2 - (x - 1)^2*y^3 + (1 - x)*y^4,
    so both series are one ``_expand_rational`` of the family's numerator.
    """
    return _expand_rational(_NUMERATOR[_family(family)])


def gf_series(family: Family | str, order: int) -> tuple[tuple[int, ...], ...]:
    """The terms of :func:`gf_terms` up to the given order in y; term n is
    a polynomial in x."""
    fam = _family(family)
    _check_index(order, "order")
    return tuple(islice(gf_terms(fam), order + 1))


def padovan_gf_series(order: int) -> list[int]:
    """Padovan numbers from the generating function (1+y) / (1 - y^2 - y^3).

    That is the expansion of (1 + y) / (1 - x*y^2 - y^3) at x = 1, so the
    numbers are the ``_expand_rational`` terms evaluated at 1, with no
    recurrence of their own.
    """
    _check_index(order, "order")
    return [eval_at(term, 1) for term in islice(_expand_rational({0: [1], 1: [1]}), order + 1)]


def eval_at(poly: CubeFactorPolynomial | Sequence[int], x: int) -> int:
    """Evaluate a coefficient array at an integer point, exactly."""
    coeffs = poly.coeffs if isinstance(poly, CubeFactorPolynomial) else tuple(poly)
    result = 0
    for c in reversed(coeffs):
        result = result * x + c
    return result


def _padded(polys: Iterable[CubeFactorPolynomial], width: int) -> list[list[int]]:
    # coefficient rows zero-padded to at least ``width`` entries
    return [list(p.coeffs) + [0] * (width - len(p.coeffs)) for p in polys]


def _slices(rows: Sequence[Sequence[int]], n: int, cap: int) -> tuple[list[int], ...]:
    # q_k(n-k) for k <= n, q_k(n+2k) for k <= cap and q_k(n-4k) for 4k <= n,
    # off rows padded past max(n, cap)
    return (
        [rows[n - k][k] for k in range(n + 1)],
        [rows[n + 2 * k][k] for k in range(cap + 1)],
        [rows[n - 4 * k][k] for k in range(n // 4 + 1)],
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def poly_to_json(poly: CubeFactorPolynomial) -> str:
    """JSON text with coefficients as decimal strings (exact past 64 bits)."""
    payload = {
        "family": poly.family.value,
        "n": poly.n,
        "coeffs": [str(c) for c in poly.coeffs],
    }
    return json.dumps(payload, separators=(",", ":"))


def poly_from_json(text: str) -> CubeFactorPolynomial:
    """Parse poly_to_json text; malformed input raises ValueError.

    Only what poly_to_json writes parses: n >= 0, and coefficients that are
    non-empty and stripped, with no trailing 0 past the constant term.
    """
    data = json.loads(text)
    if not (
        isinstance(data, dict)
        and isinstance(data.get("family"), str)
        and type(data.get("n")) is int  # not bool: JSON true/false decode to bools
        and data["n"] >= 0
        and isinstance(data.get("coeffs"), list)
        and all(
            type(c) is int or type(c) is str and _INT_PATTERN.fullmatch(c) for c in data["coeffs"]
        )
        and data["coeffs"]
        and (len(data["coeffs"]) == 1 or int(data["coeffs"][-1]) != 0)
    ):
        raise ValueError("malformed polynomial: expected an object with family, n and coeffs")
    return CubeFactorPolynomial(
        _family(data["family"]), data["n"], tuple(int(c) for c in data["coeffs"])
    )


# ---------------------------------------------------------------------------
# identity audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditEntry:
    name: str
    status: str  # PASS | FAIL | INFO
    detail: str

    def line(self) -> str:
        return f"{self.status} {self.name}: {self.detail}"


def _check(name: str, failures: Iterable[object], detail: str, at: str = "n=") -> AuditEntry:
    """PASS over ``detail`` when ``failures`` is empty, else FAIL at the first
    failure; the iterable is read only up to that first failure."""
    for first in failures:
        return AuditEntry(name, "FAIL", f"first failure at {at}{first}")
    return AuditEntry(name, "PASS", detail)


def _misses(triples: Iterable[tuple[int, object, object]]) -> Iterator[str]:
    # (n, expected, actual) triples -> one failure per disagreement
    return (f"{n}: expected {e}, got {a}" for n, e, a in triples if e != a)


def _first_difference(
    expected: Sequence[int], actual: Sequence[int]
) -> tuple[int, object, object] | None:
    """Index and entries where two rows first differ, None when they agree;
    a row that ends early reads None past its end, so no tail is dropped."""
    if expected == actual:
        return None
    pairs = enumerate(zip_longest(expected, actual))
    return next(((k, e, a) for k, (e, a) in pairs if e != a), None)


def _row_misses(rows: Iterable[tuple[int, Sequence[int], Sequence[int]]]) -> Iterator[str]:
    # (n, expected row, actual row) triples -> one failure per row that
    # differs, at its first differing entry
    for n, expected, actual in rows:
        first = _first_difference(expected, actual)
        if first is not None:
            yield f"{n}: expected {first[1]}, got {first[2]}"


def _diagonal(m: int, count: int) -> list[int]:
    # C(m+k, k) for k < count, by C(m+k+1, k+1) = C(m+k, k) * (m+k+1) / (k+1);
    # all 0 for m < 0, where binom_ext is 0 on the whole diagonal
    row = [int(m >= 0)]
    for k in range(count - 1):
        row.append(row[-1] * (m + k + 1) // (k + 1))
    return row[:count]


def identity_audit(family: Family | str, n_max: int) -> list[AuditEntry]:
    """Audit every polynomial identity and case-split prediction up to n_max.

    Each entry is PASS/FAIL with the first failing index, or INFO for the
    documented prediction discrepancies (which are reported with the
    empirically matching reading instead of gating the result). Checks over
    coefficients compare a whole row per n and walk k only in a row that
    differs; every prediction row is built from binomial rows, binomial
    diagonals or ``math.comb``, never from another polynomial route.
    """
    fam = _family(family)
    if n_max < 5:
        raise ValueError(f"n_max must be at least 5, got {n_max}")
    entries: list[AuditEntry] = []
    add = entries.append
    polys = list(islice(qpoly_rows(fam), n_max + 1))
    fib, lucas, padovan = (
        list(islice(_terms(name), n_max + 3)) for name in ("fibonacci", "lucas", "padovan")
    )
    f, whole, rng = fam.value, range(n_max + 1), f"[n=0..{n_max}]"

    # value identities and route agreement
    add(_check(f"{f} eval-at-1 equals padovan(n+1)",
               _misses((n, padovan[n + 1], eval_at(polys[n], 1)) for n in whole), rng))
    if fam is Family.GAMMA:
        add(_check("gamma eval-at-2 equals fibonacci(n+2)",
                   _misses((n, fib[n + 2], eval_at(polys[n], 2)) for n in whole), rng))
    else:
        add(_check("omega eval-at-2 equals lucas(n)",
                   _misses((n, lucas[n], eval_at(polys[n], 2)) for n in whole[2:]),
                   f"[n=2..{n_max}]"))
    lo = 0 if fam is Family.GAMMA else 2
    closed = [q_closed_row(fam, n, polys[n].degree + 2) for n in whole]
    add(_check(f"{f} closed-form coefficients equal recurrence", _row_misses(
        (n, [*polys[n].coeffs, 0], closed[n]) for n in whole[lo:]
    ), f"[n={lo}..{n_max}, all k]"))
    series = gf_series(fam, n_max)
    add(_check(f"{f} series-expansion terms equal recurrence",
               _misses((n, 0, int(series[n] != polys[n].coeffs)) for n in whole), rng))
    add(_check(f"{f} padovan series equals recurrence padovan",
               _misses((n, padovan[n], v) for n, v in enumerate(padovan_gf_series(n_max))), rng))

    # structural counts
    if fam is Family.GAMMA:
        add(_check("gamma nonzero-count equals floor((n+4)/3)",
                   _misses((n, (n + 4) // 3, polys[n].nonzero_count) for n in whole), rng))
        add(_check("gamma degree equals ceil(n/2)",
                   _misses((n, poly_degree(fam, n), polys[n].degree) for n in whole), rng))
        add(AuditEntry(
            "gamma degree convention",
            "INFO",
            "degree follows ceil(n/2); the floor(n/2) reading disagrees first at n=1 "
            f"(degree {polys[1].degree})",
        ))
    else:
        add(_check("omega nonzero-count equals floor((n+5)/3)", (
            f"{n}: predicted {(n + 5) // 3}, got {polys[n].nonzero_count}; "
            "observed count is floor(n/2)+1 minus 1 when 3 divides n"
            for n in whole[4:] if polys[n].nonzero_count != (n + 5) // 3
        ), f"[n=4..{n_max}]"))
        add(_check("omega degree equals floor(n/2)",
                   _misses((n, poly_degree(fam, n), polys[n].degree) for n in whole[2:]),
                   f"[n=2..{n_max}]"))

    # diagonal slices, oracle side read off the recurrence rows zero-padded
    # past n_max, so every slice is plain indexing; every case split reads n
    # as 3m-1, 3m or 3m+1 (n % 3 = 2, 0, 1)
    rows = _padded(polys, n_max + 1)
    anti, shifted, skew = zip(*(_slices(rows, n, (n_max - n) // 2) for n in whole))
    split = [(n, (n + 1) // 3) for n in whole]
    # C(m+k, k) for k <= n_max/2, the longest shifted slice, once per m (and
    # the all-zero m = -1); each shifted prediction is a prefix of these
    diagonals = {m: _diagonal(m, n_max // 2 + 1) for m in range(-1, split[-1][1] + 1)}

    if fam is Family.GAMMA:
        # every slice vanishes on n = 3m+1
        add(_check("gamma anti-diagonal sum equals 2^m on n=3m-1,3m else 0", _misses(
            (n, 2**m if n % 3 != 1 else 0, sum(anti[n])) for n, m in split
        ), rng))
        add(_check("gamma anti-diagonal per-k values follow the C(m,k) case split", _row_misses(
            (n, binomial_row(m) + [0] * (n - m) if n % 3 != 1 else [0] * (n + 1), anti[n])
            for n, m in split
        ), rng))
        add(_check(
            "gamma shifted-index values q_k(n+2k) equal C(m+k,k) on n=3m-1,3m else 0", _row_misses(
                (n, diagonals[m if n % 3 != 1 else -1][:len(shifted[n])], shifted[n])
                for n, m in split
            ), rng))

        # skew sums: scan fibonacci index shifts, report the ones that match;
        # a negative predicted index counts as a mismatch for that shift
        skew_sums = [sum(terms) for terms in skew]

        def skew_matches(n: int, m: int, shift: int) -> bool:
            if n % 3 == 1:
                return skew_sums[n] == 0
            return m + shift >= 0 and skew_sums[n] == fib[m + shift]

        matching_shifts = [
            shift for shift in range(-2, 4) if all(skew_matches(n, m, shift) for n, m in split)
        ]
        add(AuditEntry(
            "gamma skew-diagonal sum vs fibonacci index",
            "INFO",
            f"predicted fib(m) on n=3m-1,3m; matching shifts {matching_shifts} "
            f"(observed fib(m+1)) {rng}",
        ))
        # the same split on n+k, read off the closed form
        add(_check("gamma two-term closed form follows the C(m,k) case split", _row_misses(
            (n, [comb((n + k + 1) // 3, k) if (n + k) % 3 != 1 else 0
                 for k in range(len(closed[n]))], closed[n])
            for n in whole
        ), rng))
        return entries

    # omega
    add(_check("omega anti-diagonal sum follows the 2^(m-1) / 3*2^(m-1) case split", _misses(
        (n, 2 ** (m - 1) * (3 if n % 3 == 1 else 1), sum(anti[n])) for n, m in split[3:]
    ), f"[n=3..{n_max}]"))

    def anti_row(n: int, m: int) -> list[int]:
        # the per-k case split restates the closed form: Y(m, k) on n = 3m+1,
        # else C(m-1, k) or, on n = 3m, C(m-1, k-1); zero-padded to k = n
        if n % 3 == 1:
            row = lucas_triangle_additive_row(m)
        else:
            row = [0] * (n % 3 == 0) + binomial_row(m - 1)
        return row + [0] * (n + 1 - len(row))

    # valid for inner index n-k >= 2 and k >= 2, which leaves n < 4 empty
    add(_check("omega anti-diagonal per-k values follow the closed-form case split", _row_misses(
        (n, anti_row(n, m)[2:n - 1], anti[n][2:n - 1]) for n, m in split[4:]
    ), f"[n=0..{n_max}, k>=2, n-k>=2]"))

    # shifted-index prediction for k >= 1: audit the printed reading against
    # the substituted one in one pass and report which matches
    printed_miss = substituted_miss = ""
    for n, m in split:
        values = shifted[n][1:]
        if n == 1 or not values:
            continue
        # C(m+k, k) and C(m-1+k, k) for k = 0..cap
        diagonal, below = diagonals[m][:len(values) + 1], diagonals[m - 1][:len(values) + 1]
        if n % 3 == 1:
            printed = substituted = [diagonal[k] + diagonal[k - 1] for k in range(1, len(diagonal))]
        elif n % 3 == 2:
            printed, substituted = diagonal[1:], below[1:]
        else:
            printed, substituted = below[1:], diagonal[:-1]
        miss = None if printed_miss else _first_difference(printed, values)
        if miss is not None:
            k, p, v = miss
            printed_miss = f" (first miss n={n}, k={k + 1}: predicted {p}, got {v})"
        miss = None if substituted_miss else _first_difference(substituted, values)
        if miss is not None:
            substituted_miss = f" (first miss n={n}, k={miss[0] + 1})"
    add(AuditEntry(
        "omega shifted-index values q_k(n+2k), dual reading",
        "INFO",
        f"printed reading matches: {not printed_miss}{printed_miss}; "
        f"substituted reading matches: {not substituted_miss}{substituted_miss}",
    ))
    add(_check("omega skew-diagonal sum follows the fib/lucas case split", _misses(
        (n, (fib[m - 1], lucas[m], fib[m])[n % 3], sum(skew[n])) for n, m in split[6:]
    ), f"[n=6..{n_max}]"))
    return entries
