"""Explicit construction of the two cube families as labeled graphs.

The gamma family lives on the binary strings of length n with no two
consecutive 1s, adjacent at Hamming distance 1. The omega family is built
recursively: paths for n <= 3, and for n >= 4 a copy of member n-1
(labels prefixed "0") plus a copy of member n-2 (labels prefixed "10")
joined by a perfect matching onto the canonical n-2 subcopy of the n-1
part.

Both families split into the same recursion parts, and one table,
``_PARTS``, is the only record of them: each part's label prefix, its
order drop and the first order of each family that has it ("0" one
down, "10" and "00" two down, "010" three down; gamma from orders
1/2/3/3, omega from 4/4/5/5, its path bases having the leading path as
their first part). Both builders annotate each member with the parts
read off it, omega's construction reads its embedding prefix from it,
and the audit reads its ranges off the annotations. ``canonical_subgraph``
strips a part's prefix, assembles it as a graph and compares it with the
freshly built smaller member. (The structural factor builds its parts
from the same label prefixes and does not read the annotations.)
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

from .polynomials import Family, _family
from .sequences import fib, lucas

__all__ = [
    "DEFAULT_MAX_N",
    "LabeledGraph",
    "Subcopy",
    "build_gamma",
    "build_omega",
    "build_graph",
    "canonical_subgraph",
    "custom_graph",
    "export_graph",
    "find_isomorphism",
    "expected_vertex_count",
]

DEFAULT_MAX_N = 16


@dataclass(frozen=True)
class Subcopy:
    """Annotated vertex subset isomorphic to a smaller member of the
    graph's own family."""

    vertices: tuple[int, ...]
    target_n: int
    prefix: str  # stripped from each member label to give the target label


@dataclass(frozen=True)
class LabeledGraph:
    family: str  # "gamma" | "omega" | "custom"
    n: int
    labels: tuple[str, ...]  # sorted; vertex id = position
    adj: tuple[int, ...]  # bit set of neighbour ids per vertex
    subcopies: dict[str, Subcopy] = field(default_factory=dict)

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, neighbours in enumerate(self.adj):
            for v in _bits(neighbours >> (u + 1)):
                yield u, u + 1 + v

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def index_of(self, label: str) -> int:
        i = bisect_left(self.labels, label)
        if i == len(self.labels) or self.labels[i] != label:
            raise KeyError(label)
        return i

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def is_connected(self) -> bool:
        if not self.labels:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= self.adj[v]
            frontier = nxt & ~seen
            seen |= nxt
        return seen == (1 << len(self.labels)) - 1


def _assemble(
    family: str,
    n: int,
    labels: list[str],
    edge_pairs: list[tuple[str, str]],
    subcopy_specs: dict[str, tuple[list[str], int, str]],
) -> LabeledGraph:
    ordered = tuple(sorted(labels))
    index = {lab: i for i, lab in enumerate(ordered)}
    if len(index) != len(labels):
        raise ValueError("duplicate vertex labels")
    adj = [0] * len(ordered)
    for a, b in edge_pairs:
        i, j = index[a], index[b]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    subcopies = {
        name: Subcopy(tuple(sorted(index[lab] for lab in members)), target_n, prefix)
        for name, (members, target_n, prefix) in subcopy_specs.items()
    }
    return LabeledGraph(family, n, ordered, tuple(adj), subcopies)


# the recursion parts: name -> (label prefix, order drop, first order per family)
_PARTS: dict[str, tuple[str, int, dict[Family, int]]] = {
    "first": ("0", 1, {Family.GAMMA: 1, Family.OMEGA: 4}),
    "second": ("10", 2, {Family.GAMMA: 2, Family.OMEGA: 4}),
    "cube-pair-0": ("00", 2, {Family.GAMMA: 3, Family.OMEGA: 5}),
    "third": ("010", 3, {Family.GAMMA: 3, Family.OMEGA: 5}),
}


def _subcopy_specs(
    fam: Family, n: int, labels: Sequence[str]
) -> dict[str, tuple[list[str], int, str]]:
    # the parts member n has, as name -> (member labels, target order, prefix)
    if 0 < n < _PARTS["first"][2][fam]:
        # an omega path base: its canonical smaller member is the leading
        # path, labels unchanged
        return {"first": ([str(i) for i in range(n)], n - 1, "")}
    return {
        name: ([s for s in labels if s.startswith(prefix)], n - drop, prefix)
        for name, (prefix, drop, start) in _PARTS.items()
        if n >= start[fam]
    }


# ---------------------------------------------------------------------------
# gamma family
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _fibonacci_strings(n: int) -> tuple[str, ...]:
    if n == 0:
        return ("",)
    if n == 1:
        return ("0", "1")
    # append "0" to any shorter string, "01" to strings two shorter
    return tuple(sorted(
        [s + "0" for s in _fibonacci_strings(n - 1)]
        + [s + "01" for s in _fibonacci_strings(n - 2)]
    ))


def _check_cap(n: int, max_n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n > max_n:
        raise ValueError(f"n={n} exceeds the construction cap {max_n}")


def build_gamma(n: int, max_n: int = DEFAULT_MAX_N) -> LabeledGraph:
    """Fibonacci-string graph of order n with its recursion annotations."""
    _check_cap(n, max_n)
    labels = list(_fibonacci_strings(n))
    present = set(labels)
    edges = []
    # raising a 0 to 1 finds each Hamming-distance-1 pair exactly once,
    # from its lexicographically smaller endpoint
    for s in labels:
        for i in range(n):
            if s[i] == "0":
                t = s[:i] + "1" + s[i + 1:]
                if t in present:
                    edges.append((s, t))
    return _assemble("gamma", n, labels, edges, _subcopy_specs(Family.GAMMA, n, labels))


# ---------------------------------------------------------------------------
# omega family
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _omega_parts(n: int) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    if n <= 3:
        size = (1, 2, 3, 4)[n]
        labels = tuple(str(i) for i in range(size))
        edges = tuple((str(i), str(i + 1)) for i in range(size - 1))
        return labels, edges
    a_labels, a_edges = _omega_parts(n - 1)
    b_labels, b_edges = _omega_parts(n - 2)
    # member n-2 sits in member n-1 as its first part
    _, _, embed = _subcopy_specs(Family.OMEGA, n - 1, a_labels)["first"]
    labels = tuple("0" + w for w in a_labels) + tuple("10" + w for w in b_labels)
    edges = (
        tuple(("0" + u, "0" + v) for u, v in a_edges)
        + tuple(("10" + u, "10" + v) for u, v in b_edges)
        + tuple(("10" + w, "0" + embed + w) for w in b_labels)
    )
    return labels, edges


def build_omega(n: int, max_n: int = DEFAULT_MAX_N) -> LabeledGraph:
    """Matchable-Lucas-cube reconstruction of order n with annotations."""
    _check_cap(n, max_n)
    labels, edges = _omega_parts(n)
    return _assemble("omega", n, list(labels), list(edges), _subcopy_specs(Family.OMEGA, n, labels))


def build_graph(family: Family | str, n: int, max_n: int = DEFAULT_MAX_N) -> LabeledGraph:
    fam = _family(family)
    return build_gamma(n, max_n) if fam is Family.GAMMA else build_omega(n, max_n)


def custom_graph(labels: list[str], edges: list[tuple[str, str]]) -> LabeledGraph:
    """Ad-hoc labeled graph from explicit labels and label pairs.

    Duplicate labels, self-loops and edges naming an unknown label raise
    ValueError."""
    try:
        g = _assemble("custom", 0, list(labels), list(edges), {})
    except KeyError as exc:  # only edge endpoints are looked up
        raise ValueError(f"an edge names unknown vertex {exc.args[0]!r}") from None
    for v, row in enumerate(g.adj):
        if row >> v & 1:
            raise ValueError(f"self-loop at vertex {g.labels[v]!r}")
    return g


# ---------------------------------------------------------------------------
# subcopies, export, isomorphism
# ---------------------------------------------------------------------------


def canonical_subgraph(g: LabeledGraph, name: str) -> LabeledGraph:
    """Extract an annotated subcopy, relabeled, and verify it is the
    named smaller member: the subcopy with its prefix stripped, assembled
    as a graph, must have the member's labels and adjacency."""
    if name not in g.subcopies:
        known = ", ".join(sorted(g.subcopies)) or "none"
        raise ValueError(f"unknown annotation {name!r} (known: {known})")
    sub = g.subcopies[name]
    # the target is smaller than g, which is built already, so no cap applies
    target = build_graph(g.family, sub.target_n, max_n=sub.target_n)
    stripped = {v: g.labels[v][len(sub.prefix):] for v in sub.vertices}
    mask = sum(1 << v for v in stripped)
    # the subcopy's own edges, read off its vertices' neighbour sets
    edges = [(stripped[u], stripped[v]) for u in stripped for v in _bits(g.adj[u] & mask) if u < v]
    try:
        copy = _assemble(target.family, target.n, list(stripped.values()), edges, {})
    except ValueError:  # two members strip to the same label
        copy = None
    if copy is None or (copy.labels, copy.adj) != (target.labels, target.adj):
        raise RuntimeError(f"subcopy {name!r} does not match {target.family} n={target.n}")
    return target


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def export_graph(g: LabeledGraph, fmt: str) -> str:
    """Deterministic text export: 'edgelist' or 'dot'.

    Edge list: one "label1 label2" pair per line with label1 < label2,
    lines sorted. DOT: quoted labels as node names, nodes then edges,
    both sorted.
    """
    pairs = sorted(
        (min(g.labels[u], g.labels[v]), max(g.labels[u], g.labels[v])) for u, v in g.edges()
    )
    if fmt == "edgelist":
        return "".join(f"{a} {b}\n" for a, b in pairs)
    if fmt == "dot":
        lines = [f"graph {g.family}_{g.n} {{"]
        lines.extend(f'  "{lab}";' for lab in g.labels)
        lines.extend(f'  "{a}" -- "{b}";' for a, b in pairs)
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {fmt!r}; expected 'edgelist' or 'dot'")


def find_isomorphism(g: LabeledGraph, h: LabeledGraph) -> dict[str, str] | None:
    """Backtracking isomorphism search; returns a label mapping or None.

    Intended for the small graphs that appear in structure checks (a few
    dozen vertices); prunes on degree and on partial adjacency agreement.
    """
    k = g.vertex_count
    if k != h.vertex_count or g.edge_count != h.edge_count:
        return None
    deg_g = [g.degree(v) for v in range(k)]
    deg_h = [h.degree(v) for v in range(k)]
    if sorted(deg_g) != sorted(deg_h):
        return None
    order = sorted(range(k), key=lambda v: (-deg_g[v], v))
    candidates: dict[int, list[int]] = {}
    for w in range(k):
        candidates.setdefault(deg_h[w], []).append(w)
    mapping = [-1] * k
    used = [False] * k

    def backtrack(pos: int) -> bool:
        if pos == k:
            return True
        v = order[pos]
        for w in candidates.get(deg_g[v], ()):
            if used[w]:
                continue
            ok = True
            for earlier in order[:pos]:
                if (g.adj[v] >> earlier & 1) != (h.adj[w] >> mapping[earlier] & 1):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used[w] = True
            if backtrack(pos + 1):
                return True
            used[w] = False
            mapping[v] = -1
        return False

    if not backtrack(0):
        return None
    return {g.labels[v]: h.labels[mapping[v]] for v in range(k)}


def expected_vertex_count(family: Family | str, n: int) -> int:
    """fib(n+2) for gamma; lucas(n) for omega at n >= 2, else 1, 2."""
    fam = _family(family)
    if fam is Family.GAMMA:
        return fib(n + 2)
    return lucas(n) if n >= 2 else n + 1
