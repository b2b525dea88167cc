"""Explicit construction of the two cube families as labeled graphs.

The gamma family lives on the binary strings of length n with no two
consecutive 1s, adjacent at Hamming distance 1; the omega family is the
matchable-Lucas-cube reconstruction. One recursion builds both, and only
the base members differ: gamma's members 0 and 1 are ``("",)`` with no
edge and ``("0", "1")`` with one, omega's members 0..3 are the paths on
1..4 vertices labelled "0".."3". Above its bases, member n is member n-1
(A) with labels prefixed "0", then member n-2 (B) with labels prefixed
"10", joined by a perfect matching. The labels come out sorted, so
vertex v of A keeps id v and vertex v of B gets id |A| + v; the matching
is id v <-> |A| + v for every v < |B|. One forward pass in vertex ids
builds each member, and no member is kept between calls.

Why the matching is v <-> |A| + v: the first |B| vertices of A are B, in
B's order. Where A comes from the recursion, its first part is "0" + B;
gamma's member 1 starts with "0" = "0" + ""; omega's path bases start
with the leading path, labels unchanged.

Why gamma comes out right: labels "0"x and "10"y from the two copies
differ in their first symbol, so they are at Hamming distance 1 exactly
when x = "0"y, and those pairs are the matching. (For gamma this is the
classic split of the Fibonacci cube into 0-Gamma(n-1) and 10-Gamma(n-2).)

Both families split into the same recursion parts, and one table,
``_PARTS``, records them for the annotations: each part's label prefix, its
order drop and the first order of each family that has it ("0" one
down, "10" and "00" two down, "010" three down; gamma from orders
1/2/3/3, omega from 4/4/5/5, its path bases having the leading path as
their first part). ``build_graph`` annotates each member with the parts
read off it, and the audit reads its ranges off the annotations.
``canonical_subgraph`` strips a part's prefix, assembles it as a graph
and compares it with the freshly built smaller member.

Each member's vertices have hypercube coordinates, B's vertices taking
the new top bit, so C_n = C_{n-1} followed by 2**(n-1) + C_{n-2}.
``member_coordinates`` builds them by that recursion in vertex ids, with
no label read, and the solvers' subcube listing reads it.
``coordinate`` reads one vertex's coordinate off its label alone, the
second route, which the oracle audit holds against the first. (The
structural factor keeps its own record of the parts: it builds them on
vertex ids by the same layout, A's ids then B's shifted by |A|, and reads
neither labels nor annotations.)
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterator

from .polynomials import Family, _family
from .sequences import _check_index, fib, lucas

__all__ = [
    "DEFAULT_MAX_N",
    "LabeledGraph",
    "Subcopy",
    "build_graph",
    "canonical_subgraph",
    "coordinate",
    "custom_graph",
    "export_graph",
    "find_isomorphism",
    "expected_vertex_count",
    "member_coordinates",
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


def _assemble(family: str, n: int, labels: list[str], edge_pairs: list[tuple[str, str]]) -> LabeledGraph:
    ordered = tuple(sorted(labels))
    index = {lab: i for i, lab in enumerate(ordered)}
    if len(index) != len(labels):
        raise ValueError("duplicate vertex labels")
    adj = [0] * len(ordered)
    for a, b in edge_pairs:
        i, j = index[a], index[b]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return LabeledGraph(family, n, ordered, tuple(adj))


# the recursion parts: name -> (label prefix, order drop, first order per family)
_PARTS: dict[str, tuple[str, int, dict[Family, int]]] = {
    "first": ("0", 1, {Family.GAMMA: 1, Family.OMEGA: 4}),
    "second": ("10", 2, {Family.GAMMA: 2, Family.OMEGA: 4}),
    "cube-pair-0": ("00", 2, {Family.GAMMA: 3, Family.OMEGA: 5}),
    "third": ("010", 3, {Family.GAMMA: 3, Family.OMEGA: 5}),
}


def _check_cap(n: int, max_n: int) -> None:
    _check_index(n, "n")
    if n > max_n:
        raise ValueError(f"n={n} exceeds the construction cap {max_n}")


def _member(fam: Family, n: int) -> tuple[tuple[str, ...], list[int]]:
    # labels and adjacency rows of member n, by one forward pass from the
    # base members, which are paths: gamma's 0 and 1, omega's 0..3
    if fam is Family.GAMMA:
        bases = [("",), ("0", "1")]
    else:
        bases = [tuple(map(str, range(size))) for size in range(1, 5)]
    members = [
        (labels, [(1 << v >> 1 | 2 << v) & ((1 << len(labels)) - 1) for v in range(len(labels))])
        for labels in bases
    ]
    b, a = members[-2:]
    for _ in range(len(members), n + 1):
        (a_labels, a_adj), (b_labels, b_adj) = a, b
        # A's first |B| vertices are B in B's order, so B's vertex v is
        # matched to A's vertex v (module docstring)
        shift, size = len(a_labels), len(b_labels)
        labels = tuple("0" + s for s in a_labels) + tuple("10" + s for s in b_labels)
        adj = [row | 1 << (shift + v) if v < size else row for v, row in enumerate(a_adj)]
        adj += [row << shift | 1 << v for v, row in enumerate(b_adj)]
        b, a = a, (labels, adj)
    return members[n] if n < len(members) else a


def build_graph(family: Family | str, n: int, max_n: int = DEFAULT_MAX_N) -> LabeledGraph:
    """Member n of the family with its recursion annotations."""
    fam = _family(family)
    _check_cap(n, max_n)
    labels, adj = _member(fam, n)
    if 0 < n < _PARTS["first"][2][fam]:
        # an omega path base: its canonical smaller member is the leading
        # path, labels unchanged
        subcopies = {"first": Subcopy(tuple(range(n)), n - 1, "")}
    else:
        subcopies = {}
        for name, (prefix, drop, start) in _PARTS.items():
            if n >= start[fam]:
                # the labels are sorted, so those with the prefix are one id
                # range: from the prefix up to it with its last symbol raised
                upper = prefix[:-1] + chr(ord(prefix[-1]) + 1)
                ids = range(bisect_left(labels, prefix), bisect_left(labels, upper))
                subcopies[name] = Subcopy(tuple(ids), n - drop, prefix)
    return LabeledGraph(fam.value, n, labels, tuple(adj), subcopies)


def coordinate(family: Family | str, n: int, label: str) -> int:
    """The hypercube coordinate of a member's vertex, read off its label.

    Gamma's is the label, n binary digits with no two adjacent 1s, read in
    binary ("" gives 0). Omega's strips the recursion prefixes: "0" takes
    the order down by one, "10" by two and sets bit order-1, until the
    order is at most 3 and one base symbol c is left, whose coordinate
    2**c - 1 places the base path 0, 1, 3, 7. This
    is the recursion of ``_member``: A keeps its coordinates, B's vertex v
    takes A's vertex v's plus the new bit, so the matching flips that bit
    and A's and B's own edges flip one lower bit each. So the members'
    edges are exactly their pairs at Hamming distance 1, as
    ``factors._subcubes`` checks on the subcubes it reads off them.

    Only the label is read, never the adjacency. A label the rule cannot
    read raises ValueError. The solvers read :func:`member_coordinates`
    instead; this rule is its second route, which the oracle audit's
    Hamming entry compares with it on every member it builds.
    """
    fam = _family(family)
    if fam is Family.GAMMA:
        if len(label) != n or label.strip("01") or "11" in label:
            raise ValueError(f"{label!r} is not a gamma label of order {n}")
        return int(label or "0", 2)
    rest, order, coord = label, n, 0
    while order > 3:
        if rest.startswith("10"):
            rest, order, coord = rest[2:], order - 2, coord | 1 << order - 1
        elif rest.startswith("0"):
            rest, order = rest[1:], order - 1
        else:
            break
    if order > 3 or len(rest) != 1 or not "0" <= rest <= str(order):
        raise ValueError(f"{label!r} is not an omega label of order {n}")
    return coord | (1 << int(rest)) - 1


def member_coordinates(family: Family | str, n: int) -> list[int]:
    """The hypercube coordinates of member n's vertices, by vertex id.

    Built by the recursion ``_member`` follows, with no label read. The
    bases are paths whose vertex c has coordinate 2**c - 1: gamma's [0],
    [0, 1] and omega's [0], [0, 1], [0, 1, 3], [0, 1, 3, 7]. Member n is
    member n-1's list followed by member n-2's with bit n-1 set. It equals
    :func:`coordinate` on each label. A negative n or an unknown family
    raises ValueError.
    """
    _check_index(n, "n")  # no cap: coordinates are built at any order
    # the base member n, or the last base and the one before it
    path = [(1 << c) - 1 for c in range(min(n + 1, 2 if _family(family) is Family.GAMMA else 4))]
    b, a = path[:-1], path
    for order in range(len(path), n + 1):
        b, a = a, a + [c | 1 << order - 1 for c in b]
    return a


def custom_graph(labels: list[str], edges: list[tuple[str, str]]) -> LabeledGraph:
    """Ad-hoc labeled graph from explicit labels and label pairs.

    Duplicate labels, self-loops, edges naming an unknown label, labels
    that the export formats cannot carry (holding whitespace, a double
    quote or a backslash) and edges at the empty label (an edge-list line
    needs two fields) raise ValueError. The empty label stays valid for an
    isolated vertex."""
    unfit = re.compile(r'[\s"\\]')
    if unfit.search("".join(labels)):
        lab = next(lab for lab in labels if unfit.search(lab))
        raise ValueError(f"label {lab!r} holds whitespace, a double quote or a backslash")
    for edge in edges:
        if "" in edge:
            raise ValueError(f"edge {tuple(edge)!r} has an empty label, which edge lists cannot carry")
    try:
        g = _assemble("custom", 0, list(labels), list(edges))
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
        copy = _assemble(target.family, target.n, list(stripped.values()), edges)
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

    Prunes on degree and on partial adjacency agreement. The backtracking
    keeps one iterator of candidates per position instead of recursing, so
    members past Python's recursion limit, the construction cap's 2,584
    vertices included, are searched too.
    g's vertices are placed breadth-first per component, from a root of
    highest degree then lowest id, so every vertex after a root has a
    placed neighbour, its breadth-first parent, and a wrong choice is
    rejected at once. Such a vertex's candidates are the unused neighbours
    of its parent's image; a root's, every unused vertex of its degree. A
    candidate is kept when its used neighbours in h are exactly the images
    of the vertex's placed neighbours in g, one bit-set comparison.
    """
    k = g.vertex_count
    if k != h.vertex_count or g.edge_count != h.edge_count:
        return None
    deg_g = [g.degree(v) for v in range(k)]
    deg_h = [h.degree(v) for v in range(k)]
    if sorted(deg_g) != sorted(deg_h):
        return None
    order: list[int] = []
    parent = [-1] * k  # each vertex's breadth-first parent; -1 for a root
    unplaced, walked = (1 << k) - 1, 0
    for root in sorted(range(k), key=lambda v: (-deg_g[v], v)):
        if unplaced >> root & 1:
            order.append(root)
            unplaced ^= 1 << root
        while walked < len(order):  # breadth-first through the root's component
            u = order[walked]
            fresh = g.adj[u] & unplaced
            for v in _bits(fresh):
                order.append(v)
                parent[v] = u
            unplaced ^= fresh
            walked += 1
    by_degree: dict[int, list[int]] = {}
    for w in range(k):
        by_degree.setdefault(deg_h[w], []).append(w)
    mapping = [-1] * k
    placed = used = 0  # g's vertices order[:pos] and their images in h
    # one iterator of candidates per entered position, filtered on entry: a
    # lazy filter, resumed after a dead end, would read ``image`` as a deeper
    # position left it
    tries: list[Iterator[int]] = []
    pos = 0
    while pos < k:
        v = order[pos]
        if pos == len(tries):  # entering v
            image = 0  # the images of v's placed neighbours
            for u in _bits(g.adj[v] & placed):
                image |= 1 << mapping[u]
            p = parent[v]
            # a root's component has nothing placed; any other vertex maps
            # next to its parent's image
            candidates = by_degree.get(deg_g[v], ()) if p < 0 else _bits(h.adj[mapping[p]] & ~used)
            tries.append(iter([w for w in candidates if deg_h[w] == deg_g[v]
                               and not used >> w & 1 and h.adj[w] & used == image]))
        else:  # back from a dead end: free v's image
            placed, used = placed ^ 1 << v, used ^ 1 << mapping[v]
        w = next(tries[pos], -1)
        if w >= 0:
            mapping[v] = w
            placed, used = placed | 1 << v, used | 1 << w
            pos += 1
        elif pos == 0:
            return None
        else:
            tries.pop()
            pos -= 1
    return {g.labels[v]: h.labels[mapping[v]] for v in range(k)}


def expected_vertex_count(family: Family | str, n: int) -> int:
    """fib(n+2) for gamma; lucas(n) for omega at n >= 2, else 1, 2.

    A negative n raises ValueError."""
    fam = _family(family)
    _check_index(n, "n")
    if fam is Family.GAMMA:
        return fib(n + 2)
    return lucas(n) if n >= 2 else n + 1
