"""Exact cube factors: enumeration, three solvers, and verification.

A cube factor partitions the vertex set into subsets each inducing a
hypercube (dimensions may differ per part); an optimal factor minimizes
the number of parts. Three independent routes produce factors:

* ``exact_min_factor``      -- branch-and-bound exact cover over all
                               enumerated induced cubes;
* ``greedy_layered_factor`` -- for each dimension from the largest down,
                               an exact maximum disjoint packing of that
                               dimension's cubes among remaining vertices;
* ``structural_factor``     -- the recursive lift-and-embed construction
                               that mirrors the polynomial recurrence.

The first two share one search core, ``_first_min_cover``: the first
fewest-parts cover of a vertex set by given cubes and single vertices.
Exact search calls it once with every cube of dimension >= 1; greedy
calls it once per dimension, since a fewest-parts cover by k-cubes and
single vertices is a maximum k-cube packing. A lowest uncovered vertex
that no fitting cube reaches any more is forced: the core makes it a
single vertex without branching on it.

Each greedy layer is told a lower bound too, from an upper bound on its
packing, ``_packing_bound``: sweeps over the fitting k-cubes in canonical
order group them so that the cubes of a group share a vertex, so a
packing takes at most one cube per group, and a cover has at least
|remaining| - groups * (2**k - 1) parts. The sweeps cost at most
groups * cubes integer ANDs per layer. On the members up to order 16 the
bound equals the packing on every layer, so each layer stops at its first
packing (gamma 16 in 92 search nodes). A layer that no cube fits any more
is not searched: it builds no table and takes no bound.

The lower half of optimality has its own route, a *witness*: a vertex set
S no induced cube of dimension >= 1 meets twice. Each part of a factor
holds at most one vertex of S, so every factor has at least |S| parts
(weak LP duality for set cover; Lovasz, Discrete Math. 13, 1975).
``cube_independent_set`` picks S greedily from the solvers' cubes and
``check_witness`` lists the pairs of a given S that share a cube. Exact
search computes the same witness from its own cube table and stops at the
first cover of |S| parts, which is then the first optimal cover in search
order, the one the full search returns.

A search node carries only its covered set and its part count, and reads
the cubes that still fit off the table where it needs them: at its branch
vertex and in the walk. The core prunes a node whose next part would
already reach the incumbent's count, and bounds the others by the same
greedy witness walked again over the uncovered vertices and the cubes
that still fit. The walk is skipped while the uncovered vertices are too
few to exceed what the incumbent allows, as on the first descent. A valid
lower bound prunes only nodes below which no cover strictly beats the
incumbent, and only strict improvements replace it, so no prune changes
which cover the core returns. The core keeps no fractional bound: the
per-dimension lists of still-fitting masks it would read cost more time
than the nodes it prunes save.

Each search reads its cubes through one table, ``_CubeTable``, built
straight from an enumerator's levels, largest dimension first: exact
search passes every level of dimension >= 1, a greedy layer its one list
of fitting cubes. The table keeps those levels and, per vertex, the masks
of its cubes, since the core branches on them; a cube's mask is all the
search handles, and the chosen cubes are read back off the levels at the
end. It builds the walk's data, each vertex's union of cubes and the
visiting order, at the first walk. Exact search walks at its root;
greedy's layers on the members stop on their first descent and never
walk, so they never pay for it.

Two enumerators list the induced cubes, with the same output: per
dimension from 0 to floor(log2 |V|), the largest the vertex count allows,
a list of (sorted vertices, mask) pairs, the mask being the bit set of the
vertices, in canonical order. Each docstring has its proof.

* ``enumerate_cubes`` holds on any graph. Level 1 is the edges, read off
  the adjacency rows. It builds each (k+1)-cube, k >= 1, from a k-cube a,
  which keeps its vertices in coordinate order, and the image of a under
  the cube's matching, extended one coordinate at a time from a neighbour
  w of a's least vertex m; the image joins when its vertex set is a
  k-cube. Only the canonical split is built: a holds m, and w is m's
  largest neighbour in the cube, so it needs no duplicate check.
* ``interval_cubes`` lists the subcubes of a vertex set in the hypercube,
  for a graph whose edges are exactly the pairs at Hamming distance 1.
  Each (k+1)-subcube joins two k-subcubes that differ in one bit above
  their span. Each subcube carries the bits along which it extends, so no
  lookup misses, and on ids in coordinate order, as on the members, two
  halves' vertices join with no comparison and each level comes out in
  canonical order as it is built.

Exact search and ``cube_independent_set`` read every cube, through
``_subcubes``: the subcubes of the coordinates of the member a gamma or
omega graph claims to be (``graphs.member_coordinates``, built from the
construction, no label read), kept only when the graph has as many
vertices and the adjacency rows rebuilt from their own level 1 equal the
graph's, so the level the solvers read is the one checked. Greedy packs
each layer from the cubes that fit the vertices left, and on a member
reads only those, through ``_subcube_layers``: behind a gate with the
same verdict (each adjacency bit joins two coordinates one bit apart, and
the bits number twice the coordinates' Hamming pairs, so the edges are
exactly those pairs), it finds the k-subcubes inside the remaining
coordinates top-down on bitmaps over coordinate space, by
``interval_cubes``' split at the highest bit of the span, and builds no
other cube. Every other graph, and a member that fails the
check, is read through ``enumerate_cubes``, whose levels greedy filters
per layer. The choice is read off the graph's family, order and rows, and
a custom graph costs one family test.
``check_witness`` always reads ``enumerate_cubes``, so on a member the
witness is built from one enumerator and checked by the other. The oracle
audit lists each member's cubes once through each of ``enumerate_cubes``
and ``_subcubes``: it checks the witness against the first listing
(``check_witness``'s scan, ``_shared_pairs``) and compares the two at
every dimension, while the solvers list their own. The solvers build an
``InducedCube`` only for the parts they return. ``verify_factor`` builds
each part's mask once, after checking its ids, and the cube check and the
disjointness check share it; the cube check reads each of the part's
edges once (``_is_induced_cube`` has its proof).

All tie-breaking is canonical (lowest uncovered vertex first, descending
dimension, lexicographic vertex arrays), so repeated runs return
byte-identical factors.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import chain, combinations, compress
from operator import or_
from typing import Callable, Iterable, Sequence

from . import graphs
from .graphs import DEFAULT_MAX_N, LabeledGraph, _bits, member_coordinates
from .polynomials import Family, _family

__all__ = [
    "InducedCube",
    "CubeFactor",
    "FactorProfile",
    "FactorViolation",
    "enumerate_cubes",
    "interval_cubes",
    "cube_independent_set",
    "check_witness",
    "exact_min_factor",
    "greedy_layered_factor",
    "structural_factor",
    "verify_factor",
    "factor_to_json",
    "factor_from_json",
]

_Cube = tuple[tuple[int, ...], int]  # an enumerated cube: (sorted vertices, mask)


@dataclass(frozen=True)
class InducedCube:
    dimension: int
    vertices: tuple[int, ...]  # sorted vertex ids, length 2**dimension

    def __post_init__(self) -> None:
        if min(self.vertices, default=0) < 0:
            raise ValueError(f"negative vertex id in {self.vertices}")


@dataclass(frozen=True)
class CubeFactor:
    parts: tuple[InducedCube, ...]

    @property
    def part_count(self) -> int:
        return len(self.parts)

    def profile(self) -> FactorProfile:
        """Part counts per dimension; raises ValueError for a part whose
        dimension does not match its vertex count (verify_factor reports
        such parts as not-a-cube instead)."""
        for i, p in enumerate(self.parts):
            if not _fits(p.dimension, len(p.vertices)):
                raise ValueError(
                    f"part {i} has dimension {p.dimension} but {len(p.vertices)} vertices"
                )
        top = max((p.dimension for p in self.parts), default=0)
        counts = [0] * (top + 1)
        for p in self.parts:
            counts[p.dimension] += 1
        return FactorProfile(tuple(counts))


@dataclass(frozen=True)
class FactorProfile:
    counts: tuple[int, ...]  # counts[k] = number of dimension-k parts


@dataclass(frozen=True)
class FactorViolation:
    kind: str  # "bad-vertex" | "not-a-cube" | "disjointness" | "coverage"
    message: str
    part_index: int | None = None


def _fits(dimension: int, size: int) -> bool:
    # size == 2**dimension; the range test keeps the shift defined and small
    # for any parsed dimension
    return 0 <= dimension <= size.bit_length() and size == 1 << dimension


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def enumerate_cubes(g: LabeledGraph, stats: dict[str, int] | None = None) -> list[list[_Cube]]:
    """All induced k-cubes for k = 0..floor(log2 |V|), the largest
    dimension the vertex count allows, canonically ordered per level, each
    as its (sorted vertices, mask) pair.

    Level 0 is the single vertices, and level 1 is the edges, read off the
    rows: the pairs (u, v), u < v, in id order, which is canonical, each
    already in coordinate order. For k >= 1, level k+1 joins two disjoint
    level-k cubes a and b whose cross edges form a perfect matching phi
    that is an isomorphism between them; b is not searched for but built
    as the image B = phi(A) of a's vertices, one coordinate at a time.

    Each cube of a level keeps its vertices in coordinate order A: A[0] is
    its least vertex m, and A[c] is adjacent to A[c ^ 2**i] for every
    i < k. A (k+1)-cube A + B is again in coordinate order, B supplying the
    coordinates with bit k set. With m = A[0], the first image B[0] is a
    neighbour w of m that lies above m and above every neighbour of m in a,
    and whose only neighbour in a is m. For c = 1 .. 2**k - 1 the candidates
    for B[c] are the vertices above m that are adjacent to A[c] and to
    B[c ^ 2**i] for every set bit i of c, and whose only neighbour in a is
    A[c]. Such a vertex is outside a, not adjacent to m, and distinct from
    B's earlier entries, whose only neighbours in a differ. No candidate
    ends the branch; several are explored one after another. A complete B
    joins exactly when its vertex set is a level-k cube.

    Proof, by induction on k from level 1, which is exactly the induced
    1-cubes, the edges, each in coordinate order; the step from level k to
    level k+1, k >= 1, follows. Sound: B's entries are distinct and their
    set b is an induced k-cube. Each edge of a joins some A[c] and
    A[c ^ 2**i], and B[c] is adjacent to B[c ^ 2**i] (a constraint on the
    larger coordinate of the two), so phi maps a's k * 2**(k-1) edges
    injectively onto edges of b, hence onto all of them: phi is an
    isomorphism. Each vertex of b has exactly one neighbour in a, so the
    cross edges are the perfect matching A[c]B[c], and a + b induces a
    (k+1)-cube whose least vertex is m and whose largest neighbour of m is
    w. Complete: let C be an induced (k+1)-cube, m = min(C) and w the
    largest neighbour of m in C. The facet a of C that holds m and not w is
    in level k; its matching facet b holds w, and the matching phi
    satisfies every constraint above, so the branch that picks
    B[c] = phi(A[c]) at each step is explored and B's set b is found in
    level k. Once: each cube C gives one pair (a, w), and B is forced by
    the set b, because each A[c] has exactly one neighbour in b. So no cube
    is formed twice and a level needs no duplicate check. The proof uses
    adjacency alone, so it holds on any graph, not only on the families.
    Several candidates for one B[c] arise only in graphs that are not
    induced subgraphs of a hypercube: A[c] and B[c ^ 2**i] are at distance
    2, and in a hypercube they have two common neighbours, one of them
    A[c ^ 2**i].

    If ``stats`` is given, it receives ``joins``, the number of complete
    images B looked up in level k, from level 2 up; level 1 takes none.
    """
    adj, nv = g.adj, g.vertex_count
    levels = [[((v,), 1 << v) for v in range(nv)]]
    if nv > 1:  # level 1, the edges (u, v) with u < v in id order, each in coordinate order
        levels.append([((u, v), 1 << u | 1 << v) for u in range(nv) for v in _bits(adj[u] & -2 << u)])
    coords = [vertices for vertices, _ in levels[-1]]  # each cube of the last level in coordinate order
    joins = 0
    for k in range(2, nv.bit_length()):
        size = 1 << k - 1
        # lower[c]: the coordinates c ^ 2**i for the set bits i of c
        lower = [[c ^ 1 << i for i in range(k - 1) if c >> i & 1] for c in range(size)]
        masks = {mask for _, mask in levels[-1]}
        joined: list[tuple[_Cube, tuple[int, ...]]] = []  # each cube with its coordinate order
        for (_, a_mask), A in zip(levels[-1], coords):
            m = A[0]
            near = adj[m]
            above = (near & a_mask | 1 << m).bit_length()
            ws = near >> above << above
            if not ws:
                continue
            once = twice = 0  # the vertices with a neighbour in a, with two or more
            for u in A:
                twice |= once & adj[u]
                once |= adj[u]
            # the vertices above m, outside a, with at most one neighbour in
            # a: a candidate for B[c] is adjacent to A[c], so A[c] is its only one
            allowed = -2 << m & ~(a_mask | twice)
            for w in _bits(ws & allowed):
                stack = [(1, [w], 1 << w)]
                while stack:
                    c, B, b_mask = stack.pop()
                    while c < size:
                        x = adj[A[c]] & allowed
                        for j in lower[c]:
                            x &= adj[B[j]]
                        if not x:
                            break
                        v = x.bit_length() - 1
                        if x != 1 << v:  # several candidates: the others wait on the stack
                            for u in _bits(x ^ 1 << v):
                                stack.append((c + 1, B + [u], b_mask | 1 << u))
                        B.append(v)
                        b_mask |= 1 << v
                        c += 1
                    else:
                        joins += 1
                        if b_mask in masks:
                            order = (*A, *B)
                            joined.append(((tuple(sorted(order)), a_mask | b_mask), order))
        joined.sort()
        levels.append([cube for cube, _ in joined])
        coords = [order for _, order in joined]
    if stats is not None:
        stats.update(joins=joins)
    return levels


def interval_cubes(coords: Sequence[int]) -> list[list[_Cube]]:
    """All induced k-cubes for k = 0..floor(log2 |V|) of the graph whose
    vertex v has hypercube coordinate ``coords[v]`` and whose edges are
    exactly its pairs at Hamming distance 1, in the levels and order of
    :func:`enumerate_cubes`; |V| is ``len(coords)``.

    The cubes are the subcubes {u | s : s subset of F} inside the coordinate
    set, u and F disjoint bit sets, |F| = k. Level k+1 is read off level k
    without a lookup that misses. Each subcube (u, F) carries ups(u, F), the
    bits j above F's highest bit, clear in u, for which (u | 2**j, F) is in
    level k too; level 0 reads them off the coordinate set, from each
    coordinate's set bits. (u, F) is extended by each j of ups(u, F) to
    (u, F + j), the union of the two halves, which carries ups(u, F) &
    ups(u | 2**j, F) above j. Each subcube is formed once, from its split
    at the highest bit of its span, its vertices the lower half's, then the
    upper half's. Level 0 is in id order, which is canonical. When the
    coordinates are strictly increasing in id, as on every member, each
    higher level is kept as it is built: every coordinate of the lower half
    is below every one of the upper half, the two first differing at bit
    j, so the joined vertices are in id order with no comparison, and the
    level is in canonical order (Order, below). On other coordinate sets
    each cube's vertices, and then the level, are sorted once the level is
    built.

    Order. Let the coordinates increase in id and level k be in canonical
    order. Its subcubes are extended in that order, each along increasing
    j, and each child's vertices are its lower half's, then its upper
    half's, the ids of u | 2**j first. Two children of one parent share
    its vertices as their first 2**k, and then the one with the smaller j
    has the smaller id. Children of two parents P before Q start with P's
    and Q's vertices, which first differ where P's id is smaller. So level
    k+1 comes out in canonical order.

    Proof. Sound: a subcube inside the set induces a k-cube, since its
    vertices' edges are their pairs at distance 1, which are the k-cube's.
    Complete: every induced Q_k inside a hypercube is a subcube, by
    induction on k. Q_0 is one vertex. A Q_(k+1) is two facets, each a Q_k
    and so a subcube, (u, F) and (u', F), joined by a perfect matching phi
    that is an isomorphism between them; phi(x) = x ^ 2**j(x), adjacent
    vertices differing in one bit. An edge x, y of the first facet gives
    the 4-cycle x, y, phi(y), phi(x), and every 4-cycle of a hypercube is a
    face, flipping two bits twice each, so j(x) = j(y). A facet is
    connected, so phi flips one bit j throughout; j is outside F, since
    phi(x) is outside the first facet, and u' = u ^ 2**j. So the cube is
    the subcube (min(u, u'), F + j), and it lies inside the set. The ups
    rule, by induction on k, level 0's being read off the set: a bit i of
    ups(u, F + j) lies above j, the highest bit of F + j, is clear in u,
    and so is clear in u | 2**j too. The subcube (u | 2**i, F + j) is
    inside the set exactly when its halves at bit j, (u | 2**i, F) and
    (u | 2**i | 2**j, F), are, that is, exactly when i is in ups(u, F) and
    in ups(u | 2**j, F). So each subcube carries exactly its ups, and each
    is extended along exactly the bits j that the split at the highest bit
    of the span needs. The proof reads only the coordinates and the
    Hamming-distance rule, so it holds on any such graph. Repeated or
    negative coordinates raise ValueError.
    """
    ups = dict.fromkeys(coords, 0)  # u -> ups(u, 0)
    if len(ups) != len(coords) or min(coords, default=0) < 0:
        raise ValueError("coordinates must be distinct and non-negative")
    for u in ups:
        rest = u
        while rest:  # one pass per set bit, without a generator
            rest ^= (bit := rest & -rest)
            if u ^ bit in ups:
                ups[u ^ bit] |= bit
    width = max(coords, default=0).bit_length()
    ordered = all(a < b for a, b in zip(coords, coords[1:]))
    # the key F << width | u -> (vertices, mask, ups(u, F))
    level = {u: ((v,), 1 << v, ups[u]) for v, u in enumerate(coords)}
    levels = [[(vertices, mask) for vertices, mask, _ in level.values()]]  # in id order
    for _ in range(len(coords).bit_length() - 1):
        grown: dict[int, tuple[tuple[int, ...], int, int]] = {}
        for key, (vertices, mask, free) in level.items():
            while free:
                bit = free & -free
                free ^= bit  # the bits left in free lie above j
                other, other_mask, other_ups = level[key | bit]
                grown[key | bit << width] = (vertices + other, mask | other_mask, free & other_ups)
        level = grown
        if ordered:
            levels.append([(vertices, mask) for vertices, mask, _ in level.values()])
        else:
            levels.append(sorted((tuple(sorted(vertices)), mask) for vertices, mask, _ in level.values()))
    return levels


def _subcubes(g: LabeledGraph) -> list[list[_Cube]] | None:
    """The :func:`interval_cubes` levels 0..floor(log2 |V|) of the
    coordinates of the member the graph claims to be,
    ``graphs.member_coordinates(g.family, g.n)``, when the graph has as
    many vertices and its edges are exactly the level-1 pairs, the pairs
    at Hamming distance 1, the condition those levels need; otherwise
    None. Only the family, n and the adjacency rows are read, never the
    labels, so the rows check is what makes the listing sound on any graph
    that claims a family. A custom graph costs one family test. Member n
    has at least 2**((n-1)/2) vertices, so an n above twice the vertex
    count's bit length cannot match and its coordinates are not built.
    Rows are compared whole, so one-sided adjacency and another vertex
    count are caught too; a graph of one vertex has no level 1 and no
    edges."""
    if (coords := _claimed_coordinates(g)) is None:
        return None
    levels = interval_cubes(coords)
    rows = [0] * len(coords)  # so a graph of another vertex count has other rows
    for (u, v), _ in chain.from_iterable(levels[1:2]):
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return levels if tuple(rows) == g.adj else None


def _claimed_coordinates(g: LabeledGraph) -> list[int] | None:
    # ``graphs.member_coordinates`` of the member the graph claims to be;
    # None for another family and for an order its vertex count cannot have
    if g.family not in ("gamma", "omega") or not 0 <= g.n <= 2 * g.vertex_count.bit_length():
        return None
    return member_coordinates(g.family, g.n)


def _subcube_layers(g: LabeledGraph) -> Callable[[int, int], list[_Cube]] | None:
    """On a graph that is the member it claims to be, ``fitting(k,
    remaining)``: the k-cubes inside the vertex bit set ``remaining``, in
    canonical order, that is level k of :func:`enumerate_cubes` filtered to
    ``remaining`` (:func:`_inside`); otherwise None. Greedy reads its layers
    through it, and only the cubes that fit are built.

    Gate. The coordinates are :func:`_subcubes`' (the same family and order
    test, so an order the vertex count cannot have builds none), one per
    adjacency row. The rows are read once, bit by bit: no row may have a
    bit at or past the vertex count (a negative row has one), and each bit
    (u, v) must join coordinates one bit apart, which a self-loop, XOR 0,
    does not. The ordered adjacent pairs are then among the ordered pairs
    at Hamming distance 1, which number 2H, H = sum over j of
    popcount(S & S >> 2**j & CLR_j) in the bitmaps below, the term for j
    counting the pairs that differ at bit j. The adjacency bits must number
    2H too, so the two sets are equal: the graph's edges are exactly the
    coordinates' pairs at Hamming distance 1, the graph
    :func:`interval_cubes`' proof needs. That is the verdict of
    :func:`_subcubes`' rows comparison: another vertex count, or a
    missing, extra, one-sided or moved adjacency bit, fails the count or
    a bit's test.

    Bitmaps. A set X of coordinates is read as the int with bit c set for
    each c in X; S is the whole set, R the coordinates of ``remaining``.
    For a direction set F, T_F(X) marks the u, clear on F, whose subcube
    (u, F) lies inside X: T_F(X) is X for F empty, and for j above F's
    highest bit T_{F+j}(X) = T_F(X) & T_F(X) >> 2**j & CLR_j, CLR_j marking
    the positions with bit j clear. Proof: for u clear on F + j, the
    subcube (u, F + j) is the union of (u, F) and (u + 2**j, F), and
    u + 2**j = u | 2**j is clear on F as u is; so it lies inside X exactly
    when u and u + 2**j are both in T_F(X) and bit j of u is clear. This is
    :func:`interval_cubes`' split at the highest bit of the span, on
    bitmaps. T_F(X) only shrinks with X, so T_F(R) is inside T_F(S): the
    direction sets with T_F(S) != 0, a tree in which F's parent is F less
    its highest bit, are grown once (:func:`_direction_tree`), and each call
    walks that tree with R down to |F| = k, leaving a subtree where T_F(R)
    is 0 or the subtree does not reach k. S is built once, and R is carried
    from call to call: each call toggles the coordinates of the vertices
    that joined or left ``remaining`` since the last call (before the
    first, every vertex and S), so any order of calls is read right, and
    greedy's, which only shrinks ``remaining``, toggles each vertex at most
    once.

    Cubes. Each u of T_F(R) with |F| = k is one cube: the ids of u + s, s
    over F's subset sums in counting order. Those sums increase, and a
    member's coordinates increase with id, so its vertices come out sorted;
    the list is sorted once into canonical order. Its mask is their OR.
    """
    if (coords := _claimed_coordinates(g)) is None or len(g.adj) != len(coords):
        return None
    nv = len(coords)
    ends = 0  # the adjacency bits
    for c, row in zip(coords, g.adj):
        if row >> nv:  # a bit at or past the vertex count, or a negative row
            return None
        ends += row.bit_count()
        while row:  # highest bit first, so the row shrinks as it is read
            row ^= 1 << (v := row.bit_length() - 1)
            if (c ^ coords[v]).bit_count() != 1:  # 0 on a self-loop
                return None
    width = max(coords, default=0).bit_length()
    size = (1 << width) + 7 >> 3  # bytes per bitmap
    clr: list[int] = []  # CLR_j for each j < width
    for w in range(width):  # from the positions below 2**w to those below 2**(w+1)
        clr = [c | c << (1 << w) for c in clr] + [(1 << (1 << w)) - 1]
    whole = _bitmap(coords, size)  # S
    if ends != 2 * sum([(whole & whole >> (1 << j) & clr[j]).bit_count() for j in range(width)]):
        return None
    index = dict(zip(coords, range(nv)))  # coordinate -> id
    tree = _direction_tree(whole, 0, clr)
    last, inside = (1 << nv) - 1, whole  # the last ``remaining`` and its R

    def fitting(k: int, remaining: int) -> list[_Cube]:
        nonlocal last, inside
        # toggle the coordinates of the vertices that joined or left since
        # the last call, read off the changed set's binary digits lowest first
        inside ^= _bitmap(compress(coords, map("1".__eq__, bin(last ^ remaining)[:1:-1])), size)
        last = remaining
        cubes = []
        stack = [(inside, tree, (0,))]  # (T_F(R), F's subtree, F's subset sums)
        while stack:
            corners, kids, sums = stack.pop()
            need = k - len(sums).bit_length() + 1  # the bits F still lacks
            if not need:
                for u in _bits(corners):
                    vertices = tuple([index[u + s] for s in sums])
                    cubes.append((vertices, sum(map((1).__lshift__, vertices))))
                continue
            for j, reach, sub in kids:
                if reach >= need and (child := corners & corners >> (1 << j) & clr[j]):
                    stack.append((child, sub, sums + tuple([s + (1 << j) for s in sums])))
        cubes.sort()
        return cubes

    return fitting


def _bitmap(positions: Iterable[int], size: int) -> int:
    # the int with exactly the bits ``positions`` set, all below 8 * size
    buf = bytearray(size)
    for p in positions:
        buf[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(buf, "little")


def _direction_tree(corners: int, low: int, clr: list[int]) -> list[tuple[int, int, list]]:
    # the children of a direction set F with T_F(S) = ``corners``: one
    # (j, reach, subtree) for each j >= low with T_{F+j}(S) != 0, reach being
    # the most bits a set below F + j has beyond F
    kids = []
    for j in range(low, len(clr)):
        if child := corners & corners >> (1 << j) & clr[j]:
            sub = _direction_tree(child, j + 1, clr)
            kids.append((j, 1 + max((reach for _, reach, _ in sub), default=0), sub))
    return kids


def _inside(levels: list[list[_Cube]], k: int, remaining: int) -> list[_Cube]:
    # the cubes of level k inside the vertex bit set ``remaining``
    outside = ~remaining
    return [cube for cube in levels[k] if not cube[1] & outside]


def _levels_from_the_top(g: LabeledGraph) -> list[list[_Cube]]:
    # the induced cubes of dimension >= 1, one list per dimension, largest
    # first: subcubes of the coordinates on a member, extensions elsewhere
    return (_subcubes(g) or enumerate_cubes(g))[:0:-1]


# ---------------------------------------------------------------------------
# witnesses: the lower bound
# ---------------------------------------------------------------------------


class _CubeTable:
    """The cubes of one cover search, shared by the search core and the
    witness walk. Built with the table: ``levels``, the (vertices, mask)
    pairs of one list per dimension, largest first, empty lists dropped,
    and ``through``, the masks of each vertex's cubes in level order, which
    the core branches on. Built at the first walk, which greedy's layers on
    the members never reach: ``walk``, the walk's data.
    """

    def __init__(self, levels: list[list[_Cube]], target: int) -> None:
        self.levels = [level for level in levels if level]  # dimension >= 1, all inside target
        self.target = target  # the vertex set to cover
        through: list[list[int]] = [[] for _ in range(target.bit_length())]
        for level in self.levels:
            for vertices, mask in level:
                for v in vertices:
                    through[v].append(mask)
        self.through = through  # per vertex: the masks of its cubes, in level order

    @cached_property
    def walk(self) -> tuple[list[int], list[tuple[int, int]]]:
        """Per vertex, its own bit and the masks of its cubes; and the
        target's vertices as (id, bit), fewest conflicts first, ties by id."""
        unions = [reduce(or_, masks, 1 << v) for v, masks in enumerate(self.through)]
        conflicts = [u.bit_count() for u in unions]
        order = sorted(_bits(self.target), key=conflicts.__getitem__)  # stable: ties stay in id order
        return unions, [(v, 1 << v) for v in order]


def cube_independent_set(g: LabeledGraph) -> tuple[int, ...]:
    """A witness: sorted vertex ids no two of which lie in one induced cube.

    Every cube factor of g has at least as many parts as the witness has
    vertices, since a part holds at most one of them. The witness is
    greedy: vertices are visited by fewest conflicts (the vertices sharing
    a cube of dimension >= 1 with them), ties by id, and a vertex is kept
    unless a vertex kept before it conflicts with it. It is the root walk
    of ``_cube_independent``, the walk exact search repeats at its nodes.
    """
    table = _CubeTable(_levels_from_the_top(g), (1 << g.vertex_count) - 1)
    return tuple(sorted(_cube_independent(table, 0, g.vertex_count)))


def _cube_independent(table: _CubeTable, covered: int, limit: int) -> list[int]:
    """The witness walk: vertices of the target outside ``covered``, no two
    of which lie in one cube of the table that misses ``covered``. A cover
    of the uncovered vertices by those cubes and single vertices has a part
    for each of them, so it has at least as many parts as the walk keeps.

    The vertices are visited in the order of ``table.walk``, fewest
    conflicts over all the table's cubes (the conflicts at the root), and a
    vertex is kept unless a vertex kept before it blocks it. A kept vertex
    blocks the cubes through it that still fit: its precomputed union if
    that misses ``covered``, otherwise the OR of those cubes. The walk stops
    as soon as it keeps more than ``limit`` vertices.
    """
    kept: list[int] = []
    free = table.target & ~covered
    unions, order = table.walk
    for v, bit in order:
        if free & bit:
            kept.append(v)
            if len(kept) > limit:
                break
            block = unions[v]
            if block & covered:
                block = bit
                for mask in table.through[v]:
                    if not mask & covered:
                        block |= mask
            free &= ~block
    return kept


def check_witness(g: LabeledGraph, witness: Iterable[int]) -> list[tuple[int, int]]:
    """The pairs of ``witness`` that share an induced cube, sorted.

    An empty list certifies that every cube factor of g has at least as
    many parts as the witness has distinct vertices (violations are data,
    not exceptions). An id outside the graph raises ValueError. The cubes
    come from ``enumerate_cubes`` on every graph, so a member's witness,
    which the solvers build from its coordinate subcubes, is checked
    against the other enumerator. The scan is :func:`_shared_pairs`,
    which the oracle audit calls on its own ``enumerate_cubes`` listing.
    """
    members = 0
    for v in witness:
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"vertex id {v} is outside the graph")
        members |= 1 << v
    return _shared_pairs(enumerate_cubes(g), members)


def _shared_pairs(levels: list[list[_Cube]], members: int) -> list[tuple[int, int]]:
    # the pairs of the vertex bit set ``members`` that share a cube of
    # ``levels`` above level 0, sorted
    pairs: set[tuple[int, int]] = set()
    for level in levels[1:]:
        for _, mask in level:
            pairs.update(combinations(_bits(mask & members), 2))
    return sorted(pairs)


# ---------------------------------------------------------------------------
# the shared search core (branch-and-bound exact cover) and its two solvers
# ---------------------------------------------------------------------------


def _first_min_cover(table: _CubeTable, effort: dict[str, int], lower: int = 0) -> list[_Cube]:
    """The cubes of the first fewest-parts cover of ``table.target`` by the
    cubes of ``table.levels`` (dimension >= 1, all inside the target) and
    single vertices.

    Branch on the lowest uncovered vertex that a fitting cube (one that
    misses the covered set) reaches; try its fitting cubes in level order,
    the order of ``table.through``, then the vertex alone, and replace the
    incumbent only on a strict improvement, so the result is the first
    optimal cover in that order. A node carries only its covered set and
    part count, and before it branches:

    * It covers as single vertices, with no search node of their own, the
      lowest uncovered vertices that no fitting cube reaches, up to the
      branch vertex. Every cover below the node has them as single
      vertices, since cubes only stop fitting further down. A node left
      with nothing uncovered is a complete cover, and replaces the
      incumbent only if it has fewer parts.
    * It is pruned when one more part reaches the incumbent's count: the
      branch vertex needs a part of its own.
    * The witness walk ``_cube_independent`` over the still-fitting cubes:
      a cover of what is left has at least as many parts as the walk keeps.
      It stops as soon as the kept ones are more than the incumbent allows.
      It is skipped when the uncovered vertices are too few to exceed that
      allowance, as on the first descent, where the incumbent allows one
      part per vertex.

    A visited table prunes re-reaching a covered set at no fewer parts.

    No prune changes the result. A valid lower bound prunes a node
    only when every cover below it has at least as many parts as the
    incumbent; such a cover would not have replaced the incumbent, since
    only strict improvements do. So the search passes the same covers to
    the incumbent in the same order, and returns the same first optimal
    cover, with any valid bound or none.

    ``lower`` is a lower bound on the part count of every cover, such as a
    witness size or the bound a greedy layer reads off its packing bound.
    The search stops as soon as a cover reaches it: that cover is optimal,
    and since every cover found before it was larger, it is the first
    optimal cover, the one the full search would return.

    ``effort`` has its ``nodes`` (search calls), ``bound_prunes`` (walk
    prunes and one-more-part prunes) and ``memo_hits`` counts raised by
    this search's effort. The search keeps the masks it picks and reads
    the cubes back off the levels, in level order. It recurses once per
    part on a branch, so a cover of more parts than Python's recursion
    limit allows raises ValueError.
    """
    target, through = table.target, table.through
    best_count = target.bit_count() + 1
    best_choice: list[int] = []
    choice: list[int] = []
    visited: dict[int, int] = {}

    # ``search`` refers to itself through its closure, a reference cycle
    # that holds the table and ``visited``: they are freed by the cyclic
    # collector, not on return. Removing the cycle waits on ROADMAP item 13:
    # perfbench's yardstick leaks its memo through the same pattern, and the
    # collections this garbage triggers are what free it.
    def search(covered: int, parts: int) -> None:
        nonlocal best_count, best_choice
        effort["nodes"] += 1
        uncovered = target & ~covered
        while uncovered:  # forced single vertices, up to the branch vertex
            low = uncovered & -uncovered
            for mask in through[low.bit_length() - 1]:
                if not mask & covered:
                    break  # a fitting cube: low is the branch vertex
            else:
                uncovered ^= low
                parts += 1
                continue
            break
        else:  # nothing is left uncovered: a complete cover
            if parts < best_count:
                best_count = parts
                best_choice = list(choice)
            return
        if parts + 1 >= best_count:
            effort["bound_prunes"] += 1
            return
        covered = target & ~uncovered
        seen = visited.get(covered)
        if seen is not None and seen <= parts:
            effort["memo_hits"] += 1
            return
        visited[covered] = parts
        allowed = best_count - parts - 1
        if uncovered.bit_count() > allowed and len(_cube_independent(table, covered, allowed)) > allowed:
            effort["bound_prunes"] += 1
            return
        for mask in through[low.bit_length() - 1]:
            if mask & covered:
                continue
            choice.append(mask)
            search(covered | mask, parts + 1)
            choice.pop()
            if best_count <= lower:
                return
        search(covered | low, parts + 1)

    try:
        search(0, 0)
    except RecursionError:  # one frame per part on the branch
        raise ValueError(f"the search is deeper than Python's recursion limit of {sys.getrecursionlimit()}") from None
    chosen = set(best_choice)
    return [cube for level in table.levels for cube in level if cube[1] in chosen]


def exact_min_factor(
    g: LabeledGraph, cap: int | None = None, stats: dict[str, int] | None = None
) -> CubeFactor:
    """A cube factor with the minimum number of parts, by exact search.

    One call of the shared core ``_first_min_cover`` over every induced
    cube of dimension >= 1, in descending dimension then canonical order,
    so the result is the first optimal cover in that order; a lowest
    vertex with no fitting cube left is a forced single vertex. The
    witness of :func:`cube_independent_set`, the root walk over the same
    cube table, is the lower bound: the search stops at the first cover of
    that many parts.

    If ``cap`` is given, a graph of more vertices is refused with a
    ``ValueError``. If ``stats`` is given, it receives the search effort:
    ``nodes`` (search calls); ``bound_prunes``, the nodes pruned by the
    witness walk or because one more part would reach the incumbent's
    count; ``memo_hits``; and ``lower_bound``, the witness size.
    """
    _check_cap(g, cap)
    nv = g.vertex_count
    table = _CubeTable(_levels_from_the_top(g), (1 << nv) - 1)
    lower = len(_cube_independent(table, 0, nv))
    effort = dict(nodes=0, bound_prunes=0, memo_hits=0)
    factor = _with_single_vertices(nv, _first_min_cover(table, effort, lower))
    if stats is not None:
        stats.update(effort, lower_bound=lower)
    return factor


def greedy_layered_factor(
    g: LabeledGraph, cap: int | None = None, stats: dict[str, int] | None = None
) -> CubeFactor:
    """Factor built by taking a maximum disjoint k-cube packing for each
    dimension k from the largest down, deleting covered vertices between
    layers; the rest are single vertices.

    Each layer's packing is exact: a fewest-parts cover of the remaining
    vertices by k-cubes and single vertices packs the most k-cubes, so
    layer k is one call of the shared core ``_first_min_cover`` with the
    k-cubes inside the remaining vertices, and its forced single vertices
    are the ones no such cube reaches. The result is the first maximum
    packing in the core's branching order.

    Layer k reads only the k-cubes that fit. On a member that passes
    :func:`_subcube_layers`' gate they are the k-subcubes inside the
    remaining coordinates, found top-down on bitmaps over coordinate space,
    so no other cube is built; on every other graph they are level k of
    :func:`enumerate_cubes`, filtered to the remaining vertices. Both lists
    are the same, in canonical order.

    The core is told a lower bound on the layer's part count, so it stops
    at the first packing that meets it. A packing of p k-cubes covers the
    remaining vertices with |remaining| - p * (2**k - 1) parts, and
    :func:`_packing_bound` bounds p by ``groups``, read off the fitting
    cubes in canonical order in at most groups * cubes integer ANDs. The
    cover that meets the bound is the first optimal one, the one the full
    search returns, so the bound changes only the effort. On the members
    it equals the packing on every layer up to order 16. A layer that no
    cube fits is not searched: its packing is empty, as the core would
    find at its root.

    ``cap`` is :func:`exact_min_factor`'s. If ``stats`` is given, it
    receives the search effort summed over the searched layers: the keys
    of :func:`exact_min_factor` but ``lower_bound``, since greedy computes
    no witness.
    """
    _check_cap(g, cap)
    effort = dict(nodes=0, bound_prunes=0, memo_hits=0)
    remaining = (1 << g.vertex_count) - 1
    parts: list[_Cube] = []
    listing = _subcube_layers(g) or partial(_inside, enumerate_cubes(g))
    for k in range(g.vertex_count.bit_length() - 1, 0, -1):
        fitting = listing(k, remaining)
        if not fitting:  # nothing to pack: the layer is not searched
            continue
        saved = (1 << k) - 1  # the parts one k-cube saves
        lower = remaining.bit_count() - _packing_bound([mask for _, mask in fitting]) * saved
        for vertices, mask in _first_min_cover(_CubeTable([fitting], remaining), effort, lower):
            parts.append((vertices, mask))
            remaining &= ~mask
    if stats is not None:
        stats.update(effort)
    return _with_single_vertices(g.vertex_count, parts)


def _packing_bound(masks: list[int]) -> int:
    """An upper bound on the number of pairwise disjoint cubes among
    ``masks``: the number of groups the sweeps below make.

    Each sweep opens a group at the first mask left and keeps ``common``,
    the vertices every mask of the group shares; a later mask joins when
    it meets ``common``, which then shrinks to the shared part, and every
    other mask waits for the next sweep. ``common`` never empties, and
    every mask of a group contains its final value, so the masks of one
    group pairwise intersect: a packing takes at most one from each. The
    cost is at most groups * len(masks) integer ANDs.
    """
    groups = 0
    while masks:
        common, rest = masks[0], []
        for mask in masks[1:]:
            if mask & common:
                common &= mask
            else:
                rest.append(mask)
        masks = rest
        groups += 1
    return groups


def _check_cap(g: LabeledGraph, cap: int | None) -> None:
    if cap is not None and g.vertex_count > cap:
        raise ValueError(f"graph has {g.vertex_count} vertices, above the cap {cap}")


def _with_single_vertices(nv: int, parts: list[_Cube]) -> CubeFactor:
    # the parts as cubes, then each vertex of 0..nv-1 they leave uncovered
    # as a single vertex
    left = (1 << nv) - 1 & ~reduce(or_, (mask for _, mask in parts), 0)
    cubes = [InducedCube(len(vertices).bit_length() - 1, vertices) for vertices, _ in parts]
    singles = [InducedCube(0, (v,)) for v in _bits(left)]
    return CubeFactor((*cubes, *singles))


# ---------------------------------------------------------------------------
# structural (recursive lift-and-embed) factor
# ---------------------------------------------------------------------------


# the base members' parts, as sorted vertex ids
_BASE_PARTS: dict[Family, list[tuple[tuple[int, ...], ...]]] = {
    Family.GAMMA: [((0,),), ((0, 1),), ((0, 1), (2,))],
    Family.OMEGA: [((0,),), ((0, 1),), ((0, 1), (2,)), ((0, 1), (2, 3)), ((0, 1, 4, 5), (2, 3), (6,))],
}


def _structural_parts(fam: Family, n: int) -> tuple[tuple[int, ...], ...]:
    base = _BASE_PARTS[fam]
    if n < len(base):
        return base[n]
    # member n is member n-1 ("0"), then member n-2 ("10") shifted by
    # |member n-1|, and member n-1 holds member n-2 ("00") with its ids and
    # member n-3 ("010") shifted by |member n-2| (graphs' module docstring).
    # One forward pass from the last three bases keeps (parts, vertex count)
    # of the three orders below the next, the counts a running sum
    members = [(parts, sum(map(len, parts))) for parts in base[-3:]]
    for _ in range(len(base), n + 1):
        (low, _), (mid, below), (_, above) = members
        lifted = tuple(p + tuple(v + above for v in p) for p in mid)
        embedded = tuple(tuple(v + below for v in p) for p in low)
        members = [members[1], members[2], (lifted + embedded, above + below)]
    return members[2][0]


def structural_factor(
    family: Family | str, n: int, g: LabeledGraph | None = None
) -> CubeFactor:
    """Factor from the recursive construction behind the recurrence.

    A dimension-k part of the factor two indices down is lifted across the
    "00"/"10" prefix pair into a (k+1)-cube, and the factor three indices
    down is embedded under the "010" prefix; base factors are explicit.
    The parts are built on vertex ids by the construction's layout, with
    no label read and no graph built; they refer to the built graph of the
    same family and order. With no graph the order is held to the
    construction cap, as ``build_graph``'s default.
    """
    fam = _family(family)
    graphs._check_cap(n, n if g is not None else DEFAULT_MAX_N)
    if g is not None and (g.family != fam.value or g.n != n):
        raise ValueError("graph does not match the requested family member")
    parts = [InducedCube(len(p).bit_length() - 1, p) for p in _structural_parts(fam, n)]
    parts.sort(key=lambda c: (-c.dimension, c.vertices))
    return CubeFactor(tuple(parts))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _is_induced_cube(g: LabeledGraph, vertices: tuple[int, ...], dimension: int) -> bool:
    """Exact hypercube recognition on the induced subgraph, by coordinates,
    in one pass over its edges.

    Once the size is 2**k (k = ``dimension``) and the vertices are
    distinct, a BFS from the root ``vertices[0]`` walks bit-set levels. The
    root must have induced degree k; it gets coordinate 0 and its
    neighbours the unit vectors. Each vertex of a level must have induced
    degree k and no induced neighbour in its own level; its neighbours not
    yet placed form the next level, and each of them gets the OR of its
    neighbours' coordinates in the level above. So each edge is read once,
    from its upper end. At the end the coordinates must number 2**k
    distinct ones, and the depths of the vertices must sum to k * 2**(k-1).

    Depths. With distinct coordinates, an edge's upper end has a
    coordinate strictly inside its lower end's, so weights (numbers of set
    bits) grow by at least one per level and each vertex's weight is at
    least its depth. The 2**k coordinates lie in {0,1}^k, so they fill it,
    and their weights sum to k * 2**(k-1). So the depths sum to that
    exactly when every weight is its depth, that is, when each edge flips
    exactly one coordinate bit: the sum stands for a one-bit test per edge
    at one addition per level.

    Sound: the 2**k distinct coordinates fill {0,1}^k, so every vertex was
    reached. No edge lies inside a level, so every edge joins consecutive
    levels, and by the depths it flips one bit. With degree k, a vertex's
    neighbours are then exactly its k Hamming neighbours, all present, so
    the coordinates are an isomorphism onto Q_k. Complete: in Q_k the
    levels are the Hamming weights from the root, so no edge lies inside a
    level, and a vertex of weight d >= 2 has exactly d neighbours one level
    up, each one bit below it, so their OR is its own vector: the
    coordinates are distinct and each weight is its depth.

    The degree, level and distinct checks each decide alone on a graph in
    the tests (the twisted twin 3-cubes, Q4 with two edges swapped, Q4
    with two twins). No graph is known on which the depth check decides
    alone, nor a proof that the other three imply it.
    """
    members = 0
    for v in vertices:
        members |= 1 << v
    return _spans_cube(g.adj, vertices, members, dimension)


def _spans_cube(adj: tuple[int, ...], vertices: tuple[int, ...], members: int, k: int) -> bool:
    # _is_induced_cube on ``members``, the bit set of ``vertices``
    size = len(vertices)
    if not _fits(k, size) or members.bit_count() != size:  # the size, or a repeated vertex
        return False
    root = vertices[0]
    near = adj[root] & members
    if near.bit_count() != k:
        return False
    level = dict(zip(_bits(near), (1 << i for i in range(k))))  # vertex -> coordinate
    here, rest = near, members ^ near ^ 1 << root  # the level's bits; the vertices not yet placed
    seen = {0}
    depth = depths = 0
    while level:
        depth += 1
        depths += depth * len(level)
        seen.update(level.values())
        below: dict[int, int] = {}
        down = 0
        for u, c in level.items():
            near = adj[u] & members
            if near.bit_count() != k or near & here:
                return False
            near &= rest
            down |= near
            while near:  # each edge once, from its upper end
                low = near & -near
                near ^= low
                w = low.bit_length() - 1
                below[w] = below.get(w, 0) | c
        here, rest, level = down, rest ^ down, below
    return len(seen) == size and depths == k * size >> 1


def verify_factor(g: LabeledGraph, factor: CubeFactor) -> FactorProfile | FactorViolation:
    """Check disjointness, coverage, and the induced-cube property.

    Returns the per-dimension profile on success, otherwise the first
    violation found (violations are data, not exceptions).
    """
    nv = g.vertex_count
    covered = 0
    for i, part in enumerate(factor.parts):
        # ids before the mask, so a huge id never builds a huge mask
        if max(part.vertices, default=-1) >= nv:
            return FactorViolation("bad-vertex", f"part {i} references a vertex outside the graph", i)
        if tuple(sorted(part.vertices)) != part.vertices:
            return FactorViolation("bad-vertex", f"part {i} vertices are not sorted", i)
        mask = 0
        for v in part.vertices:
            mask |= 1 << v
        if not _spans_cube(g.adj, part.vertices, mask, part.dimension):
            return FactorViolation(
                "not-a-cube",
                f"part {i} does not induce a {part.dimension}-cube",
                i,
            )
        if mask & covered:
            overlap = next(_bits(mask & covered))
            return FactorViolation(
                "disjointness",
                f"part {i} reuses vertex {g.labels[overlap]!r}",
                i,
            )
        covered |= mask
    if covered != (1 << nv) - 1:
        missing = next(_bits(~covered & ((1 << nv) - 1)))
        return FactorViolation("coverage", f"vertex {g.labels[missing]!r} is uncovered", None)
    return factor.profile()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def factor_to_json(g: LabeledGraph, factor: CubeFactor) -> str:
    """JSON text: parts as {"k", "vertices": [labels]} plus the profile."""
    payload = {
        "family": g.family,
        "n": g.n,
        "parts": [
            {"k": p.dimension, "vertices": [g.labels[v] for v in p.vertices]}
            for p in factor.parts
        ],
        "profile": [str(c) for c in factor.profile().counts],
    }
    return json.dumps(payload, separators=(",", ":"))


def factor_from_json(g: LabeledGraph, text: str) -> CubeFactor:
    """Parse a factor back against a graph; accepts the object form or a
    bare list of parts. Malformed input, an object written for another
    graph (its family or n differs from g's, or n is not a JSON integer)
    and unknown labels raise ValueError."""
    data = json.loads(text)
    if isinstance(data, dict):
        family, n = data.get("family", g.family), data.get("n", g.n)
        # not bool or float: true == 1 and 2.0 == 2; a family equal to
        # g's is a string
        if type(n) is not int or (family, n) != (g.family, g.n):
            raise ValueError(f"malformed factor: made for {family} n={n}, not {g.family} n={g.n}")
    raw_parts = data.get("parts") if isinstance(data, dict) else data
    if not isinstance(raw_parts, list):
        raise ValueError("malformed factor: expected a list of parts or an object with one")
    parts = []
    for item in raw_parts:
        if not (
            isinstance(item, dict)
            and type(item.get("k")) is int  # not bool: JSON true/false decode to bools
            and isinstance(item.get("vertices"), list)
            and all(isinstance(lab, str) for lab in item["vertices"])
        ):
            raise ValueError(f"malformed factor part: {item!r}")
        try:
            ids = tuple(sorted(g.index_of(lab) for lab in item["vertices"]))
        except KeyError as exc:
            raise ValueError(f"unknown vertex label {exc.args[0]!r}") from None
        parts.append(InducedCube(item["k"], ids))
    return CubeFactor(tuple(parts))
