"""Numerical types of stable curves with a prime-order automorphism.

A pair (C, gamma) with C stable and gamma of prime order d is recorded
as a labelled multigraph.  Vertices are irreducible components carrying
the geometric genus of the normalisation and a colour: I0 when gamma
restricts to the identity, I1 when it preserves the component but acts
nontrivially.  On I1 vertices a free-branching sequence counts the
fixed points that are not nodes, by local monodromy residue.  Edges are
the nodes, each an Edge(u, v, mu, mv) carrying the residue of the action
on the branch at each end (0 exactly at I0 ends).  A link joins two
components and runs from the smaller vertex id, u < v; a loop is a node
internal to one component, u == v, and its residues are an unordered
pair, kept sorted.  Only a loop may be branch-swapping.

Two validity levels exist.  A graph mid-rewrite ("pre" mode) may still
contain smoothable nodes: links between two I0 vertices, label pairs
summing to 0 mod d, or branch-swapping loops at d = 2.  A maximal graph
has none; smoothing a node deforms the pair to one with fewer nodes,
and `simplify` rewrites any pre graph to its maximal type.  The total
genus, vertex genera plus the first Betti number of the graph, is
preserved by every rewrite step.

Per-vertex admissibility is taken on the normalisation: with k(i) the
total branching at an I1 vertex (free counts plus edge-end residues,
loops contributing both pair members),

    2(g_i - 1) = d * (2(g'_i - 1) + k(i)(1 - 1/d))

must have a non-negative integer solution g'_i, and the weighted residue
sum at the vertex must vanish mod d so that the component's own cyclic
cover exists.  The variant of the genus relation that adds the loop
count to g_i is inconsistent on graphs with loops (an order-3 action on
an elliptic curve with two fixed points glued is the smallest witness).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from enum import Enum
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .combinat import (clipped, connects, free_menu, is_prime, min_marks, prime_shapes,
                       quotient_genus_for, residue_sum, unit_action, units_mod)

__all__ = [
    "I0",
    "I1",
    "Vertex",
    "Edge",
    "AutoGraph",
    "GraphError",
    "DivisorException",
    "make_link",
    "make_loop",
    "make_graph",
    "check_graph",
    "graph_genus",
    "is_stable",
    "smoothable_nodes",
    "simplify",
    "enlarge",
    "stratum_dimension",
    "encoding_factors",
    "factors_dimension",
    "encoding_dimension",
    "canonical_encoding",
    "canonical_form",
    "enumerate_graphs",
    "scaled_pairs",
    "divisor_exception",
    "is_elliptic_tail_vertex",
    "graph_doc",
    "graph_from_doc",
    "doc_int",
    "MAX_DOC_ORDER",
]

I0 = "I0"
I1 = "I1"


class GraphError(ValueError):
    """A graph violates a structural or admissibility constraint."""


class Vertex(NamedTuple):
    vid: int
    colour: str
    genus: int
    free: tuple[int, ...] | None = None


class Edge(NamedTuple):
    """A node: a link when u < v, a loop at u when u == v (then mu <= mv).
    Build edges with make_link and make_loop."""

    u: int
    v: int
    mu: int
    mv: int
    swapped: bool = False


class AutoGraph(namedtuple("AutoGraph", "d vertices edges", defaults=((),))):
    """d, vertices and edges; no __slots__, so the cached _index lives in
    the instance __dict__."""

    @cached_property
    def _index(self) -> dict[int, tuple[Vertex, list]]:
        # vid -> (its vertex, the (label, edge) pair of each edge-end at
        # it in edge order, a loop giving two), built once per graph.
        index = {v.vid: (v, []) for v in self.vertices}
        for e in self.edges:
            for end, label in ((e.u, e.mu), (e.v, e.mv)):
                if end in index:
                    index[end][1].append((label, e))
        return index

    def vertex(self, vid: int) -> Vertex:
        if vid not in self._index:
            raise GraphError("no vertex with id %d" % vid)
        return self._index[vid][0]

    def ends(self, vid: int) -> list[tuple[int, Edge]]:
        """The (label, edge) pair of each edge-end at vertex vid, in edge order."""
        return self._index[vid][1]

    def colour(self, vid: int) -> str:
        return self.vertex(vid).colour

    def i1_vertices(self) -> tuple[Vertex, ...]:
        return tuple(v for v in self.vertices if v.colour == I1)


def _edge_key(e: Edge):
    # Every link sorts before every loop, then by field.
    return (e.u == e.v, e.u, e.v, e.mu, e.mv, e.swapped)


def _edge(u: int, v: int, mu: int, mv: int, swapped: bool = False) -> Edge:
    # The normal form of every edge: the smaller end first, and at a loop
    # the smaller residue first.
    if u > v or u == v and mu > mv:
        u, v, mu, mv = v, u, mv, mu
    return Edge(u, v, mu, mv, swapped)


def make_link(u: int, v: int, mu: int, mv: int) -> Edge:
    if u == v:
        raise GraphError("a link must join two distinct vertices")
    return _edge(u, v, mu, mv)


def make_loop(v: int, n1: int, n2: int, swapped: bool = False) -> Edge:
    return _edge(v, v, n1, n2, swapped)


def make_graph(d: int, vertices, edges=()) -> AutoGraph:
    """Normalised graph constructor: sorts vertices and edges, links before
    loops, and zero-fills a missing free-branching tuple on an I1 vertex.
    An I0 vertex keeps what it carries, so check_graph sees any branching
    given to it."""
    vs = []
    for v in vertices:
        if v.colour == I1 and v.free is None:
            v = v._replace(free=(0,) * (d - 1))
        vs.append(v)
    vs.sort(key=lambda v: v.vid)
    es = sorted(edges, key=_edge_key)
    return AutoGraph(d=d, vertices=tuple(vs), edges=tuple(es))


def _factor(d: int, vid: int, coloured: bool, genus: int, marks: int) -> tuple[int, int]:
    # The quotient factor (h, marks) of one vertex.  An identity component
    # is its own quotient, marked at its edge-ends; an I1 component's
    # marks are its k branch points, each weighing d - 1 since every
    # residue is a unit mod the prime d, and h solves the genus relation.
    if not coloured:
        return genus, marks
    h = quotient_genus_for(genus, d, marks * (d - 1))
    if h is None:
        raise GraphError(
            "vertex %d: genus relation has no non-negative integer quotient genus "
            "(genus %d, k %d, order %d)" % (vid, genus, marks, d)
        )
    return h, marks


def _branching(G: AutoGraph, v: Vertex) -> tuple[int, int]:
    # (k, residue sum) of an I1 vertex: its free points and the fixed
    # points at its edge-ends.  A swapped loop's two preimages form one
    # orbit and are not fixed points, so it contributes nothing here.
    labels = [label for label, e in G.ends(v.vid) if not e.swapped]
    return sum(v.free) + len(labels), residue_sum(v.free) + sum(labels)


def check_graph(G: AutoGraph, pre: bool = False, require_stable: bool = False) -> None:
    """Validate a graph; raises GraphError naming the violated clause.

    pre=False enforces maximality: no I0-I0 links, no loops on I0, no
    label pairs summing to 0 mod d, no branch-swapping loops.  pre=True
    allows exactly those smoothable configurations.
    """
    d = G.d
    if not is_prime(d):
        raise GraphError("order must be a prime number")
    if not G.vertices:
        raise GraphError("graph has no vertices")
    if len(G._index) != len(G.vertices):
        raise GraphError("duplicate vertex ids")
    for v in G.vertices:
        if v.colour not in (I0, I1):
            raise GraphError("vertex %d: unknown colour %s" % (v.vid, clipped(v.colour)))
        if v.genus < 0:
            raise GraphError("vertex %d: negative genus" % v.vid)
        if v.colour == I1:
            if v.free is None or len(v.free) != d - 1:
                raise GraphError("vertex %d: free branching must have %d entries"
                                 % (v.vid, d - 1))
            if any(c < 0 for c in v.free):
                raise GraphError("vertex %d: negative free branching" % v.vid)
        elif v.free is not None:
            raise GraphError("vertex %d: identity components carry no branching"
                             % v.vid)
    for e in G.edges:
        if e.u != e.v:
            if e.u not in G._index or e.v not in G._index:
                raise GraphError("link references a missing vertex")
            cu, cv = G.colour(e.u), G.colour(e.v)
            for end, c, m in ((e.u, cu, e.mu), (e.v, cv, e.mv)):
                if c == I0 and m != 0:
                    raise GraphError("link end at identity vertex %d must carry 0"
                                     % end)
                if c == I1 and not (1 <= m <= d - 1):
                    raise GraphError("link end at vertex %d needs a nonzero residue"
                                     % end)
            if cu == I0 and cv == I0 and not pre:
                raise GraphError("maximal graphs admit no link between two "
                                 "identity components")
            if (e.mu + e.mv) % d == 0 and not pre:
                raise GraphError("maximal graphs admit no link with labels "
                                 "summing to 0 mod %d" % d)
        else:
            if e.v not in G._index:
                raise GraphError("loop references a missing vertex")
            c = G.colour(e.v)
            if e.swapped:
                if not pre:
                    raise GraphError("maximal graphs admit no branch-swapping loop")
                if c == I0:
                    raise GraphError("an identity component cannot swap branches")
                if not (0 <= e.mu and e.mv <= d - 1):
                    raise GraphError("loop labels out of range at vertex %d" % e.v)
            elif c == I0:
                if not pre:
                    raise GraphError("maximal graphs admit no loop on an identity "
                                     "component")
                if (e.mu, e.mv) != (0, 0):
                    raise GraphError("a loop on an identity component carries (0,0)")
            else:
                if not (1 <= e.mu and e.mv <= d - 1):
                    raise GraphError("loop labels out of range at vertex %d" % e.v)
                if (e.mu + e.mv) % d == 0 and not pre:
                    raise GraphError("maximal graphs admit no loop with labels "
                                     "summing to 0 mod %d" % d)
    index = {vid: i for i, vid in enumerate(G._index)}
    if not connects(len(index), [(index[e.u], index[e.v]) for e in G.edges]):
        raise GraphError("graph is not connected")
    for v in G.i1_vertices():
        k, total = _branching(G, v)
        if total % d:
            raise GraphError(
                "vertex %d: branch residues sum to %d mod %d, no vertex cover exists"
                % (v.vid, total % d, d)
            )
        _factor(d, v.vid, True, v.genus, k)
    if require_stable and not is_stable(G):
        raise GraphError("graph fails stability")


def graph_genus(G: AutoGraph) -> int:
    """Total genus: vertex genera plus the first Betti number, loops included."""
    b1 = len(G.edges) - len(G.vertices) + 1
    return sum(v.genus for v in G.vertices) + b1


def is_stable(G: AutoGraph) -> bool:
    """Genus-0 components need 3 nodes, genus-1 components 1; total genus >= 2."""
    if any(len(G.ends(v.vid)) < min_marks(v.genus) for v in G.vertices):
        return False
    return graph_genus(G) >= 2


def _smoothable(d: int, e: Edge) -> bool:
    return d == 2 if e.swapped else (e.mu + e.mv) % d == 0


def smoothable_nodes(G: AutoGraph) -> tuple:
    """Edges whose node admits an equivariant smoothing."""
    out = {e for e in G.edges if _smoothable(G.d, e)}
    return tuple(sorted(out, key=_edge_key))


def simplify(G: AutoGraph) -> AutoGraph:
    """Rewrite to the maximal type by smoothing until nothing is smoothable.

    The result does not depend on the smoothing order; a fixed order is
    used so the function is deterministic.  Raises when a branch-swapping
    loop survives at odd order, since no such pair exists.
    """
    return _smoothing_steps(G)[1]


def _smoothing_steps(G: AutoGraph, require_stable: bool = False):
    """The steps of `simplify`: (the smoothed nodes in order, the maximal
    graph), validating the input as a pre graph and the result as maximal.

    No step changes a label, so the nodes smoothed are G's smoothable
    nodes, each the least one left in `_edge_key` order.  So the links go
    first: each piece they join merges into its least vertex s, nearest
    (far end w, label at s's side, label at w) first, and a link whose far
    end is merged already has become a loop.  Then the loops, renamed to
    their piece's vertex: each adds 1 to its genus, and a swapped one two
    fixed points of residue 1.
    """
    check_graph(G, pre=True, require_stable=require_stable)
    d = G.d
    links = {v.vid: [] for v in G.vertices}  # (far end, label here, label there, index)
    loops = [e for e in G.edges if e.u == e.v and _smoothable(d, e)]
    for ix, e in enumerate(G.edges):
        if e.u != e.v and _smoothable(d, e):
            links[e.u].append((e.v, e.mu, e.mv, ix))
            links[e.v].append((e.u, e.mv, e.mu, ix))
    root, steps = {}, []
    for s in sorted(links):
        if root.setdefault(s, s) != s:
            continue
        # Each link enters the heap once, from the end merged first.
        heapify(heap := links[s])
        while heap:
            w, a, b, _ = heappop(heap)
            if root.get(w) == s:
                loops.append(_edge(s, s, a, b))
                continue
            root[w] = s
            steps.append(Edge(s, w, a, b))
            for item in links[w]:
                if root.get(item[0]) != s:
                    heappush(heap, item)
    loops = sorted((_edge(root[e.u], root[e.u], e.mu, e.mv, e.swapped) for e in loops),
                   key=_edge_key)
    genus, free = {}, {}
    for v in G.vertices:
        r = root[v.vid]
        genus[r] = genus.get(r, 0) + v.genus
        if v.colour == I1:
            free[r] = [x + y for x, y in zip(free.get(r, (0,) * (d - 1)), v.free)]
    for e in loops:
        genus[e.u] += 1
        if e.swapped:
            free[e.u][0] += 2
    vertices = [Vertex(r, G.colour(r), genus[r], tuple(free[r]) if r in free else None)
                for r in genus]
    out = make_graph(d, vertices, [_edge(root[e.u], root[e.v], e.mu, e.mv, e.swapped)
                                   for e in G.edges if not _smoothable(d, e)])
    check_graph(out, pre=False)
    return steps + loops, out


def _trivialise(G: AutoGraph, vids: set[int]) -> AutoGraph:
    # Replace the action on the given I1 components by the identity.
    vertices = [Vertex(v.vid, I0, v.genus) if v.vid in vids else v for v in G.vertices]
    edges = [_edge(e.u, e.v, 0 if e.u in vids else e.mu, 0 if e.v in vids else e.mv,
                   e.swapped) for e in G.edges]
    return make_graph(G.d, vertices, edges)


def enlarge(G: AutoGraph, j: int, kind: str) -> tuple[int, AutoGraph, int]:
    """(G's stratum dimension, the maximal graph, its stratum dimension)
    after trivialising the action on chosen I1 components and simplifying.

    "detached" trivialises j, which meets no identity component;
    "attached" trivialises j, which meets one, and merges it with its
    identity neighbours; "max" trivialises every I1 component but j.  The
    total genus is kept and the dimension does not fall.
    """
    check_graph(G, pre=False)
    if G.colour(j) != I1:
        raise GraphError("vertex %d is not an I1 component" % j)
    meets = any(G.colour(e.v if e.u == j else e.u) == I0 for _, e in G.ends(j))
    if kind == "detached" and meets:
        raise GraphError("vertex %d meets an identity component" % j)
    if kind == "attached" and not meets:
        raise GraphError("vertex %d meets no identity component" % j)
    others = {v.vid for v in G.i1_vertices() if v.vid != j}
    if kind != "detached" and not others:
        raise GraphError("need another nontrivially acted component")
    out = simplify(_trivialise(G, others if kind == "max" else {j}))
    if graph_genus(out) != graph_genus(G):
        raise AssertionError("enlargement changed the total genus")
    after = _dimension(out)  # the result's unstable summand is refused first
    before = _dimension(G)
    if after < before:
        raise AssertionError("enlargement decreased the stratum dimension")
    return before, out, after


def stratum_dimension(G: AutoGraph) -> int:
    """Moduli dimension of the stratum: sum of 3g - 3 + n over the factors.

    Identity components contribute their genus marked at the edge-ends;
    the others contribute the quotient genus marked at all k branch
    points.  G is validated as a pre graph first, and an unstable factor
    is refused.
    """
    check_graph(G, pre=True)
    return _dimension(G)


def _dimension(G: AutoGraph) -> int:
    # `stratum_dimension` of a graph that passed check_graph.
    factors = []
    for v in G.vertices:
        coloured = v.colour == I1
        marks = _branching(G, v)[0] if coloured else len(G.ends(v.vid))
        h, n = _factor(G.d, v.vid, coloured, v.genus, marks)
        if n < min_marks(h):
            raise GraphError("unstable summand at vertex %d: genus %d with %d marks"
                             % (v.vid, h, n))
        factors.append((h, n))
    return factors_dimension(factors)


def encoding_factors(enc) -> list[tuple[int, int]]:
    """The quotient factor (h, n) of each vertex of an encoding, in its
    order: every end at an I1 vertex is one of its k branch points."""
    d, vparts, eparts = enc
    ends = [0] * len(vparts)
    for e in eparts:
        ends[e[1]] += 1
        ends[e[2] if e[0] == 0 else e[1]] += 1
    return [_factor(d, ix, coloured, genus, n + sum(free))  # free is () at an I0 vertex
            for ix, ((coloured, genus, free), n) in enumerate(zip(vparts, ends))]


def factors_dimension(factors) -> int:
    """The dimension of a stratum whose quotient factors are these (h, n):
    the sum of dim M_{h,n} = 3h - 3 + n.  An unstable factor counts like any
    other."""
    return sum(3 * h - 3 + n for h, n in factors)


def encoding_dimension(enc) -> int:
    """`stratum_dimension` of the maximal graph an encoding describes, read
    off its factors."""
    return factors_dimension(encoding_factors(enc))


def _arrangements(classes: list[list[int]]):
    # Every vertex order of the union of `classes` up to reordering inside
    # a class: the multiset permutations of the class tokens.
    if len(classes) == 1:
        return [tuple(classes[0])]
    stacks = [cls[::-1] for cls in classes]
    size = sum(map(len, classes))
    order: list[int] = []

    def rec():
        if len(order) == size:
            yield tuple(order)
            return
        for stack in stacks:
            if stack:
                order.append(stack.pop())
                yield from rec()
                stack.append(order.pop())

    return list(rec())


def canonical_encoding(G: AutoGraph):
    """Minimum encoding over relabelings and simultaneous unit actions.

    Two graphs describe the same numerical type iff their encodings agree.
    The encoding is (d, vertex attributes in order, sorted edge tuples);
    vertex orders sort by attribute and try every arrangement of the twin
    classes inside an attribute class.  The attribute classes and their
    arrangements do not depend on the unit and are built once per graph;
    a unit changes only the attributes, hence the class order, and labels.
    """
    return _canonical(G.d, [(v.vid, v.colour, v.genus, v.free) for v in G.vertices],
                      [(e.u, e.v, e.mu, e.mv, e.swapped) for e in G.edges])


def _canonical(d: int, vertices, edges):
    # `canonical_encoding` of a graph given as rows: (vid, colour, genus,
    # free) per vertex and (u, v, mu, mv, swapped) per edge.  Twins, equal
    # in their fields and in their labelled links and loops, are not linked
    # to each other, and swapping them is an automorphism under every unit
    # alike; a unit only permutes residues, so it neither splits nor merges
    # an attribute class (colour, genus, free).
    ends: dict[int, list] = {vid: [] for vid, *_ in vertices}
    for u, v, mu, mv, swapped in edges:
        if u == v:
            ends[u].append((1, mu, mv, int(swapped)))
        else:
            ends[u].append((0, v, mu, mv))
            ends[v].append((0, u, mv, mu))
    classes: dict[tuple, dict[tuple, list[int]]] = {}
    for vid, colour, genus, free in vertices:
        twins = classes.setdefault((colour, genus, free), {})
        twins.setdefault(tuple(sorted(ends[vid])), []).append(vid)
    groups = {attr: _arrangements(list(twins.values())) for attr, twins in classes.items()}
    best = None
    for r in units_mod(d):
        act = unit_action(d, r)
        scaled = sorted((((0, genus, ()) if colour == I0 else (1, genus, act(free))), pool)
                        for (colour, genus, free), pool in groups.items())
        # Each arrangement lists every vertex of its class once.
        vparts = tuple(attr for attr, pool in scaled for _ in pool[0])
        if best is not None and vparts > best[1]:
            continue
        links = [(u, v, (r * mu) % d, (r * mv) % d) for u, v, mu, mv, _ in edges if u != v]
        loops = [(u, *sorted(((r * mu) % d, (r * mv) % d)), int(swapped))
                 for u, v, mu, mv, swapped in edges if u == v]
        for combo in itertools.product(*(pool for _, pool in scaled)):
            pos = {vid: ix for ix, vid in enumerate(itertools.chain(*combo))}
            eparts = [(1, pos[v], a, b, s) for v, a, b, s in loops]
            for u, v, mu, mv in links:
                pu, pv = pos[u], pos[v]
                eparts.append((0, pu, pv, mu, mv) if pu <= pv else (0, pv, pu, mv, mu))
            enc = (d, vparts, tuple(sorted(eparts)))
            if best is None or enc < best:
                best = enc
    return best


def canonical_form(G: AutoGraph) -> AutoGraph:
    """The graph relabelled and unit-translated into its canonical presentation."""
    return _decode(canonical_encoding(G))


def _decode(enc) -> AutoGraph:
    # The graph an encoding describes, vertex i at position i.
    d, vparts, eparts = enc
    vertices = [Vertex(ix, I1, genus, free) if coloured else Vertex(ix, I0, genus)
                for ix, (coloured, genus, free) in enumerate(vparts)]
    edges = [make_link(*e[1:]) if e[0] == 0 else make_loop(*e[1:4], bool(e[4]))
             for e in eparts]
    return make_graph(d, vertices, edges)


# ---------------------------------------------------------------------------
# Enumeration


def _vertex_multisets(g: int, d: int):
    """(colours, genera, E, opts) for every vertex multiset the search tries.

    Vertices enter as a sorted multiset of (colour, genus), identity
    components first; labelled permutations of equal vertices would only
    repeat isomorphs.  A stable curve of genus g has at most 2g - 2
    components, their genera sum to at most g, and the total genus fixes
    the edge count E = g - sum + V - 1, which is then at most 3g - 3.
    Every multiset holds an I1 vertex, and opts maps each I1 vertex to
    its realizable shapes (h, k) of `prime_shapes`, at least one.

    Only multisets with an edge structure are yielded.  Among two or more
    vertices each owes max(min_marks, 1) ends, and growth stops once they
    owe more than the 2E ends there are (a further vertex lowers 2E minus
    the debt by at least 1), once an I1 vertex owes more than its largest
    k, or at d = 2 once the first vertex is I1 (at d = 2 every edge has an
    I0 end).  Every I0 end lies on an edge of its own to an I1 vertex, so
    at most `links` edges have one: E with an I0 vertex, else none.  A
    multiset is yielded when its I0 vertices owe at most `links` ends, the
    largest k of its I1 vertices sum to at least 2E - links, and at d = 2
    links == E.
    """
    i1_opts = {gi: prime_shapes(gi, d) for gi in range(g + 1)}
    palette = [(I0, gi) for gi in range(g + 1)]
    palette += [(I1, gi) for gi in range(g + 1) if i1_opts[gi]]
    top_k = {gi: max((k for _, k in shapes), default=0) for gi, shapes in i1_opts.items()}

    def grow(combo, start, gsum, owed, i0_owed, room, short):
        E = g - gsum + len(combo) - 1
        if len(combo) > 1 and (owed > 2 * E or short or d == 2 and combo[0][0] == I1):
            return
        if combo and combo[-1][0] == I1:
            links = E if combo[0][0] == I0 else 0
            if i0_owed <= links and 2 * E - links <= room and (d > 2 or links == E):
                colours = tuple(c for c, _ in combo)
                genera = tuple(gi for _, gi in combo)
                opts = {i: i1_opts[gi] for i, (c, gi) in enumerate(combo) if c == I1}
                yield colours, genera, E, opts
        if len(combo) < 2 * g - 2:
            for p in range(start, len(palette)):
                c, gi = palette[p]
                if gsum + gi <= g:
                    owes = max(min_marks(gi), 1)
                    yield from grow(combo + [palette[p]], p, gsum + gi, owed + owes,
                                    i0_owed + (c == I0) * owes,
                                    room + (c == I1) * top_k[gi],
                                    short or c == I1 and top_k[gi] < owes)

    yield from grow([], 0, 0, 0, 0, 0, False)


def _structures(d, colours, genera, E, opts):
    """Connected edge multisets over the allowed vertex pairs.

    Yields (structure, ends): structure maps a slot, a vertex pair (i, j)
    with i <= j that is a loop exactly when i == j (as in `Edge`), to its
    edge count, and ends[v] counts the edge-ends at v.  Every vertex ends
    with min_ends <= ends <= max_ends: min_ends is the stability threshold,
    and at least one end when the graph has another vertex to connect to;
    max_ends the largest k of the genus relation at an I1 vertex, and at
    an I0 vertex what E and the I1 capacity leave once the other I0
    vertices have their minimum: every I0 end lies on an edge of its own
    whose other end is on an I1 vertex.

    The search carries the stability deficit (ends still owed to the
    vertices) and prunes once the remaining edges cannot pay it.  A
    vertex is closed after its last slot, so that slot takes at least
    the edges the vertex still lacks.

    One structure is kept per orbit of the permutations of equal vertices,
    or a few: call a run the vertices with equal (colour, genus), and a
    member's vector its loop count, then its link count to each vertex
    outside the run by id.  A structure is kept when the vectors do not
    increase along each run; the search compares each pair of adjacent
    members on the longest prefixes of both vectors whose slots are set.
    Swapping two adjacent members of a run whose vectors increase is an
    isomorphism that raises (the loop counts by vertex, then the vectors
    by vertex) lexicographically.  Either the loop counts rise, or the
    two vectors first differ at an outside vertex w: then the vector at
    the first member and w's vector rise, and only the vector at the
    second member and those after w can fall.  So such swaps end, and
    they end at a kept member of the orbit.
    """
    V = len(colours)
    i1 = [c == I1 for c in colours]
    max_ends = [max(k for _, k in opts[i]) if i1[i] else 0 for i in range(V)]
    min_ends = [max(min_marks(gi), 1 if V > 1 else 0) for gi in genera]
    i0 = [i for i in range(V) if not i1[i]]
    spare = min(E, sum(max_ends)) - sum(min_ends[i] for i in i0)
    for i in i0:
        max_ends[i] = spare + min_ends[i]

    slots = [(i, i) for i in range(V) if i1[i] and d >= 3]
    slots += [
        (i, j)
        for i in range(V)
        for j in range(i + 1, V)
        if (i1[i] or i1[j]) and not (i1[i] and i1[j] and d == 2)
    ]
    n = len(slots)
    last = {v: ix for ix, slot in enumerate(slots) for v in slot}
    # Each pair of adjacent run members, their vectors given as slot
    # indices (an absent slot is index n, whose count stays 0), compares
    # its longest prefixes whose slots are set at each slot that sets one.
    index = {slot: ix for ix, slot in enumerate(slots)}
    compared = [[] for _ in range(n)]
    for _, run in itertools.groupby(range(V), lambda i: (colours[i], genera[i])):
        run = list(run)
        vectors = [[index.get((a, a), n)]
                   + [index.get((min(a, w), max(a, w)), n) for w in range(V)
                      if w not in run]
                   for a in run]
        for a, b in zip(vectors, vectors[1:]):
            at = {max([ix for ix in a[:k] + b[:k] if ix < n], default=n): k
                  for k in range(1, len(a) + 1)}
            at.pop(n, None)
            for ix, k in at.items():
                compared[ix].append((a[:k], b[:k]))
    # plan[ix]: (touched vertices, ends per edge, vertices closing at ix,
    # member pairs compared at ix)
    plan = [
        ((i,) if i == j else (i, j), 2 if i == j else 1,
         tuple(v for v in {i, j} if last[v] == ix), compared[ix])
        for ix, (i, j) in enumerate(slots)
    ]
    ends = [0] * V
    counts = [0] * (n + 1)

    def rec(ix, rem, deficit):
        if deficit > 2 * rem:
            return
        if ix == n:
            if rem == 0 and connects(V, [slots[s] for s in range(n) if counts[s]]):
                yield {slots[i]: c for i, c in enumerate(counts) if c}, list(ends)
            return
        touched, w, closing, pairs = plan[ix]
        cap = min([rem] + [(max_ends[v] - ends[v]) // w for v in touched])
        low = max([0] + [-((ends[v] - min_ends[v]) // w) for v in closing])
        for c in range(low, cap + 1):
            counts[ix] = c
            if any([counts[s] for s in a] < [counts[s] for s in b] for a, b in pairs):
                continue
            owed = deficit
            for v in touched:
                owed -= min(c * w, max(0, min_ends[v] - ends[v]))
                ends[v] += c * w
            yield from rec(ix + 1, rem - c, owed)
            for v in touched:
                ends[v] -= c * w

    yield from rec(0, E, sum(min_ends))


def enumerate_graphs(g: int, d: int) -> list:
    """The sorted canonical encodings of the admissible stable maximal
    graphs of total genus g and order d, one per class.

    Search is bounded by the stable-curve limits of at most 2g - 2
    vertices and 3g - 3 edges, with per-vertex end counts capped by the
    genus relation.  Every labelled candidate is valid by construction
    (see `_labelled_graphs`) and is canonicalised from its rows without a
    re-check; TestLabelledGraphs.test_candidates_pass_check_graph holds
    this.  Isomorphs are cut before canonicalisation, never a class:
    multisets without an edge structure, all but one structure per orbit
    of equal vertices, and all but one label assignment per orbit of the
    units (see the three generators).  The set of encodings removes the
    isomorphs that remain.  Above 2g + 1 it returns [] at once: its only
    I1 shapes, genus 0 with k = 2 and 1 with k = 0, fit no stable graph.
    """
    if g < 2:
        raise ValueError("total genus must be at least 2")
    if d > 2 * g + 1:
        return []
    if not is_prime(d):
        raise ValueError("order must be a prime number")
    found: set[tuple] = set()
    tables: dict[tuple, list] = {}
    for colours, genera, E, opts in _vertex_multisets(g, d):
        for structure, ends in _structures(d, colours, genera, E, opts):
            for vs, es in _labelled_graphs(d, colours, genera, structure, opts, ends, tables):
                found.add(_canonical(d, vs, es))
    return sorted(found)


def scaled_pairs(pairs, r: int, d: int, loop: bool) -> tuple:
    """A multiset of label pairs times the unit r mod d, sorted, with each
    pair sorted too when the pairs are a vertex's loops."""
    images = (((r * a) % d, (r * b) % d) for a, b in pairs)
    return tuple(sorted(tuple(sorted(pair)) if loop else pair for pair in images))


def _labelled_graphs(d, colours, genera, structure, opts, ends, tables):
    """Every labelled graph on one edge structure, as rows: (vid, colour,
    genus, free) per vertex and (u, v, mu, mv, swapped) per edge in
    `_edge`'s normal form.  Each is valid by construction, as
    TestLabelledGraphs.test_candidates_pass_check_graph checks: the label
    pools put 0 exactly at I0 ends and no pair summing to 0 mod d,
    `_structures` gives a stable connected structure with no I0-I0 link
    and no loop at d = 2 or on I0, and each free tuple completes its
    vertex's residue sum to 0 mod d with a k of `prime_shapes`.

    One graph per unit orbit is yielded.  The units permute the graphs of
    a structure, and a graph passes when no unit maps its key (its label
    choice per slot, a sorted tuple of pairs, then its free tuples) below
    it.  The slots are set in structure order, carrying the units whose
    image choices tie so far: a larger image drops the unit, a smaller one
    cuts the prefix, as does an empty free menu at an I1 vertex it closes.

    `tables`, one per `enumerate_graphs` call, maps (colour, colour, loop,
    count) to a slot's label choices in key order, each with the residue
    it adds at both ends and its image index per unit, and (genus, ends)
    to the free menus by residue.
    """
    V = len(colours)
    i1_list = [i for i in range(V) if colours[i] == I1]
    units = units_mod(d)[1:]  # unit 1 fixes every candidate
    acts = [unit_action(d, r) for r in units]
    menus = {}
    for i in i1_list:
        if (genera[i], ends[i]) not in tables:
            menu = tables[genera[i], ends[i]] = [[] for _ in range(d)]
            for _, k in opts[i]:
                if k >= ends[i]:
                    for bucket, frees in zip(menu, free_menu(k - ends[i], d)):
                        bucket += frees
        menus[i] = tables[genera[i], ends[i]]

    last = {v: ix for ix, slot in enumerate(structure) for v in slot}
    plan = []  # per slot: its ends, its choice table, the I1 vertices it closes
    for ix, ((i, j), count) in enumerate(structure.items()):
        key = (colours[i], colours[j], i == j, count)
        if key not in tables:
            # An end carries 0 exactly at an I0 vertex, no pair sums to 0
            # mod d, and a loop's pair is sorted.
            at_i, at_j = (range(1, d) if c == I1 else (0,) for c in key[:2])
            pool = [(a, b) for a in at_i for b in at_j if (a + b) % d and (i < j or a <= b)]
            choices = list(itertools.combinations_with_replacement(pool, count))
            where = {chosen: p for p, chosen in enumerate(choices)}
            tables[key] = [(chosen, sum(a for a, _ in chosen), sum(b for _, b in chosen),
                            [where[scaled_pairs(chosen, r, d, i == j)] for r in units])
                           for chosen in choices]
        plan.append((i, j, tables[key],
                     [v for v in {i, j} if last[v] == ix and colours[v] == I1]))
    residues = [0] * V
    chosen = [()] * len(plan)

    def rec(s, ties):
        if s == len(plan):
            edges = [(i, j, a, b, False) for (i, j, _, _), pairs in zip(plan, chosen)
                     for a, b in pairs]
            tied = [acts[u] for u in ties]
            for frees in itertools.product(*(menus[i][-residues[i] % d] for i in i1_list)):
                if not any(tuple(map(act, frees)) < frees for act in tied):
                    free_of = dict(zip(i1_list, frees))
                    yield [(v, colours[v], genera[v], free_of.get(v)) for v in range(V)], edges
            return
        i, j, table, closing = plan[s]
        for p, (pairs, ri, rj, image) in enumerate(table):
            if any(image[u] < p for u in ties):
                continue
            residues[i] += ri
            residues[j] += rj
            if all(menus[v][-residues[v] % d] for v in closing):
                chosen[s] = pairs
                yield from rec(s + 1, [u for u in ties if image[u] == p])
            residues[i] -= ri
            residues[j] -= rj

    yield from rec(0, range(len(units)))


# ---------------------------------------------------------------------------
# Pattern detectors


class DivisorException(Enum):
    NONE = "none"
    ELLIPTIC_TAIL = "elliptic-tail"
    GENUS2_PAIR = "genus-2-pair"


def divisor_exception(G: AutoGraph) -> DivisorException:
    """The two order-2 one-node shapes whose stratum is a divisor.

    A library check: no command prints it.
    """
    if G.d != 2 or len(G.vertices) != 2 or len(G.edges) != 1:
        return DivisorException.NONE
    i1 = G.i1_vertices()
    tails = sum(is_elliptic_tail_vertex(G, v.vid) for v in i1)
    if tails == len(i1) == 1:
        return DivisorException.ELLIPTIC_TAIL
    if tails == len(i1) == 2:
        return DivisorException.GENUS2_PAIR
    return DivisorException.NONE


def is_elliptic_tail_vertex(G: AutoGraph, vid: int) -> bool:
    # One edge-end, so no loop: a loop has two.
    return G.vertex(vid).genus == 1 and len(G.ends(vid)) == 1


# ---------------------------------------------------------------------------
# Document format


def graph_doc(enc) -> dict:
    """The document of the graph an encoding describes, vertex i with id i."""
    d, vparts, eparts = enc
    vertices = [{"id": ix, "colour": I1, "genus": genus, "free_branching": list(free)}
                if coloured else {"id": ix, "colour": I0, "genus": genus}
                for ix, (coloured, genus, free) in enumerate(vparts)]
    edges = [{"type": "link", "ends": [e[1], e[2]], "labels": [e[3], e[4]]} if e[0] == 0
             else {"type": "loop", "vertex": e[1], "pair": [e[2], e[3]]}
             | ({"branch_swapped": True} if e[4] else {}) for e in eparts]
    return {"order": d, "vertices": vertices, "edges": edges}


# Largest order a graph document may declare.  Canonicalisation costs
# O(d^2) per I1 vertex.  A prime-order automorphism of a genus-g curve
# has order at most 2g + 1, so every order up to genus 499 passes.
MAX_DOC_ORDER = 1000


def doc_int(value, what: str) -> int:
    """An integer field of an input document.  Only a JSON integer passes:
    a bool, a float or a string is refused, never truncated or parsed."""
    if type(value) is not int:
        raise TypeError("%s must be an integer, not %s" % (what, type(value).__name__))
    return value


def graph_from_doc(doc: dict) -> AutoGraph:
    """Parse a graph document; an order above MAX_DOC_ORDER is refused
    before anything of size O(order) is built."""
    try:
        d = doc_int(doc["order"], "order")
        if d > MAX_DOC_ORDER:
            raise GraphError("order %d exceeds the graph document limit of %d"
                             % (d, MAX_DOC_ORDER))
        vertices = []
        for entry in doc["vertices"]:
            colour = entry["colour"]
            free = entry.get("free_branching")
            vertices.append(Vertex(
                doc_int(entry["id"], "a vertex id"), colour, doc_int(entry["genus"], "a genus"),
                None if free is None else tuple(doc_int(c, "a free-branching count")
                                                for c in free)))
        edges = []
        for entry in doc.get("edges", ()):
            if entry["type"] == "link":
                (u, v) = (doc_int(x, "a link end") for x in entry["ends"])
                (mu, mv) = (doc_int(x, "a link label") for x in entry["labels"])
                edges.append(make_link(u, v, mu, mv))
            elif entry["type"] == "loop":
                (a, b) = (doc_int(x, "a loop label") for x in entry["pair"])
                swapped = entry.get("branch_swapped", False)
                if type(swapped) is not bool:
                    raise TypeError("branch_swapped must be true or false, not %s"
                                    % type(swapped).__name__)
                edges.append(
                    make_loop(doc_int(entry["vertex"], "a loop vertex"), a, b, swapped)
                )
            else:
                raise GraphError("unknown edge type %s" % clipped(entry["type"]))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, GraphError):
            raise
        raise GraphError("malformed graph document: %s" % exc) from exc
    return make_graph(d, vertices, edges)
