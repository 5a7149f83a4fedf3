"""Numerical types of stable curves with a prime-order automorphism.

A pair (C, gamma) with C stable and gamma of prime order d is recorded
as a labelled multigraph.  Vertices are irreducible components carrying
the geometric genus of the normalisation and a colour: I0 when gamma
restricts to the identity, I1 when it preserves the component but acts
nontrivially.  On I1 vertices a free-branching sequence counts the
fixed points that are not nodes, by local monodromy residue.  Edges are
the nodes: a Link joins two components and carries the residue of the
action on each branch (0 exactly at I0 ends), a Loop is a node internal
to one component and carries an unordered residue pair.

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
an elliptic curve with two fixed points glued is the smallest witness),
so the marked genus g_i + loops is reported but never used to validate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum

from .combinat import is_prime, units_mod, weak_compositions

__all__ = [
    "I0",
    "I1",
    "Vertex",
    "Link",
    "Loop",
    "AutoGraph",
    "GraphError",
    "VertexCoverData",
    "DivisorException",
    "ExceptionalPattern",
    "make_link",
    "make_loop",
    "make_graph",
    "check_graph",
    "vertex_data",
    "graph_genus",
    "is_stable",
    "smoothable_nodes",
    "smooth_node",
    "simplify",
    "enlarge_detached",
    "enlarge_attached",
    "enlarge_max",
    "stratum_dimension",
    "unit_transform",
    "canonical_encoding",
    "canonical_form",
    "enumerate_graphs",
    "divisor_exception",
    "exceptional_pattern",
    "graph_to_doc",
    "graph_from_doc",
    "MAX_DOC_ORDER",
]

I0 = "I0"
I1 = "I1"


class GraphError(ValueError):
    """A graph violates a structural or admissibility constraint."""


@dataclass(frozen=True, order=True)
class Vertex:
    vid: int
    colour: str
    genus: int
    free: tuple[int, ...] | None = None


@dataclass(frozen=True, order=True)
class Link:
    u: int
    v: int
    mu: int
    mv: int


@dataclass(frozen=True, order=True)
class Loop:
    v: int
    pair: tuple[int, int]
    swapped: bool = False


@dataclass(frozen=True)
class AutoGraph:
    d: int
    vertices: tuple[Vertex, ...]
    edges: tuple = ()

    def vertex(self, vid: int) -> Vertex:
        for v in self.vertices:
            if v.vid == vid:
                return v
        raise GraphError("no vertex with id %d" % vid)

    def colour(self, vid: int) -> str:
        return self.vertex(vid).colour

    def i1_vertices(self) -> tuple[Vertex, ...]:
        return tuple(v for v in self.vertices if v.colour == I1)

    def i0_vertices(self) -> tuple[Vertex, ...]:
        return tuple(v for v in self.vertices if v.colour == I0)


def _edge_key(e):
    if isinstance(e, Link):
        return (0, e.u, e.v, e.mu, e.mv)
    return (1, e.v, e.pair, int(e.swapped))


def make_link(u: int, v: int, mu: int, mv: int) -> Link:
    if u == v:
        raise GraphError("a link must join two distinct vertices")
    if u > v:
        u, v, mu, mv = v, u, mv, mu
    return Link(u, v, mu, mv)


def make_loop(v: int, n1: int, n2: int, swapped: bool = False) -> Loop:
    pair = (n1, n2) if n1 <= n2 else (n2, n1)
    return Loop(v, pair, swapped)


def make_graph(d: int, vertices, edges=()) -> AutoGraph:
    """Normalised graph constructor: sorts vertices and edges, fixes the
    free-branching convention (None on I0, zero-filled on I1)."""
    vs = []
    for v in vertices:
        if v.colour == I0:
            v = replace(v, free=None)
        elif v.free is None:
            v = replace(v, free=(0,) * (d - 1))
        vs.append(v)
    vs.sort(key=lambda v: v.vid)
    es = sorted(edges, key=_edge_key)
    return AutoGraph(d=d, vertices=tuple(vs), edges=tuple(es))


def _ends_at(G: AutoGraph, vid: int) -> int:
    n = 0
    for e in G.edges:
        if isinstance(e, Link):
            n += (e.u == vid) + (e.v == vid)
        elif e.v == vid:
            n += 2
    return n


def _neighbours(G: AutoGraph, vid: int) -> set[int]:
    out = set()
    for e in G.edges:
        if isinstance(e, Link):
            if e.u == vid:
                out.add(e.v)
            elif e.v == vid:
                out.add(e.u)
    return out


def is_connected(G: AutoGraph) -> bool:
    if not G.vertices:
        return False
    seen = {G.vertices[0].vid}
    frontier = [G.vertices[0].vid]
    while frontier:
        cur = frontier.pop()
        for nb in _neighbours(G, cur):
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return len(seen) == len(G.vertices)


@dataclass(frozen=True)
class VertexCoverData:
    """Branching bookkeeping of one vertex.

    counts includes the edge contributions; quotient_genus solves the
    normalisation genus relation; marked_genus adds the loop count to
    the geometric genus (reported only); ends counts edge-ends, which
    for I0 vertices is the number of marked points of the quotient
    factor and for I1 vertices is bounded by k.
    """

    vid: int
    colour: str
    genus: int
    loops: int
    counts: tuple[int, ...]
    k: int
    quotient_genus: int
    marked_genus: int
    ends: int


def vertex_data(G: AutoGraph, vid: int) -> VertexCoverData:
    v = G.vertex(vid)
    d = G.d
    ends = _ends_at(G, vid)
    loops = sum(1 for e in G.edges if isinstance(e, Loop) and e.v == vid)
    if v.colour == I0:
        return VertexCoverData(
            vid=vid, colour=I0, genus=v.genus, loops=loops,
            counts=(0,) * (d - 1), k=0, quotient_genus=v.genus,
            marked_genus=v.genus + loops, ends=ends,
        )
    counts = list(v.free or (0,) * (d - 1))
    for e in G.edges:
        if isinstance(e, Link):
            for end, label in ((e.u, e.mu), (e.v, e.mv)):
                if end == vid:
                    if label == 0:
                        raise GraphError(
                            "vertex %d: zero label on a branch of a nontrivially "
                            "acted component" % vid
                        )
                    counts[label - 1] += 1
        elif e.v == vid and not e.swapped:
            # A swapped loop's two preimages form one orbit and are not
            # fixed points, so it contributes nothing here.
            for label in e.pair:
                counts[label - 1] += 1
    k = sum(counts)
    if sum(i * c for i, c in enumerate(counts, start=1)) % d != 0:
        raise GraphError(
            "vertex %d: branch residues sum to %d mod %d, no vertex cover exists"
            % (vid, sum(i * c for i, c in enumerate(counts, start=1)) % d, d)
        )
    num = 2 * (v.genus - 1) + 2 * d - k * (d - 1)
    if num % (2 * d) != 0 or num < 0:
        raise GraphError(
            "vertex %d: genus relation has no non-negative integer quotient genus "
            "(genus %d, k %d, order %d)" % (vid, v.genus, k, d)
        )
    return VertexCoverData(
        vid=vid, colour=I1, genus=v.genus, loops=loops, counts=tuple(counts),
        k=k, quotient_genus=num // (2 * d), marked_genus=v.genus + loops, ends=ends,
    )


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
    vids = [v.vid for v in G.vertices]
    if len(set(vids)) != len(vids):
        raise GraphError("duplicate vertex ids")
    for v in G.vertices:
        if v.colour not in (I0, I1):
            raise GraphError("vertex %d: unknown colour %r" % (v.vid, v.colour))
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
    vidset = set(vids)
    for e in G.edges:
        if isinstance(e, Link):
            if e.u not in vidset or e.v not in vidset:
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
            if e.v not in vidset:
                raise GraphError("loop references a missing vertex")
            c = G.colour(e.v)
            if e.swapped:
                if not pre:
                    raise GraphError("maximal graphs admit no branch-swapping loop")
                if c == I0:
                    raise GraphError("an identity component cannot swap branches")
                if not all(0 <= n <= d - 1 for n in e.pair):
                    raise GraphError("loop labels out of range at vertex %d" % e.v)
            elif c == I0:
                if not pre:
                    raise GraphError("maximal graphs admit no loop on an identity "
                                     "component")
                if e.pair != (0, 0):
                    raise GraphError("a loop on an identity component carries (0,0)")
            else:
                if not all(1 <= n <= d - 1 for n in e.pair):
                    raise GraphError("loop labels out of range at vertex %d" % e.v)
                if (e.pair[0] + e.pair[1]) % d == 0 and not pre:
                    raise GraphError("maximal graphs admit no loop with labels "
                                     "summing to 0 mod %d" % d)
    if not is_connected(G):
        raise GraphError("graph is not connected")
    for v in G.vertices:
        vertex_data(G, v.vid)
    if require_stable and not is_stable(G):
        raise GraphError("graph fails stability")


def graph_genus(G: AutoGraph) -> int:
    """Total genus: vertex genera plus the first Betti number, loops included."""
    b1 = len(G.edges) - len(G.vertices) + 1
    return sum(v.genus for v in G.vertices) + b1


def is_stable(G: AutoGraph) -> bool:
    """Genus-0 components need 3 nodes, genus-1 components 1; total genus >= 2."""
    for v in G.vertices:
        ends = _ends_at(G, v.vid)
        if v.genus == 0 and ends < 3:
            return False
        if v.genus == 1 and ends < 1:
            return False
    return graph_genus(G) >= 2


def smoothable_nodes(G: AutoGraph) -> tuple:
    """Edges whose node admits an equivariant smoothing."""
    out = set()
    for e in G.edges:
        if isinstance(e, Link):
            if (e.mu + e.mv) % G.d == 0:
                out.add(e)
        elif e.swapped:
            if G.d == 2:
                out.add(e)
        elif (e.pair[0] + e.pair[1]) % G.d == 0:
            out.add(e)
    return tuple(sorted(out, key=_edge_key))


def smooth_node(G: AutoGraph, e) -> AutoGraph:
    """Smooth one node: a loop raises the vertex genus, a link merges
    its two vertices.  Total genus is preserved."""
    if e not in smoothable_nodes(G):
        raise GraphError("node is not smoothable: %r" % (e,))
    edges = list(G.edges)
    edges.remove(e)
    if isinstance(e, Loop):
        v = G.vertex(e.v)
        free = v.free
        if e.swapped:
            # Smoothing a swapped node creates two fixed points of the
            # involution on the new component (d = 2 forced here).
            flist = list(free or (0,) * (G.d - 1))
            flist[0] += 2
            free = tuple(flist)
        new_v = replace(v, genus=v.genus + 1, free=free)
        vertices = [new_v if w.vid == v.vid else w for w in G.vertices]
        return make_graph(G.d, vertices, edges)
    u, v = G.vertex(e.u), G.vertex(e.v)
    if u.colour != v.colour:
        raise AssertionError("smoothable links join same-coloured vertices")
    w_id = min(u.vid, v.vid)
    if u.colour == I1:
        free = tuple(a + b for a, b in zip(u.free, v.free))
    else:
        free = None
    merged = Vertex(vid=w_id, colour=u.colour, genus=u.genus + v.genus, free=free)
    old = {u.vid, v.vid}
    new_edges = []
    for f in edges:
        if isinstance(f, Link):
            if f.u in old and f.v in old:
                new_edges.append(make_loop(w_id, f.mu, f.mv))
            elif f.u in old:
                new_edges.append(make_link(w_id, f.v, f.mu, f.mv))
            elif f.v in old:
                new_edges.append(make_link(f.u, w_id, f.mu, f.mv))
            else:
                new_edges.append(f)
        elif f.v in old:
            new_edges.append(replace(f, v=w_id))
        else:
            new_edges.append(f)
    vertices = [w for w in G.vertices if w.vid not in old] + [merged]
    return make_graph(G.d, vertices, new_edges)


def simplify(G: AutoGraph) -> AutoGraph:
    """Rewrite to the maximal type by smoothing until nothing is smoothable.

    The result does not depend on the smoothing order; a fixed order is
    used so the function is deterministic.  Raises when a branch-swapping
    loop survives at odd order, since no such pair exists.
    """
    out = G
    for _, out in _smoothing_steps(G):
        pass
    return out


def _smoothing_steps(G: AutoGraph, require_stable: bool = False):
    """The steps of `simplify`: yields (smoothed edge, resulting graph),
    after validating the input as a pre graph and before validating the
    final graph as maximal."""
    check_graph(G, pre=True, require_stable=require_stable)
    while True:
        sm = smoothable_nodes(G)
        if not sm:
            break
        G = smooth_node(G, sm[0])
        yield sm[0], G
    check_graph(G, pre=False)


def _trivialise(G: AutoGraph, vids: set[int]) -> AutoGraph:
    # Replace the action on the given I1 components by the identity.
    vertices = []
    for v in G.vertices:
        if v.vid in vids:
            vertices.append(Vertex(vid=v.vid, colour=I0, genus=v.genus, free=None))
        else:
            vertices.append(v)
    edges = []
    for e in G.edges:
        if isinstance(e, Link):
            mu = 0 if e.u in vids else e.mu
            mv = 0 if e.v in vids else e.mv
            edges.append(make_link(e.u, e.v, mu, mv))
        elif e.v in vids:
            edges.append(make_loop(e.v, 0, 0))
        else:
            edges.append(e)
    return make_graph(G.d, vertices, edges)


def _check_enlargement(G: AutoGraph, out: AutoGraph) -> AutoGraph:
    if graph_genus(out) != graph_genus(G):
        raise AssertionError("enlargement changed the total genus")
    if stratum_dimension(out) < stratum_dimension(G):
        raise AssertionError("enlargement decreased the stratum dimension")
    return out


def enlarge_detached(G: AutoGraph, j: int) -> AutoGraph:
    """Trivialise the action on an I1 component meeting no I0 component."""
    check_graph(G, pre=False)
    if G.colour(j) != I1:
        raise GraphError("vertex %d is not an I1 component" % j)
    if any(G.colour(nb) == I0 for nb in _neighbours(G, j)):
        raise GraphError("vertex %d meets an identity component" % j)
    return _check_enlargement(G, simplify(_trivialise(G, {j})))


def enlarge_attached(G: AutoGraph, j: int) -> AutoGraph:
    """Trivialise the action on an I1 component meeting some I0 component,
    merging it with the adjacent identity components."""
    check_graph(G, pre=False)
    if G.colour(j) != I1:
        raise GraphError("vertex %d is not an I1 component" % j)
    if not any(G.colour(nb) == I0 for nb in _neighbours(G, j)):
        raise GraphError("vertex %d meets no identity component" % j)
    if len(G.i1_vertices()) < 2:
        raise GraphError("need another nontrivially acted component")
    return _check_enlargement(G, simplify(_trivialise(G, {j})))


def enlarge_max(G: AutoGraph, j: int) -> AutoGraph:
    """Trivialise the action everywhere except on vertex j."""
    check_graph(G, pre=False)
    if G.colour(j) != I1:
        raise GraphError("vertex %d is not an I1 component" % j)
    others = {v.vid for v in G.i1_vertices() if v.vid != j}
    if not others:
        raise GraphError("need another nontrivially acted component")
    return _check_enlargement(G, simplify(_trivialise(G, others)))


def _stable_range(genus: int, marks: int) -> bool:
    if 3 * genus - 3 + marks < 0:
        return False
    if genus == 0 and marks < 3:
        return False
    if genus == 1 and marks < 1:
        return False
    return True


def stratum_dimension(G: AutoGraph) -> int:
    """Moduli dimension of the stratum: sum of 3g - 3 + n over the factors.

    Identity components contribute their genus marked at the edge-ends;
    the others contribute the quotient genus marked at all k branch
    points.
    """
    total = 0
    for v in G.vertices:
        data = vertex_data(G, v.vid)
        if v.colour == I0:
            pair = (v.genus, data.ends)
        else:
            pair = (data.quotient_genus, data.k)
        if not _stable_range(*pair):
            raise GraphError(
                "unstable summand at vertex %d: genus %d with %d marks"
                % (v.vid, pair[0], pair[1])
            )
        total += 3 * pair[0] - 3 + pair[1]
    return total


def unit_transform(G: AutoGraph, r: int) -> AutoGraph:
    """Multiply every label and free-branching index by a unit r mod d."""
    d = G.d
    r = r % d
    if r not in units_mod(d):
        raise ValueError("%d is not a unit mod %d" % (r, d))

    def act_counts(counts):
        out = [0] * (d - 1)
        for i, c in enumerate(counts, start=1):
            out[(r * i) % d - 1] = c
        return tuple(out)

    vertices = [
        v if v.colour == I0 else replace(v, free=act_counts(v.free))
        for v in G.vertices
    ]
    edges = []
    for e in G.edges:
        if isinstance(e, Link):
            edges.append(make_link(e.u, e.v, (r * e.mu) % d, (r * e.mv) % d))
        else:
            edges.append(make_loop(e.v, (r * e.pair[0]) % d, (r * e.pair[1]) % d,
                                   e.swapped))
    return make_graph(d, vertices, edges)


def _vertex_attr(v: Vertex):
    return (0 if v.colour == I0 else 1, v.genus, v.free or ())


def _orderings(G: AutoGraph):
    # All vertex orders compatible with sorting by attribute; ties are
    # broken by trying every arrangement inside an attribute class.
    groups: dict[tuple, list[int]] = {}
    for v in G.vertices:
        groups.setdefault(_vertex_attr(v), []).append(v.vid)
    keys = sorted(groups)
    pools = [itertools.permutations(groups[k]) for k in keys]
    for combo in itertools.product(*pools):
        order: list[int] = []
        for part in combo:
            order.extend(part)
        yield order


def _encode(G: AutoGraph, order: list[int]):
    pos = {vid: ix for ix, vid in enumerate(order)}
    vparts = tuple(_vertex_attr(G.vertex(vid)) for vid in order)
    eparts = []
    for e in G.edges:
        if isinstance(e, Link):
            pu, pv = pos[e.u], pos[e.v]
            if pu <= pv:
                eparts.append((0, pu, pv, e.mu, e.mv))
            else:
                eparts.append((0, pv, pu, e.mv, e.mu))
        else:
            eparts.append((1, pos[e.v], e.pair[0], e.pair[1], int(e.swapped)))
    return (G.d, vparts, tuple(sorted(eparts)))


def _best_presentation(G: AutoGraph):
    best = None
    best_graph_order = None
    for r in units_mod(G.d):
        H = unit_transform(G, r)
        for order in _orderings(H):
            enc = _encode(H, order)
            if best is None or enc < best:
                best = enc
                best_graph_order = (H, order)
    return best, best_graph_order


def canonical_encoding(G: AutoGraph):
    """Minimum encoding over relabelings and simultaneous unit actions.

    Two graphs describe the same numerical type iff their encodings agree.
    """
    return _best_presentation(G)[0]


def canonical_form(G: AutoGraph) -> AutoGraph:
    """The graph relabelled and unit-translated into its canonical presentation."""
    _, (H, order) = _best_presentation(G)
    pos = {vid: ix for ix, vid in enumerate(order)}
    vertices = [replace(H.vertex(vid), vid=pos[vid]) for vid in order]
    edges = []
    for e in H.edges:
        if isinstance(e, Link):
            edges.append(make_link(pos[e.u], pos[e.v], e.mu, e.mv))
        else:
            edges.append(make_loop(pos[e.v], e.pair[0], e.pair[1], e.swapped))
    return make_graph(H.d, vertices, edges)


# ---------------------------------------------------------------------------
# Enumeration


def _i1_options(d: int, genus: int) -> tuple[tuple[int, int], ...]:
    # Feasible (quotient genus, k) pairs at a nontrivially acted vertex.
    out = []
    gq = 0
    while True:
        num = 2 * (genus - 1) - 2 * d * (gq - 1)
        if num < 0:
            break
        if num % (d - 1) == 0:
            out.append((gq, num // (d - 1)))
        gq += 1
    return tuple(out)


def _loop_pairs(d: int):
    return [
        (a, b)
        for a in range(1, d)
        for b in range(a, d)
        if (a + b) % d != 0
    ]


def _link_pairs(d: int):
    return [
        (a, b)
        for a in range(1, d)
        for b in range(1, d)
        if (a + b) % d != 0
    ]


def _vertex_multisets(g: int, d: int):
    """(colours, genera, E, opts) for every vertex multiset the search tries.

    Vertices enter as a sorted multiset of (colour, genus), identity
    components first; labelled permutations of equal vertices would only
    repeat isomorphs.  A stable curve of genus g has at most 2g - 2
    components, their genera sum to at most g, and the total genus fixes
    the edge count E = g - sum + V - 1, which is then at most 3g - 3.
    Every multiset holds an I1 vertex, and opts maps each I1 vertex to
    its (quotient genus, k) pairs, of which there is at least one.
    """
    i1_opts = {gi: _i1_options(d, gi) for gi in range(g + 1)}
    palette = [(I0, gi) for gi in range(g + 1)]
    palette += [(I1, gi) for gi in range(g + 1) if i1_opts[gi]]

    def grow(combo, start, gsum):
        if combo and combo[-1][0] == I1:
            colours = tuple(c for c, _ in combo)
            genera = tuple(gi for _, gi in combo)
            opts = {i: i1_opts[gi] for i, (c, gi) in enumerate(combo) if c == I1}
            yield colours, genera, g - gsum + len(combo) - 1, opts
        if len(combo) < 2 * g - 2:
            for p in range(start, len(palette)):
                if gsum + palette[p][1] <= g:
                    yield from grow(combo + [palette[p]], p, gsum + palette[p][1])

    yield from grow([], 0, 0)


def _structures(d, colours, genera, E, opts):
    """Connected edge multisets over the allowed vertex pairs.

    Yields (structure, ends): structure maps a slot, ("loop", i) or
    ("link", i, j), to its edge count, and ends[v] counts the edge-ends
    at v.  Every vertex ends with min_ends <= ends <= max_ends: min_ends
    is the stability threshold, max_ends the largest k of the genus
    relation at an I1 vertex, and at an I0 vertex what E and the I1
    capacity leave once the other I0 vertices have their minimum: every
    I0 end lies on an edge of its own whose other end is on an I1 vertex.

    The search carries the stability deficit (ends still owed to the
    vertices) and prunes once the remaining edges cannot pay it.  A
    vertex is closed after its last slot, so that slot takes at least
    the edges the vertex still lacks.
    """
    V = len(colours)
    i1 = [c == I1 for c in colours]
    max_ends = [max(k for _, k in opts[i]) if i1[i] else 0 for i in range(V)]
    min_ends = [3 if gi == 0 else 1 if gi == 1 or V > 1 else 0 for gi in genera]
    i0 = [i for i in range(V) if not i1[i]]
    spare = min(E, sum(max_ends)) - sum(min_ends[i] for i in i0)
    for i in i0:
        max_ends[i] = spare + min_ends[i]

    slots = [("loop", i) for i in range(V) if i1[i] and d >= 3]
    slots += [
        ("link", i, j)
        for i in range(V)
        for j in range(i + 1, V)
        if (i1[i] or i1[j]) and not (i1[i] and i1[j] and d == 2)
    ]
    n = len(slots)
    last = {v: ix for ix, slot in enumerate(slots) for v in slot[1:]}
    if any(min_ends[v] > (max_ends[v] if v in last else 0) for v in range(V)):
        return
    # plan[ix]: (touched vertices, ends per edge, vertices closing at ix)
    plan = [
        (slot[1:], 2 if slot[0] == "loop" else 1,
         tuple(v for v in slot[1:] if last[v] == ix))
        for ix, slot in enumerate(slots)
    ]
    ends = [0] * V
    counts = [0] * n

    def connected():
        comp = list(range(V))
        for ix in range(n):
            if counts[ix] and plan[ix][1] == 1:
                ci, cj = (comp[v] for v in plan[ix][0])
                comp = [ci if c == cj else c for c in comp]
        return len(set(comp)) == 1

    def rec(ix, rem, deficit):
        if deficit > 2 * rem:
            return
        if ix == n:
            if rem == 0 and connected():
                yield {slots[i]: c for i, c in enumerate(counts) if c}, list(ends)
            return
        touched, w, closing = plan[ix]
        cap = min([rem] + [(max_ends[v] - ends[v]) // w for v in touched])
        low = max([0] + [-((ends[v] - min_ends[v]) // w) for v in closing])
        for c in range(low, cap + 1):
            owed = deficit
            for v in touched:
                owed -= min(c * w, max(0, min_ends[v] - ends[v]))
                ends[v] += c * w
            counts[ix] = c
            yield from rec(ix + 1, rem - c, owed)
            for v in touched:
                ends[v] -= c * w

    yield from rec(0, E, sum(min_ends))


def _free_choices(d, edge_counts, options, ends):
    # All (free tuple) completions compatible with some (g', k) option.
    out = []
    base = sum(i * c for i, c in enumerate(edge_counts, start=1))
    for _, k in options:
        rest = k - ends
        if rest < 0:
            continue
        for free in weak_compositions(rest, d - 1):
            tot = base + sum(i * c for i, c in enumerate(free, start=1))
            if tot % d == 0:
                out.append(free)
    return out


def enumerate_graphs(g: int, d: int, predicate=None) -> tuple[AutoGraph, ...]:
    """All admissible stable maximal graphs of total genus g and order d,
    one per canonical class, in canonical-encoding order.

    Search is bounded by the stable-curve limits of at most 2g - 2
    vertices and 3g - 3 edges, with per-vertex end counts capped by the
    genus relation.
    """
    if g < 2:
        raise ValueError("total genus must be at least 2")
    if not is_prime(d):
        raise ValueError("order must be a prime number")
    found: dict[tuple, AutoGraph] = {}
    for colours, genera, E, opts in _vertex_multisets(g, d):
        for structure, ends in _structures(d, colours, genera, E, opts):
            for graph in _labelled_graphs(d, colours, genera, structure, opts, ends):
                if predicate is not None and not predicate(graph):
                    continue
                enc = canonical_encoding(graph)
                if enc not in found:
                    found[enc] = canonical_form(graph)
    return tuple(found[k] for k in sorted(found))


def _labelled_graphs(d, colours, genera, structure, opts, ends):
    V = len(colours)
    loop_slots = [s for s in structure if s[0] == "loop"]
    link_slots = [s for s in structure if s[0] == "link"]
    loop_pool = _loop_pairs(d)
    link_pool = _link_pairs(d)

    per_slot_choices = []
    for s in loop_slots:
        per_slot_choices.append(
            list(itertools.combinations_with_replacement(loop_pool, structure[s]))
        )
    for s in link_slots:
        _, i, j = s
        ci, cj = colours[i], colours[j]
        if ci == I1 and cj == I1:
            pool = link_pool
        elif ci == I1:
            pool = [(m, 0) for m in range(1, d)]
        else:
            pool = [(0, m) for m in range(1, d)]
        per_slot_choices.append(
            list(itertools.combinations_with_replacement(pool, structure[s]))
        )

    all_slots = loop_slots + link_slots
    for assignment in itertools.product(*per_slot_choices):
        edge_counts = [[0] * (d - 1) for _ in range(V)]
        edges = []
        for s, chosen in zip(all_slots, assignment):
            if s[0] == "loop":
                i = s[1]
                for (a, b) in chosen:
                    edges.append(make_loop(i, a, b))
                    edge_counts[i][a - 1] += 1
                    edge_counts[i][b - 1] += 1
            else:
                _, i, j = s
                for (a, b) in chosen:
                    edges.append(make_link(i, j, a, b))
                    if a:
                        edge_counts[i][a - 1] += 1
                    if b:
                        edge_counts[j][b - 1] += 1
        free_menus = []
        feasible = True
        i1_list = [i for i in range(V) if colours[i] == I1]
        for i in i1_list:
            menu = _free_choices(d, edge_counts[i], opts[i], ends[i])
            if not menu:
                feasible = False
                break
            free_menus.append(menu)
        if not feasible:
            continue
        for frees in itertools.product(*free_menus):
            free_of = dict(zip(i1_list, frees))
            vertices = [
                Vertex(vid=i, colour=colours[i], genus=genera[i],
                       free=free_of.get(i))
                for i in range(V)
            ]
            graph = make_graph(d, vertices, edges)
            try:
                check_graph(graph, pre=False, require_stable=True)
            except GraphError:
                continue
            yield graph


# ---------------------------------------------------------------------------
# Pattern detectors


class DivisorException(Enum):
    NONE = "none"
    ELLIPTIC_TAIL = "elliptic-tail"
    GENUS2_PAIR = "genus-2-pair"


def divisor_exception(G: AutoGraph) -> DivisorException:
    """The two order-2 one-node shapes whose stratum is a divisor."""
    if G.d != 2 or len(G.vertices) != 2 or len(G.edges) != 1:
        return DivisorException.NONE
    e = G.edges[0]
    if not isinstance(e, Link):
        return DivisorException.NONE
    u, v = G.vertex(e.u), G.vertex(e.v)
    cols = sorted((u.colour, v.colour))
    if cols == [I0, I1]:
        tail = u if u.colour == I1 else v
        if tail.genus == 1:
            return DivisorException.ELLIPTIC_TAIL
    if cols == [I1, I1] and u.genus == 1 and v.genus == 1:
        return DivisorException.GENUS2_PAIR
    return DivisorException.NONE


class ExceptionalPattern(Enum):
    NONE = "none"
    IIA = "II-a"
    IIB = "II-b"


def is_elliptic_tail_vertex(G: AutoGraph, vid: int) -> bool:
    v = G.vertex(vid)
    loops = any(isinstance(e, Loop) and e.v == vid for e in G.edges)
    return v.genus == 1 and not loops and _ends_at(G, vid) == 1


def exceptional_pattern(G: AutoGraph) -> ExceptionalPattern:
    """Boundary configurations built from the order-2p curve w^p = x^2 - 1.

    Both have one nontrivially acted component with rational quotient,
    three branch points all at nodes, and label multiset a unit multiple
    of {p-2, 1, 1}.  The first keeps the swapped pair glued as a loop
    and hangs one positive-genus tail; the second hangs three tails,
    the two at the repeated labels carrying isomorphic pointed curves,
    detected here as equal genus.
    """
    p = G.d
    if p == 2:
        return ExceptionalPattern.NONE
    i1 = G.i1_vertices()
    if len(i1) != 1:
        return ExceptionalPattern.NONE
    j = i1[0]
    data = vertex_data(G, j.vid)
    if any(j.free or ()):
        return ExceptionalPattern.NONE
    if data.quotient_genus != 0 or data.k != 3:
        return ExceptionalPattern.NONE
    loops = [e for e in G.edges if isinstance(e, Loop) and e.v == j.vid]
    links = [e for e in G.edges if isinstance(e, Link)]
    if any(e.swapped for e in loops):
        return ExceptionalPattern.NONE
    if len(loops) == 1 and len(links) == 1:
        loop, link = loops[0], links[0]
        other = G.vertex(link.v if link.u == j.vid else link.u)
        if other.colour != I0 or other.genus < 1:
            return ExceptionalPattern.NONE
        a, b = loop.pair
        if a != b:
            return ExceptionalPattern.NONE
        # The residue sum at j already forces the third label to -2a.
        return ExceptionalPattern.IIA
    if not loops and len(links) == 3:
        tails = []
        for e in links:
            other = G.vertex(e.v if e.u == j.vid else e.u)
            label = e.mu if e.u == j.vid else e.mv
            if other.colour != I0 or other.genus < 1:
                return ExceptionalPattern.NONE
            tails.append((label, other.genus, other.vid))
        if len({vid for _, _, vid in tails}) != 3:
            # The swapped pair hangs on two separate components; a shared
            # tail is a different shape and stays in the enumeration.
            return ExceptionalPattern.NONE
        tails = [(l, g) for l, g, _ in tails]
        labels = sorted(l for l, _ in tails)
        if p == 3:
            genera = sorted(g for _, g in tails)
            if genera[0] == genera[1] or genera[1] == genera[2]:
                return ExceptionalPattern.IIB
            return ExceptionalPattern.NONE
        if labels[0] == labels[1] == labels[2]:
            return ExceptionalPattern.NONE
        if labels[0] == labels[1] or labels[1] == labels[2]:
            rep = labels[1]
            rep_genera = [g for l, g in tails if l == rep]
            if rep_genera[0] == rep_genera[1]:
                return ExceptionalPattern.IIB
        return ExceptionalPattern.NONE
    return ExceptionalPattern.NONE


# ---------------------------------------------------------------------------
# Document format


def graph_to_doc(G: AutoGraph) -> dict:
    vertices = []
    for v in G.vertices:
        entry: dict = {"id": v.vid, "colour": v.colour, "genus": v.genus}
        if v.colour == I1:
            entry["free_branching"] = list(v.free or ())
        vertices.append(entry)
    edges = []
    for e in G.edges:
        if isinstance(e, Link):
            edges.append({"type": "link", "ends": [e.u, e.v],
                          "labels": [e.mu, e.mv]})
        else:
            entry = {"type": "loop", "vertex": e.v, "pair": list(e.pair)}
            if e.swapped:
                entry["branch_swapped"] = True
            edges.append(entry)
    return {"order": G.d, "vertices": vertices, "edges": edges}


# Largest order a graph document may declare.  Canonicalisation costs
# O(d^2) per I1 vertex.  A prime-order automorphism of a genus-g curve
# has order at most 2g + 1, so every order up to genus 499 passes.
MAX_DOC_ORDER = 1000


def graph_from_doc(doc: dict) -> AutoGraph:
    """Parse a graph document; an order above MAX_DOC_ORDER is refused
    before anything of size O(order) is built."""
    try:
        d = int(doc["order"])
        if d > MAX_DOC_ORDER:
            raise GraphError("order %d exceeds the graph document limit of %d"
                             % (d, MAX_DOC_ORDER))
        vertices = []
        for entry in doc["vertices"]:
            colour = entry["colour"]
            free = entry.get("free_branching")
            vertices.append(
                Vertex(
                    vid=int(entry["id"]),
                    colour=colour,
                    genus=int(entry["genus"]),
                    free=tuple(int(c) for c in free) if free is not None else None,
                )
            )
        edges = []
        for entry in doc.get("edges", ()):
            if entry["type"] == "link":
                (u, v) = entry["ends"]
                (mu, mv) = entry["labels"]
                edges.append(make_link(int(u), int(v), int(mu), int(mv)))
            elif entry["type"] == "loop":
                (a, b) = entry["pair"]
                edges.append(
                    make_loop(int(entry["vertex"]), int(a), int(b),
                              bool(entry.get("branch_swapped", False)))
                )
            else:
                raise GraphError("unknown edge type %r" % entry["type"])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, GraphError):
            raise
        raise GraphError("malformed graph document: %s" % exc) from exc
    return make_graph(d, vertices, edges)
