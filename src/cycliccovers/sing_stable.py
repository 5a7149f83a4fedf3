"""Boundary components of the singular locus of compactified moduli.

The singular points of the compactified moduli space fall into the
closures of the interior components and the components lying entirely
in the boundary.  The latter correspond to maximal prime-order types
with exactly one nontrivially acted component, at least one identity
component (so every member is singular as a curve), acting trivially on
elliptic tails when the order is 2, and avoiding the two exceptional
shapes built from the curve w^p = x^2 - 1.  Shapes where the single
nontrivially acted cover is too special for a genericity argument are
flagged instead of being silently kept or dropped: quotient data (0,3)
as rigid_I1_cover, and (2,0), (1,2) and (0,4) as manual_review.  Each
such type is a star, generated directly with a closed-form encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement as multisets

from .branching import ExtraAutomorphismRisk, maximal_cyclic_exception
from .combinat import (min_marks, prime_shapes, primes_upto, residue_sum, unit_action,
                       units_mod, weak_compositions)
from .sing_smooth import DecompositionReport, decompose_sing
from .stable_graphs import (
    I1,
    AutoGraph,
    ExceptionalPattern,
    _decode,
    exceptional_pattern,
    is_elliptic_tail_vertex,
    stratum_dimension,
    vertex_data,
)

__all__ = [
    "BoundaryComponent",
    "AutBoundReport",
    "pseudoreflection_only",
    "boundary_components",
    "boundary_survey",
    "decompose_sing_bar",
    "aut_bounds",
]

RIGID_FLAG = "rigid_I1_cover"
REVIEW_FLAG = "manual_review"


@dataclass(frozen=True)
class BoundaryComponent:
    graph: AutoGraph
    d: int
    dim: int
    codim: int
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class AutBoundReport:
    """Cardinality bounds for automorphism groups of stable curves."""

    g: int
    generic_lower: int
    special_config: int
    hurwitz_smooth: int
    special_exceeds_hurwitz: bool
    tail_orders = (2, 4, 6)  # |Aut(E, p)| of an elliptic tail; unannotated, so no field


def pseudoreflection_only(G: AutoGraph) -> bool:
    """Whether the generic action of the type is generated by elliptic-tail
    involutions, hence yields smooth moduli points: order 2 with every
    nontrivially acted component an elliptic tail."""
    if G.d != 2:
        return False
    i1 = G.i1_vertices()
    if not i1:
        return False
    return all(is_elliptic_tail_vertex(G, v.vid) for v in i1)


def _flags_for(G: AutoGraph, jvid: int) -> tuple[str, ...]:
    data = vertex_data(G, jvid)
    shape = (data.quotient_genus, data.k)
    if shape == (0, 3):
        return (RIGID_FLAG,)
    if maximal_cyclic_exception(*shape) is not ExtraAutomorphismRisk.NONE:
        return (REVIEW_FLAG,)
    return ()


def _tails(budget: int, room: int, p: int):
    """(tails, label count, label sum) for every multiset of I0 tails
    (genus, sorted labels), sorted by genus, whose weights genus +
    len(labels) - 1 sum to budget and whose labels number at most room.
    Tail shapes (genus, label count) are chosen with their multiplicities
    before any labels are drawn for them."""
    kinds = [(t, n) for t in range(budget + 1)
             for n in range(max(min_marks(t), 1), min(room, budget + 1 - t) + 1)]

    def rec(start, budget, room):
        if budget == 0:
            yield (), 0, 0
        for ix in range(start, len(kinds)):
            t, n = kinds[ix]
            for m in range(1, min(budget // (t + n - 1), room // n) + 1):
                for rest, count, total in rec(ix + 1, budget - m * (t + n - 1), room - m * n):
                    for pick in multisets(multisets(range(1, p), n), m):
                        yield (tuple((t, labels) for labels in pick) + rest, count + m * n,
                               total + sum(map(sum, pick)))

    return rec(0, budget, room)


def _stars(g: int, p: int) -> list:
    """The sorted canonical encodings of the boundary components of genus
    g and order p.

    A maximal graph has no I0-I0 link and no I0 loop, so each is a star:
    an I1 centre of genus gj and shape (h, k), loop pairs a <= b with
    a + b != 0 mod p at it, and I0 tails linked to it alone.  Its k branch
    points are the loop and link ends and a free tuple that closes its
    residue sum.

    The encoding is `canonical_encoding`'s in closed form: under each unit
    the tails come first, by genus and then by their scaled sorted labels
    with p appended (a tail whose labels extend another's comes first),
    and the centre last.  The tail genera do not depend on the unit, so
    the least encoding has the least scaled free tuple, then tails, then
    loops.
    """
    units = units_mod(p)
    acts = [unit_action(p, r) for r in units]
    pairs = [(a, b) for a in range(1, p) for b in range(a, p) if (a + b) % p]
    shapes = [(gj, k) for gj in range(g) for _, k in prime_shapes(gj, p)]
    menus = [[[] for _ in range(p)] for _ in range(max(k for _, k in shapes) + 1)]
    for f, menu in enumerate(menus):  # free tuples' unit images, by size and residue sum
        for free in weak_compositions(f, p - 1):
            menu[residue_sum(free) % p].append([act(free) for act in acts])
    scale: dict[tuple, list] = {}  # labels -> per unit: scaled, sorted, with p appended
    found = set()
    for gj, k in shapes:
        for n_loops in range(min(k // 2, g - gj - 1) + 1):
            loop_sets = [(sum(map(sum, loops)), [sorted(tuple(sorted((r * a % p, r * b % p)))
                                                        for a, b in loops) for r in units])
                         for loops in multisets(pairs, n_loops)]
            for tails, count, owed in _tails(g - gj - n_loops, k - 2 * n_loops, p):
                ends = 2 * n_loops + count
                if ends < min_marks(gj) or (p, gj, ends) == (2, 1, 1):
                    continue  # an unstable centre, or an elliptic tail at p = 2
                orders = None
                for residue, loop_images in loop_sets:
                    for images in menus[k - ends][-(residue + owed) % p]:
                        if min(images) < images[0]:
                            continue  # the star's image under that unit has the same encoding
                        if orders is None:  # once per tails, when a free tuple fits
                            vparts = tuple((0, t, ()) for t, _ in tails)
                            for _, ls in tails:
                                if ls not in scale:
                                    scale[ls] = [tuple(sorted(r * m % p for m in ls)) + (p,)
                                                 for r in units]
                            orders = [sorted((t, scale[ls][i]) for t, ls in tails)
                                      for i in range(len(units))]
                        image, order, loops = min(zip(images, orders, loop_images))
                        found.add((p, vparts + ((1, gj, image),), tuple(
                            [(0, i, len(tails), 0, m) for i, (_, ls) in enumerate(order)
                             for m in ls[:-1]] + [(1, len(tails), *pair, 0) for pair in loops])))
    return sorted(found)


def boundary_survey(g: int, d_max: int):
    """(components, warnings, notes) of the boundary enumeration, whose
    graphs `_stars` generates directly, in canonical-encoding order."""
    if g < 2 or d_max < 2:
        raise ValueError("need g >= 2 and d_max >= 2")
    notes: list[str] = []
    cap = 2 * g + 1
    if d_max > cap:
        notes.append(
            "order cap: no prime above %d acts faithfully at genus %d; "
            "request truncated" % (cap, g)
        )
        d_max = cap
    components: list[BoundaryComponent] = []
    encodings = []
    warnings: list[str] = []
    for p in primes_upto(d_max):
        for enc in _stars(g, p):
            G = _decode(enc)
            patt = exceptional_pattern(G)
            if patt is not ExceptionalPattern.NONE:
                warnings.append(
                    "excluded exceptional shape %s at order %d: %s"
                    % (patt.value, p, _summary(G))
                )
                continue
            dim = stratum_dimension(G)
            components.append(BoundaryComponent(
                graph=G, d=p, dim=dim, codim=3 * g - 3 - dim,
                flags=_flags_for(G, G.i1_vertices()[0].vid)))
            encodings.append(enc)
    # The order leads the encoding, so the components arrive sorted.
    if encodings != sorted(set(encodings)):
        raise AssertionError("boundary components are not distinct and sorted")
    return components, warnings, notes


def boundary_components(g: int, d_max: int) -> tuple[BoundaryComponent, ...]:
    return tuple(boundary_survey(g, d_max)[0])


def decompose_sing_bar(g: int, d_max: int) -> DecompositionReport:
    """Interior component closures plus the boundary components.

    The interior part needs g >= 3; the boundary enumeration alone is
    available through boundary_components for genus 2.
    """
    interior = decompose_sing(g)
    comps, warnings, notes = boundary_survey(g, d_max)
    flagged = tuple(
        "%s boundary component flagged %s: %s"
        % ("order-%d" % c.d, ",".join(c.flags), _summary(c.graph))
        for c in comps
        if c.flags
    )
    return DecompositionReport(
        g=g,
        records=interior.records,
        boundary=tuple(comps),
        warnings=interior.warnings + tuple(warnings) + flagged,
        notes=interior.notes + tuple(notes),
    )


def aut_bounds(g: int) -> AutBoundReport:
    """Exact automorphism-cardinality figures at genus g.

    A rational spine with g general elliptic tails gives at least 2^g
    automorphisms; with equianharmonic tails at root-of-unity nodes the
    count is (2g) * 6^g, compared against the smooth-curve bound
    84(g - 1).
    """
    if g < 2:
        raise ValueError("genus must be at least 2")
    generic = 2 ** g
    special = 2 * g * 6 ** g
    hurwitz = 84 * (g - 1)
    return AutBoundReport(
        g=g,
        generic_lower=generic,
        special_config=special,
        hurwitz_smooth=hurwitz,
        special_exceeds_hurwitz=special > hurwitz,
    )


def _summary(G: AutoGraph) -> str:
    parts = []
    for v in G.vertices:
        if v.colour == I1:
            parts.append("I1(g=%d,free=%s)" % (v.genus, list(v.free or ())))
        else:
            parts.append("I0(g=%d)" % v.genus)
    return "d=%d %s edges=%d" % (G.d, "+".join(parts), len(G.edges))
