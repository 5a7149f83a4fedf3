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
as rigid_I1_cover, and (2,0), (1,2) and (0,4) as manual_review.
"""

from __future__ import annotations

from dataclasses import dataclass

from .branching import ExtraAutomorphismRisk, maximal_cyclic_exception
from .combinat import primes_upto
from .sing_smooth import DecompositionReport, decompose_sing
from .stable_graphs import (
    I0,
    I1,
    AutoGraph,
    ExceptionalPattern,
    canonical_encoding,
    enumerate_graphs,
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


def boundary_survey(g: int, d_max: int):
    """(components, warnings, notes) of the boundary enumeration, whose
    graphs `enumerate_graphs` selects on their vertex multisets."""
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
    warnings: list[str] = []
    for p in primes_upto(d_max):
        for G in enumerate_graphs(g, p, boundary=True):
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
    # enumerate_graphs returns canonical graphs in encoding order and the
    # order leads the encoding, so the components arrive sorted.
    encodings = [canonical_encoding(c.graph) for c in components]
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
