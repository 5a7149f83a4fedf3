"""Irredundant decomposition of the singular locus over smooth curves.

For g >= 3 the singular points of the moduli space are the curves with
an automorphism that is not generated by pseudoreflections; the only
pseudoreflection is the hyperelliptic involution in genus 3.  The locus
of curves with an order-p symmetry of a fixed numerical type is closed
and irreducible, so the singular locus decomposes into the maximal ones.
Redundancy happens exactly when the quotient data is special enough
that a general member carries extra symmetry; the classifier below
matches those special shapes, produces the bigger locus it lands in
(exactly where derivable, by a certified dimension bound otherwise) and
verifies strict dimension growth at runtime instead of trusting the
case analysis.
"""

from __future__ import annotations

from enum import Enum
from operator import itemgetter
from typing import NamedTuple

from .branching import (SPECIAL_SHAPES, BranchingSequence, SmoothLocus, _admissible_rows,
                         locus_rows, smooth_locus)
from .combinat import genus_relation, is_prime, primes_upto, unit_action

__all__ = [
    "Verdict",
    "CaseTag",
    "NormalizerShape",
    "ContainerInfo",
    "ClassificationRecord",
    "DecompositionReport",
    "case_pattern",
    "container_info",
    "classify",
    "stream_sing",
    "collect",
    "decompose_sing",
]


class Verdict(Enum):
    COMPONENT = "component"
    REDUNDANT = "redundant"
    EXCLUDED_PSEUDOREFLECTION = "excluded-pseudoreflection"


class CaseTag(Enum):
    GENUS2_QUOTIENT = "genus2-quotient-unramified"
    ELLIPTIC_QUOTIENT = "elliptic-quotient-two-points"
    RATIONAL_FOUR_POINTS = "rational-quotient-four-points"
    RATIONAL_INVOLUTION = "rational-three-points-involution"
    RATIONAL_ORDER_THREE = "rational-three-points-order-three"


class NormalizerShape(Enum):
    DIHEDRAL = "dihedral"
    DIHEDRAL_X2 = "dihedral-times-2"
    KLEIN_FOUR = "klein-four"
    CYCLIC_2P = "cyclic-2p"
    CYCLIC_3_EXTENSION = "cyclic-3-extension"


class ContainerInfo(NamedTuple):
    """A locus certified to contain the classified one.

    When the full branching datum of the container is derivable the
    record is exact: it holds the container's locus, whose dimension is
    dim_lower_bound.  Otherwise only the order q and a dimension lower
    bound are certified.
    """

    q: int
    g: int
    dim_lower_bound: int
    locus: SmoothLocus | None = None

    @property
    def exact(self) -> bool:
        return self.locus is not None

    def label(self) -> str:
        if self.locus is not None:
            return self.locus.label()
        return "M_{%d;%d,[?]}" % (self.g, self.q)


class ClassificationRecord(NamedTuple):
    locus: SmoothLocus
    verdict: Verdict
    case_tag: CaseTag | None = None
    normalizer: NormalizerShape | None = None
    container: ContainerInfo | None = None
    notes: tuple[str, ...] = ()


class DecompositionReport(NamedTuple):
    """Irredundant decomposition, with witnesses and review flags.

    records covers the interior classification; boundary holds boundary
    components when assembled for the compactified space.

    A streamed report (`stream_sing`) holds in records an iterable of
    records, read once, and in warnings a list that fills as they are read;
    `collect` holds both in tuples.
    """

    g: int
    records: tuple[ClassificationRecord, ...]
    boundary: tuple = ()
    warnings: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def components(self) -> tuple[ClassificationRecord, ...]:
        return tuple(r for r in self.records if r.verdict is Verdict.COMPONENT)

    def redundant(self) -> tuple[ClassificationRecord, ...]:
        return tuple(r for r in self.records if r.verdict is Verdict.REDUNDANT)

    def excluded(self) -> tuple[ClassificationRecord, ...]:
        return tuple(
            r for r in self.records if r.verdict is Verdict.EXCLUDED_PSEUDOREFLECTION
        )


def case_pattern(locus: SmoothLocus) -> tuple[CaseTag | None, NormalizerShape | None]:
    """Match the quotient shape of a prime-order locus against the
    configurations whose general member carries extra symmetry."""
    p = locus.d
    if not is_prime(p):
        raise ValueError("prime order required")
    if locus.g < 3:
        raise ValueError("classification requires genus at least 3")
    if (locus.h, locus.k) not in SPECIAL_SHAPES:
        return None, None
    if locus.h:  # unramified over genus 2, or two points over genus 1
        tag = CaseTag.GENUS2_QUOTIENT if locus.h == 2 else CaseTag.ELLIPTIC_QUOTIENT
        return tag, NormalizerShape.KLEIN_FOUR if p == 2 else NormalizerShape.DIHEDRAL
    support = [i for i, c in enumerate(locus.counts, start=1) if c]
    if locus.k == 4 and unit_action(p, p - 1)(locus.counts) == locus.counts:
        # Negation-symmetric quadruple: {a, a, -a, -a}, which is the unit
        # multiple a of {1, 1, -1, -1}, or {a, -a, b, -b} with b != +-a.
        return CaseTag.RATIONAL_FOUR_POINTS, (
            NormalizerShape.DIHEDRAL_X2 if len(support) <= 2 else NormalizerShape.DIHEDRAL)
    if locus.k == 3:
        if len(support) < 3:  # a repeated residue
            return CaseTag.RATIONAL_INVOLUTION, NormalizerShape.CYCLIC_2P
        # Three distinct residues: a coset of the three cube roots of 1?
        if p % 3 == 1 and set(support) == {support[0] * r % p for r in range(1, p)
                                           if r * r * r % p == 1}:
            return CaseTag.RATIONAL_ORDER_THREE, NormalizerShape.CYCLIC_3_EXTENSION
    return None, None


def container_info(locus: SmoothLocus, tag: CaseTag) -> ContainerInfo:
    """The bigger locus a matched shape lands in.

    Exact containers: unramified genus-2 quotient lands in the order-2
    locus with 6 branch points at the same total genus (for p = 2, in
    the 4-dimensional double covers of elliptic curves); the elliptic
    two-point shape lands in the order-2 locus with 4 branch points;
    the rational three-point shape with a lifted involution comes from
    the plane model w^p = x^2 - 1, whose involution fixes p + 1 points
    over a rational quotient.  The remaining shapes only certify the
    symmetry order, so the bound is the smallest dimension 3(h - 1) + k of
    an admissible shape of that order at genus g.  At order 2, k = 2g + 2 - 4h
    is even and h runs up to floor((g + 1)/2), so the least is
    2g - 1 - floor((g + 1)/2); at order 3 the genus formula reads
    g - 1 = 3(h - 1) + k, so every shape has dimension g - 1.
    """
    p = locus.d
    g = locus.g
    # (genus, order-2 branch points, quotient genus) of the exact containers
    exact = {
        CaseTag.GENUS2_QUOTIENT: (3, 4, 1) if p == 2 else (p + 1, 6, 1 + (p - 3) // 2),
        CaseTag.ELLIPTIC_QUOTIENT: (p, 4, 1 + (p - 3) // 2),
        CaseTag.RATIONAL_INVOLUTION: (g, p + 1, 0),
    }
    if tag in exact:
        genus, points, h = exact[tag]
        cont = smooth_locus(genus, BranchingSequence(2, (points,)))
        if cont.h != h:
            raise AssertionError("container quotient genus mismatch")
        return ContainerInfo(q=2, g=cont.g, dim_lower_bound=cont.dim, locus=cont)
    if tag is CaseTag.RATIONAL_FOUR_POINTS:
        return ContainerInfo(q=2, g=g, dim_lower_bound=2 * g - 1 - (g + 1) // 2)
    if tag is CaseTag.RATIONAL_ORDER_THREE:
        return ContainerInfo(q=3, g=g, dim_lower_bound=g - 1)
    raise ValueError("unknown case tag")


_EXCLUDED_HYPERELLIPTIC = (3, 2, 0, 8)


def classify(locus: SmoothLocus) -> ClassificationRecord:
    """One verdict per admissible prime-order locus, g >= 3.

    The genus-3 hyperelliptic divisor itself is excluded (its involution
    acts as a pseudoreflection).  Every matched shape is redundant: a
    locus of shape (h, k) has dimension 3(h - 1) + k, and its certified
    container is strictly larger.
      (2, 0), dim 3: the container has dim 4 at p = 2 and
        3(p - 3)/2 + 6 at odd p.
      (1, 2), dim 2: 3(p - 3)/2 + 4.
      (0, 3) with a lifted involution, dim 0: p - 2, as p is odd at k = 3.
      (0, 4), dim 1: the least order-2 shape dimension,
        2g - 1 - floor((g + 1)/2), which is at least 3.
      (0, 3) of order three, dim 0: every order-3 shape has dim g - 1.
    stream_sing checks the strict growth on every redundant record.
    """
    if (locus.g, locus.d, locus.h, locus.k) == _EXCLUDED_HYPERELLIPTIC:
        return ClassificationRecord(
            locus=locus,
            verdict=Verdict.EXCLUDED_PSEUDOREFLECTION,
            notes=(
                "order-2 action with rational quotient at genus 3: the involution "
                "is a pseudoreflection, the locus is not in the singular set",
            ),
        )
    tag, shape = case_pattern(locus)
    if tag is None:
        return ClassificationRecord(locus=locus, verdict=Verdict.COMPONENT)
    cont = container_info(locus, tag)
    notes: list[str] = []
    if tag is CaseTag.GENUS2_QUOTIENT and locus.d == 2:
        notes.append(
            "also contained in the genus-3 hyperelliptic divisor; the certified "
            "container is the locus of double covers of elliptic curves"
        )
    held = cont.locus
    if held is not None and (held.g, held.d, held.h, held.k) == _EXCLUDED_HYPERELLIPTIC:
        notes.append(
            "container is the genus-3 hyperelliptic divisor, which is itself "
            "outside the singular locus; recorded as redundant, review advised"
        )
    return ClassificationRecord(locus=locus, verdict=Verdict.REDUNDANT, case_tag=tag,
                                normalizer=shape, container=cont, notes=tuple(notes))


def _prime_blocks(g: int, warnings: list[str]):
    """(p, rows, special) for each prime p <= 2g + 1: p's rows (counts, h),
    sorted by counts, and special[h][counts], the record of each row whose h
    is special.  A verdict depends on a locus only through (g, p, h, k),
    except at the special shapes and the genus-3 hyperelliptic divisor, and
    at a prime order h fixes k: `classify` runs on the special rows alone,
    each checked for strict growth, its notes added to warnings.  A block's
    rows are emptied when the next block is drawn, before that prime's search."""
    for p in primes_upto(2 * g + 1):
        rows = sorted(_admissible_rows(g, p), key=itemgetter(0))  # int keys: the fast path
        terms = genus_relation(g, p)  # (h, k) is a shape of p when B = k(p - 1) at h
        extra = {_EXCLUDED_HYPERELLIPTIC[2:]} if (g, p) == _EXCLUDED_HYPERELLIPTIC[:2] else set()
        special = {h: {} for h, k in SPECIAL_SHAPES | extra if k * (p - 1) in terms[h:h + 1]}
        for locus in locus_rows(g, p, [row for row in rows if row[1] in special]):
            rec = special[locus.h][locus.counts] = classify(locus)
            if rec.verdict is Verdict.REDUNDANT:
                if rec.container is None or rec.container.dim_lower_bound <= locus.dim:
                    raise AssertionError("redundant locus %s has no container of larger "
                                         "dimension" % locus.label())
                warnings.extend("%s: %s" % (locus.label(), note) for note in rec.notes)
        yield p, rows, special
        rows.clear()


class _Records:
    """A streamed report's records, each built as it is read; `blocks` reads
    the same producer, `_prime_blocks`, a prime block at a time."""

    def __init__(self, g: int, blocks):
        self.blocks = blocks
        self._records = (special[locus.h][locus.counts] if locus.h in special
                         else ClassificationRecord(locus, Verdict.COMPONENT)
                         for p, rows, special in blocks for locus in locus_rows(g, p, rows))

    def __iter__(self):
        return self._records


def stream_sing(g: int) -> DecompositionReport:
    """The report of decompose_sing, streamed prime by prime.

    Orders run over primes p <= 2g + 1; beyond that no order-p symmetry
    fits the genus.  Genus 2 is rejected at once: every genus-2 curve is
    hyperelliptic and the pseudoreflection bookkeeping starts at 3.
    """
    if g < 3:
        raise ValueError(
            "interior decomposition needs g >= 3; at genus 2 the whole moduli "
            "space is the order-2 locus with 6 branch points"
        )
    warnings: list[str] = []
    notes = ("the genus-3 hyperelliptic divisor has 8 branch points by the genus "
             "formula (an order-2 rational quotient forces k = 2g + 2)",) if g == 3 else ()
    return DecompositionReport(g=g, records=_Records(g, _prime_blocks(g, warnings)),
                               warnings=warnings, notes=notes + (
        "order-2 data with elliptic quotient and two branch points only exist "
        "at genus 2 and are outside this classification",))


def collect(rep: DecompositionReport) -> DecompositionReport:
    """The report a streamed report describes, its records and warnings held."""
    return rep._replace(records=tuple(rep.records), warnings=tuple(rep.warnings))


def decompose_sing(g: int) -> DecompositionReport:
    """Classify every admissible prime-order locus of genus g >= 3."""
    return collect(stream_sing(g))
