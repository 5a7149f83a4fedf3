"""Branching data for cyclic covers of smooth curves.

A degree-d cyclic cover C -> C' is described numerically by the order d,
the genus g of C, and the sequence (k_1, ..., k_{d-1}) counting branch
points of C' by the residue i of their local monodromy.  The quotient
genus h is pinned down by the genus formula

    2(g - 1) = 2d(h - 1) + sum_i k_i (d - gcd(i, d)),

evaluated in integers throughout (`combinat.genus_relation`).  A sequence
is admissible when h is a non-negative integer, the total branch degree
sum_i i*k_i vanishes mod d (so the branch divisor class is divisible by
d on a curve), and, when the support generates a proper subgroup of
Z/d, the quotient carries torsion classes (h >= 1).  For prime d and
g >= 2 the last condition is automatic.

Changing the chosen generator of the covering group multiplies all
monodromy residues by a unit r mod d; sequences in the same unit orbit
describe the same cover.  Loci in moduli are therefore indexed by a
canonical orbit representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd

from .combinat import (branch_weights, branching_term, genus_relation, is_prime,
                       prime_shapes, quotient_genus_for, residue_sum, unit_action,
                       units_mod, weighted_compositions)

__all__ = [
    "BranchingSequence",
    "BranchingDatum",
    "SmoothLocus",
    "ExtraAutomorphismRisk",
    "monodromy_sum_vanishes",
    "unit_translate",
    "orbit",
    "canonical_datum",
    "quotient_genus",
    "hurwitz_genus",
    "etale_part_order",
    "admissible_quotient_genus",
    "is_admissible",
    "smooth_locus",
    "enumerate_admissible",
    "enumerate_loci",
    "iter_admissible_shapes",
    "maximal_cyclic_exception",
]


@dataclass(frozen=True, order=True)
class BranchingSequence:
    """Counts of branch points by local monodromy residue 1..d-1."""

    d: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("cover order must be at least 2")
        if len(self.counts) != self.d - 1:
            raise ValueError(
                "expected %d counts for order %d, got %d"
                % (self.d - 1, self.d, len(self.counts))
            )
        if any(k < 0 for k in self.counts):
            raise ValueError("branch counts must be non-negative")

    @property
    def k(self) -> int:
        return sum(self.counts)

    def monodromies(self) -> tuple[int, ...]:
        """The sorted multiset of local monodromy residues."""
        out = []
        for i, k in enumerate(self.counts, start=1):
            out.extend([i] * k)
        return tuple(out)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, k in enumerate(self.counts, start=1) if k)


def monodromy_sum_vanishes(seq: BranchingSequence) -> bool:
    """Whether sum_i i*k_i == 0 mod d, i.e. the branch degree is divisible by d."""
    return residue_sum(seq.counts) % seq.d == 0


def unit_translate(seq: BranchingSequence, r: int) -> BranchingSequence:
    """Multiply every monodromy residue by the unit r mod d."""
    if gcd(r, seq.d) != 1:
        raise ValueError("%d is not a unit mod %d" % (r, seq.d))
    return BranchingSequence(seq.d, unit_action(seq.d, r % seq.d)(seq.counts))


def orbit(seq: BranchingSequence) -> tuple[tuple[int, ...], ...]:
    """All count tuples in the unit orbit of seq, sorted."""
    return tuple(sorted({unit_action(seq.d, r)(seq.counts) for r in units_mod(seq.d)}))


def _canonical_key(counts: tuple[int, ...]):
    # Orbit representative: prefer populated low residues (compare the
    # zero-pattern first), then compare the counts themselves.
    return (tuple(0 if c else 1 for c in counts), counts)


@dataclass(frozen=True, order=True)
class BranchingDatum:
    """Canonical representative of a unit orbit of branching sequences."""

    d: int
    counts: tuple[int, ...]

    def sequence(self) -> BranchingSequence:
        return BranchingSequence(self.d, self.counts)

    @property
    def k(self) -> int:
        return sum(self.counts)


def canonical_datum(seq: BranchingSequence) -> BranchingDatum:
    best = min(orbit(seq), key=_canonical_key)
    return BranchingDatum(seq.d, best)


def quotient_genus(g: int, seq: BranchingSequence) -> int | None:
    """Quotient genus h determined by the genus formula, or None.

    Returns None when h is not a non-negative integer.
    """
    if g < 2:
        raise ValueError("covering genus must be at least 2")
    return quotient_genus_for(g, seq.d, branching_term(seq.counts))


def hurwitz_genus(h: int, seq: BranchingSequence) -> int | None:
    """Covering genus from quotient genus and branching, or None if fractional."""
    twice, odd = divmod(2 * seq.d * (h - 1) + branching_term(seq.counts), 2)
    return None if odd else twice + 1


def etale_part_order(seq: BranchingSequence) -> int:
    """gcd of the support as a subgroup generator of Z/d; d when unramified."""
    return gcd(seq.d, *seq.support())


def admissible_quotient_genus(g: int, seq: BranchingSequence) -> int | None:
    """Quotient genus when (g, seq) is admissible, else None.

    Admissible means: divisible branch degree, integral non-negative h,
    and (for a support generating the subgroup of order d/m with m > 1)
    a quotient of genus h >= 1 so that order-m torsion classes exist.
    """
    if not monodromy_sum_vanishes(seq):
        return None
    h = quotient_genus(g, seq)
    if h is None:
        return None
    m = etale_part_order(seq)
    if m != 1 and h < 1:
        return None
    return h


def is_admissible(g: int, seq: BranchingSequence) -> bool:
    return admissible_quotient_genus(g, seq) is not None


@dataclass(frozen=True, order=True)
class SmoothLocus:
    """An admissible numerical type and its locus dimensions in moduli."""

    g: int
    d: int
    counts: tuple[int, ...]
    h: int
    k: int
    dim: int
    codim: int

    def label(self) -> str:
        body = ",".join(str(c) for c in self.counts)
        return "M_{%d;%d,[(%s)]}" % (self.g, self.d, body)

    def datum(self) -> BranchingDatum:
        return BranchingDatum(self.d, self.counts)

    def sequence(self) -> BranchingSequence:
        return BranchingSequence(self.d, self.counts)


def smooth_locus(g: int, datum: BranchingDatum | BranchingSequence) -> SmoothLocus:
    """Build the locus record for an admissible datum.

    Rejects inadmissible input.
    """
    seq = datum.sequence() if isinstance(datum, BranchingDatum) else datum
    h = admissible_quotient_genus(g, seq)
    if h is None:
        raise ValueError(
            "inadmissible branching for g=%d, d=%d: %r" % (g, seq.d, seq.counts)
        )
    return _locus(g, canonical_datum(seq), h)


def _locus(g: int, datum: BranchingDatum, h: int) -> SmoothLocus:
    # The record of a canonical admissible datum with quotient genus h.  For
    # prime order p the codimension is also recomputed through the closed
    # form 3(p-1)(h-1) + k(3(p-1)/2 - 1), which must agree exactly.
    d, k = datum.d, datum.k
    dim = 3 * (h - 1) + k
    codim = 3 * (g - 1) - dim
    if is_prime(d) and 2 * codim != 6 * (d - 1) * (h - 1) + k * (3 * (d - 1) - 2):
        raise AssertionError(
            "codimension cross-check failed for g=%d, p=%d, %r" % (g, d, datum.counts)
        )
    return SmoothLocus(g=g, d=d, counts=datum.counts, h=h, k=k, dim=dim, codim=codim)


def enumerate_admissible(g: int, d: int) -> tuple[tuple[BranchingDatum, int], ...]:
    """All admissible canonical data for (g, d) with their quotient genera.

    Finite: each branch point contributes d - gcd(i, d) >= d - d/2 >= 1
    to the branching term B, so k is at most B at h = 0.  Enumeration runs
    over quotient genera h and solves sum_i k_i (d - gcd(i, d)) = B exactly
    with `weighted_compositions`, whose weights fall into one class per
    proper divisor gcd(i, d) of d.  Each solution is then tested in integers: the residue
    sum sum_i i*k_i must vanish mod d, and at h = 0 the support must
    generate Z/d.  A unit orbit is canonicalised once, at its first
    admissible member: all of its images go into a seen-set, so the other
    members are skipped.  The unit action runs through index tables built
    once per call.
    """
    if g < 2 or d < 2:
        raise ValueError("need g >= 2 and d >= 2")
    weights = branch_weights(d)
    terms = genus_relation(g, d)
    actions = [unit_action(d, r) for r in units_mod(d)]
    seen: set[tuple[int, ...]] = set()
    out: dict[tuple[int, ...], int] = {}
    for h, term in enumerate(terms):
        for counts in weighted_compositions(term, weights):
            if sum(counts) > terms[0]:
                raise AssertionError("branch count bound violated")
            if residue_sum(counts) % d or counts in seen:
                continue
            if h == 0 and gcd(d, *(i for i, c in enumerate(counts, 1) if c)) != 1:
                continue
            if quotient_genus_for(g, d, branching_term(counts)) != h:
                raise AssertionError("inconsistent quotient genus")
            images = {act(counts) for act in actions}
            seen |= images
            out[min(images, key=_canonical_key)] = h
    ordered = sorted(out, key=_canonical_key)
    return tuple((BranchingDatum(d, c), out[c]) for c in ordered)


def enumerate_loci(g: int, d: int) -> tuple[SmoothLocus, ...]:
    return tuple(_locus(g, datum, h) for datum, h in enumerate_admissible(g, d))


def _shape_realizable(p: int, h: int, k: int) -> bool:
    # Is there an admissible sequence of total k for prime p at quotient genus h?
    if k == 0:
        return h >= 1
    if k == 1:
        return False
    if p == 2:
        return k % 2 == 0
    return True


def iter_admissible_shapes(g: int, p: int):
    """Yield the (h, k) pairs of admissible loci for prime p.

    Dimension and codimension depend on the datum only through (h, k),
    so exception scans over large genus ranges use this instead of full
    sequence enumeration.
    """
    if not is_prime(p):
        raise ValueError("prime order required")
    yield from (shape for shape in prime_shapes(g, p) if _shape_realizable(p, *shape))


class ExtraAutomorphismRisk(Enum):
    """Shapes where a general member may admit symmetry beyond the cyclic group."""

    NONE = "none"
    GENUS_TWO_QUOTIENT = "quotient-genus-2-unramified"
    ELLIPTIC_TWO_POINTS = "elliptic-quotient-two-points"
    RATIONAL_FEW_POINTS = "rational-quotient-3-or-4-points"


def maximal_cyclic_exception(h: int, k: int) -> ExtraAutomorphismRisk:
    if h < 0 or k < 0:
        raise ValueError("h and k must be non-negative")
    if (h, k) == (2, 0):
        return ExtraAutomorphismRisk.GENUS_TWO_QUOTIENT
    if (h, k) == (1, 2):
        return ExtraAutomorphismRisk.ELLIPTIC_TWO_POINTS
    if h == 0 and k in (3, 4):
        return ExtraAutomorphismRisk.RATIONAL_FEW_POINTS
    return ExtraAutomorphismRisk.NONE
