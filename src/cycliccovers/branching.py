"""Branching data for cyclic covers of smooth curves.

A degree-d cyclic cover C -> C' is described numerically by the order d,
the genus g of C, and the sequence (k_1, ..., k_{d-1}) counting branch
points of C' by the residue i of their local monodromy.  The quotient
genus h is pinned down by the genus formula

    2(g - 1) = d * (2(h - 1) + sum_i k_i (1 - gcd(i, d)/d)),

evaluated here in exact arithmetic, never in floats: in rationals by the
public predicates below, in integers inside `enumerate_admissible`.  A sequence
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
from fractions import Fraction
from math import gcd
from operator import itemgetter, mul

from .combinat import is_prime, units_mod, weighted_compositions

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
    return sum(i * k for i, k in enumerate(seq.counts, start=1)) % seq.d == 0


def _unit_action(d: int, r: int):
    """The map on count tuples that multiplies every residue by the unit r.

    Residue i moves to r*i, so the image holds counts[r^-1 * j - 1] at
    residue j: an index table, applied by one itemgetter call.
    """
    if d == 2:
        return tuple  # the only unit is 1
    inverse = pow(r, -1, d)
    return itemgetter(*((inverse * j) % d - 1 for j in range(1, d)))


def unit_translate(seq: BranchingSequence, r: int) -> BranchingSequence:
    """Multiply every monodromy residue by the unit r mod d."""
    if gcd(r, seq.d) != 1:
        raise ValueError("%d is not a unit mod %d" % (r, seq.d))
    return BranchingSequence(seq.d, _unit_action(seq.d, r % seq.d)(seq.counts))


def orbit(seq: BranchingSequence) -> tuple[tuple[int, ...], ...]:
    """All count tuples in the unit orbit of seq, sorted."""
    return tuple(sorted({_unit_action(seq.d, r)(seq.counts) for r in units_mod(seq.d)}))


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

    Returns None when h is not a non-negative integer.  Exact rational
    arithmetic throughout.
    """
    if g < 2:
        raise ValueError("covering genus must be at least 2")
    d = seq.d
    h = Fraction(1) + Fraction(g - 1, d)
    for i, k in enumerate(seq.counts, start=1):
        h -= Fraction(k, 2) * (1 - Fraction(gcd(i, d), d))
    if h.denominator != 1 or h < 0:
        return None
    return int(h)


def hurwitz_genus(h: int, seq: BranchingSequence) -> int | None:
    """Covering genus from quotient genus and branching, or None if fractional."""
    d = seq.d
    g = Fraction(1) + d * Fraction(h - 1)
    for i, k in enumerate(seq.counts, start=1):
        g += Fraction(k * (d - gcd(i, d)), 2)
    if g.denominator != 1:
        return None
    return int(g)


def etale_part_order(seq: BranchingSequence) -> int:
    """gcd of the support as a subgroup generator of Z/d; d when unramified."""
    m = seq.d
    for i in seq.support():
        m = gcd(m, i)
    return m


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

    Rejects inadmissible input.  For prime order the codimension is also
    recomputed through the closed form 3(p-1)(h-1) + k(3(p-1)/2 - 1),
    which must agree exactly with 3(g-1) - dim.
    """
    seq = datum.sequence() if isinstance(datum, BranchingDatum) else datum
    h = admissible_quotient_genus(g, seq)
    if h is None:
        raise ValueError(
            "inadmissible branching for g=%d, d=%d: %r" % (g, seq.d, seq.counts)
        )
    can = canonical_datum(seq)
    k = seq.k
    dim = 3 * (h - 1) + k
    codim = 3 * (g - 1) - dim
    if is_prime(seq.d):
        p = seq.d
        closed = 3 * (p - 1) * (h - 1) + k * (Fraction(3 * (p - 1), 2) - 1)
        if closed != codim:
            raise AssertionError(
                "codimension cross-check failed for g=%d, p=%d, %r" % (g, p, can.counts)
            )
    return SmoothLocus(g=g, d=seq.d, counts=can.counts, h=h, k=k, dim=dim, codim=codim)


def enumerate_admissible(g: int, d: int) -> tuple[tuple[BranchingDatum, int], ...]:
    """All admissible canonical data for (g, d) with their quotient genera.

    Finite: each branch point contributes d - gcd(i, d) >= d - d/2 >= 1
    to the Hurwitz defect, so k <= 2(g-1) + 2d.  Enumeration runs over
    quotient genera h and solves the weighted defect equation
    sum_i k_i (d - gcd(i, d)) = 2(g-1) - 2d(h-1) exactly with
    `weighted_compositions`, whose weights fall into one class per
    proper divisor gcd(i, d) of d.  Each solution is then tested in integers: the residue
    sum sum_i i*k_i must vanish mod d, and at h = 0 the support must
    generate Z/d.  A unit orbit is canonicalised once, at its first
    admissible member: all of its images go into a seen-set, so the other
    members are skipped.  The unit action runs through index tables built
    once per call.
    """
    if g < 2 or d < 2:
        raise ValueError("need g >= 2 and d >= 2")
    weights = tuple(d - gcd(i, d) for i in range(1, d))
    residues = tuple(range(1, d))
    kbound = 2 * (g - 1) + 2 * d
    actions = [_unit_action(d, r) for r in units_mod(d)]
    seen: set[tuple[int, ...]] = set()
    out: dict[tuple[int, ...], int] = {}
    h = 0
    while True:
        defect = 2 * (g - 1) - 2 * d * (h - 1)
        if defect < 0:
            break
        for counts in weighted_compositions(defect, weights):
            if sum(counts) > kbound:
                raise AssertionError("branch count bound violated")
            if sum(map(mul, residues, counts)) % d or counts in seen:
                continue
            if h == 0 and gcd(d, *(i for i, c in zip(residues, counts) if c)) != 1:
                continue
            if 2 * (g - 1) != 2 * d * (h - 1) + sum(map(mul, weights, counts)):
                raise AssertionError("inconsistent quotient genus")
            images = {act(counts) for act in actions}
            seen |= images
            out[min(images, key=_canonical_key)] = h
        h += 1
    ordered = sorted(out, key=_canonical_key)
    return tuple((BranchingDatum(d, c), out[c]) for c in ordered)


def enumerate_loci(g: int, d: int) -> tuple[SmoothLocus, ...]:
    return tuple(smooth_locus(g, datum) for datum, _ in enumerate_admissible(g, d))


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
    h = 0
    while True:
        defect = 2 * (g - 1) - 2 * p * (h - 1)
        if defect < 0:
            return
        if defect % (p - 1) == 0:
            k = defect // (p - 1)
            if _shape_realizable(p, h, k):
                yield (h, k)
        h += 1


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
