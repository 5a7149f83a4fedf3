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
canonical orbit representative, the member whose zero pattern (populated
low residues first) and then counts are least, and `enumerate_admissible`
generates only candidates for it.  The orbit of a residue s is the set of
residues with gcd(s, d), whose least member is that gcd, so the first
populated residue of a representative is the least gcd(s, d) over its
support (the first residue rule): every candidate starts at a divisor of d.
By Wiman's bound a cyclic automorphism of a curve of genus g >= 2 has order
at most 4g + 2, so above it `enumerate_admissible` returns () unsearched.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd
from operator import mul, not_

from .combinat import (branch_weights, branching_term, genus_relation, is_prime,
                       prime_shapes, quotient_genus_for, residue_sum, unit_action,
                       units_mod)

__all__ = [
    "BranchingSequence",
    "SmoothLocus",
    "SPECIAL_SHAPES",
    "monodromy_sum_vanishes",
    "canonical_datum",
    "quotient_genus",
    "etale_part_order",
    "admissible_quotient_genus",
    "is_admissible",
    "smooth_locus",
    "enumerate_admissible",
    "enumerate_loci",
    "iter_admissible_shapes",
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


def _canonical_key(counts: tuple[int, ...]):
    # Orbit representative: prefer populated low residues (compare the
    # zero-pattern, False where populated, first), then compare the counts.
    return (tuple(map(not_, counts)), counts)


def canonical_datum(seq: BranchingSequence) -> BranchingSequence:
    """The canonical representative of the unit orbit of seq.

    By the first residue rule (module docstring) it populates the least
    gcd e over the support, so only the units r that move a populated
    residue s with gcd(s, d) = e to e (r = (s/e)^-1 mod d/e) are tried,
    one image at a time.
    """
    d, support = seq.d, seq.support()
    if not support:
        return seq
    e = min(gcd(s, d) for s in support)
    units = {r for s in support if gcd(s, d) == e
             for r in range(pow(s // e, -1, d // e), d, d // e) if gcd(r, d) == 1}
    return BranchingSequence(d, min((unit_action(d, r)(seq.counts) for r in units),
                                    key=_canonical_key))


def quotient_genus(g: int, seq: BranchingSequence) -> int | None:
    """Quotient genus h determined by the genus formula, or None.

    Returns None when h is not a non-negative integer.
    """
    if g < 2:
        raise ValueError("covering genus must be at least 2")
    return quotient_genus_for(g, seq.d, branching_term(seq.counts))


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

    def sequence(self) -> BranchingSequence:
        return BranchingSequence(self.d, self.counts)


def smooth_locus(g: int, seq: BranchingSequence) -> SmoothLocus:
    """Build the locus record for an admissible sequence.

    Rejects inadmissible input.
    """
    h = admissible_quotient_genus(g, seq)
    if h is None:
        raise ValueError(
            "inadmissible branching for g=%d, d=%d: %r" % (g, seq.d, seq.counts)
        )
    return _locus(g, canonical_datum(seq), h)


def _locus(g: int, datum: BranchingSequence, h: int) -> SmoothLocus:
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


def enumerate_admissible(g: int, d: int) -> tuple[tuple[BranchingSequence, int], ...]:
    """All admissible canonical data for (g, d) with their quotient genera.

    Generates only candidates for unit-orbit representatives: count tuples,
    filled in increasing residue order, with a branching term B of
    genus_relation and residue sum 0 mod d.  By the first residue rule (see
    the module docstring) a point goes at a divisor e of d first, and after
    it only residues r with gcd(r, d) >= e whose weight fits some solution.
    A table over (residue position, remaining term) holds, as a bitmask mod
    d, the residue sums the residues from there on can still make, so the
    search enters only nodes it can complete.  A leaf is kept when no unit
    image has a smaller canonical key and, at h = 0, its support generates
    Z/d; then the branch-count bound (each point adds at least d - d/2 >= 1
    to B, so k <= B at h = 0), the residue sum and the quotient genus are
    checked again.

    The key compares zero patterns first and counts second.  A unit
    permutes the zero pattern as it permutes the counts, so the leaf's
    pattern is built once and each image's pattern is one call of the
    unit's map on it; the image's counts are built only when its pattern
    ties the leaf's.  The pair compared is the image's key, so the verdict
    is the key order's.
    """
    if g < 2 or d < 2:
        raise ValueError("need g >= 2 and d >= 2")
    if d > 4 * g + 2:  # Wiman's bound (module docstring); the tables are O(d)
        return ()
    weights = branch_weights(d)
    terms = genus_relation(g, d)
    actions = None
    buf = [0] * (d - 1)
    out: list[tuple[tuple[int, ...], int]] = []

    def leaf(h):
        nonlocal actions
        if actions is None:
            actions = [unit_action(d, r) for r in units_mod(d)[1:]]
        counts = tuple(buf)
        pattern = tuple(map(not_, counts))
        for act in actions:
            image = act(pattern)
            if image < pattern or image == pattern and act(counts) < counts:
                return
        if h == 0 and gcd(d, *compress(range(1, d), counts)) != 1:
            return
        if sum(counts) > terms[0]:
            raise AssertionError("branch count bound violated")
        if (residue_sum(counts) % d
                or quotient_genus_for(g, d, sum(map(mul, weights, counts))) != h):
            raise AssertionError("inconsistent quotient genus")
        out.append((counts, h))

    if terms[-1] == 0:
        leaf(len(terms) - 1)  # unramified
    for e in sorted({d - w for w in weights}):  # d - weights[r - 1] = gcd(r, d)
        residues = [r for r in range(e, d) if d - weights[r - 1] >= e]
        unit = gcd(*(weights[r - 1] for r in residues))  # weights below count in units
        step = {r: weights[r - 1] // unit for r in residues}
        top, first = terms[0] // unit, step[e]
        # A weight-only pass picks the starts and drops unused residues before `reach`.
        totals = 1  # bit t: some points at these residues weigh t
        for w in set(step.values()):
            while w <= top:
                totals = (totals | totals << w) & ((2 << top) - 1)
                w *= 2
        starts = [(h, b // unit) for h, b in enumerate(terms)
                  if b % unit == 0 and b >= first * unit and totals >> (b // unit - first) & 1]
        if not starts:
            continue
        fits = {w for w in step.values() for _, t in starts
                if t >= first + w and totals >> (t - first - w) & 1}
        residues = [r for r in residues if r == e or step[r] in fits]
        # reach[j][t], bit s: points at residues[j:] can weigh t with residue
        # sum s mod d.  An unbounded knapsack per residue, built from the end.
        reach = [[1] + [0] * starts[0][1]]
        for a in reversed(residues):
            row, w = reach[0][:], step[a]
            for t in range(w, len(row)):
                if row[t - w]:
                    row[t] |= (row[t - w] << a | row[t - w] >> (d - a)) & ((1 << d) - 1)
            reach.insert(0, row)

        def place(j, end, t, s, h):
            # Residues before position j are placed; weight t and residue
            # sum s remain, and the next point goes at a position in [j, end).
            if t == 0:
                return leaf(h)
            for i in range(j, end):
                if not reach[i][t] >> s & 1:
                    break
                a = residues[i]
                w, last = step[a], i + 1 == len(residues)
                for c in range(t // w if last else 1, t // w + 1):  # the last takes all
                    rest, rem = t - c * w, (s - c * a) % d
                    if reach[i + 1][rest] >> rem & 1:
                        buf[a - 1] = c
                        place(i + 1, len(residues), rest, rem, h)
                buf[a - 1] = 0

        for h, t in starts:
            place(0, 1, t, 0, h)
    out.sort(key=lambda item: _canonical_key(item[0]))
    return tuple((BranchingSequence(d, c), h) for c, h in out)


def enumerate_loci(g: int, d: int) -> tuple[SmoothLocus, ...]:
    return tuple(_locus(g, datum, h) for datum, h in enumerate_admissible(g, d))


def iter_admissible_shapes(g: int, p: int):
    """Yield the (h, k) pairs of admissible loci for prime p.

    Dimension and codimension depend on the datum only through (h, k),
    so exception scans over large genus ranges use this instead of full
    sequence enumeration.  A shape is realizable exactly when k != 1: at
    h = 0 the branching term 2(g - 1) + 2p > 0, so k = 0 needs h >= 1; at
    p = 2, k = 2g + 2 - 4h is even; at odd p any k >= 2 units can sum to
    0 mod p, and a single unit cannot.
    """
    if not is_prime(p):
        raise ValueError("prime order required")
    yield from (shape for shape in prime_shapes(g, p) if shape[1] != 1)


# The quotient shapes (h, k) where a general member may admit symmetry
# beyond the cyclic group: an unramified genus-2 quotient, an elliptic
# quotient with two branch points, and a rational one with three or four.
SPECIAL_SHAPES = frozenset({(2, 0), (1, 2), (0, 3), (0, 4)})
