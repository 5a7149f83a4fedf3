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

At a prime order p the unit group is cyclic.  Indexed by its discrete
logarithm to a primitive root (its log position), a unit is a rotation and
a unit orbit of k points a necklace of the k gaps between them: one least
rotation per orbit is generated, with no leaf to reject, and mapped back.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress
from math import gcd
from operator import itemgetter, mul, not_
from typing import NamedTuple

from .combinat import (branch_weights, branching_term, genus_relation, is_prime,
                       prime_shapes, primitive_root, quotient_genus_for, residue_sum,
                       unit_action, units_mod)

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
    "locus_rows",
    "iter_admissible_shapes",
]


class BranchingSequence(namedtuple("BranchingSequence", "d counts")):
    """Counts of branch points by local monodromy residue 1..d-1."""

    __slots__ = ()

    def __new__(cls, d: int, counts: tuple[int, ...]):
        if d < 2:
            raise ValueError("cover order must be at least 2")
        if len(counts) != d - 1:
            raise ValueError("expected %d counts for order %d, got %d" % (d - 1, d, len(counts)))
        if any(k < 0 for k in counts):
            raise ValueError("branch counts must be non-negative")
        return tuple.__new__(cls, (d, counts))

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
    """Quotient genus h of the genus formula, or None when h is not a non-negative integer."""
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


class SmoothLocus(NamedTuple):
    """An admissible numerical type and its locus dimensions in moduli."""

    LABEL = "M_{%d;%d,[(%s)]}"  # of the genus, the order and the counts joined by ","
    g: int
    d: int
    counts: tuple[int, ...]
    h: int
    k: int
    dim: int
    codim: int

    def label(self) -> str:
        return self.LABEL % (self.g, self.d, ",".join(map(str, self.counts)))


def smooth_locus(g: int, seq: BranchingSequence) -> SmoothLocus:
    """Build the locus record for an admissible sequence; rejects inadmissible input."""
    h = admissible_quotient_genus(g, seq)
    if h is None:
        raise ValueError("inadmissible branching for g=%d, d=%d: %r" % (g, seq.d, seq.counts))
    return next(locus_rows(g, seq.d, [(canonical_datum(seq).counts, h)]))


def locus_rows(g: int, d: int, rows):
    """The locus of genus g and order d of each canonical admissible row
    (counts, h), each built as it is read.

    A locus has dimension 3(h - 1) + k, so dim and codim are taken once per
    shape (h, k).  For prime order p the codimension is then recomputed
    through the closed form 3(p-1)(h-1) + k(3(p-1)/2 - 1), which must agree
    exactly.
    """
    dims: dict[tuple[int, int], tuple[int, int]] = {}
    for counts, h in rows:
        k = sum(counts)
        shape = dims.get((h, k))
        if shape is None:
            dim = 3 * (h - 1) + k
            codim = 3 * (g - 1) - dim
            if is_prime(d) and 2 * codim != 6 * (d - 1) * (h - 1) + k * (3 * (d - 1) - 2):
                raise AssertionError(
                    "codimension cross-check failed for g=%d, p=%d, %r" % (g, d, counts))
            shape = dims[h, k] = dim, codim
        yield SmoothLocus(g, d, counts, h, k, *shape)


def enumerate_admissible(g: int, d: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The rows (counts, h) of all admissible canonical data for (g, d), h
    being the quotient genus, in canonical-key order (the zero pattern as
    bytes): `_admissible_rows`, sorted once.  The search runs over gap
    necklaces in log positions at a prime order (`_necklace_rows`, see the
    module docstring) and over residues at any other (`_residue_rows`).
    """
    rows = sorted(_admissible_rows(g, d), key=lambda row: (bytes(map(not_, row[0])), row[0]))
    return tuple(rows)


def _admissible_rows(g: int, d: int) -> list[tuple[tuple[int, ...], int]]:
    """The rows of `enumerate_admissible` unordered, each checked against
    tables built once per call: the branch-count bound (a point adds at
    least d - d/2 >= 1 to the branching term B, so k <= B at h = 0), the
    residue sum, and B, which entry h of `genus_relation` must equal.
    """
    if g < 2 or d < 2:
        raise ValueError("need g >= 2 and d >= 2")
    if d > 4 * g + 2:  # Wiman's bound (module docstring); the tables are O(d)
        return []
    prime = is_prime(d)
    out = _necklace_rows(g, d) if prime else _residue_rows(g, d)
    weights, terms, residues = branch_weights(d), genus_relation(g, d), range(1, d)
    for counts, h in out:
        k = sum(counts)
        if k > terms[0]:
            raise AssertionError("branch count bound violated")
        if (sum(map(mul, residues, counts)) % d or not 0 <= h < len(terms)
                or terms[h] != (k * (d - 1) if prime else sum(map(mul, weights, counts)))):
            raise AssertionError("inconsistent quotient genus")
    return out


def _necklace_rows(g: int, p: int) -> list[tuple[tuple[int, ...], int]]:
    """The admissible canonical rows of a prime order p, unordered.

    The unit group mod p is cyclic: with g0 a primitive root, residue g0^j
    is position j of Z/n, n = p - 1, and the unit g0^b moves every point b
    positions on.  A unit orbit of k points is thus a necklace, written as
    the k gaps between successive points (zero between points that share a
    position), which sum to n.  Every point weighs p - 1 in B, so a shape
    (h, k) of `prime_shapes` fixes k; k = 1 has no datum, as one unit never
    sums to 0 mod p.

    The least rotation of each gap sequence is generated from a first point
    at position 0 (residue 1), one occupied position at a time: a block is
    the count c at that position and the gap to the next one, and gap
    sequences compare as their block sequences do when blocks order by more
    points first, then the shorter gap.  So the Fredricksen-Kessler-Maiorana
    prenecklace rule applies to blocks: each is at least the block one
    period back, and a full sequence is kept when its period divides its
    length (Ruskey, Savage and Wang, J. Algorithms 13, 1992).  No two leaves
    lie in one orbit.  A table built once per (g, p) holds, as a bitmask,
    the residue sums that m points at positions x and on can make; the
    search enters only prefixes it can complete, and a last lone point goes
    straight to the residue that closes the sum.

    A necklace maps back through a rotation taking an occupied position to
    0 (residue 1, by the first residue rule).  Residue by residue, rotations
    whose image is empty where another's is occupied drop out; only the
    image left, or the least of those tying on the whole pattern, is built.
    """
    shapes = [(h, k) for h, k in prime_shapes(g, p) if k != 1]
    if not shapes:
        return []
    n, root = p - 1, primitive_root(p)
    power = [pow(root, j, p) for j in range(n)]  # the residue at each position
    log = [-1] * p  # residue 0 has no position
    for j, r in enumerate(power):
        log[r] = j
    # turn[z] reads the log-order counts, turned so that position z goes to
    # 0, in residue order; later holds the positions of residues 2, 3, ...
    turn = [itemgetter(*[(j + z) % n for j in log[1:]]) for z in range(n)] if n > 1 else [tuple]
    later = log[2:]
    # reach[m][x], bit s: m points at positions x.. can have residue sum s mod p.
    reach = [[1] * (n + 1)]
    for _ in range(1, max(k for _, k in shapes)):
        row, prev = [0] * (n + 1), reach[-1]
        for x in range(n - 1, -1, -1):
            a, b = power[x], prev[x]
            row[x] = row[x + 1] | (b << a | b >> (p - a)) & ((1 << p) - 1)
        reach.append(row)
    out: list[tuple[tuple[int, ...], int]] = []
    wide = n + 1
    for h, k in shapes:
        # Block i as one int in block order, (k - c) * wide + gap.
        # blocks[-1] stays 0, below every block.
        blocks, counts = [0] * (min(k, n) + 1), [0] * n

        def extend(i, x, m, s, period, occupied):
            # Blocks before i are set, and block i starts at position x; the
            # m points left have residue sum s; bit y of occupied: y holds some.
            ref = blocks[i - period]
            most = k - ref // wide  # the count of the block one period back
            if m * power[x] % p == s:  # all m at x, and the gap closes to n
                block = (k - m) * wide + n - x
                if block > ref or block == ref and (i + 1) % period == 0:
                    counts[x] = m
                    zs, twice = occupied, occupied | occupied << n  # zs: the rotations left
                    for j in later:
                        if not zs & zs - 1:
                            image = turn[zs.bit_length() - 1](counts)
                            break
                        zs = zs & twice >> j or zs
                    else:
                        image = min(turn[z](counts) for z in range(n) if zs >> z & 1)
                    out.append((image, h))
            # Or c < m points at x and the next block at y: none past the last position.
            for c in range(1, min(m - 1, most) + 1) if x + 1 < n else ():
                rest = (s - c * power[x]) % p
                counts[x] = c
                low = x + 1 if c < most else x + max(1, ref % wide)
                if m - c == 1:  # a lone last point sits at the residue rest
                    ys = range(max(low, log[rest]), log[rest] + 1)
                else:
                    ys = range(low, n)
                for y in ys:
                    if not reach[m - c][y] >> rest & 1:
                        break
                    if reach[m - c - 1][y] >> (rest - power[y]) % p & 1:
                        blocks[i] = (k - c) * wide + y - x
                        extend(i + 1, y, m - c, rest, period if blocks[i] == ref else i + 1,
                               occupied | 1 << y)
            counts[x] = 0

        extend(0, 0, k, 0, 1, 1)
    return out


def _residue_rows(g: int, d: int) -> list[tuple[tuple[int, ...], int]]:
    """The admissible canonical rows of any order d, unordered.

    Generates only candidates for unit-orbit representatives: count tuples,
    filled in increasing residue order, with a branching term B of
    genus_relation and residue sum 0 mod d.  By the first residue rule (see
    the module docstring) a point goes at a divisor e of d first, and after
    it only residues r with gcd(r, d) >= e whose weight fits some solution.
    A table over (residue position, remaining term) holds, as a bitmask mod
    d, the residue sums the residues from there on can still make, so the
    search enters only nodes it can complete.  A leaf is kept when no unit
    image has a smaller canonical key and, at h = 0, its support generates
    Z/d.

    The key compares zero patterns first and counts second.  A unit
    permutes the zero pattern as it permutes the counts, so the leaf's
    pattern is built once and each image's pattern is one call of the
    unit's map on it; the image's counts are built only when its pattern
    ties the leaf's.  The pair compared is the image's key, so the verdict
    is the key order's.
    """
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
            sums, w = reach[0][:], step[a]
            for t in range(w, len(sums)):
                if sums[t - w]:
                    sums[t] |= (sums[t - w] << a | sums[t - w] >> (d - a)) & ((1 << d) - 1)
            reach.insert(0, sums)

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
    return out


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
