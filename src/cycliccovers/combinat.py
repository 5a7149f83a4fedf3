"""Shared integer arithmetic: primality, unit groups, primitive roots, weak
compositions, and the one definition each of the residue sum, the unit
action on count tuples, the genus relation of a cyclic cover, the
stability threshold of a marked curve and graph connectivity.  Also the
one form in which an error line echoes a document value.

A count tuple (k_1, ..., k_{d-1}) counts points by residue i mod d; its
length fixes d.
"""

import reprlib
from math import gcd
from operator import itemgetter, mul


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_upto(n: int) -> tuple[int, ...]:
    return tuple(p for p in range(2, n + 1) if is_prime(p))


def units_mod(d: int) -> tuple[int, ...]:
    """Residues coprime to d, the multiplicative units mod d."""
    return tuple(r for r in range(1, d) if gcd(r, d) == 1)


def primitive_root(p: int) -> int:
    """The least residue of multiplicative order p - 1 mod the prime p."""
    factors = [q for q in range(2, p) if (p - 1) % q == 0 and is_prime(q)]
    return next(r for r in range(1, p) if all(pow(r, (p - 1) // q, p) != 1 for q in factors))


def residue_sum(counts) -> int:
    """sum_i i*k_i, the total residue of a count tuple."""
    return sum(map(mul, range(1, len(counts) + 1), counts))


def unit_action(d: int, r: int):
    """The map on count tuples that multiplies every residue by the unit r.

    Residue i moves to r*i, so the image holds counts[r^-1 * j - 1] at
    residue j: an index table, applied by one itemgetter call.
    """
    if d == 2:
        return tuple  # the only unit is 1
    inverse = pow(r, -1, d)
    return itemgetter(*((inverse * j) % d - 1 for j in range(1, d)))


def genus_relation(g: int, d: int) -> range:
    """The genus relation of a degree-d cyclic cover of a genus-g curve,

        2(g - 1) = 2d(h - 1) + B,   B = sum_i k_i (d - gcd(i, d)),

    solved in integers for the branching term B: entry h of the range is
    B at quotient genus h, for every h >= 0 that leaves B >= 0.  `B in r`
    and `r.index(B)` solve for h in constant time, at any size of g.
    """
    return range(2 * (g - 1) + 2 * d, -1, -2 * d)


def branch_weights(d: int) -> tuple[int, ...]:
    """d - gcd(i, d) for i = 1..d-1: what one point of residue i adds to
    the branching term B of genus_relation."""
    return tuple(d - gcd(i, d) for i in range(1, d))


def branching_term(counts) -> int:
    """The branching term B of genus_relation for a count tuple."""
    return sum(map(mul, branch_weights(len(counts) + 1), counts))


def quotient_genus_for(g: int, d: int, term: int) -> int | None:
    """The quotient genus h >= 0 at which genus_relation(g, d) has the
    branching term `term`, or None when there is none."""
    terms = genus_relation(g, d)
    return terms.index(term) if term in terms else None


def prime_shapes(g: int, p: int) -> tuple[tuple[int, int], ...]:
    """(h, k) for each quotient genus h at which genus_relation(g, p)
    leaves room for exactly k points of prime order p, each of weight p - 1."""
    return tuple((h, term // (p - 1)) for h, term in enumerate(genus_relation(g, p))
                 if term % (p - 1) == 0)


def min_marks(genus: int) -> int:
    """Fewest marked points that make a genus-`genus` curve stable."""
    return 3 if genus == 0 else 1 if genus == 1 else 0


def connects(n: int, pairs) -> bool:
    """Whether the vertex pairs (i, j) join vertices 0..n-1 into one piece."""
    # Union-find; each root search points what it passes at its grandparent.
    parent = list(range(n))
    pieces = n
    for i, j in pairs:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i != j:
            parent[i] = j
            pieces -= 1
    return pieces == 1


def weak_compositions(total: int, parts: int):
    """Yield every tuple of `parts` >= 1 non-negative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def clipped(value) -> str:
    """A document value for an error line: reprlib's short repr, cut to 60."""
    text = reprlib.repr(value)
    return text if len(text) <= 60 else text[:57] + "..."
