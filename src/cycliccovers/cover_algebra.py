"""Divisor-class bookkeeping for cyclic covers over a factorial base.

The Picard group of the base is modelled as an abstract finitely
generated abelian group Z^r + Z/t_1 + ... + Z/t_s with t_1 | ... | t_s.
No geometry is computed: a cover of order d is the data of reduced
branch divisors D_1, ..., D_{d-1} without common components, grouped by
local monodromy residue, together with a class L satisfying d*L =
sum_i i*[D_i].  Character classes, multiplication sections and the
irreducibility criterion are pure bookkeeping on these classes.

A `BranchAssignment` keeps its divisors as a table of symbol rows, not as
class objects.  Each class it reports (the validity defect, a character
class, the irreducibility witness, a branch class) is one weighted sum
n*L + sum_i w(i)*[D_i], taken down the coordinate columns of the table.

For a character exponent x the class L_x satisfies d*L_x =
sum_i ((x*i) mod d) * [D_i].  It is given in closed form by
L_x = x*L - sum_i floor(x*i/d) * [D_i]: stepping from L_x to L_{x+1}
adds L and subtracts [D_i] exactly when (x*i mod d) + i carries, and
adding i a total of x times carries floor(x*i/d) times.  The sign is the
one that makes d*L_x come out right and puts the product section of two
eigensheaves in H^0 of L_x + L_y - L_{x+y}.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm
from operator import add, itemgetter, mod, mul, neg
from typing import NamedTuple

from .combinat import clipped

__all__ = [
    "PicardModel",
    "DivisorClass",
    "BranchAssignment",
    "IrreducibilityResult",
    "carry",
    "multiplication_exponents",
    "branch_assignment",
    "character_class",
    "irreducibility",
    "component_count",
]


class PicardModel(namedtuple("PicardModel", "free_rank torsion")):
    """Finitely generated abelian group Z^free_rank + sum Z/t_j."""

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple[int, ...] = ()):
        if free_rank < 0:
            raise ValueError("free rank must be non-negative")
        for prev, t in zip((1, *torsion), torsion):
            if t < 2:
                raise ValueError("torsion factors must be at least 2")
            if t % prev != 0:
                raise ValueError("torsion factors must form a divisibility chain")
        return tuple.__new__(cls, (free_rank, torsion))

    def element(self, free=(), torsion=()) -> DivisorClass:
        # map() stops at the shorter tuple; extra coordinates stay for DivisorClass to refuse.
        torsion = tuple(torsion)
        return DivisorClass(self, tuple(free),
                            tuple(map(mod, torsion, self.torsion)) + torsion[len(self.torsion):])

    def zero(self) -> DivisorClass:
        return DivisorClass(self, (0,) * self.free_rank, (0,) * len(self.torsion))

    def __contains__(self, c: DivisorClass) -> bool:
        """c is a class of this group whose torsion coordinates are reduced."""
        return ((c.model is self or c.model == self)
                and all(0 <= a < t for a, t in zip(c.torsion, self.torsion)))


class DivisorClass(namedtuple("DivisorClass", "model free torsion")):
    """Coordinates of the model's lengths, checked when built; element() reduces them."""

    __slots__ = ()

    def __new__(cls, model: PicardModel, free: tuple[int, ...], torsion: tuple[int, ...]):
        if len(free) != model.free_rank or len(torsion) != len(model.torsion):
            raise ValueError("coordinate lengths do not match the group")
        return tuple.__new__(cls, (model, free, torsion))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if self.model is not other.model and self.model != other.model:
            raise ValueError("classes live in different groups")
        return self.model.element(map(add, self.free, other.free),
                                  map(add, self.torsion, other.torsion))

    def __neg__(self) -> "DivisorClass":
        return -1 * self

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + -1 * other

    def __rmul__(self, n: int) -> "DivisorClass":
        return self.model.element([n * a for a in self.free], [n * a for a in self.torsion])

    def __mul__(self, n):  # a class is scaled as n * c; c * n would repeat the tuple
        return NotImplemented

    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.torsion)

    def order(self) -> int | None:
        """Exact order in the group; None for infinite order."""
        if any(self.free):
            return None
        o = 1
        for a, t in zip(self.torsion, self.model.torsion):
            o = lcm(o, t // gcd(a, t))
        return o


def carry(d: int, a: int, b: int) -> int:
    """Overflow bit of adding canonical residues: a + b = ((a+b) mod d) + carry*d."""
    if not (0 <= a < d and 0 <= b < d):
        raise ValueError("arguments must be canonical residues in 0..d-1")
    return 1 if a + b >= d else 0


def multiplication_exponents(d: int, chi: int, xi: int) -> tuple[int, ...]:
    """Exponent bits of the product section, indexed by residue i = 1..d-1."""
    if not (0 <= chi < d and 0 <= xi < d):
        raise ValueError("character exponents must lie in 0..d-1")
    return tuple(carry(d, (chi * i) % d, (xi * i) % d) for i in range(1, d))


class BranchAssignment(namedtuple("BranchAssignment", "d model L divisors")):
    """Branch divisors as a table of symbol rows, plus the root class L.

    divisors lists (i, rows) per residue i named; a row is the (symbol, free
    coordinates, torsion coordinates) of one class of the reduced divisor
    D_i.  It is kept sorted by residue, then by symbol, and symbols are
    globally distinct since the D_i share no components.  Validity requires
    d*L = sum_i i*[D_i] exactly.
    """

    # No __slots__: _columns, (populated residues, coordinate columns of L
    # and of each [D_i], free first), lives in the instance __dict__, as a
    # field name may not start with "_".

    def __new__(cls, d: int, model: PicardModel, L: DivisorClass, divisors):
        table = tuple((i, tuple(sorted(rows, key=itemgetter(0))))
                      for i, rows in sorted(divisors, key=itemgetter(0)))
        if d < 2:
            raise ValueError("order must be at least 2")
        if L not in model:
            raise ValueError("L does not live in the given group")
        self = tuple.__new__(cls, (d, model, L, table))
        seen: set = set()
        residues, sums = [], [L.free + L.torsion]
        for i, rows in table:
            if not (1 <= i <= d - 1):
                raise ValueError("divisor residue %d out of range" % i)
            for sym, _, _ in rows:
                if sym in seen:
                    raise ValueError("symbol %s appears in two divisors" % clipped(sym))
                seen.add(sym)
            if rows:
                residues.append(i)
                sums.append(tuple(map(sum, zip(*(f + t for _, f, t in rows), strict=True))))
        self._columns = tuple(residues), tuple(zip(*sums, strict=True))
        if not _weighted_sum(self, d, neg).is_zero():
            raise ValueError("d*L differs from the weighted branch class sum")
        return self

    def branch_class(self, i: int) -> DivisorClass:
        return _weighted_sum(self, 0, lambda j: j == i)

    def support(self) -> tuple[int, ...]:
        return self._columns[0]


def _weighted_sum(ba: BranchAssignment, n: int, w) -> DivisorClass:
    """n*L + sum_i w(i)*[D_i], summed down each column; element() reduces the torsion."""
    residues, columns = ba._columns
    ws = [n, *map(w, residues)]
    sums = [sum(map(mul, ws, col)) for col in columns]
    return ba.model.element(sums[:ba.model.free_rank], sums[ba.model.free_rank:])


def branch_assignment(d, model, L, divisors: dict) -> BranchAssignment:
    """Build a BranchAssignment from a residue -> [(symbol, class)] mapping;
    a class of another group, or with unreduced torsion, is refused."""
    for items in divisors.values():
        for sym, cls in items:
            if cls not in model:
                raise ValueError("class of %s lives in a different group" % clipped(sym))
    return BranchAssignment(d, model, L, [(i, [(sym, cls.free, cls.torsion) for sym, cls in items])
                                          for i, items in divisors.items()])


def character_class(ba: BranchAssignment, chi: int) -> DivisorClass:
    """The class L_chi = chi*L - sum_i floor(chi*i/d)*[D_i] of the
    chi-eigensheaf."""
    if not (0 <= chi < ba.d):
        raise ValueError("character exponent out of range")
    return _weighted_sum(ba, chi, lambda i: -(chi * i // ba.d))


class IrreducibilityResult(NamedTuple):
    irreducible: bool
    inertia_gcd: int
    torsion_order: int


def irreducibility(ba: BranchAssignment) -> IrreducibilityResult:
    """Connectivity test for the cover described by a BranchAssignment.

    Let m generate the subgroup of Z/d spanned by the populated residues
    (m = d when the cover is unramified).  The cover is irreducible iff
    the class L' = (d/m)L - sum_i (i/m)[D_i] has order exactly m; m*L' is
    d*L - sum_i i*[D_i], zero by validity.
    """
    m = gcd(ba.d, *ba.support())
    order = _weighted_sum(ba, ba.d // m, lambda i: -(i // m)).order()
    if order is None:
        raise AssertionError("m*L' must vanish, so L' has finite order")
    return IrreducibilityResult(irreducible=(order == m), inertia_gcd=m, torsion_order=order)


def component_count(d: int, monodromy_images, etale_order: int) -> int:
    """Connected components of a model cover of Z/d monodromy.

    The total monodromy image is generated by the listed local residues
    together with the subgroup of size `etale_order` coming from the
    unramified part; the count is the index of that image.
    """
    if etale_order <= 0 or d % etale_order != 0:
        raise ValueError("etale_order must divide d")
    return gcd(d, d // etale_order, *(i % d for i in monodromy_images))
