"""Divisor-class bookkeeping for cyclic covers over a factorial base.

The Picard group of the base is modelled as an abstract finitely
generated abelian group Z^r + Z/t_1 + ... + Z/t_s with t_1 | ... | t_s.
No geometry is computed: a cover of order d is the data of reduced
branch divisors D_1, ..., D_{d-1} without common components, grouped by
local monodromy residue, together with a class L satisfying d*L =
sum_i i*[D_i].  Character classes, multiplication sections and the
irreducibility criterion are pure bookkeeping on these classes.

For a character exponent x the class L_x satisfies d*L_x =
sum_i ((x*i) mod d) * [D_i].  It is given in closed form by
L_x = x*L - sum_i floor(x*i/d) * [D_i]: stepping from L_x to L_{x+1}
adds L and subtracts [D_i] exactly when (x*i mod d) + i carries, and
adding i a total of x times carries floor(x*i/d) times.  The sign is the
one that makes d*L_x come out right and puts the product section of two
eigensheaves in H^0 of L_x + L_y - L_{x+y}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from operator import add, mod

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


@dataclass(frozen=True)
class PicardModel:
    """Finitely generated abelian group Z^free_rank + sum Z/t_j."""

    free_rank: int
    torsion: tuple[int, ...] = ()
    # Built by the first zero() call, never earlier: a document may name a vast free rank.
    _zero: DivisorClass | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        prev = None
        for t in self.torsion:
            if t < 2:
                raise ValueError("torsion factors must be at least 2")
            if prev is not None and t % prev != 0:
                raise ValueError("torsion factors must form a divisibility chain")
            prev = t

    def element(self, free=(), torsion=()) -> DivisorClass:
        # map() stops at the shorter tuple; extra coordinates stay for DivisorClass to refuse.
        torsion = tuple(torsion)
        return DivisorClass(self, tuple(free),
                            tuple(map(mod, torsion, self.torsion)) + torsion[len(self.torsion):])

    def zero(self) -> DivisorClass:
        if self._zero is None:
            object.__setattr__(self, "_zero", DivisorClass(
                self, (0,) * self.free_rank, (0,) * len(self.torsion)))
        return self._zero

    def __contains__(self, c: DivisorClass) -> bool:
        """c is a class of this group whose torsion coordinates are reduced."""
        return ((c.model is self or c.model == self)
                and all(0 <= a < t for a, t in zip(c.torsion, self.torsion)))

    def combination(self, terms) -> DivisorClass:
        """sum n*c over a sequence of (n, c) pairs of classes of this group."""
        if any(c.model is not self and c.model != self for _, c in terms):
            raise ValueError("classes live in different groups")
        return self.element(
            [sum(n * c.free[k] for n, c in terms) for k in range(self.free_rank)],
            [sum(n * c.torsion[k] for n, c in terms) for k in range(len(self.torsion))])


@dataclass(frozen=True)
class DivisorClass:
    """Coordinates of the model's lengths, checked when built; element() reduces them."""

    model: PicardModel
    free: tuple[int, ...]
    torsion: tuple[int, ...]

    def __post_init__(self):
        if len(self.free) != self.model.free_rank or len(self.torsion) != len(self.model.torsion):
            raise ValueError("coordinate lengths do not match the group")

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


@dataclass(frozen=True)
class BranchAssignment:
    """Branch divisors grouped by monodromy residue, plus the root class L.

    divisors maps residue i to the (symbol, class) pairs of the reduced
    divisor D_i; symbols are globally distinct since the D_i share no
    components.  Validity requires d*L = sum_i i*[D_i] exactly.
    """

    d: int
    model: PicardModel
    L: DivisorClass
    divisors: tuple[tuple[int, tuple[tuple[str, DivisorClass], ...]], ...]
    _classes: dict[int, DivisorClass] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("order must be at least 2")
        if self.L not in self.model:
            raise ValueError("L does not live in the given group")
        seen: set[str] = set()
        terms: dict[int, list] = {}
        for i, items in self.divisors:
            if not (1 <= i <= self.d - 1):
                raise ValueError("divisor residue %d out of range" % i)
            for sym, cls in items:
                if sym in seen:
                    raise ValueError("symbol %s appears in two divisors" % clipped(sym))
                seen.add(sym)
                if cls not in self.model:
                    raise ValueError("class of %s lives in a different group" % clipped(sym))
                terms.setdefault(i, []).append((1, cls))
        classes = {i: self.model.combination(ts) for i, ts in terms.items()}
        object.__setattr__(self, "_classes", classes)
        if not self.model.combination(
                [(self.d, self.L)] + [(-i, cls) for i, cls in classes.items()]).is_zero():
            raise ValueError("d*L differs from the weighted branch class sum")

    def branch_class(self, i: int) -> DivisorClass:
        return self._classes[i] if i in self._classes else self.model.zero()

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(i for i, items in self.divisors if items))


def branch_assignment(d, model, L, divisors: dict) -> BranchAssignment:
    """Build a BranchAssignment from a residue -> [(symbol, class)] mapping."""
    packed = tuple(
        (i, tuple(sorted(divisors[i], key=lambda sc: sc[0]))) for i in sorted(divisors)
    )
    return BranchAssignment(d=d, model=model, L=L, divisors=packed)


def character_class(ba: BranchAssignment, chi: int) -> DivisorClass:
    """The class L_chi = chi*L - sum_i floor(chi*i/d)*[D_i] of the
    chi-eigensheaf."""
    if not (0 <= chi < ba.d):
        raise ValueError("character exponent out of range")
    return ba.model.combination(
        [(chi, ba.L)] + [(-(chi * i // ba.d), cls) for i, cls in ba._classes.items()])


@dataclass(frozen=True)
class IrreducibilityResult:
    irreducible: bool
    inertia_gcd: int
    torsion_order: int

    def __bool__(self) -> bool:
        return self.irreducible


def irreducibility(ba: BranchAssignment) -> IrreducibilityResult:
    """Connectivity test for the cover described by a BranchAssignment.

    Let m generate the subgroup of Z/d spanned by the populated residues
    (m = d when the cover is unramified).  The cover is irreducible iff
    the class L' = (d/m)L - sum_i (i/m)[D_i] has order exactly m.  As m
    divides every populated residue, L' is the character class L_{d/m}
    when m > 1; at m = 1 it is d*L - sum_i i*[D_i], zero by validity.
    """
    m = gcd(ba.d, *ba._classes)
    lp = character_class(ba, ba.d // m) if m > 1 else ba.model.zero()
    order = lp.order()
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
