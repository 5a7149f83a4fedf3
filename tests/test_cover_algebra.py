import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cycliccovers import cli, cover_algebra as ca


def model_z():
    return ca.PicardModel(free_rank=1)


class TestPicardModel:
    def test_chain_validation(self):
        ca.PicardModel(1, (2, 4))
        with pytest.raises(ValueError):
            ca.PicardModel(1, (4, 2))
        with pytest.raises(ValueError):
            ca.PicardModel(0, (1,))

    def test_order(self):
        M = ca.PicardModel(1, (2, 6))
        assert M.element((1,), (0, 0)).order() is None
        assert M.element((0,), (1, 0)).order() == 2
        assert M.element((0,), (0, 1)).order() == 6
        assert M.element((0,), (1, 3)).order() == 2
        assert M.element((0,), (0, 2)).order() == 3
        assert M.zero().order() == 1

    def test_arithmetic(self):
        M = ca.PicardModel(2, (3,))
        a = M.element((1, 2), (2,))
        b = M.element((4, -1), (2,))
        assert a + b == M.element((5, 1), (1,))
        assert a - b == M.element((-3, 3), (0,))
        assert 3 * a == M.element((3, 6), (0,))


def refused(message, build, *args, **kwargs):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        build(*args, **kwargs)


class TestRecords:
    """The records refuse what they refused as frozen dataclasses, with the
    same messages, and their tuple base adds no tuple behaviour."""

    @pytest.mark.parametrize("free_rank, torsion, message", [
        (-1, (), "free rank must be non-negative"),
        (0, (1,), "torsion factors must be at least 2"),
        (1, (2, 0), "torsion factors must be at least 2"),
        (1, (4, 2), "torsion factors must form a divisibility chain"),
        (0, (2, 3), "torsion factors must form a divisibility chain"),
    ])
    def test_model_refusals(self, free_rank, torsion, message):
        refused(message, ca.PicardModel, free_rank, torsion)
        refused(message, ca.PicardModel, free_rank=free_rank, torsion=torsion)

    @pytest.mark.parametrize("free, torsion", [((), (0,)), ((0,), ()), ((0, 0), (0,)),
                                                ((0,), (0, 1))])
    def test_class_refusals(self, free, torsion):
        M = ca.PicardModel(1, (2,))
        refused("coordinate lengths do not match the group", ca.DivisorClass, M, free, torsion)
        refused("coordinate lengths do not match the group",
                ca.DivisorClass, model=M, free=free, torsion=torsion)

    def test_assignment_refusals(self):
        M = ca.PicardModel(1, (2,))
        z, D = M.zero(), ("D", (0,), (0,))
        refused("order must be at least 2", ca.BranchAssignment, 1, M, z, [])
        refused("L does not live in the given group",
                ca.BranchAssignment, 2, M, ca.PicardModel(1).zero(), [])
        refused("L does not live in the given group",
                ca.BranchAssignment, 2, M, ca.DivisorClass(M, (0,), (3,)), [])
        refused("divisor residue 2 out of range", ca.BranchAssignment, 2, M, z, [(2, [D])])
        refused("divisor residue 0 out of range", ca.BranchAssignment, 2, M, z, [(0, [D])])
        refused("symbol 'D' appears in two divisors",
                ca.BranchAssignment, 3, M, z, [(2, [D]), (1, [D])])
        refused("d*L differs from the weighted branch class sum",
                ca.BranchAssignment, 2, M, z, [(1, [("D", (1,), (0,))])])

    def test_class_arithmetic(self):
        M = ca.PicardModel(1, (4,))
        c = M.element((1,), (3,))
        assert 2 * c == M.element((2,), (2,)) == c + c
        assert -c == M.element((-1,), (1,)) == -1 * c
        assert (c - c).is_zero() and c - c == M.zero()
        assert type(2 * c) is type(c + c) is type(-c) is ca.DivisorClass
        for other in (2, c):  # scaling is n * c: c * n does not repeat the tuple
            with pytest.raises(TypeError):
                c * other

    def test_columns_are_no_field(self):
        # _columns cannot be a field, as a field name may not start with "_":
        # it is an attribute, outside equality, hashing and the repr.
        M = model_z()
        L = M.element((1,), ())
        ba = ca.BranchAssignment(2, M, L, [(1, [("B", (1,), ()), ("A", (1,), ())])])
        assert "_columns" not in ca.BranchAssignment._fields
        assert ba._columns == ((1,), ((1, 2),))
        assert ba.divisors == ((1, (("A", (1,), ()), ("B", (1,), ()))),)
        again = ca.branch_assignment(2, M, L, {1: [("A", L), ("B", L)]})
        assert again == ba and hash(again) == hash(ba)
        assert "_columns" not in repr(ba)
        with pytest.raises(AttributeError):
            ba.d = 3


class TestCarry:
    def test_examples(self):
        assert ca.carry(4, 3, 2) == 1
        assert ca.carry(4, 1, 2) == 0
        assert ca.carry(2, 1, 1) == 1

    def test_defining_identity(self):
        for d in range(2, 10):
            for a in range(d):
                for b in range(d):
                    assert a + b == (a + b) % d + ca.carry(d, a, b) * d

    def test_cocycle(self):
        for d in range(2, 13):
            for chi, xi, psi in itertools.product(range(d), repeat=3):
                e1 = ca.multiplication_exponents(d, chi, xi)
                e2 = ca.multiplication_exponents(d, (chi + xi) % d, psi)
                e3 = ca.multiplication_exponents(d, xi, psi)
                e4 = ca.multiplication_exponents(d, chi, (xi + psi) % d)
                for i in range(d - 1):
                    assert e1[i] + e2[i] == e3[i] + e4[i]


class TestMultiplicationExponents:
    def test_examples(self):
        assert ca.multiplication_exponents(2, 1, 1) == (1,)
        assert ca.multiplication_exponents(5, 2, 3) == (1, 1, 1, 1)
        assert ca.multiplication_exponents(4, 1, 1) == (0, 1, 1)


def random_assignment(rng, d=None):
    """A valid random BranchAssignment; residue 1 absorbs the defect."""
    d = d or rng.randrange(2, 13)
    free_rank = rng.randrange(0, 3)
    torsion = []
    t = rng.choice((0, 2, 3, 4, 6))
    if t:
        torsion.append(t)
        if rng.random() < 0.4:
            torsion.append(t * rng.choice((1, 2, 3)))
    M = ca.PicardModel(free_rank, tuple(torsion))

    def rnd_class():
        return M.element(
            tuple(rng.randrange(-4, 5) for _ in range(free_rank)),
            tuple(rng.randrange(0, tt) for tt in torsion),
        )

    L = rnd_class()
    divisors = {}
    total = M.zero()
    for i in range(2, d):
        if rng.random() < 0.4:
            items = []
            for s in range(rng.randrange(1, 3)):
                c = rnd_class()
                items.append(("s%d_%d" % (i, s), c))
                total = total + i * c
            divisors[i] = items
    fix = d * L - total
    divisors[1] = [("anchor", fix)]
    return ca.branch_assignment(d, M, L, divisors)


class TestCharacterClasses:
    def test_base_cases(self):
        rng = random.Random(1)
        for _ in range(20):
            ba = random_assignment(rng)
            assert ca.character_class(ba, 0) == ba.model.zero()
            assert ca.character_class(ba, 1) == ba.L

    def test_worked_example_order3(self):
        M = ca.PicardModel(2)
        a = M.element((3, 0), ())
        b = M.element((0, 3), ())
        L = M.element((1, 2), ())
        ba = ca.branch_assignment(3, M, L, {1: [("A", a)], 2: [("B", b)]})
        L2 = ca.character_class(ba, 2)
        assert L2 == 2 * L - b
        assert 3 * L2 == 2 * a + b

    def test_weighted_identity_randomised(self):
        rng = random.Random(42)
        for _ in range(500):
            ba = random_assignment(rng)
            for chi in range(ba.d):
                lhs = ba.d * ca.character_class(ba, chi)
                rhs = ba.model.zero()
                for i in range(1, ba.d):
                    rhs = rhs + ((chi * i) % ba.d) * ba.branch_class(i)
                assert lhs == rhs

    def test_section_class_matches_exponents(self):
        rng = random.Random(9)
        for _ in range(100):
            ba = random_assignment(rng)
            chi = rng.randrange(ba.d)
            xi = rng.randrange(ba.d)
            eps = ca.multiplication_exponents(ba.d, chi, xi)
            section = ba.model.zero()
            for i in range(1, ba.d):
                if eps[i - 1]:
                    section = section + ba.branch_class(i)
            lhs = (
                ca.character_class(ba, chi)
                + ca.character_class(ba, xi)
                - ca.character_class(ba, (chi + xi) % ba.d)
            )
            assert section == lhs

    @settings(deadline=None)
    @given(st.integers(min_value=2, max_value=30), st.randoms(use_true_random=False))
    def test_matches_carry_recursion(self, d, rng):
        ba = random_assignment(rng, d)
        for i in range(1, d):
            assert ba.branch_class(i) == oracles.reference_branch_class(ba, i)
        for chi in range(d):
            got = ca.character_class(ba, chi)
            assert got == oracles.reference_character_class(ba, chi)
            rhs = ba.model.zero()
            for i in range(1, d):
                rhs = rhs + ((chi * i) % d) * oracles.reference_branch_class(ba, i)
            assert d * got == rhs

    def test_out_of_range(self):
        rng = random.Random(3)
        ba = random_assignment(rng, d=5)
        with pytest.raises(ValueError):
            ca.character_class(ba, 5)
        with pytest.raises(ValueError):
            ca.character_class(ba, -1)


class TestValidation:
    def test_rejects_broken_equivalence(self):
        M = model_z()
        L = M.element((1,), ())
        c = M.element((1,), ())
        with pytest.raises(ValueError):
            ca.branch_assignment(4, M, L, {2: [("D", c)]})

    def test_rejects_shared_symbols(self):
        M = model_z()
        z = M.zero()
        with pytest.raises(ValueError):
            ca.branch_assignment(2, M, z, {1: [("D", z), ("D", z)]})

    def test_echoed_symbol_is_clipped(self):
        # A document symbol used to be echoed whole in the error message.
        M = model_z()
        z = M.zero()
        other = ca.PicardModel(free_rank=2).zero()
        sym = "S" * 5000
        for build, message in (
            (lambda: ca.branch_assignment(2, M, z, {1: [(sym, z), (sym, z)]}),
             "appears in two divisors"),
            (lambda: ca.branch_assignment(2, M, z, {1: [(sym, other)]}),
             "lives in a different group"),
        ):
            with pytest.raises(ValueError, match=message) as info:
                build()
            assert len(str(info.value)) <= 100

    def test_accepts_classes_of_an_equal_model(self):
        # Membership compares the groups, not the objects that describe them.
        M1, M2 = ca.PicardModel(1, (2,)), ca.PicardModel(1, (2,))
        ba = ca.branch_assignment(2, M1, M2.element((1,), (0,)),
                                  {1: [("D", M2.element((2,), (0,)))]})
        assert ba.L.model is M2

    @pytest.mark.parametrize("free,torsion,message", [
        ((), (2,), "L does not live|class of .D. lives in a different group"),
        ((), (-1,), "L does not live|class of .D. lives in a different group"),
        ((0,), (0,), "coordinate lengths do not match the group"),
        ((), (), "coordinate lengths do not match the group"),
    ])
    def test_rejects_unreduced_classes(self, free, torsion, message):
        # Built directly, not through element(): DivisorClass(M, (), (2,))
        # has order 1 yet is not zero, and a class with a missing or extra
        # coordinate is refused when it is built.
        M = ca.PicardModel(0, (2,))
        with pytest.raises(ValueError, match=message):
            ca.branch_assignment(2, M, ca.DivisorClass(M, free, torsion), {})
        with pytest.raises(ValueError, match=message):
            ca.branch_assignment(2, M, M.zero(), {1: [("D", ca.DivisorClass(M, free, torsion))]})

    @pytest.mark.parametrize("op", [
        lambda M, bad: bad + M.element((1,), ()),
        lambda M, bad: M.element((1,), ()) + bad,
        lambda M, bad: bad - M.element((1,), ()),
        lambda M, bad: M.element((1,), ()) - bad,
        lambda M, bad: 2 * bad,
        lambda M, bad: -bad,
        lambda M, bad: 3 * bad - bad,
    ], ids=["add", "radd", "sub", "rsub", "mul", "neg", "combination"])
    @pytest.mark.parametrize("free,torsion", [((1, 5), ()), ((), ()), ((1,), (0,))])
    def test_operators_refuse_wrong_lengths(self, op, free, torsion):
        # A class of the wrong lengths cannot be built, so no operator
        # silently cuts or keeps its extra coordinates.
        M = model_z()
        with pytest.raises(ValueError, match="coordinate lengths do not match the group"):
            op(M, ca.DivisorClass(M, free, torsion))

    @pytest.mark.parametrize("mine,theirs", [
        (ca.PicardModel(1, ()), ca.PicardModel(2, (3,))),
        (ca.PicardModel(2, (3,)), ca.PicardModel(1, ())),
    ], ids=["more-coordinates", "fewer-coordinates"])
    def test_assignment_refuses_other_groups(self, mine, theirs):
        # The table keeps a class's coordinates only: a class of another
        # group would be cut to this group's columns, or pad them.
        other = theirs.element((1,) * theirs.free_rank, (1,) * len(theirs.torsion))
        with pytest.raises(ValueError, match="class of 'D' lives in a different group"):
            ca.branch_assignment(2, mine, mine.zero(), {1: [("D", other)]})

    @pytest.mark.parametrize("free,torsion", [((1, 5), (1,)), ((1,), ()), ((1,), (1, 1))])
    def test_element_refuses_wrong_lengths(self, free, torsion):
        with pytest.raises(ValueError, match="coordinate lengths do not match the group"):
            ca.PicardModel(1, (2,)).element(free, torsion)


# (d, free rank, torsion, L, divisors) as plain coordinate lists, free part
# first: classes sit at multiples of an inertia gcd m, and the class closing
# the last divisor leaves the witness L' equal to a drawn defect, so d*L =
# sum_i i*[D_i] fails in the free part, fails only in torsion, or holds.
@st.composite
def plain_cover_data(draw, max_order=24):
    d = draw(st.integers(min_value=2, max_value=max_order))
    m = draw(st.sampled_from([x for x in range(1, d + 1) if d % x == 0]))
    rank = draw(st.integers(min_value=0, max_value=3))
    torsion = draw(st.sampled_from([(), (2,), (2, 4), (3, 6, 12)]))
    coords = st.lists(st.integers(min_value=-30, max_value=30),
                      min_size=rank + len(torsion), max_size=rank + len(torsion))
    L = draw(coords)
    divisors = {}
    if m < d:
        for i in draw(st.lists(st.sampled_from(range(m, d, m)), max_size=6)):
            divisors.setdefault(i, []).append(draw(coords))
        terms = [(d // m, L)] + [(-(i // m), x) for i, xs in divisors.items() for x in xs]
        defect = draw(coords)
        if draw(st.booleans()):
            defect[:rank] = [0] * rank
        divisors.setdefault(m, []).append(
            [sum(n * x[k] for n, x in terms) - defect[k] for k in range(len(L))])
    return d, rank, torsion, L, divisors


class TestPlainListOracle:
    @settings(max_examples=300, deadline=None)
    @given(plain_cover_data())
    def test_validity_and_irreducibility(self, data):
        d, rank, torsion, L, divisors = data
        M = ca.PicardModel(rank, torsion)

        def cls(x):
            return M.element(x[:rank], x[rank:])

        items = {i: [("s%d_%d" % (i, j), cls(x)) for j, x in enumerate(xs)]
                 for i, xs in divisors.items()}
        if not oracles.reference_cover_valid(d, torsion, L, divisors):
            with pytest.raises(ValueError, match=r"d\*L differs"):
                ca.branch_assignment(d, M, cls(L), items)
            return
        res = ca.irreducibility(ca.branch_assignment(d, M, cls(L), items))
        assert (res.irreducible, res.inertia_gcd, res.torsion_order) == \
            oracles.reference_irreducibility(d, torsion, L, divisors)

    @settings(max_examples=150, deadline=None)
    @given(plain_cover_data(max_order=12))
    def test_document_matches_references(self, data):
        # Read through `cover check`'s reader, whose table keeps a
        # document's torsion coordinates unreduced.
        d, rank, torsion, L, divisors = data
        doc = {"order": d, "picard": {"free_rank": rank, "torsion": list(torsion)},
               "L": {"free": L[:rank], "torsion": L[rank:]},
               "divisors": {str(i): [{"symbol": "s%d_%d" % (i, j),
                                      "class": {"free": x[:rank], "torsion": x[rank:]}}
                                     for j, x in enumerate(xs)] for i, xs in divisors.items()}}
        if not oracles.reference_cover_valid(d, torsion, L, divisors):
            with pytest.raises(ValueError, match=r"d\*L differs"):
                cli._assignment_from_doc(doc)
            return
        ba = cli._assignment_from_doc(doc)
        for i in range(1, d):
            assert ba.branch_class(i) == oracles.reference_branch_class(ba, i)
        for chi in range(d):
            assert ca.character_class(ba, chi) == oracles.reference_character_class(ba, chi)
        res = ca.irreducibility(ba)
        assert (res.irreducible, res.inertia_gcd, res.torsion_order) == \
            oracles.reference_irreducibility(d, torsion, L, divisors)


class TestIrreducibility:
    def test_unit_support(self):
        M = model_z()
        c = M.element((4,), ())
        L = M.element((1,), ())
        ba = ca.branch_assignment(4, M, L, {1: [("D", c)]})
        assert ca.irreducibility(ba).irreducible
        assert ca.irreducibility(ba).inertia_gcd == 1

    def test_free_group_reducible(self):
        M = model_z()
        c = M.element((2,), ())
        L = M.element((1,), ())
        ba = ca.branch_assignment(4, M, L, {2: [("D", c)]})
        res = ca.irreducibility(ba)
        assert not res.irreducible
        assert res.inertia_gcd == 2 and res.torsion_order == 1

    def test_torsion_makes_irreducible(self):
        M = ca.PicardModel(1, (2,))
        c = M.element((2,), (1,))
        L = M.element((1,), (0,))
        ba = ca.branch_assignment(4, M, L, {2: [("D", c)]})
        res = ca.irreducibility(ba)
        assert res.irreducible
        assert res.inertia_gcd == 2 and res.torsion_order == 2

    def test_etale(self):
        M = ca.PicardModel(0, (4,))
        L = M.element((), (1,))
        ba = ca.branch_assignment(4, M, L, {})
        assert ca.irreducibility(ba).irreducible
        L2 = M.element((), (2,))
        ba2 = ca.branch_assignment(4, M, L2, {})
        assert not ca.irreducibility(ba2).irreducible


class TestComponentCount:
    def test_examples(self):
        assert ca.component_count(6, [2, 3], 6) == 1
        # brute-forced: the image is {0, 2} inside Z/4, giving 2 components
        assert ca.component_count(4, [2], 2) == 2
        assert ca.component_count(5, [], 1) == 5

    def test_brute_force_subgroup(self):
        for d in range(2, 13):
            for e in [x for x in range(1, d + 1) if d % x == 0]:
                for images in itertools.chain(
                    [()], itertools.combinations(range(1, d), 1),
                    itertools.combinations(range(1, d), 2),
                ):
                    gens = set(images) | {d // e}
                    H = {0}
                    frontier = [0]
                    while frontier:
                        x = frontier.pop()
                        for gn in gens:
                            y = (x + gn) % d
                            if y not in H:
                                H.add(y)
                                frontier.append(y)
                    assert ca.component_count(d, images, e) == d // len(H)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            ca.component_count(6, [1], 4)


def enumerate_small_assignments(d, torsion):
    """Exhaustive valid assignments over Z/t with one divisor per residue
    of a chosen support."""
    M = ca.PicardModel(0, (torsion,))
    residues = range(1, d)
    for size in (0, 1, 2):
        for support in itertools.combinations(residues, size):
            for values in itertools.product(range(torsion), repeat=size):
                classes = {
                    i: M.element((), (v,)) for i, v in zip(support, values)
                }
                for lval in range(torsion):
                    L = M.element((), (lval,))
                    total = M.zero()
                    for i, c in classes.items():
                        total = total + i * c
                    if d * L != total:
                        continue
                    yield ca.branch_assignment(
                        d, M, L, {i: [("s%d" % i, c)] for i, c in classes.items()}
                    )


class TestOracleAgreement:
    @pytest.mark.parametrize("d", range(2, 13))
    def test_exhaustive_small(self, d):
        for torsion in (2, 3, 4, 5, 6):
            for ba in enumerate_small_assignments(d, torsion):
                res = ca.irreducibility(ba)
                etale_order = (d // res.inertia_gcd) * res.torsion_order
                count = ca.component_count(d, ba.support(), etale_order)
                assert res.irreducible == (count == 1)

    def test_randomised(self):
        rng = random.Random(11)
        for _ in range(300):
            ba = random_assignment(rng)
            res = ca.irreducibility(ba)
            etale_order = (ba.d // res.inertia_gcd) * res.torsion_order
            count = ca.component_count(ba.d, ba.support(), etale_order)
            assert res.irreducible == (count == 1)
