import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd
from operator import not_

import pytest
from hypothesis import given, strategies as st

import oracles
from cycliccovers import branching as br
from cycliccovers import sing_smooth as ss
from cycliccovers import sing_stable as sst
from cycliccovers import stable_graphs as sg
from cycliccovers.branching import BranchingSequence
from cycliccovers.combinat import (branching_term, genus_relation, prime_shapes, primes_upto,
                                   primitive_root, unit_action, units_mod)
from cycliccovers.sing_smooth import CaseTag


ORDER_AND_COUNTS = st.integers(min_value=2, max_value=12).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(st.integers(min_value=0, max_value=4), min_size=d - 1, max_size=d - 1),
    )
)


def seq(d, *counts):
    return BranchingSequence(d, tuple(counts))


def loci(g, d):
    """The loci that `locus_rows` gives for the admissible rows of (g, d)."""
    return br.locus_rows(g, d, br.enumerate_admissible(g, d))


class TestBranchingSequence:
    @pytest.mark.parametrize("d, counts, message", [
        (1, (), "cover order must be at least 2"),
        (-3, (), "cover order must be at least 2"),
        (3, (1,), "expected 2 counts for order 3, got 1"),
        (3, (1, 0, 2), "expected 2 counts for order 3, got 3"),
        (4, (1, -1, 0), "branch counts must be non-negative"),
    ])
    def test_refusals(self, d, counts, message):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            BranchingSequence(d, counts)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            BranchingSequence(d=d, counts=counts)

    def test_fields(self):
        s = BranchingSequence(counts=(2, 0), d=3)
        assert (s.d, s.counts) == (3, (2, 0))
        assert s == seq(3, 2, 0) and hash(s) == hash(seq(3, 2, 0))
        assert sorted([seq(3, 1, 1), seq(2, 4), seq(3, 0, 3)]) == [
            seq(2, 4), seq(3, 0, 3), seq(3, 1, 1)]
        with pytest.raises(AttributeError):
            s.d = 2


class TestMonodromySum:
    def test_divisible(self):
        assert br.monodromy_sum_vanishes(seq(2, 8))
        assert not br.monodromy_sum_vanishes(seq(3, 1, 0))
        assert br.monodromy_sum_vanishes(seq(5, 1, 2, 0, 0))

    def test_exhaustive_small(self):
        # scan of total-3 sequences mod 5
        hits = [
            counts
            for counts in oracles.weak_compositions(3, 4)
            if sum(i * c for i, c in enumerate(counts, 1)) % 5 == 0
        ]
        assert (1, 2, 0, 0) in hits
        for counts in hits:
            assert br.monodromy_sum_vanishes(seq(5, *counts))


class TestQuotientGenus:
    def test_paper_values(self):
        assert br.quotient_genus(3, seq(2, 8)) == 0
        assert br.quotient_genus(2, seq(2, 2)) == 1
        assert br.quotient_genus(4, seq(3, 0, 0)) == 2

    def test_non_integral(self):
        assert br.quotient_genus(2, seq(3, 3, 0)) is None

    def test_exact_rational(self):
        # value matches a from-scratch rational evaluation
        s = seq(6, 1, 0, 2, 0, 3)
        h = Fraction(1) + Fraction(11, 6)
        for i, c in enumerate(s.counts, 1):
            h -= Fraction(c, 2) * (1 - Fraction(gcd(i, 6), 6))
        got = br.quotient_genus(12, s)
        if h.denominator == 1 and h >= 0:
            assert got == h
        else:
            assert got is None


class TestAdmissibility:
    def test_examples(self):
        assert br.admissible_quotient_genus(3, seq(2, 4)) == 1
        assert br.admissible_quotient_genus(2, seq(5, 1, 2, 0, 0)) == 0

    def test_no_genus3_order5(self):
        for k in range(0, 30):
            for counts in oracles.weak_compositions(k, 4):
                assert not br.is_admissible(3, BranchingSequence(5, counts))

    def test_etale_condition_composite(self):
        # support {2} mod 4 generates an index-2 subgroup: rational
        # quotients admit no order-2 class, higher genus quotients do
        s = seq(4, 0, 2, 0)
        assert br.quotient_genus(3, s) == 1
        assert br.is_admissible(3, s)
        s2 = seq(4, 0, 6, 0)
        assert br.quotient_genus(3, s2) == 0
        assert not br.is_admissible(3, s2)

    def test_etale_gcd_includes_order(self):
        # gcd is taken as a subgroup generator: support {2} mod 3 is everything
        assert br.etale_part_order(seq(3, 0, 6)) == 1
        assert br.etale_part_order(seq(4, 0, 2, 0)) == 2
        assert br.etale_part_order(seq(4, 0, 0, 0)) == 4


class TestCanonicalDatum:
    def test_examples(self):
        assert br.canonical_datum(seq(3, 0, 3)).counts == (3, 0)
        assert br.canonical_datum(seq(5, 0, 1, 0, 2)).counts == (1, 2, 0, 0)
        assert br.canonical_datum(seq(2, 6)).counts == (6,)
        assert br.canonical_datum(seq(3, 4, 1)).counts == (1, 4)

    @given(ORDER_AND_COUNTS)
    def test_idempotent_and_orbit_constant(self, dc):
        d, counts = dc
        s = BranchingSequence(d, tuple(counts))
        can = br.canonical_datum(s)
        assert br.canonical_datum(can) == can
        for r in range(1, d):
            if gcd(r, d) == 1:
                image = BranchingSequence(d, unit_action(d, r)(s.counts))
                assert br.canonical_datum(image) == can

    @given(ORDER_AND_COUNTS)
    def test_unit_moves_zero_pattern_with_counts(self, dc):
        # enumerate_admissible compares an image's key as this pair.
        d, counts = dc
        counts = tuple(counts)
        pattern = tuple(map(not_, counts))
        for r in units_mod(d):
            act = unit_action(d, r)
            assert (act(pattern), act(counts)) == br._canonical_key(act(counts))

    def test_canonical_in_orbit(self):
        s = seq(7, 0, 1, 1, 0, 1, 0)
        assert br.canonical_datum(s).counts in oracles.orbit_of(s.counts, s.d)


class TestEnumeration:
    def test_frozen_values_genus2(self):
        # frozen from the brute-force oracle
        assert list(br.enumerate_admissible(2, 2)) == [
            ((2,), 1),
            ((6,), 0),
        ]
        assert list(br.enumerate_admissible(2, 3)) == [
            ((2, 2), 0)
        ]
        assert list(br.enumerate_admissible(2, 5)) == [
            ((1, 2, 0, 0), 0)
        ]
        for p in (7, 11, 13, 17, 19, 23, 29, 31):
            assert br.enumerate_admissible(2, p) == ()

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_prime_oracle(self, g, p):
        lib = {
            oracles.orbit_of(x, p): h for x, h in br.enumerate_admissible(g, p)
        }
        assert lib == oracles.brute_admissible_prime(g, p)

    @pytest.mark.parametrize("g,d", [(2, 4), (3, 4), (2, 6), (3, 6), (4, 4)])
    def test_matches_general_oracle(self, g, d):
        lib = {
            oracles.orbit_of(x, d): h for x, h in br.enumerate_admissible(g, d)
        }
        assert lib == oracles.brute_admissible_general(g, d)

    @pytest.mark.parametrize("d", range(2, 31))
    def test_matches_reference_path(self, d):
        for g in range(2, 11):
            assert br.enumerate_admissible(g, d) == oracles.reference_admissible(g, d)

    @pytest.mark.parametrize("g,d", [(27, 19), (27, 53), (28, 16), (30, 42), (24, 60)])
    def test_matches_reference_path_large(self, g, d):
        assert br.enumerate_admissible(g, d) == oracles.reference_admissible(g, d)

    @pytest.mark.parametrize("d", range(2, 31))
    def test_matches_seen_set_path(self, d):
        for g in range(2, 11):
            assert br.enumerate_admissible(g, d) == oracles.seen_set_admissible(g, d)

    @pytest.mark.parametrize(
        "g,d", [(27, 19), (27, 53), (28, 16), (30, 42), (24, 60), (40, 12), (44, 15)])
    def test_matches_seen_set_path_large(self, g, d):
        assert br.enumerate_admissible(g, d) == oracles.seen_set_admissible(g, d)

    @pytest.mark.parametrize("g", range(2, 7))
    def test_wiman_bound(self, g):
        # The largest order with data is 4g + 2; above it the search is skipped.
        assert len(oracles.seen_set_admissible(g, 4 * g + 2)) == 1
        for d in range(4 * g + 2, 4 * g + 13):
            assert br.enumerate_admissible(g, d) == oracles.seen_set_admissible(g, d)

    def test_hurwitz_roundtrip(self):
        for g in range(2, 7):
            for d in range(2, 8):
                for counts, h in br.enumerate_admissible(g, d):
                    assert genus_relation(g, d)[h] == branching_term(counts)

    def test_shapes_match_enumeration(self):
        for g in range(2, 9):
            for p in (2, 3, 5, 7, 11, 13, 17):
                shapes = sorted(prime_shapes(g, p))
                full = sorted(
                    {(h, sum(counts)) for counts, h in br.enumerate_admissible(g, p)}
                )
                assert shapes == full, (g, p)


class TestReachTable:
    @staticmethod
    def sums(d, residues, weights, t):
        # Every residue sum mod d of a count vector on the residues that
        # weighs t, by brute force over the counts.
        if not residues:
            return {0} if t == 0 else set()
        a, w = residues[0], weights[0]
        return {(c * a + s) % d for c in range(t // w + 1)
                for s in TestReachTable.sums(d, residues[1:], weights[1:], t - c * w)}

    @pytest.mark.parametrize("d", range(2, 14))
    def test_matches_brute_force(self, d):
        rng = random.Random(d)
        for _ in range(6):
            residues = [rng.randrange(1, d) for _ in range(rng.randrange(5))]
            weights = [rng.randrange(1, 4) for _ in residues]
            reach = br._reach(d, residues, weights, 8)
            assert len(reach) == len(residues) + 1
            for j, row in enumerate(reach):
                assert len(row) == 9
                for t, bits in enumerate(row):
                    assert {s for s in range(d) if bits >> s & 1} == \
                        self.sums(d, residues[j:], weights[j:], t), (residues, weights, j, t)


class TestNecklacePath:
    @pytest.mark.parametrize("g", range(2, 41))
    def test_matches_residue_path(self, g):
        # At a prime order enumerate_admissible takes the necklace path; the
        # residue path is the search it takes at every other order.
        for p in primes_upto(2 * g + 1):
            assert br.enumerate_admissible(g, p) == tuple(
                sorted(br._residue_rows(g, p), key=lambda row: br._canonical_key(row[0])))

    @pytest.mark.parametrize("g", range(2, 41))
    def test_unsorted_rows_match_residue_path(self, g):
        # The callers sort the unsorted rows each in its own order, so the two
        # searches must give the same rows before any sort.
        for p in primes_upto(2 * g + 1):
            rows = br._necklace_rows(g, p)
            assert Counter(rows) == Counter(br._residue_rows(g, p)), (g, p)
            assert Counter(br._admissible_rows(g, p)) == Counter(rows), (g, p)

    def test_primitive_root(self):
        for p in primes_upto(2000):
            r = primitive_root(p)
            assert len({pow(r, j, p) for j in range(p - 1)}) == p - 1, p


class TestRowChecks:
    # Each search's rows are checked again after it, so one bad row from
    # either search must trip its check.  genus_relation(4, 3) is (12, 6, 0)
    # and genus_relation(5, 4) is (16, 8, 0): three entries, the last 0, so
    # h = -1 on an unramified row would pass a lookup that wraps around, and
    # h = 3 is past the end.
    @pytest.mark.parametrize("search, g, d, row, message", [
        ("_necklace_rows", 4, 3, ((13, 1), 0), "branch count bound violated"),
        ("_necklace_rows", 4, 3, ((2, 1), 1), "inconsistent quotient genus"),  # residue sum 4
        ("_necklace_rows", 4, 3, ((3, 0), 0), "inconsistent quotient genus"),  # B = 6 at h = 1
        ("_necklace_rows", 4, 3, ((3, 0), 3), "inconsistent quotient genus"),
        ("_necklace_rows", 4, 3, ((0, 0), -1), "inconsistent quotient genus"),
        ("_residue_rows", 5, 4, ((20, 0, 0), 0), "branch count bound violated"),
        ("_residue_rows", 5, 4, ((1, 1, 1), 1), "inconsistent quotient genus"),  # residue sum 6
        ("_residue_rows", 5, 4, ((0, 4, 0), 0), "inconsistent quotient genus"),  # B = 8 at h = 1
        ("_residue_rows", 5, 4, ((0, 0, 0), 3), "inconsistent quotient genus"),
        ("_residue_rows", 5, 4, ((0, 0, 0), -1), "inconsistent quotient genus"),
    ])
    def test_bad_row_raises(self, monkeypatch, search, g, d, row, message):
        assert list(genus_relation(g, d)) == ([12, 6, 0] if d == 3 else [16, 8, 0])
        monkeypatch.setattr(br, search, lambda g, d: [row])
        for enumerate_rows in (br._admissible_rows, br.enumerate_admissible):
            with pytest.raises(AssertionError, match="^%s$" % message):
                enumerate_rows(g, d)
        # The same search with its own rows passes every check.
        monkeypatch.undo()
        assert br._admissible_rows(g, d)


class TestBranchCountBound:
    # TestRowChecks' bound rows lie well past the bound.  Here k points at
    # residue 1 are one past it and then at it, where the bound passes and
    # the branching term B = k(d - 1) does not.
    @pytest.mark.parametrize("search, g, d", [("_necklace_rows", 4, 3), ("_residue_rows", 5, 4)])
    def test_bound_is_tight(self, monkeypatch, search, g, d):
        top = genus_relation(g, d)[0]
        for k, message in ((top + 1, "branch count bound violated"),
                           (top, "inconsistent quotient genus")):
            monkeypatch.setattr(br, search, lambda g, d: [((k,) + (0,) * (d - 2), 0)])
            with pytest.raises(AssertionError, match="^%s$" % message):
                br._admissible_rows(g, d)


class TestPrimeOrbitCount:
    @pytest.mark.parametrize("g", [*range(2, 31), 40])
    def test_count_matches_enumeration(self, g):
        for p in primes_upto(2 * g + 1):
            loci = br.enumerate_admissible(g, p)
            assert len(loci) == oracles.prime_orbit_count(g, p), (g, p)
            shapes = Counter((h, sum(counts)) for counts, h in loci)
            counted = {shape: n for shape, n in oracles.prime_shape_counts(g, p).items() if n}
            assert shapes == counted, (g, p)

    def test_nonzero_shapes_are_admissible_shapes(self):
        for g in range(2, 201):
            for p in primes_upto(2 * g + 1):
                counted = {shape for shape, n in oracles.prime_shape_counts(g, p).items() if n}
                assert counted == set(prime_shapes(g, p)), (g, p)

    def test_known_values(self):
        # genus 2: the orders 2, 3 and 5 of test_frozen_values_genus2
        assert [oracles.prime_orbit_count(2, p) for p in (2, 3, 5, 7)] == [2, 1, 1, 0]
        assert sum(oracles.prime_orbit_count(1000, p) for p in primes_upto(2001)) == (
            50229560218662665711563)


class TestLocus:
    def test_examples(self):
        l = br.smooth_locus(3, seq(2, 8))
        assert (l.dim, l.codim) == (5, 1)
        l = br.smooth_locus(4, seq(3, 0, 0))
        assert (l.dim, l.codim) == (3, 6)
        l = br.smooth_locus(3, seq(2, 4))
        assert (l.dim, l.codim) == (4, 2)

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            br.smooth_locus(3, seq(3, 1, 0))

    def test_rows_match_smooth_locus(self):
        for g in (2, 3, 4, 5):
            for d in range(2, 13):
                for row in loci(g, d):
                    locus = br.smooth_locus(g, BranchingSequence(d, row.counts))
                    assert (locus.counts, locus.h, locus.k, locus.dim, locus.codim,
                            locus.label()) == (row.counts, row.h, row.k, row.dim, row.codim,
                                               row.label())
                    assert locus == row

    def test_codim_cross_check_once_per_shape(self, monkeypatch):
        calls = []
        rows = br.enumerate_admissible(20, 5)
        monkeypatch.setattr(br, "is_prime", lambda n: calls.append(n) or True)
        list(br.locus_rows(20, 5, rows))
        assert len(calls) == len({(h, sum(c)) for c, h in rows}) < len(rows)
        # A row off the genus relation fails the prime closed form.
        with pytest.raises(AssertionError, match="codimension cross-check failed"):
            list(br.locus_rows(3, 3, [((1, 1), 5)]))

    def test_dim_plus_codim(self):
        for g in (2, 3, 4, 5):
            for d in (2, 3, 5, 7):
                for locus in loci(g, d):
                    assert locus.dim + locus.codim == 3 * g - 3

    def test_prime_codim_closed_form(self):
        for g in (2, 3, 4, 5, 6):
            for p in (2, 3, 5, 7, 11):
                for locus in loci(g, p):
                    c = 3 * (p - 1) * (locus.h - 1) + locus.k * (
                        Fraction(3 * (p - 1), 2) - 1
                    )
                    assert c == locus.codim

    def test_prime_hurwitz_specialisation(self):
        for g in (2, 3, 4, 5):
            for p in (2, 3, 5, 7):
                for locus in loci(g, p):
                    lhs = Fraction(2 * (g - 1))
                    rhs = p * (
                        2 * (locus.h - 1) + locus.k * (1 - Fraction(1, p))
                    )
                    assert lhs == rhs


class TestCodimExceptions:
    def test_scan_to_genus_30(self):
        exceptions = []
        for g in range(2, 31):
            for p in oracles.primes_upto(2 * g + 1):
                for h, k in prime_shapes(g, p):
                    codim = 3 * (g - 1) - (3 * (h - 1) + k)
                    if codim < 2:
                        exceptions.append((g, p, k))
        assert sorted(exceptions) == [(2, 2, 2), (2, 2, 6), (3, 2, 8)]


class TestMaximalCyclicException:
    # (shape, the genus, order and counts of a locus of that shape, its
    # case tag, the flags of the lone I1 vertex of that locus)
    CASES = [
        ((2, 0), (4, 3, (0, 0)), CaseTag.GENUS2_QUOTIENT, (sst.REVIEW_FLAG,)),
        ((1, 2), (3, 3, (1, 1)), CaseTag.ELLIPTIC_QUOTIENT, (sst.REVIEW_FLAG,)),
        ((0, 3), (3, 7, (1, 0, 2, 0, 0, 0)), CaseTag.RATIONAL_INVOLUTION, (sst.RIGID_FLAG,)),
        ((0, 4), (4, 5, (2, 0, 0, 2)), CaseTag.RATIONAL_FOUR_POINTS, (sst.REVIEW_FLAG,)),
        ((3, 5), (12, 3, (4, 1)), None, ()),
        ((0, 5), (3, 3, (4, 1)), None, ()),
    ]

    def test_cases(self):
        # The special shapes, each read by case_pattern and by the boundary
        # verdict, and two shapes that are not special.
        for shape, (g, d, counts), tag, flags in self.CASES:
            locus = br.smooth_locus(g, BranchingSequence(d, counts))
            assert (locus.h, locus.k) == shape
            assert (shape in br.SPECIAL_SHAPES) == bool(flags)
            assert ss.case_pattern(locus)[0] is tag
            enc = sg.canonical_encoding(sg.make_graph(d, [sg.Vertex(0, sg.I1, g, counts)]))
            got, _, _, got_flags = sst._verdict(enc)
            assert (got, got_flags) == (shape, flags)
