import os
import subprocess
import sys
from itertools import islice

import pytest

import oracles
from cycliccovers import branching as br
from cycliccovers import sing_smooth as ss
from cycliccovers.branching import BranchingSequence
from cycliccovers.combinat import prime_shapes, primes_upto
from cycliccovers.sing_smooth import CaseTag, NormalizerShape, Verdict


def locus(g, d, *counts):
    return br.smooth_locus(g, BranchingSequence(d, tuple(counts)))


class TestCasePattern:
    def test_genus2_quotient(self):
        tag, shape = ss.case_pattern(locus(4, 3, 0, 0))
        assert tag is CaseTag.GENUS2_QUOTIENT
        assert shape is NormalizerShape.DIHEDRAL
        tag, shape = ss.case_pattern(locus(3, 2, 0))
        assert tag is CaseTag.GENUS2_QUOTIENT
        assert shape is NormalizerShape.KLEIN_FOUR

    def test_elliptic_quotient(self):
        tag, shape = ss.case_pattern(locus(3, 3, 1, 1))
        assert tag is CaseTag.ELLIPTIC_QUOTIENT
        assert shape is NormalizerShape.DIHEDRAL

    def test_rational_four_points(self):
        tag, shape = ss.case_pattern(locus(4, 5, 2, 0, 0, 2))
        assert tag is CaseTag.RATIONAL_FOUR_POINTS
        assert shape is NormalizerShape.DIHEDRAL_X2
        tag, shape = ss.case_pattern(locus(4, 5, 1, 1, 1, 1))
        assert tag is CaseTag.RATIONAL_FOUR_POINTS
        assert shape is NormalizerShape.DIHEDRAL

    def test_order_three_pattern(self):
        # multiset {1,2,4} is the coset of the cube roots of unity mod 7
        tag, shape = ss.case_pattern(locus(3, 7, 1, 1, 0, 1, 0, 0))
        assert tag is CaseTag.RATIONAL_ORDER_THREE
        assert shape is NormalizerShape.CYCLIC_3_EXTENSION

    def test_involution_pattern(self):
        tag, shape = ss.case_pattern(locus(3, 7, 1, 0, 2, 0, 0, 0))
        assert tag is CaseTag.RATIONAL_INVOLUTION
        assert shape is NormalizerShape.CYCLIC_2P

    def test_no_pattern(self):
        tag, shape = ss.case_pattern(locus(3, 3, 1, 4))
        assert tag is None and shape is None

    def test_rejects_composite_and_low_genus(self):
        with pytest.raises(ValueError):
            ss.case_pattern(
                br.SmoothLocus(g=5, d=4, counts=(2, 1, 0), h=0, k=3, dim=0, codim=12)
            )
        with pytest.raises(ValueError):
            ss.case_pattern(locus(2, 2, 6))


class TestContainer:
    def test_genus2_quotient_p5(self):
        cont = ss.container_info(locus(6, 5, 0, 0, 0, 0), CaseTag.GENUS2_QUOTIENT)
        assert cont.exact and cont.locus.dim == 3 * (5 - 3) // 2 + 6 == 9
        assert (cont.g, cont.q, cont.locus.counts) == (6, 2, (6,))
        assert cont.locus.h == 1 + (5 - 3) // 2

    def test_elliptic_quotient_p3(self):
        cont = ss.container_info(locus(3, 3, 1, 1), CaseTag.ELLIPTIC_QUOTIENT)
        assert cont.exact and cont.locus.dim == 4
        assert (cont.g, cont.q, cont.locus.counts) == (3, 2, (4,))

    def test_involution_container_p7(self):
        cont = ss.container_info(
            locus(3, 7, 1, 0, 2, 0, 0, 0), CaseTag.RATIONAL_INVOLUTION
        )
        assert cont.exact and cont.locus.counts == (8,) and cont.locus.h == 0
        assert cont.locus.dim == 5

    def test_case1_containers_quotient_genus(self):
        for p in (3, 5, 7, 11, 13):
            cont = ss.container_info(
                locus(p + 1, p, *([0] * (p - 1))), CaseTag.GENUS2_QUOTIENT
            )
            assert cont.locus.h == 1 + (p - 3) // 2


class TestClassify:
    def test_excluded_hyperelliptic(self):
        rec = ss.classify(locus(3, 2, 8))
        assert rec.verdict is Verdict.EXCLUDED_PSEUDOREFLECTION

    def test_redundant_with_witness(self):
        rec = ss.classify(locus(3, 3, 1, 1))
        assert rec.verdict is Verdict.REDUNDANT
        assert rec.case_tag is CaseTag.ELLIPTIC_QUOTIENT
        assert rec.container.label() == "M_{3;2,[(4)]}"
        assert rec.container.locus.dim == 4 > rec.locus.dim == 2

    def test_component(self):
        assert ss.classify(locus(3, 2, 4)).verdict is Verdict.COMPONENT

    def test_unit_invariance(self):
        a = ss.classify(locus(3, 7, 1, 0, 2, 0, 0, 0))
        b = ss.classify(locus(3, 7, 0, 1, 0, 0, 0, 2))
        assert a == b

    def test_strictness_asserted(self):
        rep = ss.decompose_sing(5)
        for rec in rep.redundant():
            assert rec.container.dim_lower_bound > rec.locus.dim

    def test_every_matched_shape_is_redundant(self):
        # The closed forms of classify's docstring: every container is
        # strictly larger, so no verdict beyond these three is needed.
        verdicts = (Verdict.COMPONENT, Verdict.REDUNDANT, Verdict.EXCLUDED_PSEUDOREFLECTION)
        for g in range(3, 41):
            for rec in ss.decompose_sing(g).records:
                assert rec.verdict in verdicts
                if rec.verdict is Verdict.REDUNDANT:
                    assert rec.container.dim_lower_bound > rec.locus.dim
        # The two certified-bound containers, beyond the genera run above.
        for g in range(3, 501):
            assert min(3 * (h - 1) + k for h, k in prime_shapes(g, 2)) > 1
            assert {3 * (h - 1) + k for h, k in prime_shapes(g, 3)} == {g - 1}

    def test_certified_bounds_closed_forms(self):
        # The two inexact containers take the least shape dimension of their
        # order in closed form; the scan over the shapes must agree.  Their
        # bound reads only the genus of the classified locus.
        for g in range(3, 501):
            l = locus(g, 2, 2 * g + 2)
            four = ss.container_info(l, CaseTag.RATIONAL_FOUR_POINTS)
            three = ss.container_info(l, CaseTag.RATIONAL_ORDER_THREE)
            assert (four.q, four.g, four.exact) == (2, g, False)
            assert (three.q, three.g, three.exact) == (3, g, False)
            assert four.dim_lower_bound == 2 * g - 1 - (g + 1) // 2 == min(
                3 * (h - 1) + k for h, k in prime_shapes(g, 2))
            assert three.dim_lower_bound == g - 1 == min(
                3 * (h - 1) + k for h, k in prime_shapes(g, 3))

    def test_strictness_checked_under_optimisation(self):
        # python -O strips assert statements; the check of strict growth must
        # still refuse a redundant record whose container is no larger.
        patched = (
            "from cycliccovers import sing_smooth as ss\n"
            "ss.classify = lambda locus: ss.ClassificationRecord(\n"
            "    locus=locus, verdict=ss.Verdict.REDUNDANT,\n"
            "    container=ss.ContainerInfo(q=2, g=locus.g, dim_lower_bound=0))\n"
            "ss.decompose_sing(3)\n"
        )
        src = os.path.dirname(os.path.dirname(ss.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", patched],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert "AssertionError: redundant locus M_{3;2,[(0)]}" in proc.stderr


class TestStream:
    def test_shape_shortcut_matches_classify(self, monkeypatch):
        # The stream classifies only special-shape and excluded loci; every
        # locus it streams must get the verdict, container and notes of the
        # slow path, which builds and classifies a locus record for each.
        classify, classified = ss.classify, set()
        monkeypatch.setattr(ss, "classify", lambda l: classified.add(l) or classify(l))
        for g in range(3, 31):
            for rec in ss.stream_sing(g).records:
                l = rec.locus
                slow = classify(br.smooth_locus(g, BranchingSequence(l.d, l.counts)))
                assert (slow.locus.counts, slow.locus.h, slow.locus.k, slow.locus.dim,
                        slow.locus.codim, slow.locus.label()) == (
                            l.counts, l.h, l.k, l.dim, l.codim, l.label())
                assert (rec.verdict, rec.container, rec.notes) == (
                    slow.verdict, slow.container, slow.notes)
                assert rec == slow
                if (l.h, l.k) not in br.SPECIAL_SHAPES and (g, l.d, l.h, l.k) != (3, 2, 0, 8):
                    assert l not in classified and slow.verdict is Verdict.COMPONENT
        assert len(classified) > 200
        assert all((l.h, l.k) in br.SPECIAL_SHAPES or (l.g, l.d, l.h, l.k) == (3, 2, 0, 8)
                   for l in classified)

    def test_one_locus_record(self):
        # A locus has one form after enumeration: `locus_rows` gives locus
        # records, which hold no label text, and the stream gives one
        # classification record per locus.
        for g, d in ((3, 2), (12, 6), (20, 5), (30, 61)):
            loci = list(br.locus_rows(g, d, br.enumerate_admissible(g, d)))
            assert loci and all(type(l) is br.SmoothLocus for l in loci)
            assert not any(isinstance(field, str) for l in loci for field in l)
        for g in range(3, 31):
            records = list(ss.stream_sing(g).records)
            assert records and all(type(r) is ss.ClassificationRecord for r in records)
            assert all(type(r.locus) is br.SmoothLocus for r in records)

    def test_rows_sorted_per_prime(self):
        rows = [(r.locus.d, r.locus.counts) for r in ss.stream_sing(12).records]
        assert rows == sorted(rows) and len(set(rows)) == len(rows)
        assert [p for p, _ in rows] == sorted(p for p, _ in rows)

    def test_prime_blocks_in_counts_order(self):
        # The stream sorts each prime's unsorted rows by counts itself.  Each
        # prime's block must be the classified loci of enumerate_admissible's
        # rows in counts order, and the blocks decompose_sing's records.
        for g in range(3, 41):
            streamed, blocks = iter(ss.stream_sing(g).records), []
            for p in primes_upto(2 * g + 1):
                rows = sorted(br.enumerate_admissible(g, p))
                block = list(islice(streamed, len(rows)))
                assert [(r.locus.d, r.locus.counts, r.locus.h) for r in block] == [
                    (p, *row) for row in rows], (g, p)
                assert block == [ss.classify(l) for l in br.locus_rows(g, p, rows)], (g, p)
                blocks += block
            assert next(streamed, None) is None
            assert tuple(blocks) == ss.decompose_sing(g).records

    def test_collect_is_decompose_sing(self):
        rep = ss.stream_sing(5)
        assert ss.collect(rep) == ss.decompose_sing(5)


class TestDecompose:
    def test_genus3(self):
        rep = ss.decompose_sing(3)
        comps = sorted(r.locus.label() for r in rep.components())
        assert comps == ["M_{3;2,[(4)]}", "M_{3;3,[(1,4)]}"]
        dims = {r.locus.label(): r.locus.dim for r in rep.records}
        assert dims["M_{3;2,[(4)]}"] == 4 and dims["M_{3;3,[(1,4)]}"] == 2
        red = {r.locus.label(): r.case_tag for r in rep.redundant()}
        assert red["M_{3;2,[(0)]}"] is CaseTag.GENUS2_QUOTIENT
        assert red["M_{3;3,[(1,1)]}"] is CaseTag.ELLIPTIC_QUOTIENT
        assert red["M_{3;7,[(1,0,2,0,0,0)]}"] is CaseTag.RATIONAL_INVOLUTION
        assert red["M_{3;7,[(1,1,0,1,0,0)]}"] is CaseTag.RATIONAL_ORDER_THREE
        assert len(rep.redundant()) == 4
        assert len(rep.excluded()) == 1

    @pytest.mark.parametrize("g", [3, 4, 5, 6])
    def test_matches_oracle(self, g):
        rep = ss.decompose_sing(g)
        lib = {}
        names = {
            Verdict.COMPONENT: "component",
            Verdict.REDUNDANT: "redundant",
            Verdict.EXCLUDED_PSEUDOREFLECTION: "excluded",
        }
        for r in rep.records:
            key = (r.locus.d, oracles.orbit_of(r.locus.counts, r.locus.d))
            lib[key] = names[r.verdict]
        orc = {key: v for key, (v, _) in oracles.sing_oracle(g).items()}
        assert lib == orc

    def test_every_locus_single_verdict(self):
        for g in (3, 4, 5):
            rep = ss.decompose_sing(g)
            labels = [r.locus.label() for r in rep.records]
            assert len(labels) == len(set(labels))
            total = (
                len(rep.components())
                + len(rep.redundant())
                + len(rep.excluded())
            )
            assert total == len(rep.records)

    def test_no_component_matches_a_pattern(self):
        for g in (3, 4, 5, 6):
            for rec in ss.decompose_sing(g).components():
                tag, _ = ss.case_pattern(rec.locus)
                assert tag is None

    def test_genus2_rejected(self):
        with pytest.raises(ValueError):
            ss.decompose_sing(2)
