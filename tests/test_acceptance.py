"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Expected values marked as derived were computed with the independent
oracles in oracles.py and frozen here.
"""

import itertools
import json
import random
import time

import oracles
from cycliccovers import branching as br
from cycliccovers import cli
from cycliccovers import cover_algebra as ca
from cycliccovers import sing_smooth as ss
from cycliccovers import sing_stable as st
from cycliccovers import stable_graphs as sg
from cycliccovers.combinat import prime_shapes, primes_upto
from cycliccovers.sing_smooth import CaseTag, Verdict
from cycliccovers.stable_graphs import I0, I1, Vertex, make_graph, make_link


def _report(n, elapsed, detail):
    print("\nCRITERION %d PASS (%.1fs): %s" % (n, elapsed, detail))


def test_criterion_1_codimension_exception_scan():
    t0 = time.time()
    exceptions = []
    checked = 0
    for g in range(2, 31):
        for p in primes_upto(2 * g + 1):
            for h, k in prime_shapes(g, p):
                checked += 1
                codim = 3 * (g - 1) - (3 * (h - 1) + k)
                if codim < 2:
                    exceptions.append((g, p, k))
    assert sorted(exceptions) == [(2, 2, 2), (2, 2, 6), (3, 2, 8)]
    # the shape scan agrees with full enumeration on a sampled range
    for g in (2, 3, 5, 8, 12):
        for p in (2, 3, 5, 7, 11):
            shapes = sorted(prime_shapes(g, p))
            full = sorted({(h, sum(c)) for c, h in br.enumerate_admissible(g, p)})
            assert shapes == full
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(1, elapsed, "%d admissible shapes scanned, 3 exceptions" % checked)


def test_criterion_2_genus2_enumeration():
    t0 = time.time()
    # frozen values, computed with the brute-force oracle below
    frozen = {
        2: [((2,), 1), ((6,), 0)],
        3: [((2, 2), 0)],
        5: [((1, 2, 0, 0), 0)],
    }
    for p in primes_upto(31):
        got = list(br.enumerate_admissible(2, p))
        assert got == frozen.get(p, [])
        lib = {oracles.orbit_of(c, p): h for c, h in br.enumerate_admissible(2, p)}
        assert lib == oracles.brute_admissible_prime(2, p)
    elapsed = time.time() - t0
    _report(2, elapsed, "genus-2 data match the brute-force oracle for p <= 31")


def test_criterion_3_sing_m3():
    t0 = time.time()
    rep = ss.decompose_sing(3)
    comps = {(r.locus.label(), r.locus.dim) for r in rep.components()}
    assert comps == {("M_{3;2,[(4)]}", 4), ("M_{3;3,[(1,4)]}", 2)}
    red = {r.locus.label(): r.case_tag for r in rep.redundant()}
    assert red["M_{3;2,[(0)]}"] is CaseTag.GENUS2_QUOTIENT
    assert red["M_{3;3,[(1,1)]}"] is CaseTag.ELLIPTIC_QUOTIENT
    assert red["M_{3;7,[(1,0,2,0,0,0)]}"] is CaseTag.RATIONAL_INVOLUTION
    assert red["M_{3;7,[(1,1,0,1,0,0)]}"] is CaseTag.RATIONAL_ORDER_THREE
    assert len(rep.redundant()) == 4
    excl = rep.excluded()
    assert [r.locus.label() for r in excl] == ["M_{3;2,[(8)]}"]
    # independent re-derivation of every pattern match, genus 3 and 4
    for g in (3, 4):
        got = {}
        names = {
            Verdict.COMPONENT: "component",
            Verdict.REDUNDANT: "redundant",
            Verdict.EXCLUDED_PSEUDOREFLECTION: "excluded",
        }
        for r in ss.decompose_sing(g).records:
            got[(r.locus.d, oracles.orbit_of(r.locus.counts, r.locus.d))] = names[
                r.verdict
            ]
        assert got == {k: v for k, (v, _) in oracles.sing_oracle(g).items()}
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(3, elapsed, "2 components, 4 redundant, 1 excluded; oracle agrees")


def test_criterion_4_cover_algebra_identities():
    t0 = time.time()
    # carry cocycle, exhaustive for d <= 12
    for d in range(2, 13):
        for chi, xi, psi in itertools.product(range(d), repeat=3):
            e1 = ca.multiplication_exponents(d, chi, xi)
            e2 = ca.multiplication_exponents(d, (chi + xi) % d, psi)
            e3 = ca.multiplication_exponents(d, xi, psi)
            e4 = ca.multiplication_exponents(d, chi, (xi + psi) % d)
            assert all(a + b == c + e for a, b, c, e in zip(e1, e2, e3, e4))
    # weighted character-class identity on 5000 randomised assignments
    from test_cover_algebra import enumerate_small_assignments, random_assignment

    rng = random.Random(2024)
    for _ in range(5000):
        ba = random_assignment(rng)
        for chi in range(ba.d):
            lhs = ba.d * ca.character_class(ba, chi)
            rhs = ba.model.zero()
            for i in range(1, ba.d):
                rhs = rhs + ((chi * i) % ba.d) * ba.branch_class(i)
            assert lhs == rhs
    # irreducibility agrees with the component count on exhaustive
    # small instances (the unramified image has the order of the torsion
    # witness times the inertia index)
    n = 0
    for d in range(2, 13):
        for torsion in (2, 3, 4, 5, 6):
            for ba in enumerate_small_assignments(d, torsion):
                res = ca.irreducibility(ba)
                etale_order = (d // res.inertia_gcd) * res.torsion_order
                assert res.irreducible == (
                    ca.component_count(d, ba.support(), etale_order) == 1
                )
                n += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(4, elapsed, "cocycle, 5000 class identities, %d oracle instances" % n)


def test_criterion_5_rewrite_engine():
    t0 = time.time()
    total = 0
    for d in (2, 3):
        box = oracles.pregraph_box(d, max_v=5, max_e=6, genus_values=(2, 3, 4))
        memo = {}
        for G in box:
            forms = oracles.all_normal_forms(G, memo)
            assert len(forms) == 1, "smoothing orders disagree on %r" % (G,)
            S = sg.simplify(G)
            assert sg.canonical_encoding(S) in forms
            assert sg.graph_genus(S) == sg.graph_genus(G)
            assert not sg.smoothable_nodes(S)
            assert sg.simplify(S) == S
            total += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(5, elapsed, "confluent and idempotent over %d pre graphs" % total)


def test_criterion_6_divisor_check():
    t0 = time.time()
    for g in range(2, 11):
        tail = make_graph(
            2,
            [Vertex(0, I0, g - 1), Vertex(1, I1, 1, (3,))],
            [make_link(0, 1, 0, 1)],
        )
        assert sg.graph_genus(tail) == g
        assert sg.stratum_dimension(tail) == 3 * g - 4
        assert sg.divisor_exception(tail) is sg.DivisorException.ELLIPTIC_TAIL
    pair = make_graph(
        2,
        [Vertex(0, I1, 1, (3,)), Vertex(1, I1, 1, (3,))],
        [make_link(0, 1, 1, 1)],
    )
    assert sg.divisor_exception(pair) is sg.DivisorException.GENUS2_PAIR
    out = sg.simplify(pair)
    assert out == make_graph(2, [Vertex(0, I1, 2, (6,))])
    assert br.is_admissible(2, br.BranchingSequence(2, (6,)))
    elapsed = time.time() - t0
    _report(6, elapsed, "elliptic-tail strata are divisors; genus-2 pair collapses")


def test_criterion_7_boundary_oracle():
    t0 = time.time()
    for g, dmax in ((3, 7), (4, 7)):
        comps = st.boundary_components(g, dmax)
        lib = {
            (c.d, sg.canonical_encoding(sg._decode(c.star))): (c.dim, c.flags) for c in comps
        }
        assert lib == oracles.boundary_oracle(g, dmax)
    assert st.boundary_components(2, 2) == ()
    comps23 = st.boundary_components(2, 3)
    assert len(comps23) == 1 and comps23[0].flags == (st.RIGID_FLAG,)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(7, elapsed, "boundary lists equal the oracle at genus 3 and 4")


def test_criterion_8_aut_bounds():
    t0 = time.time()
    rep = st.aut_bounds(3)
    assert (rep.generic_lower, rep.special_config, rep.hurwitz_smooth) == (
        8,
        1296,
        168,
    )
    for g in range(2, 51):
        rep = st.aut_bounds(g)
        assert rep.generic_lower == 2 ** g
        assert rep.special_config == 2 * g * 6 ** g
        assert rep.hurwitz_smooth == 84 * (g - 1)
        assert rep.special_config > rep.hurwitz_smooth
        assert rep.special_exceeds_hurwitz
    elapsed = time.time() - t0
    _report(8, elapsed, "(8, 1296, 168) at genus 3; special > Hurwitz up to 50")


def test_criterion_9_cli_determinism(capsys, tmp_path):
    t0 = time.time()
    graph_doc = oracles.graph_to_doc(
        make_graph(
            2,
            [Vertex(0, I0, 1), Vertex(1, I0, 1), Vertex(2, I1, 1, (3,))],
            [make_link(0, 1, 0, 0), make_link(1, 2, 0, 1)],
        )
    )
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(graph_doc), encoding="utf-8")
    commands = [
        ("admissible", "--genus", "3", "--order", "2"),
        ("admissible", "--genus", "3", "--order", "2", "--format", "doc"),
        ("locus", "--genus", "3", "--order", "2", "--counts", "4", "--format", "doc"),
        ("sing", "--genus", "3"),
        ("sing", "--genus", "3", "--format", "doc"),
        ("graphs", "--genus", "2", "--order", "2", "--format", "doc"),
        ("simplify", "--input", str(gpath), "--format", "doc"),
        ("boundary", "--genus", "3", "--dmax", "7", "--format", "doc"),
        ("sing-bar", "--genus", "3", "--dmax", "3", "--format", "doc"),
        ("bounds", "--genus", "3", "--format", "doc"),
    ]
    for argv in commands:
        code1 = cli.main(list(argv))
        out1 = capsys.readouterr().out
        code2 = cli.main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode()
    # documents round-trip to the in-memory results
    cli.main(["sing", "--genus", "3", "--format", "doc"])
    rep = cli.report_from_doc(json.loads(capsys.readouterr().out))
    assert rep == ss.decompose_sing(3)
    cli.main(["boundary", "--genus", "3", "--dmax", "7", "--format", "doc"])
    doc = json.loads(capsys.readouterr().out)
    comps = tuple(cli.boundary_from_doc(c) for c in doc["components"])
    assert comps == st.boundary_components(3, 7)
    cli.main(["sing-bar", "--genus", "3", "--dmax", "7", "--format", "doc"])
    rep = cli.report_from_doc(json.loads(capsys.readouterr().out))
    assert rep == st.decompose_sing_bar(3, 7)
    cli.main(["simplify", "--input", str(gpath), "--format", "doc"])
    doc = json.loads(capsys.readouterr().out)
    assert sg.graph_from_doc(doc["result"]) == sg.canonical_form(
        sg.simplify(sg.graph_from_doc(graph_doc))
    )
    cli.main(["admissible", "--genus", "3", "--order", "2", "--format", "doc"])
    doc = json.loads(capsys.readouterr().out)
    assert [cli.locus_from_doc(e) for e in doc["loci"]] == [
        br.smooth_locus(3, br.BranchingSequence(2, c)) for c, _ in br.enumerate_admissible(3, 2)]
    cli.main(["locus", "--genus", "3", "--order", "2", "--counts", "4",
              "--format", "doc"])
    doc = json.loads(capsys.readouterr().out)
    assert cli.locus_from_doc(doc) == br.smooth_locus(
        3, br.BranchingSequence(2, (4,))
    )
    cli.main(["graphs", "--genus", "2", "--order", "2", "--format", "doc"])
    doc = json.loads(capsys.readouterr().out)
    assert tuple(sg.graph_from_doc(e) for e in doc["graphs"]) == \
        tuple(map(sg._decode, sg.enumerate_graphs(2, 2)))
    cli.main(["bounds", "--genus", "3", "--format", "doc"])
    doc = json.loads(capsys.readouterr().out)
    assert (doc["generic_lower"], doc["special_config"], doc["hurwitz_smooth"]) == (
        8, 1296, 168,
    )
    elapsed = time.time() - t0
    _report(9, elapsed, "byte-identical reruns; documents round-trip")
