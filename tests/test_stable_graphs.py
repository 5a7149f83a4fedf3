import itertools
import random

import pytest

import oracles
from cycliccovers import stable_graphs as sg
from cycliccovers.stable_graphs import (
    I0,
    I1,
    DivisorException,
    ExceptionalPattern,
    GraphError,
    Vertex,
    make_graph,
    make_link,
    make_loop,
)


def elliptic_tail_graph(g):
    return make_graph(
        2,
        [Vertex(0, I0, g - 1), Vertex(1, I1, 1, (3,))],
        [make_link(0, 1, 0, 1)],
    )


class TestVertexData:
    def test_tail_vertex(self):
        G = elliptic_tail_graph(4)
        data = sg.vertex_data(G, 1)
        assert data.k == 4 and data.quotient_genus == 0
        assert data.counts == (4,)

    def test_loop_vertex_order3(self):
        G = make_graph(3, [Vertex(0, I1, 1, (1, 0))], [make_loop(0, 1, 1)])
        data = sg.vertex_data(G, 0)
        assert data.counts == (3, 0)
        assert data.k == 3 and data.quotient_genus == 0
        assert data.marked_genus == 2 and data.loops == 1

    def test_residue_violation(self):
        G = make_graph(3, [Vertex(0, I1, 1, (0, 1))], [make_loop(0, 1, 1)])
        with pytest.raises(GraphError, match="residues"):
            sg.vertex_data(G, 0)

    def test_bad_quotient_genus(self):
        G = make_graph(3, [Vertex(0, I1, 2, (3, 0))])
        with pytest.raises(GraphError):
            sg.vertex_data(G, 0)


class TestGenusAndStability:
    def test_graph_genus(self):
        G = make_graph(3, [Vertex(0, I1, 1, (1, 0))], [make_loop(0, 1, 1)])
        assert sg.graph_genus(G) == 2
        H = make_graph(
            2,
            [Vertex(0, I1, 1, (3,)), Vertex(1, I0, 1)],
            [make_link(0, 1, 1, 0)],
        )
        assert sg.graph_genus(H) == 2
        K = make_graph(
            2,
            [Vertex(0, I1, 1, (5,)), Vertex(1, I0, 0)],
            [make_link(0, 1, 1, 0)] * 3,
        )
        assert sg.graph_genus(K) == 3

    def test_stability(self):
        bad = make_graph(
            2,
            [Vertex(0, I1, 2, (4,)), Vertex(1, I0, 0)],
            [make_link(0, 1, 1, 0)] * 2,
        )
        assert not sg.is_stable(bad)
        assert sg.is_stable(elliptic_tail_graph(3))
        single = make_graph(2, [Vertex(0, I1, 2, (6,))])
        assert sg.is_stable(single)


class TestSmoothing:
    def test_smoothable_rules(self):
        P = make_graph(
            3,
            [Vertex(0, I0, 1), Vertex(1, I0, 1), Vertex(2, I1, 1, (3, 0))],
            [make_link(0, 1, 0, 0), make_link(1, 2, 0, 1)],
        )
        sm = sg.smoothable_nodes(P)
        assert sm == (make_link(0, 1, 0, 0),)
        Q = make_graph(5, [Vertex(0, I1, 5, None)], [make_loop(0, 2, 3)])
        assert sg.smoothable_nodes(Q) == (make_loop(0, 2, 3),)
        R = make_graph(3, [Vertex(0, I1, 1, (3, 0))], [make_loop(0, 1, 1, swapped=True)])
        assert sg.smoothable_nodes(R) == ()

    def test_merge_two_identity_components(self):
        P = make_graph(
            2,
            [Vertex(0, I0, 1), Vertex(1, I0, 1), Vertex(2, I1, 1, (3,))],
            [make_link(0, 1, 0, 0), make_link(1, 2, 0, 1)],
        )
        out = sg.smooth_node(P, make_link(0, 1, 0, 0))
        assert len(out.vertices) == 2
        merged = out.vertex(0)
        assert merged.colour == I0 and merged.genus == 2
        assert sg.graph_genus(out) == sg.graph_genus(P)

    def test_loop_smoothing(self):
        Q = make_graph(5, [Vertex(0, I1, 5, None)], [make_loop(0, 2, 3)])
        sg.check_graph(Q, pre=True)
        out = sg.smooth_node(Q, make_loop(0, 2, 3))
        assert out.vertex(0).genus == 6 and not out.edges
        sg.check_graph(out)
        assert sg.graph_genus(out) == sg.graph_genus(Q)

    def test_swapped_loop_creates_fixed_points(self):
        R = make_graph(2, [Vertex(0, I1, 1, (4,))], [make_loop(0, 1, 1, swapped=True)])
        out = sg.smooth_node(R, make_loop(0, 1, 1, swapped=True))
        assert out.vertex(0).genus == 2
        assert out.vertex(0).free == (6,)
        sg.check_graph(out)

    def test_non_smoothable_rejected(self):
        G = elliptic_tail_graph(3)
        with pytest.raises(GraphError):
            sg.smooth_node(G, G.edges[0])


class TestSimplify:
    def test_chain_merge(self):
        P = make_graph(
            2,
            [Vertex(0, I0, 1), Vertex(1, I0, 1), Vertex(2, I1, 1, (3,))],
            [make_link(0, 1, 0, 0), make_link(1, 2, 0, 1)],
        )
        out = sg.simplify(P)
        assert len(out.vertices) == 2
        assert sg.divisor_exception(out) is DivisorException.ELLIPTIC_TAIL

    def test_fixpoint(self):
        G = elliptic_tail_graph(5)
        assert sg.simplify(G) == G

    def test_genus2_pair_collapses(self):
        P = make_graph(
            2,
            [Vertex(0, I1, 1, (3,)), Vertex(1, I1, 1, (3,))],
            [make_link(0, 1, 1, 1)],
        )
        assert sg.divisor_exception(P) is DivisorException.GENUS2_PAIR
        out = sg.simplify(P)
        assert out == make_graph(2, [Vertex(0, I1, 2, (6,))])
        assert sg.graph_genus(out) == 2

    def test_swapped_loop_odd_order_fails(self):
        P = make_graph(3, [Vertex(0, I1, 1, (3, 0))], [make_loop(0, 1, 1, swapped=True)])
        sg.check_graph(P, pre=True)
        with pytest.raises(GraphError):
            sg.simplify(P)


class TestConfluence:
    @pytest.mark.parametrize("d", [2, 3])
    def test_small_box(self, d):
        # trimmed box here; the full sweep runs in the acceptance suite
        box = oracles.pregraph_box(d, max_v=3, max_e=4, genus_values=(2, 3))
        memo = {}
        for G in box:
            forms = oracles.all_normal_forms(G, memo)
            assert len(forms) == 1
            S = sg.simplify(G)
            assert sg.canonical_encoding(S) in forms
            assert sg.graph_genus(S) == sg.graph_genus(G)
            assert not sg.smoothable_nodes(S)
            assert sg.simplify(S) == S
            assert sg.is_stable(S)


class TestEnlargements:
    def test_detached_recolours_and_zeroes_label(self):
        G = make_graph(
            3,
            [Vertex(0, I1, 1, (2, 0)), Vertex(1, I1, 1, (2, 0))],
            [make_link(0, 1, 1, 1)],
        )
        out = sg.enlarge_detached(G, 1)
        assert out.vertex(1).colour == I0
        e = out.edges[0]
        assert (e.mu, e.mv) == (1, 0)
        assert sg.graph_genus(out) == sg.graph_genus(G)

    def test_attached_merges(self):
        G = make_graph(
            3,
            [
                Vertex(0, I1, 1, (2, 0)),
                Vertex(1, I1, 1, (1, 0)),
                Vertex(2, I0, 1),
            ],
            [make_link(0, 1, 1, 1), make_link(1, 2, 1, 0)],
        )
        out = sg.enlarge_attached(G, 1)
        assert len(out.vertices) == 2
        assert {v.colour for v in out.vertices} == {I0, I1}
        assert sg.graph_genus(out) == 3

    def test_max_equals_composition(self):
        G = make_graph(
            3,
            [
                Vertex(0, I1, 1, (2, 0)),
                Vertex(1, I1, 1, (1, 0)),
                Vertex(2, I1, 1, (2, 0)),
            ],
            [make_link(0, 1, 1, 1), make_link(1, 2, 1, 1)],
        )
        via_max = sg.enlarge_max(G, 0)
        step1 = sg.enlarge_detached(G, 2)
        step2 = sg.enlarge_attached(step1, 1)
        assert sg.canonical_encoding(via_max) == sg.canonical_encoding(step2)

    def test_elliptic_tail_order2(self):
        # Trivialising an order-2 elliptic tail keeps the tail factor's
        # contribution (1 before, 1 after recolouring); smoothing the now
        # trivial node then adds exactly the one gluing modulus.
        G = make_graph(
            2,
            [
                Vertex(0, I1, 2, (3,)),
                Vertex(1, I0, 0),
                Vertex(2, I1, 1, (3,)),
            ],
            [make_link(0, 1, 1, 0)] * 3 + [make_link(1, 2, 0, 1)],
        )
        sg.check_graph(G, require_stable=True)
        before = sg.stratum_dimension(G)
        out = sg.enlarge_max(G, 0)
        assert len(out.i1_vertices()) == 1
        assert sg.graph_genus(out) == sg.graph_genus(G)
        assert sg.stratum_dimension(out) == before + 1

    def test_dimension_never_decreases(self):
        for G in sg.enumerate_graphs(3, 3):
            i1 = [v.vid for v in G.i1_vertices()]
            if len(i1) < 2:
                continue
            for j in i1:
                out = sg.enlarge_max(G, j)
                assert sg.stratum_dimension(out) >= sg.stratum_dimension(G)
                assert sg.graph_genus(out) == sg.graph_genus(G)


class TestStratumDimension:
    def test_elliptic_tail_divisor(self):
        for g in range(2, 11):
            assert sg.stratum_dimension(elliptic_tail_graph(g)) == 3 * g - 4

    def test_rigid_point(self):
        G = make_graph(3, [Vertex(0, I1, 1, (1, 0))], [make_loop(0, 1, 1)])
        assert sg.stratum_dimension(G) == 0
        assert sg.graph_genus(G) == 2

    def test_smooth_vertex_matches_locus(self):
        from cycliccovers import branching as br

        for g, d in ((2, 2), (3, 2), (4, 3)):
            for datum, h in br.enumerate_admissible(g, d):
                G = make_graph(d, [Vertex(0, I1, g, datum.counts)])
                assert sg.stratum_dimension(G) == 3 * (h - 1) + datum.k


class TestCanonical:
    def test_relabel_invariance(self):
        G = make_graph(
            3,
            [Vertex(0, I1, 1, (2, 0)), Vertex(1, I0, 2), Vertex(2, I0, 1)],
            [make_link(0, 1, 1, 0), make_link(0, 2, 2, 0), make_loop(0, 1, 1)],
        )
        # relabelling must not change genus budget: rebuild with permuted ids
        for perm in itertools.permutations(range(3)):
            H = make_graph(
                3,
                [
                    Vertex(perm[0], I1, 1, (2, 0)),
                    Vertex(perm[1], I0, 2),
                    Vertex(perm[2], I0, 1),
                ],
                [
                    make_link(perm[0], perm[1], 1, 0),
                    make_link(perm[0], perm[2], 2, 0),
                    make_loop(perm[0], 1, 1),
                ],
            )
            assert sg.canonical_encoding(H) == sg.canonical_encoding(G)

    def test_unit_invariance(self):
        for G in sg.enumerate_graphs(3, 5):
            for r in (2, 3, 4):
                assert sg.canonical_encoding(sg.unit_transform(G, r)) == \
                    sg.canonical_encoding(G)

    def test_loop_pair_unordered(self):
        A = make_graph(5, [Vertex(0, I1, 3, (1, 0, 1, 0))], [make_loop(0, 1, 3)])
        B = make_graph(5, [Vertex(0, I1, 3, (1, 0, 1, 0))], [make_loop(0, 3, 1)])
        assert A == B

    def test_canonical_form_idempotent(self):
        for G in sg.enumerate_graphs(3, 2):
            C = sg.canonical_form(G)
            assert sg.canonical_form(C) == C
            assert sg.canonical_encoding(C) == sg.canonical_encoding(G)


class TestEnumeration:
    def test_genus2_order2(self):
        graphs = sg.enumerate_graphs(2, 2)
        encodings = {sg.canonical_encoding(G) for G in graphs}
        tail = make_graph(
            2,
            [Vertex(0, I0, 1), Vertex(1, I1, 1, (3,))],
            [make_link(0, 1, 0, 1)],
        )
        assert sg.canonical_encoding(tail) in encodings
        with_edges = [G for G in graphs if G.edges]
        assert with_edges == [sg.canonical_form(tail)]

    def test_no_order2_loops_or_i1_links(self):
        for g in (2, 3, 4):
            for G in sg.enumerate_graphs(g, 2):
                for e in G.edges:
                    assert isinstance(e, sg.Link)
                    assert {G.colour(e.u), G.colour(e.v)} == {I0, I1}

    def test_postconditions(self):
        for g, d in ((2, 3), (3, 2), (3, 3), (3, 5)):
            graphs = sg.enumerate_graphs(g, d)
            encs = [sg.canonical_encoding(G) for G in graphs]
            assert len(encs) == len(set(encs))
            assert encs == sorted(encs)
            for G in graphs:
                sg.check_graph(G, require_stable=True)
                assert sg.graph_genus(G) == g

    def test_filter_applied(self):
        graphs = sg.enumerate_graphs(2, 2, predicate=lambda G: bool(G.edges))
        assert all(G.edges for G in graphs)
        assert len(graphs) == 1


# Class counts of enumerate_graphs for every prime order up to 2g + 1.
# Genus <= 4 and the genus-5 orders except 3 run in under a second each;
# (5, 3) -> 625 was checked against the unpruned search once, outside
# this suite: it takes 5 s with the pruned search and minutes without.
CLASS_COUNTS = {
    (2, 2): 3, (2, 3): 4, (2, 5): 1,
    (3, 2): 12, (3, 3): 20, (3, 5): 4, (3, 7): 2,
    (4, 2): 39, (4, 3): 106, (4, 5): 19, (4, 7): 6,
    (5, 2): 151, (5, 5): 86, (5, 7): 14, (5, 11): 2,
}


class TestStructureSearch:
    @pytest.mark.parametrize("g,d", [
        (g, d) for g in (2, 3, 4) for d in (2, 3, 5, 7) if d <= 2 * g + 1
    ])
    def test_matches_unpruned_search(self, g, d):
        multisets = list(sg._vertex_multisets(g, d))
        assert sorted(multisets, key=lambda m: m[:3]) == \
            sorted(oracles.reference_vertex_multisets(g, d), key=lambda m: m[:3])
        for colours, genera, E, opts in multisets:
            got = []
            for structure, ends in sg._structures(d, colours, genera, E, opts):
                want = [0] * len(colours)
                for slot, count in structure.items():
                    for v in slot[1:]:
                        want[v] += count * (2 if slot[0] == "loop" else 1)
                assert ends == want
                # stable without a further check: genus-0 vertices carry
                # three ends, genus-1 vertices one
                assert all(gi >= 2 or e >= 3 - 2 * gi for gi, e in zip(genera, ends))
                got.append(frozenset(structure.items()))
            ref = oracles.reference_connected_structures(d, colours, genera, E, opts)
            assert len(got) == len(set(got))
            assert set(got) == {frozenset(s.items()) for s in ref}

    @pytest.mark.parametrize("g,d", sorted(CLASS_COUNTS))
    def test_class_counts(self, g, d):
        assert len(sg.enumerate_graphs(g, d)) == CLASS_COUNTS[(g, d)]


class TestPatternDetectors:
    def test_divisor_exceptions(self):
        assert sg.divisor_exception(elliptic_tail_graph(5)) is \
            DivisorException.ELLIPTIC_TAIL
        pair = make_graph(
            2,
            [Vertex(0, I1, 1, (3,)), Vertex(1, I1, 1, (3,))],
            [make_link(0, 1, 1, 1)],
        )
        assert sg.divisor_exception(pair) is DivisorException.GENUS2_PAIR
        other = make_graph(
            3,
            [Vertex(0, I0, 2), Vertex(1, I1, 1, (0, 1))],
            [make_link(0, 1, 0, 2)],
        )
        assert sg.divisor_exception(other) is DivisorException.NONE

    def test_exceptional_iia(self):
        G = make_graph(
            5,
            [Vertex(0, I1, 2, (0, 0, 0, 0)), Vertex(1, I0, 1)],
            [make_loop(0, 1, 1), make_link(0, 1, 3, 0)],
        )
        sg.check_graph(G, require_stable=True)
        assert sg.exceptional_pattern(G) is ExceptionalPattern.IIA

    def test_exceptional_iib(self):
        def triple(genera):
            return make_graph(
                5,
                [Vertex(0, I1, 2, (0, 0, 0, 0))]
                + [Vertex(i, I0, genera[i - 1]) for i in (1, 2, 3)],
                [
                    make_link(0, 1, 3, 0),
                    make_link(0, 2, 1, 0),
                    make_link(0, 3, 1, 0),
                ],
            )

        assert sg.exceptional_pattern(triple((1, 1, 1))) is ExceptionalPattern.IIB
        assert sg.exceptional_pattern(triple((1, 1, 2))) is ExceptionalPattern.NONE

    def test_exceptional_order3(self):
        G = make_graph(
            3,
            [Vertex(0, I1, 1, (0, 0)), Vertex(1, I0, 1)],
            [make_loop(0, 1, 1), make_link(0, 1, 1, 0)],
        )
        assert sg.exceptional_pattern(G) is ExceptionalPattern.IIA

    def test_free_points_block_exceptional(self):
        G = make_graph(
            5,
            [Vertex(0, I1, 6, (1, 0, 0, 1)), Vertex(1, I0, 1)],
            [make_loop(0, 1, 1), make_link(0, 1, 3, 0)],
        )
        sg.check_graph(G)
        assert sg.exceptional_pattern(G) is ExceptionalPattern.NONE


class TestDocumentFormat:
    def test_roundtrip(self):
        rng = random.Random(5)
        pool = list(sg.enumerate_graphs(3, 3)) + list(sg.enumerate_graphs(3, 2))
        for G in rng.sample(pool, 10):
            doc = sg.graph_to_doc(G)
            assert sg.graph_from_doc(doc) == G

    def test_swapped_flag_roundtrip(self):
        P = make_graph(2, [Vertex(0, I1, 1, (4,))], [make_loop(0, 1, 1, swapped=True)])
        assert sg.graph_from_doc(sg.graph_to_doc(P)) == P

    def test_malformed(self):
        with pytest.raises(GraphError):
            sg.graph_from_doc({"order": 2, "vertices": [{"id": 0}], "edges": []})

    def test_validation_messages(self):
        G = make_graph(
            2,
            [Vertex(0, I0, 1), Vertex(1, I0, 2)],
            [make_link(0, 1, 0, 0)],
        )
        with pytest.raises(GraphError, match="identity"):
            sg.check_graph(G, pre=False)
        sg.check_graph(G, pre=True)
