import ast
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys

import pytest

import oracles
from cycliccovers import sing_stable as ss
from cycliccovers import stable_graphs as sg
from cycliccovers.combinat import primes_upto, quotient_genus_for, units_mod
from cycliccovers.stable_graphs import (
    I0,
    I1,
    DivisorException,
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


def factor_counts(G, vid):
    """(counts by residue, k, quotient genus) of an I1 vertex, recounted
    from its free branching and its edge-ends."""
    v = G.vertex(vid)
    counts = list(v.free)
    for label, _ in G.ends(vid):
        counts[label - 1] += 1
    k = len(G.ends(vid)) + sum(v.free)
    return tuple(counts), k, quotient_genus_for(v.genus, G.d, k * (G.d - 1))


class TestVertexData:
    def test_tail_vertex(self):
        G = elliptic_tail_graph(4)
        sg.check_graph(G)
        assert factor_counts(G, 1) == ((4,), 4, 0)

    def test_loop_vertex_order3(self):
        G = make_graph(3, [Vertex(0, I1, 1, (1, 0))], [make_loop(0, 1, 1)])
        sg.check_graph(G)
        assert factor_counts(G, 0) == ((3, 0), 3, 0)

    def test_residue_violation(self):
        G = make_graph(3, [Vertex(0, I1, 1, (0, 1))], [make_loop(0, 1, 1)])
        with pytest.raises(GraphError, match="residues"):
            sg.check_graph(G)

    def test_bad_quotient_genus(self):
        G = make_graph(3, [Vertex(0, I1, 2, (3, 0))])
        with pytest.raises(GraphError, match="genus relation"):
            sg.check_graph(G)


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

    def test_loop_has_two_ends(self):
        # A genus-0 component with a loop and one link is stable.
        G = make_graph(2, [Vertex(0, I0, 0), Vertex(1, I0, 1)],
                       [make_loop(0, 0, 0), make_link(0, 1, 0, 0)])
        assert len(G.ends(0)) == 3
        assert sg.is_stable(G)


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
        out = oracles.smooth_node(P, make_link(0, 1, 0, 0))
        assert len(out.vertices) == 2
        merged = out.vertex(0)
        assert merged.colour == I0 and merged.genus == 2
        assert sg.graph_genus(out) == sg.graph_genus(P)

    def test_loop_smoothing(self):
        Q = make_graph(5, [Vertex(0, I1, 5, None)], [make_loop(0, 2, 3)])
        sg.check_graph(Q, pre=True)
        out = oracles.smooth_node(Q, make_loop(0, 2, 3))
        assert out.vertex(0).genus == 6 and not out.edges
        sg.check_graph(out)
        assert sg.graph_genus(out) == sg.graph_genus(Q)

    def test_swapped_loop_creates_fixed_points(self):
        R = make_graph(2, [Vertex(0, I1, 1, (4,))], [make_loop(0, 1, 1, swapped=True)])
        out = oracles.smooth_node(R, make_loop(0, 1, 1, swapped=True))
        assert out.vertex(0).genus == 2
        assert out.vertex(0).free == (6,)
        sg.check_graph(out)

    def test_non_smoothable_rejected(self):
        G = elliptic_tail_graph(3)
        with pytest.raises(GraphError):
            oracles.smooth_node(G, G.edges[0])
        # Smoothable by their labels, but not nodes of G.
        G = make_graph(2, [Vertex(0, I0, 1), Vertex(1, I0, 1)], [make_link(0, 1, 0, 0)])
        for e in (make_loop(1, 0, 0), make_link(0, 2, 0, 0)):
            with pytest.raises(GraphError, match="node is not smoothable"):
                oracles.smooth_node(G, e)


def smoothing_outcome(steps_of, G, require_stable):
    # (the smoothed nodes, the maximal graph), or the GraphError message.
    try:
        return steps_of(G, require_stable)
    except GraphError as exc:
        return str(exc)


# Pre graphs beside the box, by order, with their traces (None: the pass
# fails): a swapped loop; a path that merges 5 into 0 before 1, nearest id
# first from the piece's least vertex; two identical links, the second a
# loop once the first has merged.
SMOOTHING_CASES = {
    2: [
        (make_graph(2, [Vertex(0, I1, 1, (4,))], [make_loop(0, 1, 1, swapped=True)]),
         [make_loop(0, 1, 1, swapped=True)]),
        (make_graph(2, [Vertex(v, I0, 1) for v in (0, 1, 5)],
                    [make_link(0, 5, 0, 0), make_link(5, 1, 0, 0)]),
         [make_link(0, 5, 0, 0), make_link(0, 1, 0, 0)]),
        (make_graph(2, [Vertex(0, I0, 1), Vertex(1, I0, 1)], [make_link(0, 1, 0, 0)] * 2),
         [make_link(0, 1, 0, 0), make_loop(0, 0, 0)]),
    ],
    3: [
        (make_graph(3, [Vertex(0, I1, 1, (3, 0))], [make_loop(0, 1, 1, swapped=True)]),
         None),
        (make_graph(3, [Vertex(0, I1, 1, (1, 0)), Vertex(1, I1, 1, (0, 1))],
                    [make_link(0, 1, 1, 2)] * 2),
         [make_link(0, 1, 1, 2), make_loop(0, 1, 2)]),
    ],
}


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

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_stepwise_reference(self, d):
        # The trace is stdout: the one pass must smooth in the order of the
        # one-step loop.
        for G, trace in SMOOTHING_CASES[d]:
            got = smoothing_outcome(sg._smoothing_steps, G, False)
            if trace is None:
                assert got == "maximal graphs admit no branch-swapping loop"
            else:
                assert got[0] == trace
        box = oracles.pregraph_box(d, max_v=5, max_e=6, genus_values=(2, 3, 4))
        for G in [*(G for G, _ in SMOOTHING_CASES[d]), *box]:
            for require_stable in (False, True):
                assert (smoothing_outcome(sg._smoothing_steps, G, require_stable)
                        == smoothing_outcome(oracles.reference_smoothing_steps, G,
                                             require_stable))

    def test_simplify_builds_one_graph(self, monkeypatch):
        n = 200
        path = make_graph(2, [Vertex(v, I0, 1) for v in range(n)],
                          [make_link(v, v + 1, 0, 0) for v in range(n - 1)])
        want = make_graph(2, [Vertex(0, I0, n)])
        calls = []
        build = sg.make_graph
        monkeypatch.setattr(sg, "make_graph", lambda *args: calls.append(args) or build(*args))
        assert sg.simplify(path) == want
        assert len(calls) == 1

    @pytest.mark.parametrize("d,pair,smoothable", [
        (2, (1, 1), True), (2, (0, 1), True), (3, (1, 1), False), (3, (1, 2), False),
    ])
    def test_swapped_loop_smoothable_exactly_at_order_2(self, d, pair, smoothable):
        # Whatever its labels: they need not sum to 0 mod d.
        loop = make_loop(0, *pair, swapped=True)
        G = make_graph(d, [Vertex(0, I1, 1)], [loop])
        assert sg.smoothable_nodes(G) == ((loop,) if smoothable else ())


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
        for G in map(sg._decode, sg.enumerate_graphs(3, 3)):
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
        for G in map(sg._decode, sg.enumerate_graphs(3, 5)):
            for r in (2, 3, 4):
                assert sg.canonical_encoding(oracles.unit_transform(G, r)) == \
                    sg.canonical_encoding(G)

    def test_loop_pair_unordered(self):
        A = make_graph(5, [Vertex(0, I1, 3, (1, 0, 1, 0))], [make_loop(0, 1, 3)])
        B = make_graph(5, [Vertex(0, I1, 3, (1, 0, 1, 0))], [make_loop(0, 3, 1)])
        assert A == B

    def test_canonical_form_idempotent(self):
        for G in map(sg._decode, sg.enumerate_graphs(3, 2)):
            C = sg.canonical_form(G)
            assert sg.canonical_form(C) == C
            assert sg.canonical_encoding(C) == sg.canonical_encoding(G)


def relabelled(G, perm, r):
    """G with vertex ids mapped by perm, then every residue multiplied by
    the unit r: the same numerical type."""
    vertices = [Vertex(perm[v.vid], v.colour, v.genus, v.free) for v in G.vertices]
    edges = [make_link(perm[e.u], perm[e.v], e.mu, e.mv) if e.u != e.v
             else make_loop(perm[e.v], e.mu, e.mv, e.swapped) for e in G.edges]
    return oracles.unit_transform(make_graph(G.d, vertices, edges), r)


def spine_graph(d, tails):
    """A rational I1 spine with the given tails, each (genus, labels): an
    identity component joined to the spine by one link per label."""
    residues = [m for _, labels in tails for m in labels]
    free = [0] * (d - 1)
    if sum(residues) % d:
        free[d - sum(residues) % d - 1] += 1
    k = len(residues) + sum(free)
    vertices = [Vertex(0, I1, 1 - d + k * (d - 1) // 2, tuple(free))]
    edges = []
    for vid, (genus, labels) in enumerate(tails, start=1):
        vertices.append(Vertex(vid, I0, genus))
        edges.extend(make_link(0, vid, m, 0) for m in labels)
    return make_graph(d, vertices, edges)


def is_boundary_graph(G):
    """The per-graph definition of a boundary component: one I1 vertex,
    some I0 vertex and, at order 2, no elliptic tail."""
    i1 = G.i1_vertices()
    return (len(i1) == 1 and any(v.colour == I0 for v in G.vertices)
            and not (G.d == 2 and sg.is_elliptic_tail_vertex(G, i1[0].vid)))


def assert_matches_reference(G):
    assert sg.canonical_encoding(G) == oracles.reference_canonical_encoding(G)
    assert sg.canonical_form(G) == oracles.reference_canonical_form(G)


def structure_ends(V, structure):
    """Edge-ends per vertex of an edge structure: two per loop, one per link."""
    ends = [0] * V
    for slot, count in structure.items():
        for v in slot:
            ends[v] += count
    return ends


def labelled_graphs(d, colours, genera, structure, opts, ends):
    """`_labelled_graphs` on one structure with a table dict of its own:
    each row candidate, (vertex rows, edge rows), with its decoded graph."""
    for rows in sg._labelled_graphs(d, colours, genera, structure, opts, ends, {}):
        yield rows, make_graph(d, [Vertex(*v) for v in rows[0]], [sg.Edge(*e) for e in rows[1]])


class TestCanonicalOracle:
    @pytest.mark.parametrize("g,d", [
        (g, d) for g in (2, 3, 4) for d in (2, 3, 5, 7) if d <= 2 * g + 1
    ])
    def test_enumeration_candidates(self, g, d):
        # Every labelled graph of the unpruned search, not only the orbit
        # representatives that enumerate_graphs keeps.
        for colours, genera, E, opts in oracles.reference_vertex_multisets(g, d):
            for structure in oracles.reference_connected_structures(d, colours, genera, E,
                                                                     opts):
                ends = structure_ends(len(colours), structure)
                for G in oracles.reference_labelled_graphs(d, colours, genera, structure,
                                                           opts, ends):
                    assert_matches_reference(G)

    @pytest.mark.parametrize("d", [3, 5])
    def test_relabelled_spines(self, d):
        rng = random.Random(d)
        for n in (5, 6, 7):
            G = spine_graph(d, [(1, [rng.randrange(1, d)]) for _ in range(n)])
            sg.check_graph(G, require_stable=True)
            want = oracles.reference_canonical_encoding(G)
            for _ in range(2):
                perm = list(range(n + 1))
                rng.shuffle(perm)
                H = relabelled(G, perm, rng.randrange(1, d))
                assert_matches_reference(H)
                assert sg.canonical_encoding(H) == want

    def test_twins_with_loops_and_parallel_links(self):
        # Order 2: four I1 leaves on an identity hub, two with a swapped
        # loop and two with a plain one, so only the loops tell the pairs
        # apart.  Order 3: tails joined to the spine by parallel links
        # with equal or different labels.
        hub = [Vertex(0, I0, 0)]
        leaves = [Vertex(v, I1, 2, (2,)) for v in range(1, 5)]
        order2 = make_graph(2, hub + leaves, [
            *(make_link(0, v, 0, 1) for v in range(1, 5)),
            make_loop(1, 1, 1, swapped=True), make_loop(2, 1, 1, swapped=True),
            make_loop(3, 1, 1), make_loop(4, 1, 1),
        ])
        order3 = spine_graph(3, [(1, [1, 1]), (1, [1, 2]), (1, [2, 1]), (1, [1, 1]),
                                 (1, [1]), (2, [1])])
        # Two linked vertices with equal attributes and equal links
        # elsewhere are not twins.
        linked = make_graph(3, [Vertex(0, I1, 1, (2, 0)), Vertex(1, I1, 1, (2, 0)),
                                Vertex(2, I0, 1)],
                            [make_link(0, 1, 1, 1), make_link(0, 2, 2, 0),
                             make_link(1, 2, 2, 0)])
        rng = random.Random(7)
        for G in (order2, order3, linked):
            assert_matches_reference(G)
            for _ in range(3):
                perm = list(range(len(G.vertices)))
                rng.shuffle(perm)
                H = relabelled(G, perm, rng.choice(units_mod(G.d)))
                assert_matches_reference(H)
                assert sg.canonical_encoding(H) == sg.canonical_encoding(G)

    def test_arrangements_are_the_distinct_orders(self):
        classes = [[0, 1, 2], [3], [4, 5]]
        got = sg._arrangements(classes)
        token = {v: ix for ix, cls in enumerate(classes) for v in cls}
        want = {tuple(token[v] for v in p) for p in itertools.permutations(range(6))}
        assert len(got) == len(want) == 60
        assert {tuple(token[v] for v in order) for order in got} == want


class TestEnumeration:
    def test_genus2_order2(self):
        graphs = [sg._decode(enc) for enc in sg.enumerate_graphs(2, 2)]
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
            for G in map(sg._decode, sg.enumerate_graphs(g, 2)):
                for e in G.edges:
                    assert e.u != e.v
                    assert {G.colour(e.u), G.colour(e.v)} == {I0, I1}

    def test_postconditions(self):
        for g, d in ((2, 3), (3, 2), (3, 3), (3, 5)):
            graphs = [sg._decode(enc) for enc in sg.enumerate_graphs(g, d)]
            encs = [sg.canonical_encoding(G) for G in graphs]
            assert len(encs) == len(set(encs))
            assert encs == sorted(encs)
            for G, enc in zip(graphs, encs):
                sg.check_graph(G, require_stable=True)
                assert sg.graph_genus(G) == g
                assert sg.stratum_dimension(G) == sg.encoding_dimension(enc)

    def test_composite_order_refused(self):
        with pytest.raises(ValueError, match="order must be a prime number"):
            sg.enumerate_graphs(4, 4)

    @pytest.mark.parametrize("g", range(2, 6))
    def test_empty_above_2g_plus_1(self, g):
        # The search itself finds nothing at the first two primes above
        # 2g + 1, where enumerate_graphs answers [] unsearched.
        for d in [p for p in primes_upto(4 * g + 6) if p > 2 * g + 1][:2]:
            assert sg.enumerate_graphs(g, d) == []
            assert not [G for colours, genera, E, opts in sg._vertex_multisets(g, d)
                        for structure, ends in sg._structures(d, colours, genera, E, opts)
                        for _, G in labelled_graphs(d, colours, genera, structure, opts,
                                                    ends)]

    def test_filter_applied(self):
        # The star generator of the boundary survey keeps exactly the
        # classes of the generic search that satisfy the per-graph
        # definition, in the same order.  (6, 3) is left out: its search
        # takes about 1.6 s, and test_class_counts runs it.
        n = 0
        for g in range(2, 7):
            for d in primes_upto(2 * g + 1):
                if (g, d) != (6, 3):
                    want = [sg.canonical_encoding(G)
                            for G in map(sg._decode, sg.enumerate_graphs(g, d))
                            if is_boundary_graph(G)]
                    assert ss._stars(g, d) == want
                    n += len(want)
        assert n > 0


# Class counts of enumerate_graphs for every prime order up to 2g + 1.
# Genus 5 takes about 0.3 s over all its orders, and genus 6 about 0.5 s
# over the orders except 3; (6, 3) -> 4,258 takes about 1.6 s.
CLASS_COUNTS = {
    (2, 2): 3, (2, 3): 4, (2, 5): 1,
    (3, 2): 12, (3, 3): 20, (3, 5): 4, (3, 7): 2,
    (4, 2): 39, (4, 3): 106, (4, 5): 19, (4, 7): 6,
    (5, 2): 151, (5, 3): 625, (5, 5): 86, (5, 7): 14, (5, 11): 2,
    (6, 2): 617, (6, 3): 4258, (6, 5): 433, (6, 7): 49, (6, 11): 10, (6, 13): 3,
}


class TestStructureSearch:
    @pytest.mark.parametrize("g,d", [
        (g, d) for g in (2, 3, 4) for d in (2, 3, 5, 7) if d <= 2 * g + 1
    ])
    def test_matches_unpruned_search(self, g, d):
        # The search drops exactly the vertex multisets without a structure,
        # and keeps at least one structure of every orbit under permutations
        # of equal (colour, genus) vertices.
        ref = {m[:3]: m for m in oracles.reference_vertex_multisets(g, d)}
        multisets = list(sg._vertex_multisets(g, d))
        assert len({m[:3] for m in multisets}) == len(multisets)
        assert all(ref.get(m[:3]) == m for m in multisets)
        kept = {m[:3] for m in multisets}
        for colours, genera, E, opts in ref.values():
            got = []
            if (colours, genera, E) in kept:
                for structure, ends in sg._structures(d, colours, genera, E, opts):
                    assert ends == structure_ends(len(colours), structure)
                    # stable without a further check: genus-0 vertices carry
                    # three ends, genus-1 vertices one
                    assert all(gi >= 2 or e >= 3 - 2 * gi for gi, e in zip(genera, ends))
                    got.append(frozenset(structure.items()))
                assert got
            want = oracles.reference_connected_structures(d, colours, genera, E, opts)
            assert len(got) == len(set(got))
            assert set(got) <= {frozenset(s.items()) for s in want}

            def key(s):
                return oracles.structure_orbit_key(colours, genera, dict(s))

            assert {key(s) for s in got} == {key(s) for s in want}

    @pytest.mark.parametrize("g", range(2, 9))
    def test_boundary_multisets_match_filter(self, g):
        # Every star's vertex multiset is one the generic search tries and
        # the per-multiset boundary test accepts, at every prime order.
        for p in primes_upto(2 * g + 1):
            searched = {m[:3] for m in sg._vertex_multisets(g, p)}
            for enc in ss._stars(g, p):
                G = sg._decode(enc)
                m = (tuple(v.colour for v in G.vertices), tuple(v.genus for v in G.vertices),
                     len(G.edges))
                assert m in searched and oracles.boundary_multiset(p, *m)

    @pytest.mark.parametrize("g,d", sorted(CLASS_COUNTS))
    def test_class_counts(self, g, d):
        assert len(sg.enumerate_graphs(g, d)) == CLASS_COUNTS[(g, d)]

    def test_no_table_carries_between_calls(self):
        # Each call builds its own label and menu tables, so calls made one
        # after another in one process return what a fresh process returns.
        calls = [(4, 3), (4, 5), (4, 3), (3, 3)]
        got = [sg.enumerate_graphs(g, d) for g, d in calls]
        src = os.path.dirname(os.path.dirname(sg.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import sys; from cycliccovers import stable_graphs as sg; "
                "print(repr(sg.enumerate_graphs(*map(int, sys.argv[1:]))))")
        fresh = {}
        for g, d in sorted(set(calls)):
            proc = subprocess.run([sys.executable, "-c", code, str(g), str(d)],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            fresh[g, d] = ast.literal_eval(proc.stdout)
        assert got == [fresh[call] for call in calls]
        assert got[0] and got[0] != got[1]


# (count, SHA-1) of the labelled candidates and SHA-1 of the vertex
# multisets with their edge structures, each in search order, at every
# (g, d) with g <= 5 and at (6, 5), taken before the canonical encoding
# grouped the twin classes once per graph.  Without the loop-pool rule
# `a <= b` the search yields the same candidates at g <= 5, and 857 in
# place of 850 at (6, 5): repeats on structures with two loops.
CANDIDATES = {
    (2, 2): (3, "34ac6c9e5d9af78a4f9fa53314c6ff4825cb023a",
             "b545d680150099260eaa8c65d18f728f8b3cd691"),
    (2, 3): (4, "d3bbc8ac390856820a9b7b15b41e55792f9c1303",
             "360b27beca5abb58693810b33b2358671554fcc9"),
    (2, 5): (1, "c6b583a5ab0fe745ea488dbb82d0a73c55e084e8",
             "a35da81b529b495fc1741997445605cb7a5164dc"),
    (3, 2): (12, "dd047b639f29c62430ef9970ff732ba9cfb8159f",
             "b67e1def74595ed2294163107629364193fcab4f"),
    (3, 3): (24, "1183e8e47b43032e2df8a2488761e39f33672593",
             "6aa6576aac7107a823290b28677c4b91768532b6"),
    (3, 5): (4, "80712e36cab57d156a6f569553331b848d577781",
             "0ddba1570ebee44c7b1a08f64e27de25141dfcf9"),
    (3, 7): (2, "4043c55ba1ccb852417b35533079beef6fd4fc3d",
             "2dbd2752c51a7d601f97f197fa80bb39dc2b83b9"),
    (4, 2): (39, "2bb75fe9824173b33e3ce5173742cdc6785c0b20",
             "52df911312647f9e1f19ba03fc127f4762d39dda"),
    (4, 3): (153, "94a3261b081742113ffa0c94f7b80133d64e28a3",
             "a52bd8f78b6e040437d4d78c8bef2feaf830b7ed"),
    (4, 5): (25, "1b791adfe202ce0f3cdab8c13494b67d1c6f81ca",
             "c3a174bf32ebb2dabc200d37dc069bf57e647a3e"),
    (4, 7): (6, "5638d171329752ad7246de22c722b3df354fba44",
             "f50633b77b99e17929d7a7cb5bc71117eeb26139"),
    (5, 2): (156, "25a355b47a483d28d008919062a9134213fd1bae",
             "df04abcfe6118ddf9ca13d43c2ead62946f42e0f"),
    (5, 3): (1143, "e4ff85193bb4a21ff9ca4658c2ae40531c71ba56",
             "c3ffb21212e7f8fd4cf7ad384496533a2d42e3e6"),
    (5, 5): (98, "9a2b0ac22846bc90390493a3dd80169be19cbc7f",
             "143a02fa3fa557a559ef14653b74f66a287eca09"),
    (5, 7): (16, "d02e7ed38e00e010104111cf15c29f8986e944a2",
             "fc283e167df0686f0f55e4551859528e859ac2ee"),
    (5, 11): (2, "cf5493e17bf2e00b529b7111ee54aeebd1bf6211",
             "546dee5ef6863d45c5dae1fdd6688e266456dc86"),
    (6, 5): (850, "4343a25d6b09cc87ade65c0c81daada28335fb21",
             "981f7255f2998e527f0227155ecd75e1fc5b334b"),
}


class TestLabelledGraphs:
    @pytest.mark.parametrize("g,d", sorted(CANDIDATES))
    def test_candidates_pass_check_graph(self, g, d):
        # The search yields admissible, stable, connected maximal graphs
        # by construction and checks none of them itself.  The boundary
        # test on vertex multisets agrees with the same test made on every
        # labelled graph.
        n, candidates, structures = 0, hashlib.sha1(), hashlib.sha1()
        for colours, genera, E, opts in sg._vertex_multisets(g, d):
            kept = oracles.boundary_multiset(d, colours, genera, E)
            for structure, ends in sg._structures(d, colours, genera, E, opts):
                structures.update(repr((colours, genera, E, structure, ends)).encode())
                for _, G in labelled_graphs(d, colours, genera, structure, opts, ends):
                    sg.check_graph(G, pre=False, require_stable=True)
                    assert sg.graph_genus(G) == g
                    assert kept == is_boundary_graph(G)
                    candidates.update(json.dumps(oracles.graph_to_doc(G)).encode())
                    n += 1
        assert (n, candidates.hexdigest(), structures.hexdigest()) == CANDIDATES[g, d]


    @pytest.mark.parametrize("g,d", [
        (g, d) for g in (2, 3, 4) for d in primes_upto(2 * g + 1)
    ])
    def test_row_canonicaliser(self, g, d):
        # enumerate_graphs canonicalises each candidate from its rows, in
        # search order; canonical_encoding of the decoded graph agrees.
        n = 0
        for colours, genera, E, opts in sg._vertex_multisets(g, d):
            for structure, ends in sg._structures(d, colours, genera, E, opts):
                for rows, G in labelled_graphs(d, colours, genera, structure, opts, ends):
                    assert sg._canonical(d, *rows) == sg.canonical_encoding(G)
                    n += 1
        assert n > 0

    @pytest.mark.parametrize("g,d", [
        (g, d) for g in (2, 3, 4) for d in primes_upto(2 * g + 1)
    ] + [(5, 5), (5, 7)])
    def test_unit_orbit_representatives(self, g, d):
        # On each structure the search keeps some of the unfiltered labelled
        # graphs, and still meets every class that they meet.
        n = 0
        for colours, genera, E, opts in sg._vertex_multisets(g, d):
            for structure, ends in sg._structures(d, colours, genera, E, opts):
                args = (d, colours, genera, structure, opts, ends)
                got = [G for _, G in labelled_graphs(*args)]
                want = set(oracles.reference_labelled_graphs(*args))
                assert len(set(got)) == len(got)
                assert set(got) <= want
                assert {sg.canonical_encoding(G) for G in got} == \
                    {sg.canonical_encoding(G) for G in want}
                n += len(got)
        assert n > 0


def excluded(G):
    """The boundary survey's exceptional verdict on a star graph, read off
    its canonical encoding: "II-a", "II-b" or None."""
    return ss._verdict(sg.canonical_encoding(G))[2]


def genus2_spine(*genera):
    """The order-5 genus-2 I1 spine with no free branching, vertex 0, and
    I0 tails 1, 2, ... of the given genera; the edges come separately."""
    return [Vertex(0, I1, 2, (0, 0, 0, 0))] + [
        Vertex(i, I0, genus) for i, genus in enumerate(genera, start=1)]


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
        # The same shapes with a genus-2 component in place of an elliptic one.
        tail2 = make_graph(2, [Vertex(0, I0, 2), Vertex(1, I1, 2, (5,))],
                           [make_link(0, 1, 0, 1)])
        sg.check_graph(tail2, require_stable=True)
        assert sg.divisor_exception(tail2) is DivisorException.NONE
        pair2 = make_graph(2, [Vertex(0, I1, 1, (3,)), Vertex(1, I1, 2, (5,))],
                           [make_link(0, 1, 1, 1)])
        assert sg.divisor_exception(pair2) is DivisorException.NONE

    def test_exceptional_iia(self):
        G = make_graph(
            5,
            [Vertex(0, I1, 2, (0, 0, 0, 0)), Vertex(1, I0, 1)],
            [make_loop(0, 1, 1), make_link(0, 1, 3, 0)],
        )
        sg.check_graph(G, require_stable=True)
        assert excluded(G) == "II-a"

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

        assert excluded(triple((1, 1, 1))) == "II-b"
        assert excluded(triple((1, 2, 2))) == "II-b"
        assert excluded(triple((1, 1, 2))) is None
        # Equal genera at different labels are not the swapped pair.
        assert excluded(triple((2, 1, 2))) is None

    @pytest.mark.parametrize("genera, pattern", [
        ((1, 1, 2), "II-b"),
        ((2, 1, 1), "II-b"),
        ((1, 2, 3), None),
    ])
    def test_exceptional_iib_order3(self, genera, pattern):
        # At order 3 the three labels are all 1 (or all 2): any two tails
        # of equal genus make the pair.
        G = make_graph(
            3,
            [Vertex(0, I1, 1, (0, 0))] + [Vertex(i, I0, genera[i - 1]) for i in (1, 2, 3)],
            [make_link(0, i, 1, 0) for i in (1, 2, 3)],
        )
        sg.check_graph(G, require_stable=True)
        assert excluded(G) == pattern

    def test_exceptional_order3(self):
        G = make_graph(
            3,
            [Vertex(0, I1, 1, (0, 0)), Vertex(1, I0, 1)],
            [make_loop(0, 1, 1), make_link(0, 1, 1, 0)],
        )
        assert excluded(G) == "II-a"

    def test_free_points_block_exceptional(self):
        G = make_graph(
            5,
            [Vertex(0, I1, 6, (1, 0, 0, 1)), Vertex(1, I0, 1)],
            [make_loop(0, 1, 1), make_link(0, 1, 3, 0)],
        )
        sg.check_graph(G)
        assert excluded(G) is None

    @pytest.mark.parametrize("vertices, edges", [
        (genus2_spine(1, 1),
         [make_link(0, 1, 1, 0), make_link(0, 1, 1, 0), make_link(0, 2, 3, 0)]),
        (genus2_spine(0, 1, 1),
         [make_link(0, 1, 3, 0), make_link(0, 2, 1, 0), make_link(0, 3, 1, 0)]),
        (genus2_spine(0), [make_loop(0, 1, 1), make_link(0, 1, 3, 0)]),
        (genus2_spine(1), [make_loop(0, 1, 2), make_link(0, 1, 2, 0)]),
    ], ids=["shared-tail", "rational-tail-iib", "rational-tail-iia", "unequal-loop-pair"])
    def test_exceptional_near_misses(self, vertices, edges):
        # Each star misses II-a or II-b by one condition: two swapped
        # labels on one tail, a rational tail or an unequal loop pair.  The
        # rational-tail stars are unstable; the verdict reads the encoding
        # alone, so they must still come out None.
        G = make_graph(5, vertices, edges)
        sg.check_graph(G)
        assert excluded(G) is None


class TestDocumentFormat:
    def test_roundtrip(self):
        rng = random.Random(5)
        pool = [sg._decode(enc) for d in (3, 2) for enc in sg.enumerate_graphs(3, d)]
        for G in rng.sample(pool, 10):
            doc = oracles.graph_to_doc(G)
            assert sg.graph_from_doc(doc) == G

    def test_swapped_flag_roundtrip(self):
        P = make_graph(2, [Vertex(0, I1, 1, (4,))], [make_loop(0, 1, 1, swapped=True)])
        assert sg.graph_from_doc(oracles.graph_to_doc(P)) == P

    def test_malformed(self):
        with pytest.raises(GraphError):
            sg.graph_from_doc({"order": 2, "vertices": [{"id": 0}], "edges": []})

    @pytest.mark.parametrize("edges, message", [
        pytest.param([{"type": "link", "ends": [0, 1], "labels": [0, 5]}],
                     "link end at vertex 1 needs a nonzero residue", id="edges0"),
        pytest.param([{"type": "link", "ends": [0, 1], "labels": [0, 1]},
                      {"type": "loop", "vertex": 1, "pair": [1, 5]}],
                     "loop labels out of range at vertex 1", id="edges1"),
    ])
    def test_label_out_of_range_is_graph_error(self, edges, message):
        # graph_from_doc does not check labels; check_graph refuses them,
        # and stratum_dimension validates first, so it raises GraphError
        # rather than indexing the free branching by a stray label.
        G = sg.graph_from_doc({
            "order": 2,
            "vertices": [{"id": 0, "colour": "I0", "genus": 1},
                         {"id": 1, "colour": "I1", "genus": 1, "free_branching": [3]}],
            "edges": edges,
        })
        for check in (sg.check_graph, sg.stratum_dimension):
            with pytest.raises(GraphError) as info:
                check(G)
            assert str(info.value) == message

    def test_validation_messages(self):
        G = make_graph(
            2,
            [Vertex(0, I0, 1), Vertex(1, I0, 2)],
            [make_link(0, 1, 0, 0)],
        )
        with pytest.raises(GraphError, match="identity"):
            sg.check_graph(G, pre=False)
        sg.check_graph(G, pre=True)
