import pytest

import oracles
from cycliccovers import sing_stable as st
from cycliccovers import stable_graphs as sg
from cycliccovers.combinat import primes_upto
from cycliccovers.stable_graphs import I0, I1, Vertex, make_graph, make_link


class TestBoundaryComponents:
    def test_genus3_contains_named_graphs(self):
        comps = st.boundary_components(3, 7)
        encs = {sg.canonical_encoding(sg._decode(c.star)) for c in comps}
        named = [
            # genus-2 part with elliptic quotient + elliptic identity tail
            make_graph(2, [Vertex(0, I0, 1), Vertex(1, I1, 2, (1,))],
                       [make_link(0, 1, 0, 1)]),
            # genus-2 part with rational quotient + elliptic identity tail
            make_graph(2, [Vertex(0, I0, 1), Vertex(1, I1, 2, (5,))],
                       [make_link(0, 1, 0, 1)]),
            # elliptic part + two elliptic identity tails
            make_graph(2, [Vertex(0, I0, 1), Vertex(1, I0, 1),
                           Vertex(2, I1, 1, (2,))],
                       [make_link(0, 2, 0, 1), make_link(1, 2, 0, 1)]),
            # elliptic part + rational identity component with three nodes
            make_graph(2, [Vertex(0, I0, 0), Vertex(1, I1, 1, (1,))],
                       [make_link(0, 1, 0, 1)] * 3),
        ]
        for G in named:
            assert sg.canonical_encoding(G) in encs

    @pytest.mark.parametrize("g,dmax", [(2, 2), (2, 3), (3, 7), (4, 7)])
    def test_matches_oracle(self, g, dmax):
        comps = st.boundary_components(g, dmax)
        lib = {
            (c.d, sg.canonical_encoding(sg._decode(c.star))): (c.dim, c.flags) for c in comps
        }
        assert lib == oracles.boundary_oracle(g, dmax)

    def test_genus2_order2_empty(self):
        assert st.boundary_components(2, 2) == ()

    def test_genus2_order3_rigid_flag(self):
        comps = st.boundary_components(2, 3)
        assert len(comps) == 1
        (c,) = comps
        assert c.d == 3 and c.flags == (st.RIGID_FLAG,)
        G = sg._decode(c.star)
        data = sg.vertex_data(G, G.i1_vertices()[0].vid)
        assert (data.quotient_genus, data.k) == (0, 3)

    def test_invariants(self):
        for g in (2, 3, 4):
            for c in st.boundary_components(g, 7):
                G = sg._decode(c.star)
                sg.check_graph(G, require_stable=True)
                assert len(G.i1_vertices()) == 1
                assert [v for v in G.vertices if v.colour == I0]
                assert st._verdict(sg.canonical_encoding(G))[2] is None
                assert sg.graph_genus(G) == g
                assert c.dim == sg.stratum_dimension(G)
                assert c.codim == 3 * g - 3 - c.dim
                assert c.codim >= 1
                if c.d == 2:
                    j = G.i1_vertices()[0]
                    assert not sg.is_elliptic_tail_vertex(G, j.vid)

    def test_subset_of_full_enumeration(self):
        for g in (2, 3):
            for d in (2, 3, 5, 7):
                all_encs = {
                    sg.canonical_encoding(sg._decode(enc)) for enc in sg.enumerate_graphs(g, d)
                }
                for c in st.boundary_components(g, 7):
                    if c.d == d:
                        assert sg.canonical_encoding(sg._decode(c.star)) in all_encs

    @pytest.mark.parametrize("g", range(2, 7))
    def test_closed_form_encoding(self, g):
        # The closed-form encoding of every star is its canonical encoding.
        for p in primes_upto(2 * g + 1):
            for enc in st._stars(g, p):
                assert sg.canonical_encoding(sg._decode(enc)) == enc

    @pytest.mark.parametrize("g, n_excluded", [(2, 0), (3, 1), (4, 3), (5, 5), (6, 7), (7, 9),
                                               (8, 13)])
    def test_verdict_matches_oracle(self, g, n_excluded):
        # On every star before the exceptional filter, the verdict read off
        # the encoding agrees with the oracle's, its shape with the genus
        # relation at the decoded centre, and its dimension with the graph's.
        n = 0
        for p in primes_upto(2 * g + 1):
            for enc in st._stars(g, p):
                G = sg._decode(enc)
                (h, k), dim, excluded, _ = st._verdict(enc)
                centre = G.i1_vertices()[0]
                data = sg.vertex_data(G, centre.vid)
                assert (h, k) == (data.quotient_genus, data.k)
                assert dim == sg.stratum_dimension(G)
                # A link's label at the tail is 0, so mu + mv is its label at the centre.
                tails = [(v.genus, tuple(sorted(e.mu + e.mv for e in G.edges
                                                if v.vid in (e.u, e.v))))
                         for v in G.vertices if v.colour == I0]
                loops = [(e.mu, e.mv) for e in G.edges if e.u == e.v]
                assert (excluded is not None) == oracles._is_exceptional(
                    p, centre.genus, h, k, loops, tails, centre.free)
                n += excluded is not None
        assert n == n_excluded

    def test_survey_builds_no_graph(self, monkeypatch):
        # A component is its star: neither the survey nor printing builds a graph.
        def forbidden(*args, **kwargs):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(sg, "make_graph", forbidden)
        comps, warnings, _ = st.boundary_survey(8, 17)
        assert comps and warnings
        rep = st.decompose_sing_bar(6, 13)
        assert rep.boundary and any("flagged" in w for w in rep.warnings)

    def test_dmax_truncation_note(self):
        comps_full, _, notes = st.boundary_survey(2, 11)
        assert any("truncated" in n for n in notes)
        assert [
            (c.d, sg.canonical_encoding(sg._decode(c.star))) for c in comps_full
        ] == [
            (c.d, sg.canonical_encoding(sg._decode(c.star)))
            for c in st.boundary_components(2, 5)
        ]


class TestDecomposeSingBar:
    def test_genus3(self):
        rep = st.decompose_sing_bar(3, 7)
        assert len(rep.components()) == 2
        assert len(rep.boundary) == 12
        labels = {r.locus.label() for r in rep.components()}
        assert labels == {"M_{3;2,[(4)]}", "M_{3;3,[(1,4)]}"}

    def test_distinct_canonical_types(self):
        rep = st.decompose_sing_bar(3, 7)
        encs = [sg.canonical_encoding(sg._decode(c.star)) for c in rep.boundary]
        assert len(encs) == len(set(encs))
        loci = [r.locus for r in rep.records]
        assert len(loci) == len(set(loci))

    def test_genus2_rejected(self):
        with pytest.raises(ValueError):
            st.decompose_sing_bar(2, 5)


class TestAutBounds:
    def test_genus3(self):
        rep = st.aut_bounds(3)
        assert (rep.generic_lower, rep.special_config, rep.hurwitz_smooth) == (
            8,
            1296,
            168,
        )
        assert rep.special_exceeds_hurwitz
        assert rep.tail_orders == (2, 4, 6)

    def test_genus2_and_10(self):
        rep = st.aut_bounds(2)
        assert (rep.generic_lower, rep.special_config, rep.hurwitz_smooth) == (
            4,
            144,
            84,
        )
        rep = st.aut_bounds(10)
        assert rep.generic_lower == 1024
        assert rep.special_config == 20 * 6 ** 10
        assert rep.hurwitz_smooth == 756
        assert rep.special_exceeds_hurwitz

    def test_exceeds_checked_not_assumed(self):
        for g in range(2, 51):
            rep = st.aut_bounds(g)
            assert rep.special_config > rep.hurwitz_smooth
