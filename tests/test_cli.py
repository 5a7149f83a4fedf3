import ast
import contextlib
import functools
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cycliccovers import branching as br
from cycliccovers import cli
from cycliccovers import cover_algebra as ca
from cycliccovers import sing_smooth as ss
from cycliccovers import sing_stable as sst
from cycliccovers import stable_graphs as sg
from cycliccovers.combinat import is_prime
from cycliccovers.stable_graphs import I0, I1, Vertex, make_graph, make_link, make_loop


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_twice_identical(capsys, *argv):
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2
    assert out1.encode() == out2.encode()
    return code1, out1


class TestAdmissible:
    def test_genus2_order2(self, capsys):
        code, out = run_twice_identical(
            capsys, "admissible", "--genus", "2", "--order", "2"
        )
        assert code == 0
        assert "counts=(2) h=1 dim=2" in out
        assert "counts=(6) h=0 dim=3" in out

    def test_empty_result_succeeds(self, capsys):
        code, out, _ = run(capsys, "admissible", "--genus", "2", "--order", "7")
        assert code == 0
        assert "total: 0" in out

    def test_order_above_wiman_bound(self, capsys):
        # No search and no table of the size of the order above 4g + 2.
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "admissible", "--genus", "2", "--order", "1000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (0, "total: 0\n")
        assert peak < 10**6

    def test_usage_error(self, capsys):
        code, out, err = run(capsys, "admissible", "--genus", "1", "--order", "2")
        assert code == 1
        assert "usage error" in err

    def test_doc_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "admissible", "--genus", "3", "--order", "2", "--format", "doc"
        )
        assert code == 0
        doc = json.loads(out)
        from cycliccovers import branching as br

        loci = [cli.locus_from_doc(entry) for entry in doc["loci"]]
        assert loci == [br.smooth_locus(3, br.BranchingSequence(2, c))
                        for c, _ in br.enumerate_admissible(3, 2)]


class TestLocus:
    def test_table(self, capsys):
        code, out, _ = run(
            capsys, "locus", "--genus", "3", "--order", "2", "--counts", "8"
        )
        assert code == 0
        assert "M_{3;2,[(8)]}" in out and "codim=1" in out

    def test_inadmissible_is_data_error(self, capsys):
        code, _, err = run(
            capsys, "locus", "--genus", "3", "--order", "3", "--counts", "1,0"
        )
        assert code == 2
        assert "error" in err

    def test_large_prime_order(self, capsys):
        # The canonical datum tries only the images that populate residue 1,
        # never the whole orbit of 19,996 tuples of 19,996 counts.
        counts = ",".join(["2"] + ["0"] * 19994 + ["2"])
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "locus", "--genus", "19996", "--order", "19997",
                                 "--counts", counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert out.endswith(",2)]} h=0 k=4 dim=1 codim=59984\n")
        assert peak < 10**7

    def test_counts_not_integers(self, capsys):
        assert run(capsys, "locus", "--genus", "3", "--order", "2", "--counts", "a") == (
            1, "", "usage error: counts must be comma-separated integers\n")


class TestSing:
    def test_genus3_counts(self, capsys):
        code, out = run_twice_identical(capsys, "sing", "--genus", "3")
        assert code == 0
        comps = [l for l in out.splitlines() if l.startswith("  M_") and "dim" in l]
        assert "components:" in out
        assert out.count("(pseudoreflection)") == 1

    def test_genus2_rejected(self, capsys):
        code, _, err = run(capsys, "sing", "--genus", "2")
        assert code == 1
        assert "g >= 3" in err

    @pytest.mark.parametrize("fmt", ["table", "doc"])
    def test_streams_prime_by_prime(self, capsys, monkeypatch, fmt):
        # Each prime's rows are printed once that prime is done, so a failure
        # at the largest prime leaves the earlier primes' output in place.
        from cycliccovers import sing_smooth as ss

        _, full, _ = run(capsys, "sing", "--genus", "12", "--format", fmt)
        admissible_rows = ss._admissible_rows

        def failing(g, p):
            if p == 23:
                raise RuntimeError("enumeration failed at p = 23")
            return admissible_rows(g, p)

        monkeypatch.setattr(ss, "_admissible_rows", failing)
        with pytest.raises(RuntimeError):
            cli.main(["sing", "--genus", "12", "--format", fmt])
        out = capsys.readouterr().out
        assert full.startswith(out)
        if fmt == "table":
            lines = full.split("redundant:")[0].splitlines()
            p2 = [l for l in lines if l.startswith("  M_{12;2,")]
            assert out.startswith("genus 12\ncomponents:\n")
            assert p2 and all(l + "\n" in out for l in p2)
            assert "redundant:" not in out
        else:
            records = json.loads(full)["records"]
            p2 = [r for r in records if r["locus"]["order"] == 2]
            assert '\n  "records": [\n' in out and '"warnings"' not in out
            assert p2 and all(cli._json(r, "    ") in out for r in p2)
            assert not out.endswith("]")
        # A usage error still leaves stdout empty.
        assert run(capsys, "sing", "--genus", "2", "--format", fmt)[:2] == (1, "")

    def test_doc_roundtrip(self, capsys):
        from cycliccovers import sing_smooth as ss

        for g in (3, 4, 5, 6):
            code, out, _ = run(capsys, "sing", "--genus", str(g), "--format", "doc")
            assert code == 0
            assert cli.report_from_doc(json.loads(out)) == ss.decompose_sing(g)


@functools.cache
def held_report(command, g):
    return ss.decompose_sing(g) if command == "sing" else sst.decompose_sing_bar(g, 2 * g + 1)


class TestPrintedFromRows:
    """`sing`, `sing-bar` and `admissible` print each plain component from its
    (counts, h) row; their stdout must be what `oracles` renders record by
    record from `decompose_sing`, `decompose_sing_bar` and `locus_rows`."""

    @staticmethod
    def printed(capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        return out

    @pytest.mark.parametrize("fmt", ["table", "doc"])
    @pytest.mark.parametrize("command,genera", [("sing", range(3, 41)), ("sing-bar", range(3, 8))])
    def test_report(self, capsys, command, genera, fmt):
        for g in genera:
            argv = [command, "--genus", str(g), "--format", fmt]
            argv += ["--dmax", str(2 * g + 1)] if command == "sing-bar" else []
            assert self.printed(capsys, *argv) == oracles.reference_report_output(
                held_report(command, g), fmt == "doc"), (command, g)

    @pytest.mark.parametrize("fmt", ["table", "doc"])
    def test_admissible(self, capsys, fmt):
        for g in range(2, 16):
            for d in range(2, 4 * g + 3):
                assert self.printed(capsys, "admissible", "--genus", str(g), "--order", str(d),
                                    "--format", fmt) == \
                    oracles.reference_admissible_output(g, d, fmt == "doc"), (g, d)

    @pytest.mark.parametrize("fmt", ["table", "doc"])
    def test_block_longer_than_a_chunk(self, capsys, monkeypatch, fmt):
        # A prime's block is written in chunks of _CHUNK rows: with chunks of
        # 4 rows, genus 12's block at p = 7 takes four chunks.
        monkeypatch.setattr(cli, "_CHUNK", 4)
        assert len(br.enumerate_admissible(12, 7)) == 14
        assert self.printed(capsys, "sing", "--genus", "12", "--format", fmt) == \
            oracles.reference_report_output(held_report("sing", 12), fmt == "doc")
        assert len(br.enumerate_admissible(12, 12)) == 16
        assert self.printed(capsys, "admissible", "--genus", "12", "--order", "12",
                            "--format", fmt) == oracles.reference_admissible_output(
                                12, 12, fmt == "doc")


class TestGraphDocuments:
    def make_doc(self, tmp_path, G, name="graph.json"):
        path = tmp_path / name
        path.write_text(json.dumps(oracles.graph_to_doc(G)), encoding="utf-8")
        return str(path)

    def test_simplify_already_maximal(self, capsys, tmp_path):
        G = make_graph(
            2,
            [Vertex(0, I0, 2), Vertex(1, I1, 1, (3,))],
            [make_link(0, 1, 0, 1)],
        )
        path = self.make_doc(tmp_path, G)
        code, out, _ = run(capsys, "simplify", "--input", path, "--format", "doc")
        assert code == 0
        doc = json.loads(out)
        assert doc["trace"] == []
        assert sg.graph_from_doc(doc["result"]) == sg.canonical_form(G)

    def test_simplify_chain(self, capsys, tmp_path):
        P = make_graph(
            2,
            [Vertex(0, I0, 1), Vertex(1, I0, 1), Vertex(2, I1, 1, (3,))],
            [make_link(0, 1, 0, 0), make_link(1, 2, 0, 1)],
        )
        path = self.make_doc(tmp_path, P)
        code, out, _ = run(capsys, "simplify", "--input", path, "--format", "doc")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["trace"]) == 1
        assert "smooth link" in doc["trace"][0]

    def test_simplify_loop_document(self, capsys, tmp_path):
        P = make_graph(
            5,
            [Vertex(0, I1, 5, None)],
            [make_loop(0, 2, 3)],
        )
        path = self.make_doc(tmp_path, P)
        code, out, _ = run(capsys, "simplify", "--input", path, "--format", "doc")
        assert code == 0
        doc = json.loads(out)
        result = sg.graph_from_doc(doc["result"])
        assert result.vertex(0).genus == 6 and not result.edges

    def test_malformed_document(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{invalid", encoding="utf-8")
        code, _, err = run(capsys, "simplify", "--input", str(path))
        assert code == 2
        assert "line" in err and "column" in err

    def test_invalid_graph_names_clause(self, capsys, tmp_path):
        doc = {
            "order": 2,
            "vertices": [
                {"id": 0, "colour": "I1", "genus": 1, "free_branching": [3]},
                {"id": 1, "colour": "I0", "genus": 1},
            ],
            "edges": [{"type": "link", "ends": [0, 1], "labels": [1, 1]}],
        }
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "simplify", "--input", str(path))
        assert code == 2
        assert "identity" in err or "residue" in err

    @pytest.mark.parametrize("order,free", [(1000000007, None), (10**18 + 3, [1, 1])])
    def test_huge_order_refused_up_front(self, capsys, tmp_path, monkeypatch, order, free):
        # Building the graph would allocate an O(order) tuple, and checking
        # the order would trial-divide up to its square root; neither may run.
        def forbidden(*args, **kwargs):
            raise AssertionError("reached before the order cap")

        monkeypatch.setattr(sg, "make_graph", forbidden)
        monkeypatch.setattr(sg, "is_prime", forbidden)
        vertex = {"id": 0, "colour": "I1", "genus": 2}
        if free is not None:
            vertex["free_branching"] = free
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"order": order, "vertices": [vertex], "edges": []}),
                        encoding="utf-8")
        code, out, err = run(capsys, "simplify", "--input", str(path))
        assert code == 2 and out == ""
        assert err == "error: order %d exceeds the graph document limit of %d\n" % (
            order, sg.MAX_DOC_ORDER)

    @pytest.mark.parametrize("order", [6, 1000000000000000003])
    def test_graphs_above_2g_plus_1_unsearched(self, capsys, monkeypatch, order):
        # No graph exists above 2g + 1, so the order is never trial-divided.
        def forbidden(*args, **kwargs):
            raise AssertionError("primality tested above 2g + 1")

        monkeypatch.setattr(sg, "is_prime", forbidden)
        code, out, err = run(capsys, "graphs", "--genus", "2", "--order", str(order))
        assert (code, out, err) == (0, "total: 0\n", "")

    @pytest.mark.parametrize("fmt", ["table", "doc"])
    @pytest.mark.parametrize("order", [4, 9])
    def test_graphs_composite_order_refused(self, capsys, order, fmt):
        # Up to 2g + 1 the order is tested for primality before any output.
        code, out, err = run(capsys, "graphs", "--genus", "4", "--order", str(order),
                             "--format", fmt)
        assert (code, out, err) == (2, "", "error: order must be a prime number\n")

    @pytest.mark.parametrize("fmt", ["table", "doc"])
    def test_printed_from_encodings(self, capsys, monkeypatch, fmt):
        def forbidden(*args, **kwargs):
            raise AssertionError("a graph was decoded to be printed")

        monkeypatch.setattr(sg, "_decode", forbidden)
        for argv in (("graphs", "--genus", "3", "--order", "3"),
                     ("boundary", "--genus", "4", "--dmax", "7"),
                     ("sing-bar", "--genus", "4", "--dmax", "7")):
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert code == 0 and out and not err

    def test_enlarge(self, capsys, tmp_path):
        G = make_graph(
            3,
            [Vertex(0, I1, 1, (2, 0)), Vertex(1, I1, 1, (2, 0))],
            [make_link(0, 1, 1, 1)],
        )
        path = self.make_doc(tmp_path, G)
        code, out, _ = run(
            capsys, "enlarge", "--input", path, "--vertex", "1",
            "--kind", "detached", "--format", "doc",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["dim_after"] >= doc["dim_before"]
        out_graph = sg.graph_from_doc(doc["result"])
        assert len(out_graph.i1_vertices()) == 1

    def test_enlarge_attached_needs_second_i1(self, capsys, tmp_path):
        # The first boundary component at genus 3 has one I1 vertex, so
        # there is no other nontrivially acted component to keep.
        G = make_graph(2, [Vertex(0, I0, 0), Vertex(1, I1, 1, (1,))],
                       [make_link(0, 1, 0, 1)] * 3)
        path = self.make_doc(tmp_path, G)
        assert run(capsys, "enlarge", "--input", path, "--vertex", "1",
                   "--kind", "attached") == (
            2, "", "error: need another nontrivially acted component\n")

    def test_enlarge_unstable_summand(self, capsys, tmp_path):
        # A maximal document need not be stable: the rational I0 vertex has
        # one edge-end, and the stratum dimension refuses it.
        G = make_graph(
            3,
            [Vertex(0, I0, 0), Vertex(1, I1, 1, (1, 0)), Vertex(2, I1, 0, (0, 1))],
            [make_link(0, 1, 0, 1), make_link(1, 2, 1, 1)],
        )
        path = self.make_doc(tmp_path, G)
        assert run(capsys, "enlarge", "--input", path, "--vertex", "2",
                   "--kind", "detached") == (
            2, "", "error: unstable summand at vertex 0: genus 0 with 1 marks\n")

    def test_enlarge_unstable_summand_names_vertex_id(self, capsys, tmp_path):
        # The same graph with ids 7, 3 and 12: the refusal names the
        # document's vertex id, not the vertex's position.
        doc = graph_doc(3, [(7, "I0", 0), (3, "I1", 1, [1, 0]), (12, "I1", 0, [0, 1])],
                        [link_entry(7, 3, 0, 1), link_entry(3, 12, 1, 1)])
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run(capsys, "enlarge", "--input", str(path), "--vertex", "12",
                   "--kind", "detached") == (
            2, "", "error: unstable summand at vertex 7: genus 0 with 1 marks\n")

    def test_enlarge_refuses_result_summand_first(self, capsys, tmp_path):
        # Both the result and G have an unstable summand at vertex 0: the
        # trivialised rational vertex keeps one edge-end, and G's I1 vertex
        # 0 has a quotient of genus 0 with 2 marks.  The result's is named.
        G = make_graph(3, [Vertex(0, I1, 0, (0, 1)), Vertex(1, I1, 1, (2, 0))],
                       [make_link(0, 1, 1, 1)])
        path = self.make_doc(tmp_path, G)
        assert run(capsys, "enlarge", "--input", path, "--vertex", "0",
                   "--kind", "detached") == (
            2, "", "error: unstable summand at vertex 0: genus 0 with 1 marks\n")

    @pytest.mark.parametrize("kind,vertex,vertices,edges", [
        ("detached", 1, [Vertex(0, I1, 1, (2, 0)), Vertex(1, I1, 1, (2, 0))],
         [make_link(0, 1, 1, 1)]),
        ("attached", 1, [Vertex(0, I1, 1, (2, 0)), Vertex(1, I1, 1, (1, 0)), Vertex(2, I0, 1)],
         [make_link(0, 1, 1, 1), make_link(1, 2, 1, 0)]),
        ("max", 0, [Vertex(0, I1, 1, (2, 0)), Vertex(1, I1, 1, (1, 0)),
                    Vertex(2, I1, 1, (2, 0))],
         [make_link(0, 1, 1, 1), make_link(1, 2, 1, 1)]),
    ])
    def test_enlarge_checks_each_graph_once(self, capsys, tmp_path, monkeypatch, kind,
                                            vertex, vertices, edges):
        # G, the trivialised graph and the result are each validated once.
        calls = []
        check_graph = sg.check_graph

        def counted(*args, **kwargs):
            calls.append(args[0])
            return check_graph(*args, **kwargs)

        monkeypatch.setattr(sg, "check_graph", counted)
        path = self.make_doc(tmp_path, make_graph(3, vertices, edges))
        code, out, err = run(capsys, "enlarge", "--input", path, "--vertex", str(vertex),
                             "--kind", kind)
        assert (code, err) == (0, "") and out
        assert len(calls) == 3

    def test_unreadable_input(self, capsys, tmp_path):
        code, out, err = run(capsys, "simplify", "--input", str(tmp_path / "missing.json"))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read ") and err.count("\n") == 1


class TestBoundaryAndBounds:
    def test_boundary_table(self, capsys):
        code, out = run_twice_identical(
            capsys, "boundary", "--genus", "2", "--dmax", "3"
        )
        assert code == 0
        assert "total: 1" in out
        assert "rigid_I1_cover" in out

    def test_boundary_doc_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "boundary", "--genus", "3", "--dmax", "5", "--format", "doc"
        )
        assert code == 0
        doc = json.loads(out)
        from cycliccovers import sing_stable as st

        comps = [cli.boundary_from_doc(c) for c in doc["components"]]
        assert comps == list(st.boundary_components(3, 5))

    def test_sing_bar(self, capsys):
        code, out = run_twice_identical(
            capsys, "sing-bar", "--genus", "3", "--dmax", "3"
        )
        assert code == 0
        assert "boundary" in out

    def test_order_cap_note(self, capsys):
        code, out, _ = run(capsys, "boundary", "--genus", "2", "--dmax", "11")
        assert code == 0
        assert out.splitlines()[-1] == (
            "note: order cap: no prime above 5 acts faithfully at genus 2; request truncated")

    @pytest.mark.parametrize("dmax", ["1", "-5"])
    @pytest.mark.parametrize("command", ["boundary", "sing-bar"])
    def test_dmax_below_two_is_usage_error(self, capsys, command, dmax):
        # `boundary` used to exit 2 here, `sing-bar` 1.
        code, out, err = run(capsys, command, "--genus", "3", "--dmax", dmax)
        assert (code, out) == (1, "")
        assert err == "usage error: dmax must be at least 2\n"

    def test_bounds(self, capsys):
        code, out, _ = run(capsys, "bounds", "--genus", "3")
        assert code == 0
        assert "generic>=8" in out and "special=1296" in out and "hurwitz=168" in out

    @staticmethod
    def _int_from_digits(digits):
        # parse in short pieces: int(str) has the same digit limit as str(int)
        value = 0
        for i in range(0, len(digits), 400):
            piece = digits[i:i + 400]
            value = value * 10 ** len(piece) + int(piece)
        return value

    @pytest.mark.parametrize("fmt", ["table", "doc"])
    def test_bounds_past_digit_limit(self, capsys, fmt):
        g = 100000
        code, out, err = run(capsys, "bounds", "--genus", str(g), "--format", fmt)
        assert code == 0 and err == ""
        if fmt == "table":
            generic = re.search(r"generic>=(\d+) ", out).group(1)
            special = re.search(r"special=(\d+) ", out).group(1)
        else:
            generic = re.search(r'"generic_lower": (\d+),', out).group(1)
            special = re.search(r'"special_config": (\d+),', out).group(1)
            assert '"hurwitz_smooth": %d,' % (84 * (g - 1)) in out
        assert len(special) > 4300
        assert self._int_from_digits(generic) == 2 ** g
        assert self._int_from_digits(special) == 2 * g * 6 ** g


class TestCoverCheck:
    def test_check(self, capsys, tmp_path):
        doc = {
            "order": 4,
            "picard": {"free_rank": 1, "torsion": [2]},
            "L": {"free": [1], "torsion": [0]},
            "divisors": {"2": [{"symbol": "D", "class": {"free": [2], "torsion": [1]}}]},
        }
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "cover", "check", "--input", str(path))
        assert code == 0
        assert "irreducible" in out

    def test_inconsistent_document(self, capsys, tmp_path):
        doc = {
            "order": 4,
            "picard": {"free_rank": 1, "torsion": []},
            "L": {"free": [1], "torsion": []},
            "divisors": {"2": [{"symbol": "D", "class": {"free": [1], "torsion": []}}]},
        }
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "cover", "check", "--input", str(path))
        assert code == 2

    @pytest.mark.parametrize("field,value", [
        ("divisors", [{"symbol": "D", "class": {"free": [2], "torsion": [1]}}]),
        ("L", [1, 0]),
        ("picard", [1, [2]]),
    ])
    def test_list_in_place_of_object(self, capsys, tmp_path, field, value):
        doc = {
            "order": 4,
            "picard": {"free_rank": 1, "torsion": [2]},
            "L": {"free": [1], "torsion": [0]},
            "divisors": {"2": [{"symbol": "D", "class": {"free": [2], "torsion": [1]}}]},
        }
        doc[field] = value
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "cover", "check", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: malformed cover document") and err.count("\n") == 1

    def test_huge_free_rank_with_short_classes(self, capsys, tmp_path):
        # A short document naming a vast free rank is refused at its first
        # class, before any work of the size of the free rank.
        doc = {"order": 2, "picard": {"free_rank": 10**7},
               "L": {"free": [0]}, "divisors": {}}
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "cover", "check", "--input", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert "coordinate lengths do not match the group" in err
        assert peak < 10**6

    def test_builds_no_class_per_symbol(self, capsys, tmp_path, monkeypatch):
        # The divisors stay a table of coordinate rows: class objects are
        # built for L and for each sum, however many symbols there are.
        from cycliccovers import cover_algebra as ca

        built = []
        new = ca.DivisorClass.__new__

        def counted(cls, *args):
            built.append(args)
            return new(cls, *args)

        monkeypatch.setattr(ca.DivisorClass, "__new__", counted)
        counts = []
        for nsym in (20, 200):
            path = tmp_path / "cover.json"
            path.write_text(json.dumps(cover_document(random.Random(nsym), 24, 4, nsym, 1)),
                            encoding="utf-8")
            built.clear()
            assert run(capsys, "cover", "check", "--input", str(path))[0] == 0
            counts.append(len(built))
        assert counts[0] == counts[1] <= 3


# Valid documents of each kind, whose numbers the tests below spoil.
TAIL_GRAPH_DOC = {
    "order": 2,
    "vertices": [
        {"id": 0, "colour": "I0", "genus": 1},
        {"id": 1, "colour": "I1", "genus": 1, "free_branching": [3]},
    ],
    "edges": [{"type": "link", "ends": [0, 1], "labels": [0, 1]}],
}
COVER_DOC = {
    "order": 4,
    "picard": {"free_rank": 1, "torsion": [2]},
    "L": {"free": [1], "torsion": [0]},
    "divisors": {"2": [{"symbol": "D", "class": {"free": [2], "torsion": [1]}}]},
}

# An order-2 loop whose two branches the involution swaps; as a plain loop
# the vertex would fail the genus relation.
SWAPPED_LOOP_DOC = {
    "order": 2,
    "vertices": [{"id": 0, "colour": "I1", "genus": 1, "free_branching": [4]}],
    "edges": [{"type": "loop", "vertex": 0, "pair": [1, 1], "branch_swapped": True}],
}


def spoiled(doc, path, value):
    """A deep copy of doc with the entry at path (keys and list indices)
    replaced by value."""
    out = json.loads(json.dumps(doc))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def cover_item(symbol, free=(0,), torsion=(0,)):
    return {"symbol": symbol, "class": {"free": list(free), "torsion": list(torsion)}}


# Cover documents with two faults each, as changes to COVER_DOC, and the one
# stderr line of `cover check`, recorded before the reader filled a symbol
# table: the fault earlier in the refusal order wins.
COVER_REFUSALS = {
    "coordinate-before-duplicate": (
        {"divisors": {"1": [cover_item("A", [1.5])], "2": [cover_item("A")]}},
        "malformed cover document: a free coordinate must be an integer, not float"),
    "length-before-residue-range": (
        {"divisors": {"1": [cover_item("A", [1, 2])], "9": [cover_item("B")]}},
        "coordinate lengths do not match the group"),
    "mixed-symbols-before-validity": (
        {"divisors": {"2": [cover_item("A", [5]), cover_item(3)]}},
        "malformed cover document: '<' not supported between instances of 'int' and 'str'"),
    "mixed-symbols-before-order": (
        {"order": 1, "divisors": {"1": [cover_item("A"), cover_item(3)]}},
        "malformed cover document: '<' not supported between instances of 'int' and 'str'"),
    "coordinate-before-mixed-symbols": (
        {"divisors": {"1": [cover_item("A"), cover_item(3)], "2": [cover_item("B", [0.5])]}},
        "malformed cover document: a free coordinate must be an integer, not float"),
    "L-length-before-mixed-symbols": (
        {"L": {"free": [1], "torsion": [0, 0]},
         "divisors": {"1": [cover_item("A"), cover_item(3)]}},
        "coordinate lengths do not match the group"),
    "coordinate-before-next-missing-symbol": (
        {"divisors": {"2": [cover_item("A", [True]), {"class": {"free": [0]}}]}},
        "malformed cover document: a free coordinate must be an integer, not bool"),
    "torsion-before-next-free": (
        {"divisors": {"2": [cover_item("A", torsion=["1"]), cover_item("B", [0.5])]}},
        "malformed cover document: a torsion coordinate must be an integer, not str"),
    "coordinates-before-lengths": (
        {"divisors": {"2": [cover_item("A", [1, 2], [None])]}},
        "malformed cover document: a torsion coordinate must be an integer, not NoneType"),
    "coordinate-before-later-key": (
        {"divisors": {"2": [cover_item("A", [0.0])], "03": [cover_item("B")]}},
        "malformed cover document: a free coordinate must be an integer, not float"),
    "key-before-later-coordinate": (
        {"divisors": {"03": [cover_item("B")], "2": [cover_item("A", [0.0])]}},
        "malformed cover document: divisor residue '03' is not a canonical decimal integer"),
    "divisors-before-order": (
        {"order": 4.0, "divisors": {"2": [cover_item("A", [1, 1])]}},
        "coordinate lengths do not match the group"),
    "order-before-L": (
        {"order": "4", "L": {"free": [1, 1], "torsion": [0]}},
        "malformed cover document: order must be an integer, not str"),
    "L-length-before-duplicate": (
        {"L": {"free": [1]}, "divisors": {"1": [cover_item("A")], "2": [cover_item("A")]}},
        "coordinate lengths do not match the group"),
    "order-below-2-before-residue-range": (
        {"order": 1, "divisors": {"5": [cover_item("A")]}},
        "order must be at least 2"),
    "duplicate-before-higher-residue-range": (
        {"divisors": {"1": [cover_item("A")], "3": [cover_item("A")], "7": [cover_item("B")]}},
        "symbol 'A' appears in two divisors"),
    "lower-residue-range-before-duplicate": (
        {"divisors": {"1": [cover_item("A")], "3": [cover_item("A")], "0": [cover_item("B")]}},
        "divisor residue 0 out of range"),
    "empty-residue-range-before-validity": (
        {"divisors": {"0": [], "2": [cover_item("A", [5])]}},
        "divisor residue 0 out of range"),
    "empty-residue-range-before-duplicate": (
        {"divisors": {"0": [], "1": [cover_item("A")], "2": [cover_item("A")]}},
        "divisor residue 0 out of range"),
    "torsion-chain-before-coordinate": (
        {"picard": {"free_rank": 1, "torsion": [4, 2]},
         "divisors": {"2": [cover_item("A", [0.5])]}},
        "torsion factors must form a divisibility chain"),
    "free-rank-before-torsion-factor": (
        {"picard": {"free_rank": -1, "torsion": [1]}},
        "free rank must be non-negative"),
    "free-rank-type-before-torsion-type": (
        {"picard": {"free_rank": "1", "torsion": ["2"]}},
        "malformed cover document: free_rank must be an integer, not str"),
    "unhashable-symbol-before-validity": (
        {"divisors": {"2": [cover_item(["A"], [5])]}},
        "malformed cover document: unhashable type: 'list'"),
    "duplicate-before-unhashable-symbol": (
        {"divisors": {"1": [cover_item("A")], "2": [cover_item("A")], "3": [cover_item(["B"])]}},
        "symbol 'A' appears in two divisors"),
    "equal-number-symbols": (
        {"divisors": {"1": [cover_item(1)], "3": [cover_item(True), cover_item(0)]}},
        "symbol True appears in two divisors"),
    "missing-class-before-duplicate": (
        {"divisors": {"1": [{"symbol": "A"}], "2": [cover_item("A")]}},
        "malformed cover document: 'class'"),
    "class-not-object-before-next-item": (
        {"divisors": {"2": [{"symbol": "A", "class": [0]}, {"class": {"free": [0]}}]}},
        "malformed cover document: a divisor class must be an object"),
    "items-not-a-list-before-later-residue": (
        {"divisors": {"2": 5, "1": [cover_item("A", [0.5])]}},
        "malformed cover document: 'int' object is not iterable"),
    "free-not-a-list-before-torsion": (
        {"divisors": {"2": [{"symbol": "A", "class": {"free": 3, "torsion": [0.5]}}]}},
        "malformed cover document: 'int' object is not iterable"),
    "divisors-not-object-before-order": (
        {"order": None, "divisors": [cover_item("A")]},
        "malformed cover document: divisors must be an object"),
    "picard-not-object-before-divisors": (
        {"picard": [1], "divisors": 5},
        "malformed cover document: picard must be an object"),
}


class TestCoverRefusalOrder:
    @pytest.mark.parametrize("case", sorted(COVER_REFUSALS))
    def test_earlier_fault_wins(self, capsys, tmp_path, case):
        changes, line = COVER_REFUSALS[case]
        path = tmp_path / "cover.json"
        path.write_text(json.dumps({**COVER_DOC, **changes}), encoding="utf-8")
        assert run(capsys, "cover", "check", "--input", str(path)) == (2, "", "error: %s\n" % line)


class TestDocumentNumbers:
    def refused(self, capsys, tmp_path, command, text):
        path = tmp_path / "doc.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, *command, "--input", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_valid_documents_pass(self, capsys, tmp_path):
        for command, doc in ((("simplify",), TAIL_GRAPH_DOC),
                             (("cover", "check"), COVER_DOC)):
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert run(capsys, *command, "--input", str(path))[0] == 0

    @pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
    @pytest.mark.parametrize("command,doc,path", [
        pytest.param(("simplify",), TAIL_GRAPH_DOC, ("order",), id="graph-order"),
        pytest.param(("simplify",), TAIL_GRAPH_DOC, ("vertices", 1, "free_branching", 0),
                     id="graph-free"),
        pytest.param(("cover", "check"), COVER_DOC, ("L", "free", 0), id="cover-L"),
        pytest.param(("cover", "check"), COVER_DOC, ("order",), id="cover-order"),
    ])
    def test_non_finite_number(self, capsys, tmp_path, constant, command, doc, path):
        text = json.dumps(spoiled(doc, path, "CONSTANT")).replace('"CONSTANT"', constant)
        err = self.refused(capsys, tmp_path, command, text)
        assert "non-finite number %s" % constant in err

    @pytest.mark.parametrize("path,value", [
        (("order",), 2.0),
        (("order",), "2"),
        (("vertices", 0, "id"), False),
        (("vertices", 0, "genus"), 1.5),
        (("vertices", 1, "free_branching"), "3"),
        (("edges", 0, "ends"), [0, 1.0]),
        (("edges", 0, "labels", 1), True),
    ])
    def test_graph_numbers_are_integers(self, capsys, tmp_path, path, value):
        err = self.refused(capsys, tmp_path, ("simplify",),
                           json.dumps(spoiled(TAIL_GRAPH_DOC, path, value)))
        assert err.startswith("error: malformed graph document: ")
        assert "must be an integer" in err

    @pytest.mark.parametrize("path,value", [
        (("order",), 4.5),
        (("order",), True),
        (("picard", "free_rank"), "1"),
        (("picard", "torsion"), "2"),
        (("L", "free"), "1"),
        (("L", "torsion", 0), 0.0),
        (("divisors", "2", 0, "class", "free", 0), 2.0),
    ])
    def test_cover_numbers_are_integers(self, capsys, tmp_path, path, value):
        err = self.refused(capsys, tmp_path, ("cover", "check"),
                           json.dumps(spoiled(COVER_DOC, path, value)))
        assert err.startswith("error: malformed cover document: ")
        assert "must be an integer" in err


    @pytest.mark.parametrize("command,text", [
        pytest.param(("cover", "check"), json.dumps(COVER_DOC)[:-1] + ', "order": 2}',
                     id="repeated-top-key"),
        pytest.param(("cover", "check"), json.dumps(COVER_DOC).replace(
            '"divisors": {', '"divisors": {"2": [{"symbol": "E", "class": '
            '{"free": [2], "torsion": [1]}}], '), id="repeated-residue"),
        pytest.param(("simplify",), json.dumps(TAIL_GRAPH_DOC).replace(
            '"genus": 1,', '"genus": 1, "genus": 2,', 1), id="repeated-graph-key"),
    ])
    def test_repeated_key(self, capsys, tmp_path, command, text):
        err = self.refused(capsys, tmp_path, command, text)
        assert "repeated key" in err

    @pytest.mark.parametrize("key", ["02", "+2", " 2", "2 ", "-02", "\u0662", "1_0", ""])
    def test_residue_key_is_canonical_decimal(self, capsys, tmp_path, key):
        # "02" ahead of "2" used to name residue 2 twice, the later entry
        # silently replacing the earlier one.
        doc = {**COVER_DOC, "divisors": {
            key: [{"symbol": "E", "class": {"free": [2], "torsion": [1]}}],
            **COVER_DOC["divisors"]}}
        err = self.refused(capsys, tmp_path, ("cover", "check"), json.dumps(doc))
        assert err.startswith("error: malformed cover document: divisor residue ")

    @pytest.mark.parametrize("command,text,message", [
        pytest.param(("simplify",), json.dumps(TAIL_GRAPH_DOC).replace(
            '"I1"', "[" * 900 + "]" * 900), "unknown colour", id="nested-colour"),
        pytest.param(("simplify",), json.dumps(TAIL_GRAPH_DOC).replace(
            '"I1"', json.dumps("I" * 5000)), "unknown colour", id="long-colour"),
        pytest.param(("simplify",), json.dumps(TAIL_GRAPH_DOC).replace(
            '"link"', "[" * 900 + "]" * 900), "unknown edge type", id="nested-edge-type"),
        pytest.param(("simplify",), json.dumps(TAIL_GRAPH_DOC).replace(
            '"genus": 1,', '"%s": 1, "%s": 2,' % ("k" * 5000, "k" * 5000), 1),
            "repeated key", id="long-repeated-key"),
        pytest.param(("cover", "check"), json.dumps(COVER_DOC).replace(
            '"2":', json.dumps("0" * 4000 + "2") + ":"), "divisor residue",
            id="long-residue-key"),
        pytest.param(("cover", "check"), json.dumps(dict(COVER_DOC, divisors={
            str(i): [{"symbol": "S" * 5000, "class": {"free": [0], "torsion": [0]}}]
            for i in (1, 2)})), "appears in two divisors", id="long-symbol"),
        pytest.param(("cover", "check"), json.dumps(dict(COVER_DOC, divisors={
            str(i): [{"symbol": int("7" * 4001), "class": {"free": [0], "torsion": [0]}}]
            for i in (1, 2)})), "appears in two divisors", id="long-integer-symbol"),
    ])
    def test_echoed_value_is_clipped(self, capsys, tmp_path, command, text, message):
        # The value used to be echoed whole: a 900-deep colour printed 1,800
        # brackets on the one error line.
        err = self.refused(capsys, tmp_path, command, text)
        assert message in err and len(err.rstrip("\n")) <= 200

    @pytest.mark.parametrize("command", [("simplify",), ("cover", "check")])
    @pytest.mark.parametrize("opening", ["[", '{"a": '])
    def test_nested_too_deeply(self, capsys, tmp_path, command, opening):
        closing = "]" if opening == "[" else "}"
        err = self.refused(capsys, tmp_path, command,
                           opening * 200000 + "0" + closing * 200000)
        assert "nested too deeply" in err

    @pytest.mark.parametrize("label", [2, 5, -1])
    @pytest.mark.parametrize("kind", ["detached", "attached", "max"])
    def test_enlarge_label_out_of_range(self, capsys, tmp_path, label, kind):
        # enlarge used to read the vertex data of the unchecked input graph,
        # and a label past the free-branching entries raised an IndexError.
        err = self.refused(capsys, tmp_path, ("enlarge", "--vertex", "1", "--kind", kind),
                           json.dumps(spoiled(TAIL_GRAPH_DOC, ("edges", 0, "labels", 1),
                                              label)))
        assert "needs a nonzero residue" in err

    def test_swapped_loop_document_passes(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(SWAPPED_LOOP_DOC), encoding="utf-8")
        assert run(capsys, "simplify", "--input", str(path))[0] == 0

    @pytest.mark.parametrize("value", ["no", "yes", 1, 0, None, [], {}])
    def test_branch_swapped_is_boolean(self, capsys, tmp_path, value):
        # bool("no") is True: a string used to mark the loop as swapped.
        err = self.refused(capsys, tmp_path, ("simplify",), json.dumps(
            spoiled(SWAPPED_LOOP_DOC, ("edges", 0, "branch_swapped"), value)))
        assert err.startswith("error: malformed graph document: branch_swapped ")


def graph_doc(order, vertices, edges=()):
    """A graph document; each vertex is (id, colour, genus) or
    (id, colour, genus, free_branching)."""
    keys = ("id", "colour", "genus", "free_branching")
    return {"order": order, "vertices": [dict(zip(keys, v)) for v in vertices],
            "edges": list(edges)}


def link_entry(u, v, mu, mv):
    return {"type": "link", "ends": [u, v], "labels": [mu, mv]}


def loop_entry(vid, a, b, swapped=False):
    entry = {"type": "loop", "vertex": vid, "pair": [a, b]}
    if swapped:
        entry["branch_swapped"] = True
    return entry


# One minimal document per clause of check_graph that a graph mid-rewrite
# can break; simplify validates its input as such a graph, stability included.
PRE_GRAPH_CLAUSES = [
    ("not-prime", graph_doc(4, [(0, "I0", 2)]), "order must be a prime number"),
    ("no-vertices", graph_doc(2, []), "graph has no vertices"),
    ("duplicate-ids", graph_doc(2, [(0, "I0", 2), (0, "I0", 2)]), "duplicate vertex ids"),
    ("unknown-colour", graph_doc(2, [(0, "I2", 2)]), "vertex 0: unknown colour 'I2'"),
    ("negative-genus", graph_doc(2, [(0, "I0", -1)]), "vertex 0: negative genus"),
    ("free-length", graph_doc(3, [(0, "I1", 1, [2])]),
     "vertex 0: free branching must have 2 entries"),
    ("negative-free", graph_doc(2, [(0, "I1", 1, [-1])]), "vertex 0: negative free branching"),
    ("i0-free", graph_doc(2, [(0, "I0", 2, [7])]),
     "vertex 0: identity components carry no branching"),
    ("link-to-itself", graph_doc(2, [(0, "I1", 1, [3])], [link_entry(0, 0, 1, 1)]),
     "a link must join two distinct vertices"),
    ("link-missing-vertex",
     graph_doc(2, [(0, "I0", 1), (1, "I1", 1, [3])], [link_entry(0, 2, 0, 1)]),
     "link references a missing vertex"),
    ("link-i0-label", graph_doc(2, [(0, "I0", 1), (1, "I1", 1, [3])], [link_entry(0, 1, 1, 1)]),
     "link end at identity vertex 0 must carry 0"),
    ("link-i1-label", graph_doc(3, [(0, "I0", 1), (1, "I1", 1, [1, 1])],
                                [link_entry(0, 1, 0, 0)]),
     "link end at vertex 1 needs a nonzero residue"),
    ("loop-missing-vertex", graph_doc(3, [(0, "I1", 1, [1, 1])], [loop_entry(1, 1, 1)]),
     "loop references a missing vertex"),
    ("swapped-loop-on-i0", graph_doc(2, [(0, "I0", 2)], [loop_entry(0, 0, 0, True)]),
     "an identity component cannot swap branches"),
    ("swapped-loop-labels", graph_doc(2, [(0, "I1", 1, [4])], [loop_entry(0, 1, 2, True)]),
     "loop labels out of range at vertex 0"),
    ("i0-loop-labels", graph_doc(3, [(0, "I0", 2)], [loop_entry(0, 1, 2)]),
     "a loop on an identity component carries (0,0)"),
    ("i1-loop-labels", graph_doc(3, [(0, "I1", 1, [1, 1])], [loop_entry(0, 0, 1)]),
     "loop labels out of range at vertex 0"),
    ("not-connected", graph_doc(2, [(0, "I0", 2), (1, "I0", 2)]), "graph is not connected"),
    ("residue-sum", graph_doc(3, [(0, "I1", 0, [1, 0])]),
     "vertex 0: branch residues sum to 1 mod 3, no vertex cover exists"),
    ("unstable", graph_doc(2, [(0, "I1", 0, [2])]), "graph fails stability"),
]

# One document per clause that only a maximal graph must meet; enlarge
# validates its input as a maximal graph before it reads --vertex.
MAXIMAL_GRAPH_CLAUSES = [
    ("i0-i0-link", graph_doc(2, [(0, "I0", 1), (1, "I0", 1)], [link_entry(0, 1, 0, 0)]),
     "maximal graphs admit no link between two identity components"),
    ("link-sum-zero", graph_doc(3, [(0, "I1", 1, [1, 1]), (1, "I1", 1, [1, 1])],
                                [link_entry(0, 1, 1, 2)]),
     "maximal graphs admit no link with labels summing to 0 mod 3"),
    ("swapped-loop", graph_doc(2, [(0, "I1", 1, [4])], [loop_entry(0, 1, 1, True)]),
     "maximal graphs admit no branch-swapping loop"),
    ("i0-loop", graph_doc(2, [(0, "I0", 2)], [loop_entry(0, 0, 0)]),
     "maximal graphs admit no loop on an identity component"),
    ("loop-sum-zero", graph_doc(3, [(0, "I1", 1, [1, 1])], [loop_entry(0, 1, 2)]),
     "maximal graphs admit no loop with labels summing to 0 mod 3"),
]


def clause_params(rows):
    return [pytest.param(doc, message, id=name) for name, doc, message in rows]


class TestCheckGraphMessages:
    """Every clause of check_graph by its exact message."""

    def run_doc(self, capsys, tmp_path, doc, *argv):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return run(capsys, *argv, "--input", str(path))

    @pytest.mark.parametrize("doc,message", clause_params(PRE_GRAPH_CLAUSES))
    def test_pre_graph_clause(self, capsys, tmp_path, doc, message):
        assert self.run_doc(capsys, tmp_path, doc, "simplify") == (2, "", "error: %s\n" % message)

    @pytest.mark.parametrize("kind", ["detached", "attached", "max"])
    @pytest.mark.parametrize("doc,message", clause_params(MAXIMAL_GRAPH_CLAUSES))
    def test_maximal_graph_clause(self, capsys, tmp_path, doc, message, kind):
        argv = ("enlarge", "--vertex", "0", "--kind", kind)
        assert self.run_doc(capsys, tmp_path, doc, *argv) == (2, "", "error: %s\n" % message)

    @pytest.mark.parametrize("G,message", [
        # A zero label at an I1 end is refused by the edge clauses.
        pytest.param(make_graph(3, [Vertex(0, I1, 1, (0, 0)), Vertex(1, I0, 1)],
                                [make_link(0, 1, 0, 0)]),
                     "link end at vertex 0 needs a nonzero residue", id="zero-label"),
        pytest.param(make_graph(3, [Vertex(0, I1, 1, (0, 0))], [make_loop(0, 0, 1)]),
                     "loop labels out of range at vertex 0", id="zero-label-on-loop"),
        pytest.param(make_graph(3, [Vertex(0, I1, 1, (1, 1))]),
                     "vertex 0: genus relation has no non-negative integer quotient genus "
                     "(genus 1, k 2, order 3)", id="no-quotient-genus"),
    ])
    def test_vertex_data_clause(self, G, message):
        with pytest.raises(sg.GraphError) as info:
            sg.check_graph(G)
        assert str(info.value) == message


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("admissible", "--genus", "4", "--order", "3"),
            ("admissible", "--genus", "4", "--order", "3", "--format", "doc"),
            ("sing", "--genus", "4", "--format", "doc"),
            ("graphs", "--genus", "2", "--order", "2", "--format", "doc"),
            ("boundary", "--genus", "3", "--dmax", "7", "--format", "doc"),
            ("bounds", "--genus", "7", "--format", "doc"),
            ("locus", "--genus", "3", "--order", "2", "--counts", "4"),
        ],
    )
    def test_byte_identical(self, capsys, argv):
        run_twice_identical(capsys, *argv)


# SHA-1 of the stdout of `sing --genus g` and of `admissible --genus g
# --order d` at the interior benchmark's (g, d) pairs, taken before the
# enumerator generated orbit representatives directly.  The prime orders
# (27, 7), (27, 19) and (40, 11), outside the benchmark, were taken before
# prime orders were searched as gap necklaces.
SING_SHA1 = {
    3: "6097a6c71f9a51b33c334439d640074497f9e4c7",
    4: "9b005364fe2c804a01064283f8e31fb4991f979f",
    5: "2672184ac18a960390fce4ad1d7dfd36b60dd813",
    6: "dbded88fdc81befaf827044245446e0a480e6c3c",
    7: "766d0ef91e7d1ed888f90bc4b35d7efe00065066",
    8: "519af6afc4e4f79b039542aa1cc384d502dc9f4d",
    9: "02106258aa5b4ad6cad2661d525b3f7bb7db65c1",
    10: "11fd769ffd5906c15e822657565e0843d76eeae9",
    11: "77226e5f8559a7a4d107359522f8f6d33c3596df",
    12: "d8bd08d3c454c83133934968e1d55a473fd049cf",
    13: "1657a97dca280059b72160fb97cb0ccef6a2bffe",
    14: "46c68b9988b7a3673f06420c0e1eefe032c02ce5",
    15: "2b030b7c6b6604573ce41e783a5964bfc0b88270",
    16: "ad7bcfe14dead030343fe3c9a76f734b5f9a7adf",
    17: "be0c1af0aa4b5e91368486ec72ed9591a71eccdf",
    18: "e8e4c9dd3e4a16f4fa389d8e43a4fdca5f031329",
    19: "b0936b87e77d86d635088561f67ce62764825fef",
    20: "2dfa5e97a58757dcbdf289914f85e9b4ccf594ab",
    21: "de24fccec0f5b3fa10dd6cccf04bfc84d8193681",
    22: "96ee3b8dd4626ed49af8adcf0c4b2619817a1ef6",
    23: "7488e6fe5e304868a896ae7f50c91f66db3c010e",
    24: "c2a88e039e2889d3bd9f5b55c69906f84e3f2419",
    25: "326ce310f7c9d563e4ae6dc53c004b8211d3c91e",
    26: "26bc0a3cc5b0543fbfd9d8c0b912ae2bf8d8a6d1",
    27: "aef3d9825d3e5f6984b0671258d4628fdf76ac2f",
}
ADMISSIBLE_SHA1 = {
    (4, 4): "b830a7c025e22f7068070cc4d505649bf6f736ec",
    (8, 4): "e59718e4daeb575b29a0f6bdd0513681b21944b0",
    (4, 6): "bc99cddcdee1466789688094a6a7cdd194da24a1",
    (5, 6): "91d3e2042ff45b6fa02fcd37787a586c18a87596",
    (20, 6): "269c01896e50791e2e7ab98f5b4a81e9f9166794",
    (20, 10): "823e3a012cd397d52489d0dc25cef2ec8325d63b",
    (36, 6): "f05651564b4627ed6f22b298a736b1f5e3fda866",
    (32, 9): "087fc05aef5612e58d0deb1a040bd3ce481afcbf",
    (29, 10): "7551a01c0d518f81a5637b13bb9ffab0260bca6b",
    (28, 16): "fabf80a46215ce8edc7ed461cafcf67846acf87d",
    (29, 20): "3ea46265486a29b5ed8dbd9a37349d97dbedbcbf",
    (27, 21): "4738345d8d46c7da06b90e972c866442af7c8947",
    (27, 24): "d624b09f86ee319dacd03f3495e62d957e52d908",
    (30, 26): "723082e2447abf307a696c23efbb836e713aaef5",
    (27, 30): "e7fac6223632e5cf5f9833113b7b41ee02b0c299",
    (27, 36): "7e01161ae4cb7cb16c568eab07edab2cce48318a",
    (30, 42): "ab49b0dbd4cf1f1d566c4d5ad224ccbaf5a71b5b",
    (24, 60): "067adee078b4b2b9ac0f6f12d598960516a4873f",
    (27, 7): "ca013e63bbc32ca6ea12d1c67eeaddc1bca3ead8",
    (27, 19): "323dd3e6167053ca03f349c3e905b18c3239471d",
    (40, 11): "c2aab22f7d308e30d177e49dfeca0b6fb3a2236f",
}
# SHA-1 of the boundary commands' stdout, taken before the labelled-graph
# search stopped re-validating its candidates: `graphs` at every prime
# order for g <= 4, keyed by (g, d, format), and the two surveys at genus 4,
# keyed by (command, g, dmax).  The survey digests at genus 5 and 6 were taken
# before the boundary survey selected vertex multisets instead of graphs, and
# the (5, 3) digest before the search kept one candidate per symmetry orbit.
GRAPHS_SHA1 = {
    (2, 2, "table"): "09f3173e11672863d45c00427dc1872b2ac1f383",
    (2, 3, "table"): "edc8b37d7b29167f6908b47965c0a734b472e5fb",
    (2, 5, "table"): "ed9058ea49bdf169ebb3c5bed335730998a74192",
    (3, 2, "table"): "9512a55f15633b965d40d389de114e803c3cc690",
    (3, 3, "table"): "c51bdbfbb9d4999bdbb54a767f855166a9a4fb87",
    (3, 5, "table"): "e9f06f1bcb85a41a3fc38571f4187918b1487204",
    (3, 7, "table"): "5b3afd190f0d2a541729b77046a1ce5ed6596d1c",
    (4, 2, "table"): "b5035219c527f3ccd45fe740d698cedb6be2c28c",
    (4, 3, "table"): "71b2c4b50e5f31ebbac3236a30acd9784d0944b5",
    (4, 5, "table"): "6ee472e4beb8ade898167cf7af0d408fc47f8406",
    (4, 7, "table"): "9ec822d4f3ebc2db6938048cb7adc292b0ff2671",
    (5, 3, "table"): "5b7e15a6620b0b594c93ee234d2d4d16a82b1752",
    (3, 3, "doc"): "b37785ffce7f7ecf571bd2b143e5293d8f0bcc9d",
    (4, 5, "doc"): "9333db8332cf1fa6590739495e100b0281246f74",
}
SURVEY_SHA1 = {
    ("boundary", 4, 9): "bf9849dbaece279d03dea700e1b16ee047145223",
    ("sing-bar", 4, 9): "e821d3a933ecbe3de7e18804ecdd34dc72ae5e92",
    ("boundary", 5, 11): "9fc2f144f73df036cd6822be134769fa1450ce1a",
    ("sing-bar", 5, 11): "411ae2727f16acd847ec5428767449693a7ee4ba",
    ("boundary", 6, 13): "8f96a140c90ab7ee0e4892b18cc53c25962953c6",
    ("sing-bar", 6, 13): "3be256c2a6fd59d120e2747d0834914238388ea3",
    ("boundary", 7, 15): "264dfcffe4dab5896f42712388a3e62efe554fd6",
}
# SHA-1 of the doc-format stdout of interior commands, the only output that
# shows a redundant locus's container fields, taken before an exact
# container held its locus.  Genera 3 and 4 hold every case tag and both
# exact and inexact containers.  The digests at genera 17, 19, 21, 23 and
# 27, the interior benchmark's doc-format `sing` requests, were taken before
# a component record holding only its locus was rendered from its fields.
# The digest of `admissible --genus 27 --order 19` was taken before prime
# orders were searched as gap necklaces.
DOC_SHA1 = {
    ("sing", "--genus", "3"): "b798a7024edca9d843fae3a4d25a6bbae099535b",
    ("sing", "--genus", "4"): "48e1e9de02f2bec718b5a2897c7da6edf2f20611",
    ("sing", "--genus", "6"): "591889439e1b49675697b7aa6be548787c1dc92c",
    ("sing", "--genus", "17"): "5653b125cc7cc79e24784d6a5745962c5656fb89",
    ("sing", "--genus", "19"): "ddb9555d1fd643eaa2d700026c98c4cee042e948",
    ("sing", "--genus", "21"): "de0192d6794280a19f5c8314adbf148925aab2b4",
    ("sing", "--genus", "23"): "8d1669a4146c52ba0617a36d9460a88a97307f94",
    ("sing", "--genus", "25"): "b8d8bd2ba5c678967b25f3f1053ed0c4d2b6993d",
    ("sing", "--genus", "27"): "7e22465df32bb27fd0e02ae96b2f1d7e1fdc27b6",
    ("sing-bar", "--genus", "5", "--dmax", "11"): "b0b02c7ed01648848d2ffed3694cdc0eaf035bb8",
    ("admissible", "--genus", "24", "--order", "60"): "357db112f22f5916acd745e9f1b3edd842bae129",
    ("admissible", "--genus", "27", "--order", "19"): "6cca4bd026ff93aae56b306ded91edc326731776",
}

# (order d, inertia gcd m, symbols, k) of the frozen cover documents: the
# witness class L' is 2k in the torsion factor Z/2m, so a cover is reducible
# unless gcd(k, m) = 1.
COVER_SPECS = ((12, 1, 8, 0), (12, 2, 10, 0), (18, 3, 12, 1), (24, 4, 16, 2),
               (30, 5, 20, 3), (36, 6, 24, 3), (60, 2, 30, 1), (120, 3, 40, 0),
               (120, 4, 40, 3), (210, 5, 50, 0), (240, 6, 60, 5), (300, 6, 60, 4))
# SHA-1 of `cover check` stdout over all of COVER_SPECS, taken before class
# arithmetic stopped going through `PicardModel.element`.
COVER_SHA1 = {
    "table": "f8f2ecd1832a90b09b5c4e5b980d98c233a6f2ea",
    "doc": "48e4ef92fb5cfa6f624537080580fd16c4f89ea5",
}


def cover_document(rng, d, m, nsym, k):
    """A valid cover document of order d whose populated residues span the
    subgroup of index m.  The symbol at residue m closes d*L = sum_i i*[D_i]
    with the witness class L' = (d/m)L - sum_i (i/m)[D_i] = (2k, 0)."""
    torsion = [2 * m, 4 * m]

    def rand_class():
        return ([rng.randint(-9, 9), rng.randint(-9, 9)],
                [rng.randrange(t) for t in torsion])

    L = rand_class()
    items = [(rng.randrange(m, d, m), rand_class()) for _ in range(nsym - 1)]
    terms = [(d // m, L)] + [(-(i // m), c) for i, c in items]
    free = [sum(n * c[0][j] for n, c in terms) for j in range(2)]
    tors = [(sum(n * c[1][j] for n, c in terms) - (2 * k, 0)[j]) % t
            for j, t in enumerate(torsion)]
    items.append((m, (free, tors)))
    divisors: dict = {}
    for s, (i, (cf, ct)) in enumerate(items):
        divisors.setdefault(str(i), []).append(
            {"symbol": "D%d" % s, "class": {"free": cf, "torsion": ct}})
    return {"order": d, "picard": {"free_rank": 2, "torsion": torsion},
            "L": {"free": L[0], "torsion": L[1]}, "divisors": divisors}


def scrambled_graph_document(rng, d, vertices, links, pinched):
    """The graph document of vertices (id, colour, genus[, free]), links
    (u, v, mu, mv) and a (0, 0) loop at each pinched vertex, after a random
    relabelling of the vertices and a random unit acting on every residue,
    with vertices and edges in random order."""
    perm = list(range(len(vertices)))
    rng.shuffle(perm)
    r = rng.randrange(1, d)
    out = []
    for vid, colour, genus, *free in vertices:
        entry = (perm[vid], colour, genus)
        if free:
            moved = [0] * (d - 1)
            for i, c in enumerate(free[0], start=1):
                moved[r * i % d - 1] = c
            entry += (moved,)
        out.append(entry)
    edges = [link_entry(perm[u], perm[v], r * mu % d, r * mv % d) for u, v, mu, mv in links]
    edges += [loop_entry(perm[v], 0, 0) for v in pinched]
    rng.shuffle(out)
    rng.shuffle(edges)
    return graph_doc(d, out, edges)


def rational_i1_vertex(vid, d, residues):
    """An I1 vertex over a rational quotient with these edge-end residues,
    completed by free branch points to residue sum 0 mod d and k >= 3."""
    free = [0] * (d - 1)
    if sum(residues) % d:
        free[-sum(residues) % d - 1] += 1
    if len(residues) + sum(free) < 3:
        free[0] += 1
        free[-1] += 1
    k = len(residues) + sum(free)
    return (vid, "I1", 1 - d + k * (d - 1) // 2, free)


def spine_document(rng, d, n):
    """A pre graph whose maximal form is an I1 spine with n elliptic tails:
    the spine is split in two by a link whose labels sum to 0 mod d, and
    half of the tails are pinched into a rational identity component with a
    (0, 0) loop."""
    labels = [rng.randrange(1, d) for _ in range(n)]
    a = rng.randrange(1, d)
    vertices = [rational_i1_vertex(0, d, labels[:2] + [a]),
                rational_i1_vertex(1, d, labels[2:] + [d - a])]
    links = [(0, 1, a, d - a)]
    pinched = rng.sample(range(2, n + 2), n // 2)
    for vid, label in enumerate(labels, start=2):
        vertices.append((vid, "I0", int(vid not in pinched)))
        links.append((int(vid > 3), vid, label, 0))
    return scrambled_graph_document(rng, d, vertices, links, pinched)


def chain_document(rng, d):
    """A maximal graph with three I1 components A - B - C and an identity
    tail on each of A and B."""
    ab, bc, ta, tb = (rng.randrange(1, d) for _ in range(4))
    vertices = [rational_i1_vertex(0, d, [ab, ta]), rational_i1_vertex(1, d, [ab, bc, tb]),
                rational_i1_vertex(2, d, [bc]), (3, "I0", rng.randrange(1, 3)), (4, "I0", 1)]
    # Equal labels on an I1 - I1 link never sum to 0 mod an odd d.
    links = [(0, 1, ab, ab), (1, 2, bc, bc), (0, 3, ta, 0), (1, 4, tb, 0)]
    return scrambled_graph_document(rng, d, vertices, links, [])


def frozen_graph_documents():
    """Spine pre graphs with 5-8 tails and three-I1 chains at orders 3 and
    5, then the README's example graph."""
    rng = random.Random(2010)
    docs = [spine_document(rng, d, n) for d in (3, 5) for n in range(5, 9)]
    docs += [chain_document(rng, d) for d in (3, 5) for _ in range(3)]
    return docs + [graph_doc(2, [(0, "I0", 1), (1, "I1", 1, [3])],
                             [link_entry(0, 1, 0, 1), loop_entry(1, 1, 1, swapped=True)])]


# SHA-1 of exit code, stdout and stderr of `simplify` on every document of
# frozen_graph_documents() and of `enlarge` at every vertex and kind of each,
# keyed by (command, format), taken before the canonical encoding grouped
# the twin classes once per graph and before the enlargements shared their
# checks.
GRAPH_DOC_SHA1 = {
    ("simplify", "table"): "f9b901d08c1eed0b6dbaaa4f974611167420179e",
    ("simplify", "doc"): "dd7ea0282ec07350e27404f064adce9275a55f73",
    ("enlarge", "table"): "710f4a093d116047b82315b2d701612822bdcfd7",
    ("enlarge", "doc"): "11064f618f575d44f2baa328524fac9fc754e580",
}


class TestFrozenStdout:
    def check(self, capsys, digest, *argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha1(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("g", sorted(SING_SHA1))
    def test_sing(self, capsys, g):
        self.check(capsys, SING_SHA1[g], "sing", "--genus", str(g))

    @pytest.mark.parametrize("g,d", sorted(ADMISSIBLE_SHA1))
    def test_admissible(self, capsys, g, d):
        self.check(capsys, ADMISSIBLE_SHA1[g, d], "admissible", "--genus", str(g), "--order", str(d))

    @pytest.mark.parametrize("g,d,fmt", sorted(GRAPHS_SHA1))
    def test_graphs(self, capsys, g, d, fmt):
        self.check(capsys, GRAPHS_SHA1[g, d, fmt], "graphs", "--genus", str(g),
                   "--order", str(d), "--format", fmt)

    @pytest.mark.parametrize("command,g,dmax", sorted(SURVEY_SHA1))
    def test_survey(self, capsys, command, g, dmax):
        self.check(capsys, SURVEY_SHA1[command, g, dmax], command, "--genus", str(g),
                   "--dmax", str(dmax))

    @pytest.mark.parametrize("argv", sorted(DOC_SHA1))
    def test_doc(self, capsys, argv):
        self.check(capsys, DOC_SHA1[argv], *argv, "--format", "doc")

    @pytest.mark.parametrize("fmt", sorted(COVER_SHA1))
    def test_cover_check(self, capsys, tmp_path, fmt):
        rng = random.Random(2010)
        out = ""
        for spec in COVER_SPECS:
            path = tmp_path / "cover.json"
            path.write_text(json.dumps(cover_document(rng, *spec)), encoding="utf-8")
            code, text, _ = run(capsys, "cover", "check", "--input", str(path),
                                "--format", fmt)
            assert code == 0
            out += text
        assert out.count("inertia") == 12
        assert len(re.findall(r'"irreducible": false|^reducible', out, re.M)) == 6
        assert hashlib.sha1(out.encode()).hexdigest() == COVER_SHA1[fmt]

    @pytest.mark.parametrize("command,fmt", sorted(GRAPH_DOC_SHA1))
    def test_graph_documents(self, capsys, tmp_path, command, fmt):
        runs = []
        for ix, doc in enumerate(frozen_graph_documents()):
            path = tmp_path / ("graph%d.json" % ix)
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv = [command, "--input", str(path), "--format", fmt]
            if command == "simplify":
                runs.append(argv)
            else:
                runs += [argv + ["--vertex", str(v["id"]), "--kind", kind]
                         for v in doc["vertices"] for kind in ("detached", "attached", "max")]
        out, codes = "", []
        for argv in runs:
            code, text, err = run(capsys, *argv)
            out += "%d\n%s%s" % (code, text, err)
            codes.append(code)
        if command == "simplify":
            assert set(codes) == {0}
        else:
            assert codes.count(0) >= 20 and set(codes) == {0, 2}
        assert hashlib.sha1(out.encode()).hexdigest() == GRAPH_DOC_SHA1[command, fmt]


class TestReentrantMain:
    """main shares one parser per process: interleaved commands, errors among
    them, must behave byte for byte as on a freshly built parser."""

    def test_shared_parser(self, capsys, tmp_path, monkeypatch):
        graph, pair, cover, bad = (tmp_path / name for name in
                                   ("g.json", "p.json", "c.json", "bad.json"))
        graph.write_text(json.dumps(TAIL_GRAPH_DOC), encoding="utf-8")
        pair.write_text(json.dumps(oracles.graph_to_doc(make_graph(
            3, [Vertex(0, I1, 1, (2, 0)), Vertex(1, I1, 1, (2, 0))],
            [make_link(0, 1, 1, 1)]))), encoding="utf-8")
        cover.write_text(json.dumps(COVER_DOC), encoding="utf-8")
        bad.write_text(json.dumps(spoiled(COVER_DOC, ("L", "free", 0), 2)), encoding="utf-8")
        commands = [
            ["admissible", "--genus", "3", "--order", "2"],
            ["locus", "--genus", "3", "--order", "2", "--counts", "8"],
            ["sing", "--genus", "3"],
            ["graphs", "--genus", "2", "--order", "3"],
            ["simplify", "--input", str(graph)],
            ["enlarge", "--input", str(pair), "--vertex", "1", "--kind", "detached"],
            ["boundary", "--genus", "2", "--dmax", "3"],
            ["sing-bar", "--genus", "3", "--dmax", "3"],
            ["bounds", "--genus", "5"],
            ["cover", "check", "--input", str(cover)],
        ]
        errors = [["sing", "--genus", "1"], ["sing", "--genus", "3", "--colour", "red"],
                  ["cover", "check", "--input", str(bad)]]
        argvs = []
        for k, argv in enumerate(commands):
            argvs += [argv + ["--format", "table"], errors[k % 3], argv + ["--format", "doc"]]
        shared = [run(capsys, *argv) for argv in argvs]
        assert cli.build_parser() is cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [run(capsys, *argv) for argv in argvs]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [
            code for k in range(10) for code in (0, (1, 1, 2)[k % 3], 0)]



# Each command that takes --genus, with valid values for its other options.
GENUS_COMMANDS = [
    ("admissible", "--order", "3"),
    ("locus", "--order", "2", "--counts", "4"),
    ("sing",),
    ("graphs", "--order", "3"),
    ("boundary", "--dmax", "5"),
    ("sing-bar", "--dmax", "5"),
    ("bounds",),
]


class TestRangeRule:
    """--genus, --order and --dmax are at least 2; nothing else is range-checked."""

    @pytest.mark.parametrize("genus", ["1", "0", "-4"])
    @pytest.mark.parametrize("command", GENUS_COMMANDS, ids=lambda c: c[0])
    def test_genus(self, capsys, command, genus):
        name, *rest = command
        code, out, err = run(capsys, name, "--genus", genus, *rest)
        assert (code, out, err) == (1, "", "usage error: genus must be at least 2\n")

    @pytest.mark.parametrize("order", ["1", "0", "-4"])
    @pytest.mark.parametrize("command", ["admissible", "locus", "graphs"])
    def test_order(self, capsys, command, order):
        rest = ("--counts", "4") if command == "locus" else ()
        code, out, err = run(capsys, command, "--genus", "3", "--order", order, *rest)
        assert (code, out, err) == (1, "", "usage error: order must be at least 2\n")

    @pytest.mark.parametrize("command", [
        ("admissible", "--order", "1"),
        ("locus", "--order", "1", "--counts", "4"),
        ("graphs", "--order", "0"),
        ("boundary", "--dmax", "1"),
        ("sing-bar", "--dmax", "0"),
    ], ids=lambda c: c[0])
    def test_genus_reported_first(self, capsys, command):
        name, *rest = command
        code, out, err = run(capsys, name, "--genus", "1", *rest)
        assert (code, out, err) == (1, "", "usage error: genus must be at least 2\n")

    def test_vertex_is_not_range_checked(self, capsys, tmp_path):
        G = make_graph(2, [Vertex(0, I0, 2), Vertex(1, I1, 1, (3,))], [make_link(0, 1, 0, 1)])
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(oracles.graph_to_doc(G)), encoding="utf-8")
        code, out, err = run(capsys, "enlarge", "--input", str(path), "--vertex", "-1",
                             "--kind", "max")
        assert (code, out, err) == (2, "", "error: no vertex with id -1\n")

    @pytest.mark.parametrize("argv, missing", [
        ((), "command"),
        (("admissible",), "--genus, --order"),
        (("admissible", "--order", "3"), "--genus"),
        (("locus",), "--genus, --order, --counts"),
        (("locus", "--counts", "4"), "--genus, --order"),
        (("sing",), "--genus"),
        (("graphs",), "--genus, --order"),
        (("simplify",), "--input"),
        (("enlarge",), "--input, --vertex, --kind"),
        (("enlarge", "--kind", "max"), "--input, --vertex"),
        (("boundary",), "--genus, --dmax"),
        (("sing-bar", "--genus", "3"), "--dmax"),
        (("bounds", "--format", "doc"), "--genus"),
        (("cover",), "subcommand"),
        (("cover", "check"), "--input"),
    ])
    def test_missing_required(self, capsys, argv, missing):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "usage error: the following arguments are required: %s\n" % missing


def run_module(module, *argv):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["cycliccovers", "cycliccovers.cli"])
    def test_python_dash_m(self, capsys, module):
        _, want, _ = run(capsys, "sing", "--genus", "3")
        proc = run_module(module, "sing", "--genus", "3")
        assert proc.returncode == 0
        assert proc.stdout == want and want

    def test_python_dash_m_usage_error(self):
        proc = run_module("cycliccovers", "sing", "--genus", "1")
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage error")


class TestClosedStdout:
    def test_reader_closes_pipe_early(self):
        # bounds --genus 100000 prints about 108 kB, more than a pipe buffer
        # holds, so the writer is still writing when the reader goes away.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "cycliccovers", "bounds", "--genus", "100000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(16) == b"genus=100000 gen"
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
        assert err == b""


# Arbitrary JSON values: wrong types, lists in place of maps, huge and
# negative integers.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.integers() | st.integers(min_value=-2, max_value=4)
    | st.sampled_from([997, 10**6 + 3, -10**30, 10**30]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every key path into a JSON document, the empty path included."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, prefix + (key,))


@st.composite
def broken_documents(draw, doc):
    """doc with one entry replaced by an arbitrary JSON value, or deleted."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(_paths(doc))))
    if path and draw(st.booleans()):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        return doc
    value = draw(JSON_VALUES)
    return spoiled(doc, path, value) if path else value


class TestDocumentFuzz:
    @pytest.mark.parametrize("command,doc", [
        (("simplify",), TAIL_GRAPH_DOC),
        (("enlarge",), TAIL_GRAPH_DOC),
        (("cover", "check"), COVER_DOC),
    ])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_exit_is_clean(self, command, doc, data):
        doc = data.draw(broken_documents(doc))
        argv = list(command) + ["--format", data.draw(st.sampled_from(["table", "doc"]))]
        if command[0] == "enlarge":
            argv += ["--vertex", str(data.draw(st.integers(min_value=-1, max_value=2))),
                     "--kind", data.draw(st.sampled_from(["detached", "attached", "max"]))]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            out, err = io.StringIO(), io.StringIO()
            # An exception that escapes main would end the command in a
            # traceback; here it fails the test.
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv + ["--input", path])
        assert code in (0, 1, 2)
        if code:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
            assert out.getvalue() == ""


# Text that json escapes: non-ASCII characters, quotes, backslashes,
# brackets, commas and control characters.
DOC_TEXT = st.text(st.sampled_from('"\\[]{},: \n\t\x00\x1f\x7fa\u00e9\u20ac\U0001f600')
                   | st.characters(), max_size=6)
DOC_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=-2**200, max_value=2**200)
    | st.floats() | DOC_TEXT,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(DOC_TEXT, inner, max_size=4)),
    max_leaves=12)


class TestDocWriter:
    """`_emit_doc` prints what json.dumps(doc, sort_keys=True, indent=2)
    and a newline give."""

    @staticmethod
    def emitted(doc):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit_doc(doc)
        return out.getvalue()

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(DOC_TEXT, DOC_VALUES, max_size=5))
    def test_matches_json_dumps(self, doc):
        assert self.emitted(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_list_value_may_be_an_iterator(self):
        doc = {"b": [{"y": 1, "x": [True, None, ()]}, "\u00e9", {}], "a": [], "c": -3}
        out = io.StringIO()
        seen = []

        def items(values):
            for value in values:  # each item is written before the next is drawn
                seen.append(len(out.getvalue()))
                yield value

        with contextlib.redirect_stdout(out):
            cli._emit_doc({key: items(v) if isinstance(v, list) else v
                           for key, v in doc.items()})
        assert out.getvalue() == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert seen == sorted(set(seen))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_int_past_digit_limit(self, sign):
        # str(int) and json.dumps refuse it; the writer prints it in full.
        assert self.emitted({"n": [sign * 10 ** 5000]}) == \
            '{\n  "n": [\n    %s1%s\n  ]\n}\n' % ("-" * (sign < 0), "0" * 5000)

    def test_component_rendered_from_its_fields(self, monkeypatch):
        # Every component, a record that holds only its locus, is rendered
        # straight from its (counts, h) row and must print as its document
        # does; the writer hands the other records to hold.  With one row to a
        # chunk each chunk is one record.  p = 2 gives one-entry counts,
        # 2g + 1 the largest primes.
        monkeypatch.setattr(cli, "_CHUNK", 1)
        reports = [ss.stream_sing(g) for g in range(3, 28)]
        reports += [sst.stream_sing_bar(g, 2 * g + 1) for g in range(3, 6)]
        bare, held = [], []
        for rep in reports:
            records = ss.decompose_sing(rep.g).records
            items = list(cli._row_chunks(rep.g, rep.records.blocks, cli._DOC_COMPONENT,
                                         held.append))
            assert len(items) == len(records)
            for item, r in zip(items, records):
                if r.verdict is not ss.Verdict.COMPONENT:
                    assert item == "" and held.pop(0) == r
                    continue
                assert r[1:] == (ss.Verdict.COMPONENT, None, None, None, ())
                assert cli._json(cli._Rendered(item), "    ") == \
                    cli._json(cli.record_doc(r), "    "), r
                bare.append(r)
        assert not held and len(bare) > 1900
        assert {len(r.locus.counts) for r in bare} >= {1, 52}

    def test_locus_rendered_from_its_fields(self, monkeypatch):
        # `admissible --format doc` fills _LOCUS from each (counts, h) row:
        # every locus must print as its document does, at every prime order
        # (one-entry counts at p = 2) and at composite orders up to 60.
        monkeypatch.setattr(cli, "_CHUNK", 1)
        n = 0
        for g in range(3, 28):
            for d in (d for d in range(2, 4 * g + 3) if d <= 60 or is_prime(d)):
                rows = br.enumerate_admissible(g, d)
                items = list(cli._row_chunks(g, [(d, rows, ())], cli._DOC_LOCUS))
                assert items == [cli._json(cli.locus_doc(l), "    ")
                                 for l in br.locus_rows(g, d, rows)], (g, d)
                n += len(items)
        assert n > 10000


# The package's records, and those of them that check their fields in __new__.
RECORDS = (br.BranchingSequence, br.SmoothLocus, ca.PicardModel, ca.DivisorClass,
           ca.BranchAssignment, ca.IrreducibilityResult, ss.ContainerInfo,
           ss.ClassificationRecord, ss.DecompositionReport, sst.BoundaryComponent,
           sst.AutBoundReport, sg.Vertex, sg.Edge, sg.AutoGraph)
VALIDATED = (br.BranchingSequence, ca.PicardModel, ca.DivisorClass, ca.BranchAssignment)


def every_command(tmp_path):
    """An argv of every command in both formats, on small inputs."""
    pair = make_graph(3, [Vertex(0, I1, 1, (2, 0)), Vertex(1, I1, 1, (2, 0))],
                      [make_link(0, 1, 1, 1)])
    paths = {}
    for name, doc in (("tail", TAIL_GRAPH_DOC), ("pair", oracles.graph_to_doc(pair)),
                      ("cover", COVER_DOC)):
        paths[name] = str(tmp_path / ("%s.json" % name))
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    argvs = [
        ("admissible", "--genus", "4", "--order", "6"),
        ("locus", "--genus", "3", "--order", "2", "--counts", "8"),
        ("sing", "--genus", "3"),
        ("sing", "--genus", "12"),
        ("graphs", "--genus", "3", "--order", "2"),
        ("simplify", "--input", paths["tail"]),
        ("enlarge", "--input", paths["pair"], "--vertex", "1", "--kind", "detached"),
        ("boundary", "--genus", "4", "--dmax", "9"),
        ("sing-bar", "--genus", "4", "--dmax", "9"),
        ("bounds", "--genus", "3"),
        ("cover", "check", "--input", paths["cover"]),
    ]
    assert {" ".join(argv[:2]) if argv[0] == "cover" else argv[0] for argv in argvs} \
        == {name for name, _, func, _ in cli._COMMANDS if func}
    return [argv + fmt for argv in argvs for fmt in ((), ("--format", "doc"))]


class TestRecords:
    def test_start_up_imports(self):
        # A CLI call imports the whole package before its first op, so that
        # no import is left for an op to pay, and neither dataclasses (with
        # inspect, ast and dis) nor decimal, which only bounds and integers
        # past the int-to-str digit limit need.  -S keeps site hooks from
        # loading modules the package does not.
        package = os.path.dirname(cli.__file__)
        code = ("import sys; sys.path.insert(0, %r); import cycliccovers.cli as cli; "
                "cli.build_parser(); print(sorted(sys.modules))" % os.path.dirname(package))
        proc = subprocess.run([sys.executable, "-S", "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = set(ast.literal_eval(proc.stdout))
        assert not loaded & {"dataclasses", "inspect", "decimal"}
        modules = {"cycliccovers." + name[:-3] for name in os.listdir(package)
                   if name.endswith(".py") and not name.startswith("__")}
        assert len(modules) == 7 and modules | {"cycliccovers"} <= loaded

    def test_replace_meets_no_validated_record(self, capsys, tmp_path, monkeypatch):
        # _replace builds through tuple.__new__, past the checks in __new__,
        assert br.BranchingSequence(2, (2,))._replace(d=1).d == 1
        # so it may only rebuild records that check nothing, as Vertex and
        # DecompositionReport do.
        assert sg.Vertex(0, "?", -1, "?") and ss.DecompositionReport(-1, None)

        def refused(record, **changes):
            raise AssertionError("_replace on a %s" % type(record).__name__)

        for cls in VALIDATED:
            monkeypatch.setattr(cls, "_replace", refused)
        for argv in every_command(tmp_path):
            assert run(capsys, *argv)[0] == 0, argv
        G = make_graph(3, [Vertex(0, I1, 1, (2, 0)), Vertex(1, I1, 1, (2, 0))],
                       [make_link(0, 1, 1, 1)])
        assert oracles.unit_transform(G, 2) and oracles.reference_canonical_form(G)
        assert oracles.all_normal_forms(sg.graph_from_doc(SWAPPED_LOOP_DOC))

    def test_no_record_reaches_the_doc_writer(self, capsys, tmp_path, monkeypatch):
        # The writer renders a tuple as a JSON list, where a dataclass was
        # refused with TypeError: each record must become its document first.
        write, emit, rendered = cli._json, cli._emit_doc, []

        def checked_write(x, pad):
            assert not isinstance(x, RECORDS), x
            rendered.append(x)
            return write(x, pad)

        def checked_emit(doc):
            assert type(doc) is dict
            assert not any(isinstance(value, RECORDS) for value in doc.values()), doc
            emit(doc)

        monkeypatch.setattr(cli, "_json", checked_write)
        monkeypatch.setattr(cli, "_emit_doc", checked_emit)
        for argv in every_command(tmp_path):
            if argv[-1] == "doc":
                code, out, _ = run(capsys, *argv)
                assert code == 0 and json.loads(out), argv
        assert len(rendered) > 1000
