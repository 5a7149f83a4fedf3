import json
import os
import re
import subprocess
import sys

import pytest

from cycliccovers import cli
from cycliccovers import stable_graphs as sg
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
        assert loci == list(br.enumerate_loci(3, 2))


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

    def test_doc_roundtrip(self, capsys):
        code, out, _ = run(capsys, "sing", "--genus", "3", "--format", "doc")
        assert code == 0
        from cycliccovers import sing_smooth as ss

        rep = cli.report_from_doc(json.loads(out))
        assert rep == ss.decompose_sing(3)


class TestGraphDocuments:
    def make_doc(self, tmp_path, G, name="graph.json"):
        path = tmp_path / name
        path.write_text(json.dumps(sg.graph_to_doc(G)), encoding="utf-8")
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
