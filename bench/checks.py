"""Output checks, run after the timed region.

Outputs are checked against independent computations (the brute-force
oracles of the test suite, and arithmetic recomputed here from the input
documents) or against properties they must have, never against a saved copy
of earlier output.  Table output is parsed back; the checks do not rely on
`--format doc`.
"""

from __future__ import annotations

import json
import random
import re
from math import gcd, lcm

import oracles
from cycliccovers import stable_graphs as sg

import workloads


class CheckError(AssertionError):
    pass


def expect(cond: bool, message: str, *args) -> None:
    if not cond:
        raise CheckError(message % args if args else message)


# ---------------------------------------------------------------------------
# Graph documents, computed here independently of the package

_VERTEX = re.compile(r"(I[01])#(\d+)\(g=(\d+)(?:,free=\[([^\]]*)\])?\)")
_LINK = re.compile(r"(\d+)-(\d+)\((\d+),(\d+)\)")
_LOOP = re.compile(r"loop(~?)@(\d+)\{(\d+),(\d+)\}")


def parse_graph_line(text: str, d: int) -> dict:
    """The graph document of a table line `I1#0(g=1,free=[..]) ... | edges`."""
    vpart, _, epart = text.partition(" | ")
    vertices = []
    for colour, vid, genus, free in _VERTEX.findall(vpart):
        v = {"id": int(vid), "colour": colour, "genus": int(genus)}
        if colour == "I1":
            v["free_branching"] = [int(x) for x in free.split(",")] if free else []
        vertices.append(v)
    expect(vertices, "no vertices in graph line %r", text)
    edges = []
    for tok in epart.split():
        m = _LINK.fullmatch(tok)
        if m:
            u, v, mu, mv = map(int, m.groups())
            edges.append({"type": "link", "ends": [u, v], "labels": [mu, mv]})
            continue
        m = _LOOP.fullmatch(tok)
        expect(m is not None, "unparsed edge %r in %r", tok, text)
        loop = {"type": "loop", "vertex": int(m.group(2)),
                "pair": [int(m.group(3)), int(m.group(4))]}
        if m.group(1):
            loop["branch_swapped"] = True
        edges.append(loop)
    return {"order": d, "vertices": vertices, "edges": edges}


def doc_genus(doc: dict) -> int:
    """Vertex genera plus the first Betti number of the graph."""
    return (sum(v["genus"] for v in doc["vertices"]) + len(doc["edges"])
            - len(doc["vertices"]) + 1)


def _branching(doc: dict) -> dict[int, tuple[int, int]]:
    """Per vertex: (edge ends, branch points k)."""
    out = {}
    for v in doc["vertices"]:
        out[v["id"]] = [0, sum(v.get("free_branching") or ())]
    for e in doc["edges"]:
        if e["type"] == "link":
            for end, label in zip(e["ends"], e["labels"]):
                out[end][0] += 1
                out[end][1] += label != 0
        else:
            out[e["vertex"]][0] += 2
            if not e.get("branch_swapped"):
                out[e["vertex"]][1] += sum(1 for x in e["pair"] if x)
    return {vid: tuple(x) for vid, x in out.items()}


def doc_dimension(doc: dict) -> int:
    """Sum of 3g - 3 + n over the quotient factors: an identity component
    marked at its edge ends, a nontrivially acted one as its quotient marked
    at its branch points, the quotient genus solving 2(g - 1) =
    d(2(h - 1)) + k(d - 1)."""
    d = doc["order"]
    br = _branching(doc)
    total = 0
    for v in doc["vertices"]:
        ends, k = br[v["id"]]
        if v["colour"] == "I0":
            total += 3 * v["genus"] - 3 + ends
        else:
            num = 2 * (v["genus"] - 1) - k * (d - 1) + 2 * d
            expect(num % (2 * d) == 0 and num >= 0,
                   "vertex %d has no integral quotient genus", v["id"])
            total += 3 * (num // (2 * d)) - 3 + k
    return total


def smoothable_edges(doc: dict) -> list:
    d = doc["order"]
    out = []
    for e in doc["edges"]:
        if e["type"] == "link":
            if sum(e["labels"]) % d == 0:
                out.append(e)
        elif e.get("branch_swapped") or sum(e["pair"]) % d == 0:
            out.append(e)
    return out


# ---------------------------------------------------------------------------
# interior

_LABEL = re.compile(r"M_\{(\d+);(\d+),\[\(([\d,]*)\)\]\}")
_SECTIONS = {"components:": "component", "redundant:": "redundant",
             "excluded:": "excluded", "manual review:": "manual-review"}
_VERDICTS = {"component": "component", "redundant": "redundant",
             "excluded-pseudoreflection": "excluded",
             "manual-review": "manual-review"}


def _counts(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",")) if text else ()


def _sing_records(out: str) -> list[dict]:
    if out.startswith("{"):
        rep = json.loads(out)
        recs = []
        for r in rep["records"]:
            loc = r["locus"]
            recs.append({
                "p": loc["order"], "counts": tuple(loc["counts"]),
                "verdict": _VERDICTS[r["verdict"]], "dim": loc["dim"],
                "codim": loc["codim"], "h": loc["quotient_genus"],
                "k": loc["branch_count"],
                "bound": r["container"]["dim_lower_bound"] if "container" in r else None,
            })
        return recs
    recs = []
    section = None
    for line in out.splitlines():
        if not line.startswith("  "):
            section = _SECTIONS.get(line)
            continue
        if section is None:
            continue
        m = _LABEL.search(line)
        expect(m is not None, "unparsed sing line %r", line)
        rec = {"p": int(m.group(2)), "counts": _counts(m.group(3)),
               "verdict": section, "dim": None, "codim": None, "h": None,
               "k": None, "bound": None}
        dm = re.search(r" dim=(\d+)", line)
        if dm:
            rec["dim"] = int(dm.group(1))
        cm = re.search(r" codim=(\d+)", line)
        if cm:
            rec["codim"] = int(cm.group(1))
        bm = re.search(r"\(>=(-?\d+)\)", line)
        if bm:
            rec["bound"] = int(bm.group(1))
        recs.append(rec)
    return recs


def check_sing(req, out: str) -> None:
    g = req.info["genus"]
    recs = _sing_records(out)
    got = {}
    for r in recs:
        p, counts = r["p"], r["counts"]
        k = sum(counts)
        expect(r["k"] in (None, k), "branch count differs from the counts")
        expect(sum(i * c for i, c in enumerate(counts, 1)) % p == 0,
               "residues of %r do not sum to 0 mod %d", counts, p)
        if r["dim"] is not None:
            h = r["h"]
            if h is None:
                expect((r["dim"] - k) % 3 == 0, "dimension not of the form 3(h-1)+k")
                h = (r["dim"] - k) // 3 + 1
            expect(r["dim"] == 3 * (h - 1) + k, "dim != 3(h-1)+k for %r", counts)
            expect(2 * g - 2 == p * (2 * h - 2) + k * (p - 1),
                   "Riemann-Hurwitz fails for g=%d p=%d %r", g, p, counts)
            if r["codim"] is not None:
                expect(r["codim"] == 3 * g - 3 - r["dim"], "codim != 3g-3-dim")
        key = (p, oracles.orbit_of(counts, p))
        expect(key not in got, "locus %r listed twice", counts)
        got[key] = r
    want = oracles.sing_oracle(g)
    expect(set(got) == set(want), "loci differ from the oracle at genus %d", g)
    for key, (verdict, cdim) in want.items():
        r = got[key]
        expect(r["verdict"] == verdict, "verdict %s != oracle %s", r["verdict"], verdict)
        if r["bound"] is not None or r["verdict"] == "redundant":
            expect(r["bound"] == cdim, "container dimension %s != oracle %s",
                   r["bound"], cdim)


def check_admissible(req, out: str) -> None:
    g, d = req.info["genus"], req.info["order"]
    lines = out.splitlines()
    expect(lines and lines[-1].startswith("total: "), "missing total line")
    rows = lines[:-1]
    expect(int(lines[-1].split()[1]) == len(rows), "total differs from the rows")
    got = {}
    for line in rows:
        m = re.match(r"counts=\(([\d,]*)\) h=(\d+) dim=(-?\d+) codim=(-?\d+) ", line)
        expect(m is not None, "unparsed admissible line %r", line)
        counts = _counts(m.group(1))
        h, dim, codim = int(m.group(2)), int(m.group(3)), int(m.group(4))
        expect(len(counts) == d - 1, "wrong count length")
        k = sum(counts)
        expect(sum(i * c for i, c in enumerate(counts, 1)) % d == 0,
               "branch degree of %r not divisible by %d", counts, d)
        defect = sum(c * (d - gcd(i, d)) for i, c in enumerate(counts, 1))
        expect(2 * (g - 1) == d * 2 * (h - 1) + defect,
               "Riemann-Hurwitz fails for %r", counts)
        m_gcd = d
        for i, c in enumerate(counts, 1):
            if c:
                m_gcd = gcd(m_gcd, i)
        expect(m_gcd == 1 or h >= 1, "no torsion for a proper subgroup at h=0")
        expect(dim == 3 * (h - 1) + k and codim == 3 * (g - 1) - dim,
               "dimension fields of %r", counts)
        orbit = oracles.orbit_of(counts, d)
        expect(orbit not in got, "unit-equivalent rows %r", counts)
        got[orbit] = h
    if (g, d) in workloads.ORACLE_ADMISSIBLE:
        expect(got == oracles.brute_admissible_general(g, d),
               "admissible data differ from the oracle at g=%d d=%d", g, d)


# ---------------------------------------------------------------------------
# boundary

def _graph_rows(out: str, d: int) -> list[tuple[dict, dict]]:
    """(graph document, printed fields) for every graph of a graphs or
    boundary output, in either format."""
    if out.startswith("{"):
        doc = json.loads(out)
        if "graphs" in doc:
            return [(gd, {}) for gd in doc["graphs"]]
        return [(c["graph"], {"d": c["order"], "dim": c["dim"], "codim": c["codim"],
                              "flags": tuple(c["flags"])})
                for c in doc["components"]]
    rows = []
    lines = out.splitlines()
    body = [ln for ln in lines if ln.startswith(("d=", "dim="))]
    total = [ln for ln in lines if ln.startswith("total: ")]
    expect(len(total) == 1 and int(total[0].split()[1]) == len(body),
           "total line does not count the rows")
    for line in body:
        fields = {}
        m = re.match(r"d=(\d+) dim=(-?\d+) codim=(-?\d+) (.*?)(?: \[([\w,]+)\])?$", line)
        if m:
            fields = {"d": int(m.group(1)), "dim": int(m.group(2)),
                      "codim": int(m.group(3)),
                      "flags": tuple(m.group(5).split(",")) if m.group(5) else ()}
            rest = m.group(4)
            order = fields["d"]
        else:
            m = re.match(r"dim=(-?\d+) (.*)$", line)
            expect(m is not None, "unparsed graph row %r", line)
            fields = {"dim": int(m.group(1))}
            rest = m.group(2)
            order = d
        rows.append((parse_graph_line(rest, order), fields))
    return rows


def check_graphs(req, out: str) -> None:
    g, d = req.info["genus"], req.info["order"]
    seen = set()
    rows = _graph_rows(out, d)
    for doc, fields in rows:
        expect(doc["order"] == d, "graph of order %d in an order-%d list", doc["order"], d)
        G = sg.graph_from_doc(doc)
        sg.check_graph(G, require_stable=True)
        expect(doc_genus(doc) == g, "graph of total genus %d at g=%d", doc_genus(doc), g)
        expect(sg.canonical_form(G) == G, "graph is not fixed by canonical_form")
        enc = sg.canonical_encoding(G)
        expect(enc not in seen, "two graphs of one class")
        seen.add(enc)
        if "dim" in fields:
            expect(fields["dim"] == doc_dimension(doc), "printed dimension differs")
    want = workloads.GRAPH_CLASS_COUNTS.get((g, d))
    expect(want is None or len(rows) == want, "%d classes at (%d, %d), expected %s",
           len(rows), g, d, want)


def check_boundary(req, out: str) -> None:
    g, dmax = req.info["genus"], req.info["dmax"]
    got = {}
    for doc, fields in _graph_rows(out, 0):
        expect(fields["dim"] == doc_dimension(doc), "printed dimension differs")
        expect(fields["codim"] == 3 * g - 3 - fields["dim"], "codim != 3g-3-dim")
        expect(doc_genus(doc) == g, "component of total genus %d", doc_genus(doc))
        key = (fields["d"], sg.canonical_encoding(sg.graph_from_doc(doc)))
        expect(key not in got, "component listed twice")
        got[key] = (fields["dim"], fields["flags"])
    expect(got == oracles.boundary_oracle(g, dmax),
           "boundary components differ from the oracle at g=%d dmax=%d", g, dmax)


# ---------------------------------------------------------------------------
# documents

def _result_graph(out: str, d: int) -> tuple[dict, dict]:
    if out.startswith("{"):
        doc = json.loads(out)
        return doc["result"], doc
    lines = out.splitlines()
    return parse_graph_line(lines[-1], d), {"lines": lines}


def check_simplify(req, out: str, rng: random.Random) -> None:
    """The result has no smoothable node, keeps the genus, and the canonical
    encoding of a random relabelling plus unit action of it lies among the
    encodings of every smoothing order of the input (which are computed on
    other labellings, so this also checks that the encoding is invariant)."""
    pre = req.info["doc"]
    res, _ = _result_graph(out, pre["order"])
    expect(not smoothable_edges(res), "simplify left a smoothable node")
    expect(doc_genus(res) == doc_genus(pre), "simplify changed the total genus")
    sg.check_graph(sg.graph_from_doc(res), require_stable=True)
    moved, _ = workloads.shuffled_doc(res, rng)
    normal_forms = oracles.all_normal_forms(sg.graph_from_doc(pre))
    expect(sg.canonical_encoding(sg.graph_from_doc(moved)) in normal_forms,
           "simplify result is no normal form of the input")


def check_enlarge(req, out: str) -> None:
    src = req.info["doc"]
    res, extra = _result_graph(out, src["order"])
    if "dim_before" in extra:
        before, after = extra["dim_before"], extra["dim_after"]
    else:
        m = re.fullmatch(r"dim (-?\d+) -> (-?\d+)", extra["lines"][0])
        expect(m is not None, "unparsed enlarge header %r", extra["lines"][0])
        before, after = int(m.group(1)), int(m.group(2))
    expect(before == doc_dimension(src), "dim_before differs from the input")
    expect(after == doc_dimension(res), "dim_after differs from the result")
    expect(after >= before, "enlargement lowered the dimension")
    expect(doc_genus(res) == doc_genus(src), "enlargement changed the total genus")
    sg.check_graph(sg.graph_from_doc(res))


def _class_sum(terms, rank: int, torsion) -> tuple[list, list]:
    """Sum of n * (free, torsion) over the terms, torsion reduced."""
    free, tors = [0] * rank, [0] * len(torsion)
    for n, (cf, ct) in terms:
        free = [a + n * x for a, x in zip(free, cf)]
        tors = [a + n * x for a, x in zip(tors, ct)]
    return free, [a % t for a, t in zip(tors, torsion)]


def _classes_by_residue(doc: dict) -> dict[int, list]:
    return {int(i): [(it["class"]["free"], it["class"]["torsion"]) for it in items]
            for i, items in doc["divisors"].items()}


def check_cover(req, out: str) -> None:
    doc = req.info["doc"]
    d, torsion = doc["order"], doc["picard"]["torsion"]
    by_res = _classes_by_residue(doc)
    m = d
    for i, items in by_res.items():
        if items:
            m = gcd(m, i)
    L = (doc["L"]["free"], doc["L"]["torsion"])
    terms = [(d // m, L)] + [(-(i // m), c) for i, cs in by_res.items() for c in cs]
    free, tors = _class_sum(terms, len(L[0]), torsion)
    expect(not any(free), "L' has a free part")
    order = 1
    for a, t in zip(tors, torsion):
        order = lcm(order, t // gcd(a, t))
    if out.startswith("{"):
        res = json.loads(out)
        got = (res["irreducible"], res["inertia_gcd"], res["torsion_order"])
    else:
        mm = re.fullmatch(r"(irreducible|reducible) \(inertia gcd (\d+), "
                          r"torsion class order (\d+)\)\n", out)
        expect(mm is not None, "unparsed cover check output %r", out)
        got = (mm.group(1) == "irreducible", int(mm.group(2)), int(mm.group(3)))
    expect(got == (order == m, m, order),
           "cover check says %r, recomputed %r", got, (order == m, m, order))


def check_chars(req, table: list) -> None:
    doc = req.info["doc"]
    d, torsion = doc["order"], doc["picard"]["torsion"]
    rank = doc["picard"]["free_rank"]
    by_res = _classes_by_residue(doc)
    expect(len(table) == d, "table has %d classes for order %d", len(table), d)
    for chi, cls in enumerate(table):
        lhs = _class_sum([(d, (cls.free, cls.torsion))], rank, torsion)
        rhs = _class_sum([((chi * i) % d, c) for i, cs in by_res.items() for c in cs],
                         rank, torsion)
        expect(lhs == rhs, "d*L_chi differs from the weighted branch sum at chi=%d", chi)


def check_malformed(req, code: int, out: str, err: str) -> None:
    expect(code == 2, "malformed document gave exit %d", code)
    expect(out == "", "malformed document printed to stdout")
    expect(err.count("\n") == 1 and err.startswith("error: "),
           "expected a one-line error message, got %r", err)


def check(req, outcome, rng: random.Random) -> None:
    """Raise CheckError unless the outcome of req is right."""
    if req.call is not None:
        check_chars(req, outcome.value)
        return
    if req.kind == "malformed":
        check_malformed(req, outcome.code, outcome.out, outcome.err)
        return
    expect(outcome.code == 0, "exit %d: %s", outcome.code, outcome.err.strip())
    kind = req.kind
    if kind == "sing":
        check_sing(req, outcome.out)
    elif kind == "admissible":
        check_admissible(req, outcome.out)
    elif kind == "graphs":
        check_graphs(req, outcome.out)
    elif kind == "boundary":
        check_boundary(req, outcome.out)
    elif kind == "simplify":
        check_simplify(req, outcome.out, rng)
    elif kind == "enlarge":
        check_enlarge(req, outcome.out)
    elif kind == "cover":
        check_cover(req, outcome.out)
    else:
        raise CheckError("no check for request kind %r" % kind)
