"""The benchmark's workloads: which requests a run issues, and their inputs.

A workload is a pool of rounds.  A round is a list of requests that is the
same in every run apart from the values the seed draws; no request repeats
within a run, so a cache kept across calls cannot turn a workload into a
cache-hit test.  A run takes whole rounds from the start of the pool while
their nominal cost fits in `--seconds` (at least one round), then issues the
requests in an order the seed shuffles.

`nominal_s` is the op's time at reference speed as measured for the figures
in README.md.  It sizes the reference brackets and the run; it is a fixed
constant, so a faster program issues the same requests and finishes sooner.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from math import gcd
from typing import Callable

# Each side of an op is bracketed by reference units worth this share of the
# op's nominal time, and never fewer than MIN_REF_UNITS.
REF_SIDE_SHARE = 0.15
MIN_REF_UNITS = 8


@dataclass
class Request:
    """One timed operation and what its check needs.

    `argv` is a CLI call through `cycliccovers.cli.main`; `call` a library
    call.  Exactly one is set.
    """

    kind: str
    nominal_s: float
    argv: tuple = ()
    call: Callable | None = None
    info: dict = field(default_factory=dict)
    # A request whose operation fails on every run because of a known fault.
    known_fault: str = ""

    def label(self) -> str:
        return " ".join(self.argv) if self.argv else self.info.get("label", self.kind)


def ref_units(req: Request, unit_s: float) -> int:
    return max(MIN_REF_UNITS, round(REF_SIDE_SHARE * req.nominal_s / unit_s))


def round_cost(reqs: list[Request], unit_s: float) -> float:
    """Nominal seconds a round takes, its reference brackets included."""
    return sum(r.nominal_s + 2 * ref_units(r, unit_s) * unit_s for r in reqs)


# ---------------------------------------------------------------------------
# interior: sing over a band of genera plus composite-order admissible data

# The op costs are chosen so that the median op falls in the middle of a
# cluster of twelve admissible requests of about the same cost, with eight
# cheaper and eight dearer requests around it: the median then pools the
# noise of many ops instead of resting on one.
# (genus, nominal seconds at reference speed)
_SING = ((17, 0.10), (19, 0.21), (18, 0.88), (20, 0.90), (21, 1.08), (22, 0.86),
         (23, 1.46), (24, 1.45), (25, 1.06), (27, 1.77))
# (genus, order, nominal seconds); the first four are small enough for the
# brute-force oracle, the rest are checked by their defining properties.
_ADMISSIBLE = ((4, 4, 0.004), (8, 4, 0.005), (4, 6, 0.005), (5, 6, 0.006),
               (20, 6, 0.045), (20, 10, 0.07),
               (36, 6, 0.31), (32, 9, 0.32), (29, 10, 0.31), (28, 16, 0.32),
               (29, 20, 0.33), (27, 21, 0.33), (27, 24, 0.33), (30, 26, 0.33),
               (27, 30, 0.33), (27, 36, 0.32), (30, 42, 0.32), (24, 60, 0.29))
ORACLE_ADMISSIBLE = {(g, d) for g, d, _ in _ADMISSIBLE[:4]}


def _interior_pool(rng: random.Random, workdir: str):
    reqs = []
    for g, nominal in _SING:
        argv = ("sing", "--genus", str(g))
        if g % 2:
            argv += ("--format", "doc")
        reqs.append(Request("sing", nominal, argv, info={"genus": g}))
    for g, d, nominal in _ADMISSIBLE:
        argv = ("admissible", "--genus", str(g), "--order", str(d))
        reqs.append(Request("admissible", nominal, argv, info={"genus": g, "order": d}))
    reqs.sort(key=lambda r: r.nominal_s)
    for r in reqs:
        yield [r]


# ---------------------------------------------------------------------------
# boundary: graphs for g <= 4 at every prime order up to 2g + 1, plus boundary

_GRAPHS = ((2, 2, 0.004), (2, 3, 0.005), (2, 5, 0.004), (3, 2, 0.012),
           (3, 3, 0.037), (3, 5, 0.017), (3, 7, 0.014), (4, 2, 0.18),
           (4, 3, 1.78), (4, 5, 0.71), (4, 7, 0.71))
# The median op falls between the two (3, 3) requests, which do the same
# enumeration; the g = 2 requests balance the eight dear g = 4 ones.
_BOUNDARY = ((2, 2, 0.008), (2, 3, 0.005), (2, 5, 0.006), (3, 2, 0.012),
             (3, 3, 0.040), (3, 5, 0.053), (3, 7, 0.062), (4, 2, 0.17),
             (4, 3, 1.86), (4, 5, 2.63), (4, 7, 3.75))
# Class counts of `graphs` that the test suite holds fixed.
GRAPH_CLASS_COUNTS = {(3, 2): 12, (3, 3): 20, (4, 2): 39, (4, 3): 106}


def _boundary_pool(rng: random.Random, workdir: str):
    reqs = []
    for g, d, nominal in _GRAPHS:
        argv = ("graphs", "--genus", str(g), "--order", str(d))
        if (g + d) % 2:
            argv += ("--format", "doc")
        reqs.append(Request("graphs", nominal, argv, info={"genus": g, "order": d}))
    for g, dmax, nominal in _BOUNDARY:
        argv = ("boundary", "--genus", str(g), "--dmax", str(dmax))
        if dmax == 7:
            argv += ("--format", "doc")
        reqs.append(Request("boundary", nominal, argv, info={"genus": g, "dmax": dmax}))
    reqs.sort(key=lambda r: r.nominal_s)
    for r in reqs:
        yield [r]


# ---------------------------------------------------------------------------
# documents: per-document CLI calls and the character-class table

D_GRAPH = 3


def relabel_doc(doc: dict, perm: dict, r: int) -> dict:
    """The graph document with vertex ids mapped by perm and every residue
    multiplied by the unit r; describes the same numerical type."""
    d = doc["order"]

    def act(m):
        return (r * m) % d

    vertices = []
    for v in doc["vertices"]:
        out = {"id": perm[v["id"]], "colour": v["colour"], "genus": v["genus"]}
        if "free_branching" in v:
            free = [0] * (d - 1)
            for i, c in enumerate(v["free_branching"], start=1):
                free[act(i) - 1] = c
            out["free_branching"] = free
        vertices.append(out)
    edges = []
    for e in doc["edges"]:
        if e["type"] == "link":
            edges.append({"type": "link", "ends": [perm[x] for x in e["ends"]],
                          "labels": [act(m) for m in e["labels"]]})
        else:
            out = {"type": "loop", "vertex": perm[e["vertex"]],
                   "pair": sorted(act(m) for m in e["pair"])}
            if e.get("branch_swapped"):
                out["branch_swapped"] = True
            edges.append(out)
    return {"order": d, "vertices": vertices, "edges": edges}


def shuffled_doc(doc: dict, rng: random.Random) -> tuple[dict, dict]:
    """A random relabelling plus unit action of the graph document, with
    vertices and edges reordered; returns it and the vertex id map."""
    ids = [v["id"] for v in doc["vertices"]]
    targets = list(range(len(ids)))
    rng.shuffle(targets)
    perm = dict(zip(ids, targets))
    units = [r for r in range(1, doc["order"]) if gcd(r, doc["order"]) == 1]
    out = relabel_doc(doc, perm, rng.choice(units))
    rng.shuffle(out["vertices"])
    rng.shuffle(out["edges"])
    return out, perm


def _i1_vertex(vid: int, d: int, residues: list[int]) -> dict:
    """An I1 vertex over a rational quotient carrying the given edge-end
    residues, completed by free branch points so that the residues sum to
    0 mod d and it has at least three branch points."""
    free = [0] * (d - 1)
    s = sum(residues) % d
    if s:
        free[d - s - 1] += 1
    if len(residues) + sum(free) < 3:
        free[0] += 1
        free[d - 2] += 1
    k = len(residues) + sum(free)
    genus = 1 - d + k * (d - 1) // 2
    return {"id": vid, "colour": "I1", "genus": genus, "free_branching": free}


def _link(u, v, mu, mv):
    return {"type": "link", "ends": [u, v], "labels": [mu, mv]}


def spine_pregraph(n: int, rng: random.Random) -> dict:
    """A pre graph whose maximal form is an I1 spine with n elliptic tails.

    The spine is split into two I1 vertices joined by a link whose labels
    sum to 0 (smoothable); half of the tails are pinched: a rational
    identity component with a (0,0) loop, which smooths to genus 1.
    """
    d = D_GRAPH
    labels = [rng.randrange(1, d) for _ in range(n)]
    s1_tails = 2
    s1_res = labels[:s1_tails]
    a = (-sum(s1_res)) % d
    s1_extra = []
    if a == 0:
        s1_extra, a = [1], d - 1
    s1 = _i1_vertex(0, d, s1_res + s1_extra + [a])
    s1["free_branching"][0] += len(s1_extra)
    s2 = _i1_vertex(1, d, labels[s1_tails:] + [d - a])
    vertices, edges = [s1, s2], [_link(0, 1, a, d - a)]
    pinched = set(rng.sample(range(n), n // 2))
    for t in range(n):
        vid = 2 + t
        spine = 0 if t < s1_tails else 1
        edges.append(_link(spine, vid, labels[t], 0))
        if t in pinched:
            vertices.append({"id": vid, "colour": "I0", "genus": 0})
            edges.append({"type": "loop", "vertex": vid, "pair": [0, 0]})
        else:
            vertices.append({"id": vid, "colour": "I0", "genus": 1})
    return shuffled_doc({"order": d, "vertices": vertices, "edges": edges}, rng)[0]


def enlarge_graph(rng: random.Random) -> tuple[dict, dict]:
    """A maximal graph with three I1 components A - B - C and elliptic tails
    on A and B; returns the document and the relabelled ids of A, B, C."""
    d = D_GRAPH
    ab = rng.randrange(1, d)
    bc = rng.randrange(1, d)
    ta, tb = rng.randrange(1, d), rng.randrange(1, d)
    a = _i1_vertex(0, d, [ab, ta])
    b = _i1_vertex(1, d, [ab, bc, tb])
    c = _i1_vertex(2, d, [bc])
    vertices = [a, b, c,
                {"id": 3, "colour": "I0", "genus": rng.randrange(1, 3)},
                {"id": 4, "colour": "I0", "genus": 1}]
    # Equal labels on an I1 - I1 link never sum to 0 mod 3: not smoothable.
    edges = [_link(0, 1, ab, ab), _link(1, 2, bc, bc),
             _link(0, 3, ta, 0), _link(1, 4, tb, 0)]
    out, perm = shuffled_doc({"order": d, "vertices": vertices, "edges": edges}, rng)
    return out, {"A": perm[0], "B": perm[1], "C": perm[2]}


def cover_doc(rng: random.Random, d: int, m: int, nsym: int) -> dict:
    """A valid cover document of order d whose populated residues generate
    the subgroup of index m, with nsym divisor symbols.

    The last symbol sits at residue m and closes d*L = sum_i i*[D_i] up to
    an m-torsion class tau, which becomes the witness class L'.
    """
    rank = 2
    torsion = [2 * m, 4 * m]
    residues = [i for i in range(m, d, m)]

    def rand_class():
        return ([rng.randint(-9, 9) for _ in range(rank)],
                [rng.randrange(t) for t in torsion])

    L = rand_class()
    items = []
    for s in range(nsym - 1):
        items.append((rng.choice(residues), "D%d" % s, rand_class()))
    free = [d // m * x for x in L[0]]
    tors = [d // m * x for x in L[1]]
    for i, _, (cf, ct) in items:
        free = [a - i // m * b for a, b in zip(free, cf)]
        tors = [a - i // m * b for a, b in zip(tors, ct)]
    tau = [t // gcd(t, m) * rng.randrange(gcd(t, m)) for t in torsion]
    tors = [(a - b) % t for a, b, t in zip(tors, tau, torsion)]
    items.append((m, "D%d" % (nsym - 1), (free, tors)))
    divisors: dict[str, list] = {}
    for i, sym, (cf, ct) in items:
        divisors.setdefault(str(i), []).append(
            {"symbol": sym, "class": {"free": cf, "torsion": ct}})
    return {"order": d, "picard": {"free_rank": rank, "torsion": torsion},
            "L": {"free": L[0], "torsion": L[1]}, "divisors": divisors}


# A cover document whose `divisors` is a list instead of a residue map.  Its
# correct outcome is exit 2; the CLI raises AttributeError on it instead, on
# every run.  Fixed input: it does not depend on the seed.
LIST_DIVISORS_DOC = {
    "order": 4,
    "picard": {"free_rank": 1, "torsion": [2]},
    "L": {"free": [1], "torsion": [0]},
    "divisors": [{"symbol": "D", "class": {"free": [2], "torsion": [1]}}],
}
LIST_DIVISORS_FAULT = (
    "cli._assignment_from_doc calls .items() on a list `divisors` and raises "
    "an uncaught AttributeError"
)

# A documents round has 20 ops: seven cheap ones (three malformed documents,
# three enlargements, the smallest simplify), a block of six cover checks of
# about the same cost, and seven dear ones (three simplify documents, four
# character tables).  The median op falls inside the block of cover checks.
# (tails, format, nominal seconds) for the simplify documents.
_SIMPLIFY = ((5, "table", 0.007), (6, "doc", 0.020), (7, "table", 0.13),
             (8, "doc", 1.10))
# (order, inertia gcd m, symbols, format) of the cover-check documents.
_COVERS = ((120, 1, 200, "table"), (120, 2, 220, "doc"), (210, 3, 200, "table"),
           (210, 5, 240, "doc"), (240, 4, 250, "table"), (300, 6, 220, "doc"))
COVER_NOMINAL = 0.012
# (order, inertia gcd m, symbols, nominal s) of the character-table covers.
_CHAR_COVERS = ((12, 1, 60, 0.017), (18, 2, 80, 0.055), (24, 2, 120, 0.14),
                (30, 3, 150, 0.29))


def _write(workdir: str, name: str, doc) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _fmt(argv: tuple, fmt: str) -> tuple:
    return argv + ("--format", "doc") if fmt == "doc" else argv


def _character_table(ba) -> list:
    from cycliccovers import cover_algebra

    return [cover_algebra.character_class(ba, chi) for chi in range(ba.d)]


def _assignment(doc: dict):
    from cycliccovers import cover_algebra

    model = cover_algebra.PicardModel(doc["picard"]["free_rank"],
                                      tuple(doc["picard"]["torsion"]))
    divisors = {
        int(i): [(it["symbol"], model.element(it["class"]["free"],
                                              it["class"]["torsion"]))
                 for it in items]
        for i, items in doc["divisors"].items()
    }
    L = model.element(doc["L"]["free"], doc["L"]["torsion"])
    return cover_algebra.branch_assignment(doc["order"], model, L, divisors)


def _documents_pool(rng: random.Random, workdir: str):
    ix = 0
    while True:
        reqs = []
        tag = "r%d" % ix
        for n, fmt, nominal in _SIMPLIFY:
            doc = spine_pregraph(n, rng)
            path = _write(workdir, "%s-simplify-%d.json" % (tag, n), doc)
            reqs.append(Request("simplify", nominal,
                                _fmt(("simplify", "--input", path), fmt),
                                info={"doc": doc}))
        doc, ids = enlarge_graph(rng)
        path = _write(workdir, "%s-enlarge.json" % tag, doc)
        for kind, vertex, fmt in (("detached", "C", "table"), ("attached", "A", "doc"),
                                  ("max", "B", "table")):
            argv = ("enlarge", "--input", path, "--vertex", str(ids[vertex]),
                    "--kind", kind)
            reqs.append(Request("enlarge", 0.004, _fmt(argv, fmt), info={"doc": doc}))
        for d, m, nsym, fmt in _COVERS:
            doc = cover_doc(rng, d, m, nsym)
            path = _write(workdir, "%s-cover-%d-%d.json" % (tag, d, m), doc)
            reqs.append(Request("cover", COVER_NOMINAL,
                                _fmt(("cover", "check", "--input", path), fmt),
                                info={"doc": doc}))
        for d, m, nsym, nominal in _CHAR_COVERS:
            doc = cover_doc(rng, d, m, nsym)
            ba = _assignment(doc)
            reqs.append(Request(
                "chars", nominal, call=lambda ba=ba: _character_table(ba),
                info={"doc": doc, "label": "character_class table d=%d" % d}))
        bad_graph = spine_pregraph(5, rng)
        bad_graph["edges"][0]["type"] = "bridge"
        path = _write(workdir, "%s-bad-graph.json" % tag, bad_graph)
        reqs.append(Request("malformed", 0.004, ("simplify", "--input", path)))
        bad_cover = cover_doc(rng, 12, 1, 20)
        bad_cover["L"]["free"][0] += 1
        path = _write(workdir, "%s-bad-cover.json" % tag, bad_cover)
        reqs.append(Request("malformed", 0.004, ("cover", "check", "--input", path)))
        path = _write(workdir, "%s-list-divisors.json" % tag, LIST_DIVISORS_DOC)
        reqs.append(Request("malformed", 0.004, ("cover", "check", "--input", path),
                            known_fault=LIST_DIVISORS_FAULT))
        yield reqs
        ix += 1


POOLS = {
    "interior": _interior_pool,
    "boundary": _boundary_pool,
    "documents": _documents_pool,
}


def plan(workload: str, seed: int, seconds: float, workdir: str,
         unit_s: float) -> tuple[list[Request], int]:
    """The requests of one run in issue order, and the number of rounds."""
    rng = random.Random("%s:%d" % (workload, seed))
    reqs: list[Request] = []
    spent = 0.0
    rounds = 0
    for rnd in POOLS[workload](rng, workdir):
        cost = round_cost(rnd, unit_s)
        if rounds and spent + cost > seconds:
            break
        reqs.extend(rnd)
        spent += cost
        rounds += 1
    rng.shuffle(reqs)
    return reqs, rounds
