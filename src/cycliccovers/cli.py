"""Command line front end.

Every command is deterministic: identical inputs give byte-identical
output.  Two formats exist: a human table (default) and a structured
JSON document (--format doc) that re-parses to the in-memory result.
Exit codes: 0 success (including empty results), 1 usage errors, 2
constraint violations in input data.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys

from . import branching, cover_algebra, sing_smooth, sing_stable, stable_graphs
from .sing_smooth import (
    CaseTag,
    ClassificationRecord,
    ContainerInfo,
    DecompositionReport,
    NormalizerShape,
    Verdict,
)
from .sing_stable import BoundaryComponent
from .stable_graphs import GraphError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Document conversion


def locus_doc(l: branching.SmoothLocus) -> dict:
    return {
        "genus": l.g,
        "order": l.d,
        "counts": list(l.counts),
        "quotient_genus": l.h,
        "branch_count": l.k,
        "dim": l.dim,
        "codim": l.codim,
        "label": l.label(),
    }


def locus_from_doc(doc: dict) -> branching.SmoothLocus:
    return branching.smooth_locus(
        doc["genus"], branching.BranchingSequence(doc["order"], tuple(doc["counts"]))
    )


def container_doc(c: ContainerInfo) -> dict:
    out: dict = {
        "order": c.q,
        "genus": c.g,
        "exact": c.exact,
        "dim_lower_bound": c.dim_lower_bound,
        "label": c.label(),
    }
    if c.exact:
        out.update({
            "counts": list(c.counts),
            "quotient_genus": c.h,
            "branch_count": c.k,
            "dim": c.dim,
        })
    return out


def container_from_doc(doc: dict) -> ContainerInfo:
    return ContainerInfo(
        q=doc["order"],
        g=doc["genus"],
        exact=doc["exact"],
        dim_lower_bound=doc["dim_lower_bound"],
        counts=tuple(doc["counts"]) if doc.get("counts") is not None else None,
        h=doc.get("quotient_genus"),
        k=doc.get("branch_count"),
        dim=doc.get("dim"),
    )


def record_doc(r: ClassificationRecord) -> dict:
    out: dict = {"locus": locus_doc(r.locus), "verdict": r.verdict.value}
    if r.case_tag is not None:
        out["case"] = r.case_tag.value
    if r.normalizer is not None:
        out["normalizer"] = r.normalizer.value
    if r.container is not None:
        out["container"] = container_doc(r.container)
    if r.notes:
        out["notes"] = list(r.notes)
    return out


def record_from_doc(doc: dict) -> ClassificationRecord:
    return ClassificationRecord(
        locus=locus_from_doc(doc["locus"]),
        verdict=Verdict(doc["verdict"]),
        case_tag=CaseTag(doc["case"]) if "case" in doc else None,
        normalizer=NormalizerShape(doc["normalizer"]) if "normalizer" in doc else None,
        container=container_from_doc(doc["container"]) if "container" in doc else None,
        notes=tuple(doc.get("notes", ())),
    )


def boundary_doc(c: BoundaryComponent) -> dict:
    return {
        "graph": stable_graphs.graph_to_doc(c.graph),
        "order": c.d,
        "dim": c.dim,
        "codim": c.codim,
        "flags": list(c.flags),
    }


def boundary_from_doc(doc: dict) -> BoundaryComponent:
    return BoundaryComponent(
        graph=stable_graphs.graph_from_doc(doc["graph"]),
        d=doc["order"],
        dim=doc["dim"],
        codim=doc["codim"],
        flags=tuple(doc["flags"]),
    )


def report_doc(rep: DecompositionReport) -> dict:
    return {
        "genus": rep.g,
        "records": [record_doc(r) for r in rep.records],
        "boundary": [boundary_doc(c) for c in rep.boundary],
        "warnings": list(rep.warnings),
        "notes": list(rep.notes),
    }


def report_from_doc(doc: dict) -> DecompositionReport:
    return DecompositionReport(
        g=doc["genus"],
        records=tuple(record_from_doc(r) for r in doc["records"]),
        boundary=tuple(boundary_from_doc(c) for c in doc["boundary"]),
        warnings=tuple(doc["warnings"]),
        notes=tuple(doc["notes"]),
    )


def _assignment_from_doc(doc: dict) -> cover_algebra.BranchAssignment:
    def mapping(value, what):
        if not isinstance(value, dict):
            raise GraphError("malformed cover document: %s must be an object" % what)
        return value

    picard = mapping(mapping(doc, "the document")["picard"], "picard")
    model = cover_algebra.PicardModel(
        free_rank=int(picard["free_rank"]),
        torsion=tuple(int(t) for t in picard.get("torsion", ())),
    )

    def cls(entry):
        entry = mapping(entry, "a divisor class")
        return model.element(
            tuple(int(x) for x in entry.get("free", ())),
            tuple(int(x) for x in entry.get("torsion", ())),
        )

    divisors = {}
    for residue, items in mapping(doc.get("divisors", {}), "divisors").items():
        divisors[int(residue)] = [(item["symbol"], cls(item["class"])) for item in items]
    return cover_algebra.branch_assignment(
        d=int(doc["order"]), model=model, L=cls(doc["L"]), divisors=divisors
    )


# ---------------------------------------------------------------------------
# Rendering


def _emit_doc(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _graph_line(G) -> str:
    parts = []
    for v in G.vertices:
        if v.colour == stable_graphs.I1:
            parts.append("I1#%d(g=%d,free=%s)" % (v.vid, v.genus, list(v.free or ())))
        else:
            parts.append("I0#%d(g=%d)" % (v.vid, v.genus))
    eparts = []
    for e in G.edges:
        if isinstance(e, stable_graphs.Link):
            eparts.append("%d-%d(%d,%d)" % (e.u, e.v, e.mu, e.mv))
        else:
            tag = "~" if e.swapped else ""
            eparts.append("loop%s@%d{%d,%d}" % (tag, e.v, e.pair[0], e.pair[1]))
    return " ".join(parts) + (" | " + " ".join(eparts) if eparts else "")


def _render_report(rep: DecompositionReport) -> None:
    print("genus %d" % rep.g)
    print("components:")
    for r in rep.components():
        print("  %s dim=%d codim=%d" % (r.locus.label(), r.locus.dim, r.locus.codim))
    for c in rep.boundary:
        line = "  boundary d=%d dim=%d codim=%d %s" % (c.d, c.dim, c.codim, _graph_line(c.graph))
        if c.flags:
            line += " [%s]" % ",".join(c.flags)
        print(line)
    print("redundant:")
    for r in rep.redundant():
        assert r.container is not None
        print(
            "  %s dim=%d case=%s container=%s (>=%d)"
            % (
                r.locus.label(),
                r.locus.dim,
                r.case_tag.value if r.case_tag else "?",
                r.container.label(),
                r.container.dim_lower_bound,
            )
        )
    print("excluded:")
    for r in rep.excluded():
        print("  %s dim=%d (pseudoreflection)" % (r.locus.label(), r.locus.dim))
    if rep.manual_review():
        print("manual review:")
        for r in rep.manual_review():
            print("  %s" % r.locus.label())
    if rep.warnings:
        print("warnings:")
        for w in rep.warnings:
            print("  %s" % w)
    if rep.notes:
        print("notes:")
        for n in rep.notes:
            print("  %s" % n)


# ---------------------------------------------------------------------------
# Commands


def _parse_counts(text: str, d: int) -> branching.BranchingSequence:
    try:
        counts = tuple(int(part) for part in text.split(",")) if text else ()
    except ValueError as exc:
        raise UsageError("counts must be comma-separated integers") from exc
    return branching.BranchingSequence(d, counts)


def cmd_admissible(args) -> int:
    loci = branching.enumerate_loci(args.genus, args.order)
    if args.format == "doc":
        _emit_doc({"genus": args.genus, "order": args.order,
                   "loci": [locus_doc(l) for l in loci]})
    else:
        for l in loci:
            print(
                "counts=(%s) h=%d dim=%d codim=%d %s"
                % (",".join(str(c) for c in l.counts), l.h, l.dim, l.codim, l.label())
            )
        print("total: %d" % len(loci))
    return EXIT_OK


def cmd_locus(args) -> int:
    seq = _parse_counts(args.counts, args.order)
    locus = branching.smooth_locus(args.genus, seq)
    if args.format == "doc":
        _emit_doc(locus_doc(locus))
    else:
        print(
            "%s h=%d k=%d dim=%d codim=%d"
            % (locus.label(), locus.h, locus.k, locus.dim, locus.codim)
        )
    return EXIT_OK


def cmd_sing(args) -> int:
    try:
        rep = sing_smooth.decompose_sing(args.genus)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.format == "doc":
        _emit_doc(report_doc(rep))
    else:
        _render_report(rep)
    return EXIT_OK


def cmd_graphs(args) -> int:
    graphs = stable_graphs.enumerate_graphs(args.genus, args.order)
    if args.format == "doc":
        _emit_doc({
            "genus": args.genus,
            "order": args.order,
            "graphs": [stable_graphs.graph_to_doc(G) for G in graphs],
        })
    else:
        for G in graphs:
            print("dim=%d %s" % (stable_graphs.stratum_dimension(G), _graph_line(G)))
        print("total: %d" % len(graphs))
    return EXIT_OK


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise GraphError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise GraphError(
            "parse error in %s at line %d column %d: %s"
            % (path, exc.lineno, exc.colno, exc.msg)
        ) from exc


def cmd_simplify(args) -> int:
    doc = _load_json(args.input)
    G = stable_graphs.graph_from_doc(doc)
    trace = []
    cur = G
    for edge, cur in stable_graphs._smoothing_steps(G, require_stable=True):
        if isinstance(edge, stable_graphs.Link):
            trace.append("smooth link %d-%d labels (%d,%d)"
                         % (edge.u, edge.v, edge.mu, edge.mv))
        else:
            trace.append("smooth loop at %d pair {%d,%d}%s"
                         % (edge.v, edge.pair[0], edge.pair[1],
                            " swapped" if edge.swapped else ""))
    out = stable_graphs.canonical_form(cur)
    if args.format == "doc":
        _emit_doc({"result": stable_graphs.graph_to_doc(out), "trace": trace})
    else:
        for line in trace:
            print(line)
        print(_graph_line(out))
    return EXIT_OK


def cmd_enlarge(args) -> int:
    doc = _load_json(args.input)
    G = stable_graphs.graph_from_doc(doc)
    op = {
        "detached": stable_graphs.enlarge_detached,
        "attached": stable_graphs.enlarge_attached,
        "max": stable_graphs.enlarge_max,
    }[args.kind]
    before = stable_graphs.stratum_dimension(G)
    out = op(G, args.vertex)
    after = stable_graphs.stratum_dimension(out)
    if args.format == "doc":
        _emit_doc({
            "result": stable_graphs.graph_to_doc(stable_graphs.canonical_form(out)),
            "dim_before": before,
            "dim_after": after,
        })
    else:
        print("dim %d -> %d" % (before, after))
        print(_graph_line(stable_graphs.canonical_form(out)))
    return EXIT_OK


def cmd_boundary(args) -> int:
    comps, warnings, notes = sing_stable.boundary_survey(args.genus, args.dmax)
    if args.format == "doc":
        _emit_doc({
            "genus": args.genus,
            "dmax": args.dmax,
            "components": [boundary_doc(c) for c in comps],
            "warnings": list(warnings),
            "notes": list(notes),
        })
    else:
        for c in comps:
            line = "d=%d dim=%d codim=%d %s" % (c.d, c.dim, c.codim, _graph_line(c.graph))
            if c.flags:
                line += " [%s]" % ",".join(c.flags)
            print(line)
        print("total: %d" % len(comps))
        for w in warnings:
            print("warning: %s" % w)
        for n in notes:
            print("note: %s" % n)
    return EXIT_OK


def cmd_sing_bar(args) -> int:
    try:
        rep = sing_stable.decompose_sing_bar(args.genus, args.dmax)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.format == "doc":
        _emit_doc(report_doc(rep))
    else:
        _render_report(rep)
    return EXIT_OK


def _decimal(n: int) -> str:
    """Exact decimal digits of n >= 0, whatever the int-to-str digit limit.

    str(int) refuses more digits than sys.get_int_max_str_digits() allows,
    and takes time quadratic in the length besides.  Here n is split on its
    binary length and the halves are joined in decimal arithmetic, where
    libmpdec multiplies long numbers fast; Decimal(int) reads the binary
    digits directly, without a string.
    """
    powers = {}

    def join(n, bits):
        if bits <= 8192:
            return decimal.Decimal(n)
        low = bits >> 1
        if low not in powers:
            powers[low] = decimal.Decimal(2) ** low
        return join(n >> low, bits - low) * powers[low] + join(n & ((1 << low) - 1), low)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(join(n, n.bit_length()))


def cmd_bounds(args) -> int:
    rep = sing_stable.aut_bounds(args.genus)
    # 2^g and 2g*6^g outgrow the interpreter's digit limit for str(int) and
    # hence for json: they are rendered by _decimal instead.
    exact = {"generic_lower": rep.generic_lower, "special_config": rep.special_config}
    if args.format == "doc":
        placeholders = {key: "\0" + key for key in exact}
        text = json.dumps({
            "genus": rep.g,
            "hurwitz_smooth": rep.hurwitz_smooth,
            "special_exceeds_hurwitz": rep.special_exceeds_hurwitz,
            "tail_orders": list(rep.tail_orders),
            **placeholders,
        }, sort_keys=True, indent=2)
        for key, value in exact.items():
            text = text.replace(json.dumps(placeholders[key]), _decimal(value))
        print(text)
    else:
        print(
            "genus=%d generic>=%s special=%s hurwitz=%d special_exceeds=%s"
            % (rep.g, _decimal(rep.generic_lower), _decimal(rep.special_config),
               rep.hurwitz_smooth, rep.special_exceeds_hurwitz)
        )
    return EXIT_OK


def cmd_cover_check(args) -> int:
    doc = _load_json(args.input)
    try:
        ba = _assignment_from_doc(doc)
    except (KeyError, TypeError) as exc:
        raise GraphError("malformed cover document: %s" % exc) from exc
    res = cover_algebra.irreducibility(ba)
    if args.format == "doc":
        _emit_doc({
            "irreducible": res.irreducible,
            "inertia_gcd": res.inertia_gcd,
            "torsion_order": res.torsion_order,
        })
    else:
        print(
            "%s (inertia gcd %d, torsion class order %d)"
            % ("irreducible" if res.irreducible else "reducible",
               res.inertia_gcd, res.torsion_order)
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Wiring


def _add_format(p):
    p.add_argument("--format", choices=("table", "doc"), default="table")


def build_parser() -> _Parser:
    parser = _Parser(prog="cycliccovers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("admissible", help="enumerate admissible branching data")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_admissible, need_g2=True, need_d2=True)

    p = sub.add_parser("locus", help="describe one locus")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--counts", type=str, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_locus, need_g2=True, need_d2=True)

    p = sub.add_parser("sing", help="decompose the interior singular locus")
    p.add_argument("--genus", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_sing, need_g2=True)

    p = sub.add_parser("graphs", help="enumerate stable automorphism graphs")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_graphs, need_g2=True, need_d2=True)

    p = sub.add_parser("simplify", help="rewrite a graph document to maximal form")
    p.add_argument("--input", type=str, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_simplify)

    p = sub.add_parser("enlarge", help="trivialise the action on chosen components")
    p.add_argument("--input", type=str, required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--kind", choices=("detached", "attached", "max"), required=True)
    _add_format(p)
    p.set_defaults(func=cmd_enlarge)

    p = sub.add_parser("boundary", help="boundary components of the singular locus")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_boundary, need_g2=True)

    p = sub.add_parser("sing-bar", help="full decomposition over stable curves")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_sing_bar, need_g2=True)

    p = sub.add_parser("bounds", help="automorphism cardinality bounds")
    p.add_argument("--genus", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_bounds, need_g2=True)

    p = sub.add_parser("cover", help="cover algebra utilities")
    csub = p.add_subparsers(dest="subcommand", required=True)
    pc = csub.add_parser("check", help="irreducibility of a branch assignment")
    pc.add_argument("--input", type=str, required=True)
    _add_format(pc)
    pc.set_defaults(func=cmd_cover_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "need_g2", False) and args.genus < 2:
            raise UsageError("genus must be at least 2")
        if getattr(args, "need_d2", False) and args.order < 2:
            raise UsageError("order must be at least 2")
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (GraphError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DATA


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
