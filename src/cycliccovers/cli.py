"""Command line front end.

Every command is deterministic: identical inputs give byte-identical
output.  Two formats exist: a human table (default) and a structured
JSON document (--format doc) that re-parses to the in-memory result.
--genus, --order and --dmax are integers of at least 2, and a smaller
value is a usage error (exit 1).  Exit codes: 0 success (including empty
results), 1 usage errors, 2 constraint violations in input data.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii as _quote

from . import branching, cover_algebra, sing_smooth, sing_stable, stable_graphs
from .combinat import clipped
from .sing_smooth import (CaseTag, ClassificationRecord, ContainerInfo, DecompositionReport,
                          NormalizerShape, Verdict)
from .sing_stable import BoundaryComponent
from .stable_graphs import GraphError, doc_int

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
    if c.locus is None:
        out = {"genus": c.g, "order": c.q, "label": c.label()}
    else:
        out = {k: v for k, v in locus_doc(c.locus).items() if k != "codim"}
    return {**out, "exact": c.exact, "dim_lower_bound": c.dim_lower_bound}


def container_from_doc(doc: dict) -> ContainerInfo:
    return ContainerInfo(
        q=doc["order"],
        g=doc["genus"],
        dim_lower_bound=doc["dim_lower_bound"],
        locus=locus_from_doc(doc) if doc["exact"] else None,
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


class _Rendered(str):
    """A list item rendered at the doc writer's item indent, which _json keeps
    as it is; it may hold several items joined by the list separator."""


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
        "graph": stable_graphs.graph_doc(c.star),
        "order": c.d,
        "dim": c.dim,
        "codim": c.codim,
        "flags": list(c.flags),
    }


def boundary_from_doc(doc: dict) -> BoundaryComponent:
    return BoundaryComponent(
        star=stable_graphs.canonical_encoding(stable_graphs.graph_from_doc(doc["graph"])),
        dim=doc["dim"],
        codim=doc["codim"],
        flags=tuple(doc["flags"]),
    )


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
        free_rank=doc_int(picard["free_rank"], "free_rank"),
        torsion=tuple(doc_int(t, "a torsion factor") for t in picard.get("torsion", ())),
    )

    def coordinates(entry):
        # (free, torsion) of a class entry.  Integer lists of the group's lengths pass
        # one test; element() reads any other entry and refuses its first fault.
        entry = mapping(entry, "a divisor class")
        free, torsion = entry.get("free", ()), entry.get("torsion", ())
        if not (type(free) is type(torsion) is list and len(free) == model.free_rank
                and len(torsion) == len(model.torsion) and {*map(type, free + torsion)} <= {int}):
            c = model.element(tuple(doc_int(x, "a free coordinate") for x in free),
                              tuple(doc_int(x, "a torsion coordinate") for x in torsion))
            return c.free, c.torsion
        return tuple(free), tuple(torsion)

    divisors = []
    for residue, items in mapping(doc.get("divisors", {}), "divisors").items():
        # Keys are text: only the canonical decimal of an integer names a
        # residue, so "02" or " 2" cannot stand in for (and overwrite) "2".
        if not residue.removeprefix("-").isdecimal() or str(int(residue)) != residue:
            raise GraphError("malformed cover document: divisor residue %s is not "
                             "a canonical decimal integer" % clipped(residue))
        divisors.append((int(residue), [(item["symbol"], *coordinates(item["class"]))
                                        for item in items]))
    return cover_algebra.BranchAssignment(
        doc_int(doc["order"], "order"), model, model.element(*coordinates(doc["L"])), divisors)


# ---------------------------------------------------------------------------
# Rendering


def _json(x, pad: str) -> str:
    """x as json.dumps(x, sort_keys=True, indent=2) renders it at indent pad,
    keys being str, and an int past the digit limit of str(int) in full."""
    if type(x) is str:
        return _quote(x)
    if type(x) is int:  # a bool is not: json.dumps renders it below
        try:
            return int.__repr__(x)
        except ValueError:  # more digits than str(int) allows
            return "-" * (x < 0) + _decimal(abs(x))
    if not x or not isinstance(x, (dict, list, tuple)):
        return x if type(x) is _Rendered else json.dumps(x)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(x, dict):
        return "{\n%s%s\n%s}" % (inner, sep.join([_quote(k) + ": " + _json(v, inner)
                                                 for k, v in sorted(x.items())]), pad)
    return "[\n%s%s\n%s]" % (inner, sep.join([_json(v, inner) for v in x]), pad)


def _emit_doc(doc: dict) -> None:
    """Print doc as json.dumps(doc, sort_keys=True, indent=2) would, writing
    each key, and each item of a list value (or iterator), once rendered."""
    write = sys.stdout.write
    sep = "{"
    for key, value in sorted(doc.items()):
        write(sep + "\n  " + _quote(key) + ": ")
        sep = ","
        if isinstance(value, (list, tuple, Iterator)):
            opener = "["
            for item in value:
                write(opener + "\n    " + _json(item, "    "))
                opener = ","
            write("[]" if opener == "[" else "\n  ]")
        else:
            write(_json(value, "  "))
    write("{}\n" if sep == "{" else "\n}\n")


# How a row (counts, h) of genus g and order d prints: (the text between two
# rows, the text between two counts of a list or None, the row's format, which
# takes the shape's fields by name and then the counts joined so and by ",").
# _json renders the doc formats from documents of slots: _LOCUS is its text of
# locus_doc(l), _COMPONENT of record_doc(r) for a record that holds only l.
_LABEL = branching.SmoothLocus.LABEL % ("%(g)d", "%(d)d", "%%s")
_SLOTS = {key: _Rendered(slot) for key, slot in (
    ("branch_count", "%(k)d"), ("codim", "%(codim)d"), ("dim", "%(dim)d"), ("genus", "%(g)d"),
    ("order", "%(d)d"), ("quotient_genus", "%(h)d"))}
_SLOTS.update(label=_LABEL, counts=[_Rendered("%%s")])
_LOCUS = _json(_SLOTS, "    ")
_COMPONENT = _json({"locus": _SLOTS, "verdict": "component"}, "    ")
_TABLE_COMPONENT = ("", None, "  " + _LABEL + " dim=%(dim)d codim=%(codim)d\n")
_DOC_COMPONENT = (",\n    ", ",\n          ", _COMPONENT)
_TABLE_LOCUS = ("", ",", "counts=(%%s) h=%(h)d dim=%(dim)d codim=%(codim)d " + _LABEL + "\n")
_DOC_LOCUS = (",\n    ", ",\n        ", _LOCUS)
_CHUNK = 1024  # rows per chunk: the text of a prime's block is never held whole


def _row_chunks(g: int, blocks, style, hold=None):
    """The text of each block (d, rows, special) in a style above, _CHUNK
    rows per chunk, yielded before the next block is drawn.  special[h][counts]
    is the record of a row whose h is special (`sing_smooth._prime_blocks`);
    one that is no component goes to hold, whose text, if any, takes its place.
    Any other row fills the format of its shape (h, k), filled in once from
    `shape_dims`.  A count is at most k <= 2g + 2: a point adds at least d/2
    to B <= 2(g - 1) + 2d, as `_admissible_rows` checks.
    """
    between, listed, form = style
    numerals = list(map(str, range(2 * g + 3)))
    for d, rows, special in blocks:
        forms = {}
        for start in range(0, len(rows), _CHUNK):
            text = []
            for counts, h in rows[start:start + _CHUNK]:
                if h in special and special[h][counts].verdict is not Verdict.COMPONENT:
                    text.append(hold(special[h][counts]) or "")  # redundant or excluded
                    continue
                k = sum(counts)
                line = forms.get((h, k))
                if line is None:
                    dim, codim = branching.shape_dims(g, d, h, k)
                    line = forms[h, k] = form % {"g": g, "d": d, "h": h, "k": k, "dim": dim,
                                                 "codim": codim}
                joined = ",".join(map(numerals.__getitem__, counts))
                text.append(line % ((joined.replace(",", listed), joined) if listed else joined))
            yield between.join(text)


def _graph_line(enc) -> str:
    """The table line of the graph a canonical encoding describes."""
    _, vparts, eparts = enc
    vs = ["I1#%d(g=%d,free=%s)" % (ix, genus, list(free)) if coloured
          else "I0#%d(g=%d)" % (ix, genus) for ix, (coloured, genus, free) in enumerate(vparts)]
    es = ["%d-%d(%d,%d)" % e[1:] if e[0] == 0 else "loop%s@%d{%d,%d}" % ("~" * e[4], *e[1:4])
          for e in eparts]
    return " ".join(vs) + (" | " + " ".join(es) if es else "")


def _boundary_line(c: BoundaryComponent) -> str:
    line = "d=%d dim=%d codim=%d %s" % (c.d, c.dim, c.codim, _graph_line(c.star))
    return line + " [%s]" % ",".join(c.flags) if c.flags else line


def _render_report(rep: DecompositionReport) -> None:
    """Print a streamed report, each prime's components as its block is read."""
    print("genus %d" % rep.g)
    print("components:")
    held: list[ClassificationRecord] = []
    for chunk in _row_chunks(rep.g, rep.records.blocks, _TABLE_COMPONENT, held.append):
        sys.stdout.write(chunk)
    rep = rep._replace(records=tuple(held))
    for c in rep.boundary:
        print("  boundary %s" % _boundary_line(c))
    print("redundant:")
    for r in rep.redundant():  # the stream has checked that each has a container
        print("  %s dim=%d case=%s container=%s (>=%d)"
              % (r.locus.label(), r.locus.dim, r.case_tag.value if r.case_tag else "?",
                 r.container.label(), r.container.dim_lower_bound))
    print("excluded:")
    for r in rep.excluded():
        print("  %s dim=%d (pseudoreflection)" % (r.locus.label(), r.locus.dim))
    for header, lines in (("warnings", list(rep.warnings)), ("notes", rep.notes)):
        if lines:
            print("%s:" % header)
            for line in lines:
                print("  %s" % line)


# ---------------------------------------------------------------------------
# Commands


def _parse_counts(text: str, d: int) -> branching.BranchingSequence:
    try:
        counts = tuple(int(part) for part in text.split(",")) if text else ()
    except ValueError as exc:
        raise UsageError("counts must be comma-separated integers") from exc
    return branching.BranchingSequence(d, counts)


def cmd_admissible(args) -> int:
    g, d = args.genus, args.order
    rows = branching.enumerate_admissible(g, d)
    chunks = _row_chunks(g, [(d, rows, ())], _DOC_LOCUS if args.format == "doc" else _TABLE_LOCUS)
    if args.format == "doc":
        _emit_doc({"genus": g, "order": d, "loci": map(_Rendered, chunks)})
    else:
        for chunk in chunks:
            sys.stdout.write(chunk)
        print("total: %d" % len(rows))
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


def cmd_report(args) -> int:
    """sing reports the interior locus; sing-bar adds the boundary up to --dmax."""
    try:
        if args.command == "sing":
            rep = sing_smooth.stream_sing(args.genus)
        else:
            rep = sing_stable.stream_sing_bar(args.genus, args.dmax)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.format == "doc":  # the warnings, read last, fill as the records are read
        _emit_doc({"genus": rep.g, "boundary": map(boundary_doc, rep.boundary),
                   "records": map(_Rendered, _row_chunks(rep.g, rep.records.blocks, _DOC_COMPONENT,
                                                         lambda r: _json(record_doc(r), "    "))),
                   "warnings": rep.warnings, "notes": list(rep.notes)})
    else:
        _render_report(rep)
    return EXIT_OK


def cmd_graphs(args) -> int:
    encs = stable_graphs.enumerate_graphs(args.genus, args.order)
    if args.format == "doc":
        _emit_doc({"genus": args.genus, "order": args.order,
                   "graphs": map(stable_graphs.graph_doc, encs)})
    else:
        for enc in encs:
            print("dim=%d %s" % (stable_graphs.encoding_dimension(enc), _graph_line(enc)))
        print("total: %d" % len(encs))
    return EXIT_OK


def _load_json(path: str) -> dict:
    def refuse(constant: str):
        raise GraphError("non-finite number %s in %s" % (constant, path))

    def unique(pairs):
        # A repeated key would otherwise silently keep only its last value.
        out = dict(pairs)
        if len(out) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise GraphError("repeated key %s in %s" % (clipped(key), path))
                seen.add(key)
        return out

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=refuse, object_pairs_hook=unique)
    except OSError as exc:
        raise GraphError("cannot read %s: %s" % (path, exc)) from exc
    except RecursionError as exc:
        raise GraphError("%s is nested too deeply to parse" % path) from exc
    except json.JSONDecodeError as exc:
        raise GraphError(
            "parse error in %s at line %d column %d: %s"
            % (path, exc.lineno, exc.colno, exc.msg)
        ) from exc


def cmd_simplify(args) -> int:
    doc = _load_json(args.input)
    G = stable_graphs.graph_from_doc(doc)
    steps, out = stable_graphs._smoothing_steps(G, require_stable=True)
    trace = ["smooth link %d-%d labels (%d,%d)" % (e.u, e.v, e.mu, e.mv) if e.u != e.v
             else "smooth loop at %d pair {%d,%d}%s"
             % (e.u, e.mu, e.mv, " swapped" if e.swapped else "") for e in steps]
    out = stable_graphs.canonical_encoding(out)
    if args.format == "doc":
        _emit_doc({"result": stable_graphs.graph_doc(out), "trace": trace})
    else:
        for line in trace:
            print(line)
        print(_graph_line(out))
    return EXIT_OK


def cmd_enlarge(args) -> int:
    doc = _load_json(args.input)
    G = stable_graphs.graph_from_doc(doc)
    before, out, after = stable_graphs.enlarge(G, args.vertex, args.kind)
    out = stable_graphs.canonical_encoding(out)
    if args.format == "doc":
        _emit_doc({"result": stable_graphs.graph_doc(out), "dim_before": before,
                   "dim_after": after})
    else:
        print("dim %d -> %d" % (before, after))
        print(_graph_line(out))
    return EXIT_OK


def cmd_boundary(args) -> int:
    comps, warnings, notes = sing_stable.boundary_survey(args.genus, args.dmax)
    if args.format == "doc":
        _emit_doc({"genus": args.genus, "dmax": args.dmax, "components": map(boundary_doc, comps),
                   "warnings": warnings, "notes": notes})
    else:
        for c in comps:
            print(_boundary_line(c))
        print("total: %d" % len(comps))
        for w in warnings:
            print("warning: %s" % w)
        for n in notes:
            print("note: %s" % n)
    return EXIT_OK


def _decimal(n: int) -> str:
    """Exact decimal digits of n >= 0, whatever the int-to-str digit limit.

    str(int) refuses more digits than sys.get_int_max_str_digits() allows,
    and takes time quadratic in the length besides.  Here n is split on its
    binary length and the halves are joined in decimal arithmetic, where
    libmpdec multiplies long numbers fast; Decimal(int) reads the binary
    digits directly, without a string.
    """
    import decimal  # not at start-up: only bounds and numbers past the digit limit come here
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
    # 2^g and 2g*6^g outgrow the interpreter's digit limit for str(int):
    # both formats render them by _decimal.
    if args.format == "doc":
        _emit_doc({"genus": rep.g, "generic_lower": rep.generic_lower,
                   "special_config": rep.special_config, "hurwitz_smooth": rep.hurwitz_smooth,
                   "special_exceeds_hurwitz": rep.special_exceeds_hurwitz,
                   "tail_orders": rep.tail_orders})
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
        _emit_doc(res._asdict())
    else:
        print(
            "%s (inertia gcd %d, torsion class order %d)"
            % ("irreducible" if res.irreducible else "reducible",
               res.inertia_gcd, res.torsion_order)
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Wiring


# Every option a command may take but --format, which every command takes
# last.  Each of them is required.
_OPTIONS = {
    "genus": {"type": int},
    "order": {"type": int},
    "counts": {"type": str},
    "input": {"type": str},
    "vertex": {"type": int},
    "kind": {"choices": ("detached", "attached", "max")},
    "dmax": {"type": int},
}

# (name, help, handler, options): a name of two words is a subcommand of the
# group its first word names, and a group has no handler.
_COMMANDS = (
    ("admissible", "enumerate admissible branching data", cmd_admissible, "genus order"),
    ("locus", "describe one locus", cmd_locus, "genus order counts"),
    ("sing", "decompose the interior singular locus", cmd_report, "genus"),
    ("graphs", "enumerate stable automorphism graphs", cmd_graphs, "genus order"),
    ("simplify", "rewrite a graph document to maximal form", cmd_simplify, "input"),
    ("enlarge", "trivialise the action on chosen components", cmd_enlarge,
     "input vertex kind"),
    ("boundary", "boundary components of the singular locus", cmd_boundary, "genus dmax"),
    ("sing-bar", "full decomposition over stable curves", cmd_report, "genus dmax"),
    ("bounds", "automorphism cardinality bounds", cmd_bounds, "genus"),
    ("cover", "cover algebra utilities", None, ""),
    ("cover check", "irreducibility of a branch assignment", cmd_cover_check, "input"),
)

# The range rule, checked in this order after parsing.
_AT_LEAST_2 = ("genus", "order", "dmax")


@functools.cache  # one parser per process: parsing leaves it unchanged
def build_parser() -> _Parser:
    parser = _Parser(prog="cycliccovers")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, help_, func, options in _COMMANDS:
        group, _, word = name.rpartition(" ")
        p = groups[group].add_parser(word, help=help_)
        if func is None:
            groups[name] = p.add_subparsers(dest="subcommand", required=True)
            continue
        for option in options.split():
            p.add_argument("--" + option, required=True, **_OPTIONS[option])
        p.add_argument("--format", choices=("table", "doc"), default="table")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for name in _AT_LEAST_2:
            if getattr(args, name, 2) < 2:
                raise UsageError("%s must be at least 2" % name)
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (GraphError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DATA


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`... | head`): stop quietly, and point
        # stdout at devnull so that the exit flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)


if __name__ == "__main__":
    console_main()
