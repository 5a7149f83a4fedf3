"""Frontier checks: the tier-1 identities at sizes the suite does not reach.

Run from any directory:

    python3 tests/frontier.py

Each check prints one line: its verdict, what it compared and its time.
The script exits 1 if any check fails, and 0 otherwise.  Its name does not
match pytest's test-file patterns, so the suite does not collect it.  The
star check reads the suite's per-graph boundary definition, so it needs
pytest installed.  The output checks compare the CLI's stdout, in both
formats, with the record-by-record rendering in `oracles`.
"""

import contextlib
import io
import os
import sys
import time
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import oracles  # noqa: E402  (tests/ is on the path as the script's directory)
from cycliccovers import branching as br  # noqa: E402
from cycliccovers import cli  # noqa: E402
from cycliccovers import sing_smooth  # noqa: E402
from cycliccovers import sing_stable as ss  # noqa: E402
from cycliccovers import stable_graphs as sg  # noqa: E402
from cycliccovers.combinat import primes_upto  # noqa: E402


def necklace_rows(g, primes):
    """`_necklace_rows` equals `_residue_rows` as a multiset at each prime."""
    bad = ["p = %d" % p for p in primes
           if Counter(br._necklace_rows(g, p)) != Counter(br._residue_rows(g, p))]
    return bad, "%d primes" % len(primes)


def prime_orbit_count(g, primes):
    """`oracles.prime_orbit_count` equals len(enumerate_admissible) at each prime."""
    counted = {p: oracles.prime_orbit_count(g, p) for p in primes}
    bad = ["p = %d" % p for p, n in counted.items() if n != len(br.enumerate_admissible(g, p))]
    return bad, "%d primes, %d loci" % (len(counted), sum(counted.values()))


def stars(g, primes):
    """`sing_stable._stars` equals the canonical encodings of the
    `enumerate_graphs` classes that pass `test_filter_applied`'s per-graph
    boundary definition, in order, at each prime."""
    from test_stable_graphs import is_boundary_graph

    bad, n = [], 0
    for p in primes:
        want = [sg.canonical_encoding(G) for G in map(sg._decode, sg.enumerate_graphs(g, p))
                if is_boundary_graph(G)]
        bad += ["p = %d" % p] if ss._stars(g, p) != want else []
        n += len(want)
    return bad, "p = %s, %d stars" % (", ".join(map(str, primes)), n)


def printed(argv, want):
    """The CLI's stdout on argv against the text want: the first line where
    they differ, if any, and the number of lines."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    got, want = out.getvalue().splitlines(), want.splitlines()
    if code == 0 and got == want:
        return [], "%d lines" % len(want)
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
    return ["line %d" % (first + 1)], "%d lines" % len(want)


def sing_output(g, fmt):
    """`sing` prints what `oracles.reference_report_output` renders record
    by record from `decompose_sing`."""
    want = oracles.reference_report_output(sing_smooth.decompose_sing(g), fmt == "doc")
    bad, what = printed(["sing", "--genus", str(g), "--format", fmt], want)
    return bad, "%s, %s" % (fmt, what)


def admissible_output(g, order_fmt):
    """`admissible` prints what `oracles.reference_admissible_output` renders
    locus by locus from `locus_rows`."""
    d, fmt = order_fmt
    want = oracles.reference_admissible_output(g, d, fmt == "doc")
    bad, what = printed(["admissible", "--genus", str(g), "--order", str(d), "--format", fmt],
                        want)
    return bad, "order %d, %s, %s" % (d, fmt, what)


# The suite runs the star check at genus 2-5 and at genus 6 except p = 3.
# Genus 8 leaves out p = 3, by far its slowest search.
CHECKS = [(check, g, primes_upto(2 * g + 1))
          for check in (necklace_rows, prime_orbit_count) for g in (60, 80)]
CHECKS += [(stars, 6, (3,)), (stars, 7, primes_upto(15)),
           (stars, 8, [p for p in primes_upto(17) if p != 3])]
# The suite compares the printed output at sing genus 3-40 and admissible genus 2-15.
CHECKS += [(sing_output, g, fmt) for g in (60, 80) for fmt in ("table", "doc")]
CHECKS += [(admissible_output, 60, (d, fmt)) for d in (12, 30) for fmt in ("table", "doc")]


def main() -> int:
    failed = 0
    for check, g, arg in CHECKS:
        start = time.perf_counter()
        bad, what = check(g, arg)
        print("%s %s genus %d: %s%s, %.2f s" % (
            "FAIL" if bad else "ok", check.__name__, g, what,
            ", mismatch at %s" % ", ".join(bad) if bad else "",
            time.perf_counter() - start), flush=True)
        failed += bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
