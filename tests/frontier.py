"""Frontier checks: the tier-1 identities at sizes the suite does not reach.

Run from any directory:

    python3 tests/frontier.py

Each check prints one line: its verdict, what it compared and its time.
The script exits 1 if any check fails, and 0 otherwise.  Its name does not
match pytest's test-file patterns, so the suite does not collect it.
"""

import os
import sys
import time
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import oracles  # noqa: E402  (tests/ is on the path as the script's directory)
from cycliccovers import branching as br  # noqa: E402
from cycliccovers.combinat import primes_upto  # noqa: E402


def necklace_rows(g):
    """`_necklace_rows` equals `_residue_rows` as a multiset at every prime p <= 2g + 1."""
    primes = primes_upto(2 * g + 1)
    bad = [p for p in primes
           if Counter(br._necklace_rows(g, p)) != Counter(br._residue_rows(g, p))]
    return bad, "%d primes" % len(primes)


def prime_orbit_count(g):
    """`oracles.prime_orbit_count` equals len(enumerate_admissible) at every prime p <= 2g + 1."""
    counted = {p: oracles.prime_orbit_count(g, p) for p in primes_upto(2 * g + 1)}
    bad = [p for p, n in counted.items() if n != len(br.enumerate_admissible(g, p))]
    return bad, "%d primes, %d loci" % (len(counted), sum(counted.values()))


CHECKS = [(check, g) for check in (necklace_rows, prime_orbit_count) for g in (60, 80)]


def main() -> int:
    failed = 0
    for check, g in CHECKS:
        start = time.perf_counter()
        bad, what = check(g)
        print("%s %s genus %d: %s%s, %.2f s" % (
            "FAIL" if bad else "ok", check.__name__, g, what,
            ", mismatch at p = %s" % ", ".join(map(str, bad)) if bad else "",
            time.perf_counter() - start), flush=True)
        failed += bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
