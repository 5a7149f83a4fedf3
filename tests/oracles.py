"""Independent brute-force oracles for cross-checking the library.

Everything here is deliberately coded from first principles in a
different style from the package: plain loops over whole search spaces,
closed-form container dimensions, and a direct star-graph constructor
for the boundary enumeration.  What the oracles take from the package:

- `branching`: the `BranchingSequence` container, `canonical_datum` and
  `admissible_quotient_genus`;
- `cover_algebra`: `carry`;
- `combinat`: `branch_weights`, `branching_term`, `genus_relation`,
  `is_prime`, `primes_upto`, `quotient_genus_for`, `residue_sum`,
  `unit_action`, `units_mod` and `weak_compositions`;
- `cli`: `locus_doc`, `record_doc`, `boundary_doc` and `_boundary_line`,
  the documents and table lines of single items, for the printed output of
  `sing`, `sing-bar` and `admissible`;
- `stable_graphs`: the graph containers and constructors (`I0`, `I1`,
  `AutoGraph`, `Vertex`, `make_graph`, `make_link`, `make_loop`),
  `canonical_encoding` and `graph_doc`, for set comparisons and documents, and
  `GraphError`, `check_graph` and `smoothable_nodes`, which the one-step
  smoothing reference shares with `simplify`.
"""

import functools
import itertools
import json
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, gcd

from cycliccovers import cli
from cycliccovers.branching import (
    BranchingSequence,
    admissible_quotient_genus,
    canonical_datum,
    enumerate_admissible,
    locus_rows,
)
from cycliccovers.cover_algebra import carry
from cycliccovers.combinat import (branch_weights, branching_term, genus_relation, is_prime,
                                   primes_upto, quotient_genus_for, residue_sum, unit_action,
                                   units_mod, weak_compositions)
from cycliccovers.stable_graphs import (
    I0,
    I1,
    AutoGraph,
    GraphError,
    Vertex,
    canonical_encoding,
    check_graph,
    graph_doc,
    make_graph,
    make_link,
    make_loop,
    smoothable_nodes,
)


# ---------------------------------------------------------------------------
# Branching


def orbit_of(counts, d):
    res = set()
    for r in range(1, d):
        if gcd(r, d) != 1:
            continue
        out = [0] * (d - 1)
        for i, c in enumerate(counts, start=1):
            out[(r * i) % d - 1] = c
        res.add(tuple(out))
    return frozenset(res)


def brute_admissible_prime(g, p):
    """Every admissible orbit for prime p, scanning all sequences under
    the k bound; returns {orbit: h}."""
    assert is_prime(p)
    out = {}
    for k in range(0, 2 * (g - 1) + 2 * p + 1):
        two_ph = 2 * (g - 1) - k * (p - 1) + 2 * p
        if two_ph < 0 or two_ph % (2 * p) != 0:
            continue
        h = two_ph // (2 * p)
        if k == 0:
            if h >= 1:
                out[orbit_of((0,) * (p - 1), p)] = h
            continue
        for counts in weak_compositions(k, p - 1):
            if sum(i * c for i, c in enumerate(counts, start=1)) % p != 0:
                continue
            out[orbit_of(counts, p)] = h
    return out


def brute_admissible_general(g, d):
    """Same scan for arbitrary order, recomputing h per sequence."""
    out = {}
    for k in range(0, 2 * (g - 1) + 2 * d + 1):
        for counts in weak_compositions(k, d - 1):
            if sum(i * c for i, c in enumerate(counts, start=1)) % d != 0:
                continue
            h = Fraction(1) + Fraction(g - 1, d)
            for i, c in enumerate(counts, start=1):
                h -= Fraction(c, 2) * (1 - Fraction(gcd(i, d), d))
            if h.denominator != 1 or h < 0:
                continue
            m = d
            for i, c in enumerate(counts, start=1):
                if c:
                    m = gcd(m, i)
            if m != 1 and h < 1:
                continue
            out[orbit_of(counts, d)] = int(h)
    return out


def reference_weighted_compositions(total, weights):
    """Tuples k >= 0 with sum(k[i] * weights[i]) == total, by plain
    recursion over every count at every slot."""
    weights = tuple(weights)

    def rec(i, remaining):
        if i == len(weights):
            if remaining == 0:
                yield ()
            return
        w = weights[i]
        for c in range(remaining // w + 1):
            for rest in rec(i + 1, remaining - c * w):
                yield (c,) + rest

    yield from rec(0, total)


def reference_admissible(g, d):
    """The slow path that `branching.enumerate_admissible` replaced: every
    solution of the defect equation per quotient genus goes through the
    public rational admissibility test and is canonicalised on its own.
    Returns the same tuple of (counts, h) rows, in the same order."""
    weights = tuple(d - gcd(i, d) for i in range(1, d))
    out = {}
    h = 0
    while True:
        defect = 2 * (g - 1) - 2 * d * (h - 1)
        if defect < 0:
            break
        for counts in reference_weighted_compositions(defect, weights):
            seq = BranchingSequence(d, counts)
            got = admissible_quotient_genus(g, seq)
            if got is None:
                continue
            assert got == h
            out[canonical_datum(seq).counts] = h
        h += 1
    # canonical order: populated low residues first, then the counts
    ordered = sorted(out, key=lambda c: (tuple(0 if x else 1 for x in c), c))
    return tuple((c, out[c]) for c in ordered)


def weighted_compositions(total: int, weights):
    """Yield tuples k >= 0 with sum(k[i] * weights[i]) == total.

    Weights must be positive integers.  Equal weights form one class: the
    class totals t_w with sum(t_w * w) == total are solved first, over the
    distinct weights only, and each class total is then spread over the
    slots of its class.  The last distinct weight takes its total
    directly, and a remainder that the gcd of the weights still to come
    cannot divide is pruned, so the search never reaches the last weight
    with a remainder it cannot take.  Tuples are streamed from one
    buffer; nothing is materialised.
    """
    weights = tuple(weights)
    if not weights:
        if total == 0:
            yield ()
        return
    slots: dict[int, list[int]] = {}
    for pos, w in enumerate(weights):
        slots.setdefault(w, []).append(pos)
    classes = tuple(slots.items())
    n = len(classes)
    # suffix[j]: gcd of the distinct weights from j on (0 past the end)
    suffix = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        suffix[j] = gcd(classes[j][0], suffix[j + 1])
    if total % suffix[0]:
        return
    totals = [0] * n
    buf = [0] * len(weights)

    def solve(j, remaining):
        w = classes[j][0]
        if j == n - 1:
            totals[j] = remaining // w
            yield
            return
        step = suffix[j + 1]
        for c in range(remaining // w + 1):
            rest = remaining - c * w
            if rest % step == 0:
                totals[j] = c
                yield from solve(j + 1, rest)

    def spread(j):
        # Every weak composition of totals[j] over the slots of class j,
        # written into buf; later classes vary faster.  NEXCOM (Nijenhuis
        # and Wilf, Combinatorial Algorithms, 1978): O(1) per step.
        pos = classes[j][1]
        top = totals[j]
        r = [0] * len(pos)
        r[0] = top
        for q in pos:
            buf[q] = 0
        buf[pos[0]] = top
        inner = j + 1 < n
        t, h = top, -1
        while True:
            if inner:
                yield from spread(j + 1)
            else:
                yield tuple(buf)
            if r[-1] == top:
                return
            if t > 1:
                h = -1
            h += 1
            t = r[h]
            r[h] = 0
            r[0] = t - 1
            r[h + 1] += 1
            buf[pos[h]] = r[h]
            buf[pos[0]] = r[0]
            buf[pos[h + 1]] = r[h + 1]

    for _ in solve(0, total):
        yield from spread(0)


def seen_set_admissible(g, d):
    """The generate-then-filter path that `branching.enumerate_admissible`
    replaced: every solution of the genus relation over divisor-class
    compositions, a residue-sum filter, and one canonicalisation per unit
    orbit, whose other members go into a seen-set.  Returns the same tuple
    of (counts, h) rows, in the same order."""
    weights = branch_weights(d)
    terms = genus_relation(g, d)
    actions = [unit_action(d, r) for r in units_mod(d)]
    key = lambda c: (tuple(0 if x else 1 for x in c), c)  # noqa: E731
    seen = set()
    out = {}
    for h, term in enumerate(terms):
        for counts in weighted_compositions(term, weights):
            assert sum(counts) <= terms[0]
            if residue_sum(counts) % d or counts in seen:
                continue
            if h == 0 and gcd(d, *(i for i, c in enumerate(counts, 1) if c)) != 1:
                continue
            assert quotient_genus_for(g, d, branching_term(counts)) == h
            images = {act(counts) for act in actions}
            seen |= images
            out[min(images, key=key)] = h
    return tuple((c, out[c]) for c in sorted(out, key=key))


def _phi(m):
    return sum(1 for r in range(1, m + 1) if gcd(r, m) == 1)


def prime_multiset_orbits(k, p):
    """Unit orbits of k-point multisets of nonzero residues mod the prime p
    with residue sum 0, by Burnside's lemma over the cyclic unit group of
    order p - 1.  A unit of order m > 1 fixes the multisets made of whole
    cosets of its subgroup, (p - 1)/m of them taken k/m times with
    repetition; every such coset sums to 0.  The identity fixes all of
    them, counted by the roots-of-unity filter: the generating function
    of a nonzero-residue multiset twisted by a nontrivial p-th root of
    unity is (1 - x)/(1 - x^p)."""
    if k == 0:
        return 1
    eps = 1 if k % p == 0 else -1 if k % p == 1 else 0
    total = (comb(k + p - 2, p - 2) + (p - 1) * eps) // p
    for m in range(2, p):
        if (p - 1) % m == 0 and k % m == 0:
            n = (p - 1) // m
            total += _phi(m) * comb(k // m + n - 1, n - 1)
    assert total % (p - 1) == 0
    return total // (p - 1)


def prime_shape_counts(g, p):
    """{(h, k): number of admissible loci} for prime p, over every
    quotient genus h >= 0 that leaves a whole number k of branch points in
    2(g - 1) = 2p(h - 1) + k(p - 1).  Every nonzero residue generates Z/p,
    so the generation condition at h = 0 is void."""
    out = {}
    h = 0
    while 2 * (g - 1) - 2 * p * (h - 1) >= 0:
        k, odd = divmod(2 * (g - 1) - 2 * p * (h - 1), p - 1)
        if not odd:
            out[(h, k)] = prime_multiset_orbits(k, p)
        h += 1
    return out


def prime_orbit_count(g, p):
    """The number of admissible loci of order p at genus g, in closed form."""
    return sum(prime_shape_counts(g, p).values())


# ---------------------------------------------------------------------------
# Interior classification


def _multiset(counts):
    ms = []
    for i, c in enumerate(counts, start=1):
        ms.extend([i] * c)
    return tuple(sorted(ms))


def _some_unit_scales_to(ms, target, p):
    target = tuple(sorted(target))
    for r in range(1, p):
        if tuple(sorted((r * m) % p for m in ms)) == target:
            return True
    return False


def sing_oracle(g):
    """Verdict per orbit, as {(p, orbit): (verdict, container_dim_or_bound)}.

    Container dimensions come straight from the closed forms: the
    unramified genus-2 shape lands in dimension 3(p-3)/2 + 6 (4 when
    p = 2), the elliptic two-point shape in 3(p-3)/2 + 4, the rational
    involution shape in p - 2, and the remaining ones are bounded by
    the smallest admissible dimension of the target order.
    """
    verdicts = {}
    for p in primes_upto(2 * g + 1):
        table = brute_admissible_prime(g, p)
        for orb, h in table.items():
            counts = sorted(orb)[0]
            k = sum(counts)
            dim = 3 * (h - 1) + k
            ms = _multiset(counts)
            if (g, p, h, k) == (3, 2, 0, 8):
                verdicts[(p, orb)] = ("excluded", None)
                continue
            cdim = None
            if (h, k) == (2, 0):
                cdim = 4 if p == 2 else 3 * (p - 3) // 2 + 6
            elif (h, k) == (1, 2):
                cdim = 3 * (p - 3) // 2 + 4
            elif h == 0 and k == 4 and ms == tuple(sorted((-m) % p for m in ms)):
                cdim = min(
                    3 * (hh - 1) + sum(sorted(oo)[0])
                    for oo, hh in brute_admissible_prime(g, 2).items()
                )
            elif h == 0 and k == 3 and len(set(ms)) < 3:
                cdim = p - 2
            elif (
                h == 0
                and k == 3
                and p % 3 == 1
                and any(
                    _some_unit_scales_to(ms, (1, m, (m * m) % p), p)
                    for m in range(2, p)
                    if (m * m * m) % p == 1
                )
            ):
                cdim = min(
                    3 * (hh - 1) + sum(sorted(oo)[0])
                    for oo, hh in brute_admissible_prime(g, 3).items()
                )
            if cdim is None:
                verdicts[(p, orb)] = ("component", None)
            elif cdim > dim:
                verdicts[(p, orb)] = ("redundant", cdim)
            else:
                verdicts[(p, orb)] = ("manual-review", cdim)
    return verdicts


# ---------------------------------------------------------------------------
# Boundary enumeration (star graphs with a single nontrivial component)


def _submultisets(sorted_items):
    values = sorted(set(sorted_items))
    counts = [sorted_items.count(v) for v in values]
    for picks in product(*(range(c + 1) for c in counts)):
        sub = []
        for v, n in zip(values, picks):
            sub.extend([v] * n)
        yield tuple(sub)


def _msub(items, sub):
    out = list(items)
    for x in sub:
        out.remove(x)
    return tuple(out)


def _splits(labels, ntails):
    """Unordered partitions of the label multiset into ntails nonempty parts.

    Each partition appears once: the part holding the smallest remaining
    element is fixed at every recursion step.
    """
    labels = tuple(sorted(labels))

    def rec(remaining, n):
        if n == 1:
            if remaining:
                yield (remaining,)
            return
        if len(remaining) < n:
            return
        first, rest = remaining[0], remaining[1:]
        for sub in _submultisets(rest):
            if len(rest) - len(sub) < n - 1:
                continue
            part = tuple(sorted((first,) + sub))
            for tail_parts in rec(_msub(rest, sub), n - 1):
                yield (part,) + tail_parts

    yield from rec(labels, ntails)


def _is_exceptional(p, g_j, gq, k, loop_pairs, tail_data, free):
    if p == 2 or gq != 0 or k != 3 or any(free):
        return False
    if len(loop_pairs) == 1 and len(tail_data) == 1 and len(tail_data[0][1]) == 1:
        (a, b) = loop_pairs[0]
        if a != b:
            return False
        genus, labels = tail_data[0]
        if genus < 1:
            return False
        m = labels[0]
        inv = pow(a, -1, p)
        return (m * inv) % p == p - 2
    if not loop_pairs and len(tail_data) == 3:
        if any(len(labels) != 1 for _, labels in tail_data):
            return False
        if any(genus < 1 for genus, _ in tail_data):
            return False
        triple = sorted(labels[0] for _, labels in tail_data)
        if not _some_unit_scales_to(triple, (1, 1, p - 2), p):
            return False
        if p == 3:
            genera = sorted(genus for genus, _ in tail_data)
            return genera[0] == genera[1] or genera[1] == genera[2]
        if triple[0] == triple[1]:
            rep = triple[0]
        elif triple[1] == triple[2]:
            rep = triple[1]
        else:
            return False
        rep_genera = [genus for genus, labels in tail_data if labels[0] == rep]
        return len(rep_genera) == 2 and rep_genera[0] == rep_genera[1]
    return False


def boundary_oracle(g, d_max):
    """{(p, encoding): (dim, flags)} for the boundary components."""
    found = {}
    for p in primes_upto(min(d_max, 2 * g + 1)):
        loop_pool = [
            (a, b) for a in range(1, p) for b in range(a, p) if (a + b) % p != 0
        ]
        for g_j in range(0, g + 1):
            for gq in range(0, g + 1):
                num = 2 * g_j - 2 - p * (2 * gq - 2)
                if num < 0 or num % (p - 1) != 0:
                    continue
                k = num // (p - 1)
                for nloops in range(0, k // 2 + 1):
                    for loop_pairs in combinations_with_replacement(
                        loop_pool, nloops
                    ):
                        for r in range(1, k - 2 * nloops + 1):
                            for labels in combinations_with_replacement(
                                range(1, p), r
                            ):
                                kfree = k - 2 * nloops - r
                                for free in weak_compositions(kfree, p - 1):
                                    tot = (
                                        sum(a + b for a, b in loop_pairs)
                                        + sum(labels)
                                        + sum(
                                            i * c
                                            for i, c in enumerate(free, start=1)
                                        )
                                    )
                                    if tot % p != 0:
                                        continue
                                    ends_j = 2 * nloops + r
                                    if g_j == 0 and ends_j < 3:
                                        continue
                                    if g_j == 1 and ends_j < 1:
                                        continue
                                    if p == 2 and g_j == 1 and ends_j == 1:
                                        continue  # nontrivial elliptic tail
                                    for ntails in range(1, r + 1):
                                        gt_total = g - g_j - nloops - r + ntails
                                        if gt_total < 0:
                                            continue
                                        for split in set(
                                            _splits(labels, ntails)
                                        ):
                                            for genera in weak_compositions(
                                                gt_total, ntails
                                            ):
                                                tail_data = sorted(
                                                    zip(genera, split)
                                                )
                                                if any(
                                                    gen == 0 and len(ls) < 3
                                                    or gen == 1 and len(ls) < 1
                                                    for gen, ls in tail_data
                                                ):
                                                    continue
                                                if _is_exceptional(
                                                    p, g_j, gq, k,
                                                    loop_pairs, tail_data, free,
                                                ):
                                                    continue
                                                verts = [
                                                    Vertex(0, I1, g_j,
                                                           tuple(free))
                                                ]
                                                edges = [
                                                    make_loop(0, a, b)
                                                    for a, b in loop_pairs
                                                ]
                                                for t, (gen, ls) in enumerate(
                                                    tail_data, start=1
                                                ):
                                                    verts.append(
                                                        Vertex(t, I0, gen)
                                                    )
                                                    for lab in ls:
                                                        edges.append(
                                                            make_link(
                                                                0, t, lab, 0
                                                            )
                                                        )
                                                G = make_graph(p, verts, edges)
                                                enc = canonical_encoding(G)
                                                dim = (
                                                    3 * gq - 3 + k
                                                    + sum(
                                                        3 * gen - 3 + len(ls)
                                                        for gen, ls in tail_data
                                                    )
                                                )
                                                if (gq, k) == (0, 3):
                                                    flags = ("rigid_I1_cover",)
                                                elif (gq, k) in (
                                                    (2, 0), (1, 2), (0, 4)
                                                ):
                                                    flags = ("manual_review",)
                                                else:
                                                    flags = ()
                                                found[(p, enc)] = (dim, flags)
    return found


# ---------------------------------------------------------------------------
# Pre-graph box and all-orders smoothing (confluence checking)


def _i1_pairs(d, genus):
    out = []
    gq = 0
    while True:
        num = 2 * (genus - 1) - 2 * d * (gq - 1)
        if num < 0:
            break
        if num % (d - 1) == 0:
            out.append((gq, num // (d - 1)))
        gq += 1
    return out


@functools.cache  # two tests walk the same box; it takes seconds to build
def pregraph_box(d, max_v=5, max_e=6, genus_values=(2, 3, 4)):
    """Every valid stable pre graph in the box, one per canonical class, as
    a tuple: the cache hands the same one to every caller."""
    maxg = max(genus_values)
    palette = [(I0, gi) for gi in range(maxg + 1)] + [
        (I1, gi) for gi in range(maxg + 1)
    ]
    found = {}
    for V in range(1, max_v + 1):
        for combo in combinations_with_replacement(palette, V):
            colours = tuple(c for c, _ in combo)
            genera = tuple(gi for _, gi in combo)
            if I1 not in colours:
                continue
            gsum = sum(genera)
            for total in genus_values:
                E = total - gsum + V - 1
                if E < V - 1 or E > max_e:
                    continue
                opts = {}
                maxk = {}
                feasible = True
                for i in range(V):
                    if colours[i] == I1:
                        o = _i1_pairs(d, genera[i])
                        if not o:
                            feasible = False
                            break
                        opts[i] = o
                        maxk[i] = max(k for _, k in o)
                if not feasible:
                    continue
                min_ends = [
                    3 if genera[i] == 0 else (1 if genera[i] == 1 or V > 1 else 0)
                    for i in range(V)
                ]
                slots = []
                for i in range(V):
                    if colours[i] == I1:
                        slots.append(("loop1", i))
                        if d == 2:
                            slots.append(("sloop", i))
                    else:
                        slots.append(("loop0", i))
                for i in range(V):
                    for j in range(i + 1, V):
                        slots.append(("link", i, j))
                for counts in _bounded_multiplicities(
                    slots, E, V, maxk, min_ends, colours
                ):
                    yield_from = _assemble_pregraphs(
                        d, colours, genera, slots, counts, opts
                    )
                    for G in yield_from:
                        try:
                            check_graph(G, pre=True, require_stable=True)
                        except GraphError:
                            continue
                        enc = canonical_encoding(G)
                        if enc not in found:
                            found[enc] = G
    return tuple(found.values())


def _bounded_multiplicities(slots, E, V, maxk, min_ends, colours):
    ends = [0] * V
    kends = [0] * V  # ends that count toward branching at I1 vertices

    def deficit():
        return sum(max(0, min_ends[v] - ends[v]) for v in range(V))

    def rec(ix, remaining):
        if deficit() > 2 * remaining:
            return
        if ix == len(slots):
            if remaining == 0:
                yield ()
            return
        kind = slots[ix][0]
        touched = slots[ix][1:]
        end_w = 2 if kind in ("loop1", "sloop", "loop0") else 1
        k_w = {"loop1": 2, "sloop": 0, "loop0": 0, "link": 1}[kind]
        cap = remaining
        for v in touched:
            if colours[v] == I1 and k_w:
                cap = min(cap, (maxk[v] - kends[v]) // k_w)
        for count in range(max(cap, -1) + 1):
            for v in touched:
                ends[v] += count * end_w
                if colours[v] == I1:
                    kends[v] += count * k_w
            for rest in rec(ix + 1, remaining - count):
                yield (count,) + rest
            for v in touched:
                ends[v] -= count * end_w
                if colours[v] == I1:
                    kends[v] -= count * k_w

    yield from rec(0, E)


def _assemble_pregraphs(d, colours, genera, slots, counts, opts):
    V = len(colours)
    # connectivity via links only
    adj = {i: set() for i in range(V)}
    for slot, c in zip(slots, counts):
        if c and slot[0] == "link":
            adj[slot[1]].add(slot[2])
            adj[slot[2]].add(slot[1])
    seen, frontier = {0}, [0]
    while frontier:
        cur = frontier.pop()
        for nb in adj[cur]:
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    if len(seen) != V:
        return

    loop_all = [(a, b) for a in range(1, d) for b in range(a, d)]
    linkpools = {}
    per_slot = []
    for slot, c in zip(slots, counts):
        if c == 0:
            per_slot.append([()])
            continue
        kind = slot[0]
        if kind == "loop1":
            pool = loop_all
        elif kind == "sloop":
            pool = [(1, 1)]
        elif kind == "loop0":
            pool = [(0, 0)]
        else:
            _, i, j = slot
            ci, cj = colours[i], colours[j]
            if ci == I0 and cj == I0:
                pool = [(0, 0)]
            elif ci == I1 and cj == I1:
                pool = [(a, b) for a in range(1, d) for b in range(1, d)]
            elif ci == I1:
                pool = [(m, 0) for m in range(1, d)]
            else:
                pool = [(0, m) for m in range(1, d)]
        per_slot.append(list(combinations_with_replacement(pool, c)))

    for assignment in product(*per_slot):
        edges = []
        kcounts = [[0] * (d - 1) for _ in range(V)]
        for slot, chosen in zip(slots, assignment):
            kind = slot[0]
            for pair in chosen:
                if kind == "loop1":
                    a, b = pair
                    edges.append(make_loop(slot[1], a, b))
                    kcounts[slot[1]][a - 1] += 1
                    kcounts[slot[1]][b - 1] += 1
                elif kind == "sloop":
                    edges.append(make_loop(slot[1], 1, 1, swapped=True))
                elif kind == "loop0":
                    edges.append(make_loop(slot[1], 0, 0))
                else:
                    _, i, j = slot
                    a, b = pair
                    edges.append(make_link(i, j, a, b))
                    if a:
                        kcounts[i][a - 1] += 1
                    if b:
                        kcounts[j][b - 1] += 1
        i1_list = [i for i in range(V) if colours[i] == I1]
        menus = []
        ok = True
        for i in i1_list:
            base = sum(kcounts[i])
            base_residue = sum(
                m * c for m, c in enumerate(kcounts[i], start=1)
            )
            menu = []
            for _, k in opts[i]:
                rest = k - base
                if rest < 0:
                    continue
                for free in weak_compositions(rest, d - 1):
                    if (
                        base_residue
                        + sum(m * c for m, c in enumerate(free, start=1))
                    ) % d == 0:
                        menu.append(free)
            if not menu:
                ok = False
                break
            menus.append(menu)
        if not ok:
            continue
        for frees in product(*menus):
            free_of = dict(zip(i1_list, frees))
            vertices = [
                Vertex(i, colours[i], genera[i], free_of.get(i))
                for i in range(V)
            ]
            yield make_graph(d, vertices, edges)


def smooth_node(G: AutoGraph, e) -> AutoGraph:
    """Smooth one node: a loop raises the vertex genus, a link merges
    its two vertices.  Total genus is preserved."""
    if e not in smoothable_nodes(G):
        raise GraphError("node is not smoothable: %r" % (e,))
    edges = list(G.edges)
    edges.remove(e)
    if e.u == e.v:
        v = G.vertex(e.v)
        free = v.free
        if e.swapped:
            # Smoothing a swapped node creates two fixed points of the
            # involution on the new component (d = 2 forced here).
            flist = list(free or (0,) * (G.d - 1))
            flist[0] += 2
            free = tuple(flist)
        new_v = v._replace(genus=v.genus + 1, free=free)
        vertices = [new_v if w.vid == v.vid else w for w in G.vertices]
        return make_graph(G.d, vertices, edges)
    u, v = G.vertex(e.u), G.vertex(e.v)
    if u.colour != v.colour:
        raise AssertionError("smoothable links join same-coloured vertices")
    w_id = min(u.vid, v.vid)
    if u.colour == I1:
        free = tuple(a + b for a, b in zip(u.free, v.free))
    else:
        free = None
    merged = Vertex(vid=w_id, colour=u.colour, genus=u.genus + v.genus, free=free)
    old = {u.vid, v.vid}
    # A parallel link between the two becomes a loop on the merged vertex.
    new_edges = []
    for f in edges:
        a, b = (w_id if x in old else x for x in (f.u, f.v))
        new_edges.append(make_loop(a, f.mu, f.mv, f.swapped) if a == b
                         else make_link(a, b, f.mu, f.mv))
    vertices = [w for w in G.vertices if w.vid not in old] + [merged]
    return make_graph(G.d, vertices, new_edges)


def reference_smoothing_steps(G: AutoGraph, require_stable: bool = False):
    """The one-step smoothing loop: smooth `smoothable_nodes(G)[0]` until
    none is left.  Returns (the smoothed nodes in order, the maximal graph),
    validating the input as a pre graph and the result as maximal."""
    check_graph(G, pre=True, require_stable=require_stable)
    steps = []
    while True:
        sm = smoothable_nodes(G)
        if not sm:
            break
        steps.append(sm[0])
        G = smooth_node(G, sm[0])
    check_graph(G, pre=False)
    return steps, G


def all_normal_forms(G, memo=None):
    """Canonical encodings reachable by every maximal smoothing order."""
    if memo is None:
        memo = {}
    if G in memo:
        return memo[G]
    sm = smoothable_nodes(G)
    if not sm:
        res = frozenset({canonical_encoding(G)})
    else:
        res = frozenset().union(
            *(all_normal_forms(smooth_node(G, e), memo) for e in sm)
        )
    memo[G] = res
    return res


# ---------------------------------------------------------------------------
# Boundary edge-multiset search: the unpruned path the library replaced


def reference_structures(d, colours, genera, E, max_ends, min_ends):
    """Edge multisets over the allowed vertex pairs, as a dict slot -> count,
    where a slot (i, j) with i <= j is a loop when i == j and a link else.

    Prunes on per-vertex end capacity and on the remaining stability
    deficit (ends still owed to genus-0 and genus-1 vertices).
    """
    V = len(colours)
    slots = []
    for i in range(V):
        if colours[i] == I1 and d >= 3:
            slots.append((i, i))
    for i in range(V):
        for j in range(i + 1, V):
            if colours[i] == I0 and colours[j] == I0:
                continue
            if colours[i] == I1 and colours[j] == I1 and d == 2:
                continue
            slots.append((i, j))

    ends = [0] * V

    def deficit():
        return sum(max(0, min_ends[v] - ends[v]) for v in range(V))

    def rec(ix, remaining):
        if deficit() > 2 * remaining:
            return
        if ix == len(slots):
            if remaining == 0:
                yield {}
            return
        slot = slots[ix]
        if slot[0] == slot[1]:
            touched = (slot[0],)
            weight = 2
        else:
            touched = slot
            weight = 1
        cap = remaining
        for vtx in touched:
            cap = min(cap, (max_ends[vtx] - ends[vtx]) // weight)
        for count in range(max(cap, -1) + 1):
            for vtx in touched:
                ends[vtx] += count * weight
            for rest in rec(ix + 1, remaining - count):
                if count:
                    rest = dict(rest)
                    rest[slot] = count
                yield rest
            for vtx in touched:
                ends[vtx] -= count * weight

    yield from rec(0, E)


def reference_structure_connected(V, structure):
    if V == 1:
        return True
    adj = {i: set() for i in range(V)}
    for i, j in structure:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    seen = {0}
    frontier = [0]
    while frontier:
        cur = frontier.pop()
        for nb in adj[cur]:
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return len(seen) == V


def reference_vertex_multisets(g, d):
    """(colours, genera, E, opts) for every vertex multiset the unpruned
    enumeration handed to its structure search, in its order."""
    palette = [(I0, gi) for gi in range(g + 1)] + [(I1, gi) for gi in range(g + 1)]
    for V in range(1, 2 * g - 1):
        for combo in combinations_with_replacement(palette, V):
            colours = tuple(c for c, _ in combo)
            genera = tuple(gi for _, gi in combo)
            if I1 not in colours or sum(genera) > g:
                continue
            E = g - sum(genera) + V - 1
            if E > 3 * g - 3:
                continue
            opts = {i: tuple(_i1_pairs(d, genera[i]))
                    for i in range(V) if colours[i] == I1}
            if all(opts.values()):
                yield colours, genera, E, opts


def boundary_multiset(p, colours, genera, E):
    """Whether a vertex multiset of order p holds boundary components: one
    I1 vertex, some I0 vertex and, at p = 2, no elliptic tail.  At p = 2 a
    graph has no loops and no I0-I0 or I1-I1 links, so with one I1 vertex
    every edge is an I1-I0 link and that vertex has E ends: it is an
    elliptic tail exactly when it has genus 1 and E == 1."""
    if colours.count(I1) != 1 or I0 not in colours:
        return False
    return not (p == 2 and E == 1 and genera[colours.index(I1)] == 1)


def reference_connected_structures(d, colours, genera, E, opts):
    """The connected structures the unpruned search yields for one vertex
    multiset, with the end bounds it was given: the largest k at I1
    vertices, the whole I1 capacity at I0 vertices, and the stability
    thresholds as minima."""
    V = len(colours)
    max_ends = [0] * V
    min_ends = [0] * V
    i1_capacity = 0
    for i in range(V):
        if colours[i] == I1:
            max_ends[i] = max(k for _, k in opts[i])
            i1_capacity += max_ends[i]
    for i in range(V):
        if colours[i] == I0:
            max_ends[i] = i1_capacity
        if genera[i] == 0:
            min_ends[i] = 3
        elif genera[i] == 1 or V > 1:
            min_ends[i] = 1
    if E > i1_capacity:
        return []
    return [
        s for s in reference_structures(d, colours, genera, E, max_ends, min_ends)
        if reference_structure_connected(V, s)
    ]


def structure_orbit_key(colours, genera, structure):
    """The least relabelled structure over every permutation of the runs of
    vertices with equal (colour, genus): equal keys, isomorphic structures."""
    runs = {}
    for v, attr in enumerate(zip(colours, genera)):
        runs.setdefault(attr, []).append(v)
    best = None
    for perms in product(*(itertools.permutations(run) for run in runs.values())):
        to = {}
        for run, perm in zip(runs.values(), perms):
            to.update(zip(run, perm))
        key = sorted((*sorted((to[i], to[j])), count)
                     for (i, j), count in structure.items())
        if best is None or key < best:
            best = key
    return tuple(best)


def reference_labelled_graphs(d, colours, genera, structure, opts, ends):
    """Every labelled graph on one edge structure: every label choice per
    slot times every free tuple that closes each I1 vertex's residue sum."""
    V = len(colours)
    i1_list = [i for i in range(V) if colours[i] == I1]
    menus = {}
    for i in i1_list:
        menus[i] = [[] for _ in range(d)]
        for _, k in opts[i]:
            if k >= ends[i]:
                for free in weak_compositions(k - ends[i], d - 1):
                    menus[i][residue_sum(free) % d].append(free)
    per_slot_choices = []
    for (i, j), count in structure.items():
        if i == j:
            pool = [(a, b) for a in range(1, d) for b in range(a, d) if (a + b) % d]
            per_slot_choices.append([
                ([make_loop(i, a, b) for a, b in chosen], ((i, sum(map(sum, chosen))),))
                for chosen in combinations_with_replacement(pool, count)
            ])
            continue
        if colours[i] == I1 and colours[j] == I1:
            pool = [(a, b) for a in range(1, d) for b in range(1, d) if (a + b) % d]
        elif colours[i] == I1:
            pool = [(m, 0) for m in range(1, d)]
        else:
            pool = [(0, m) for m in range(1, d)]
        per_slot_choices.append([
            ([make_link(i, j, a, b) for a, b in chosen],
             ((i, sum(a for a, _ in chosen)), (j, sum(b for _, b in chosen))))
            for chosen in combinations_with_replacement(pool, count)
        ])
    for assignment in product(*per_slot_choices):
        residues = [0] * V
        edges = []
        for slot_edges, added in assignment:
            edges += slot_edges
            for v, r in added:
                residues[v] += r
        for frees in product(*(menus[i][-residues[i] % d] for i in i1_list)):
            free_of = dict(zip(i1_list, frees))
            yield make_graph(d, [Vertex(i, colours[i], genera[i], free_of.get(i))
                                 for i in range(V)], edges)


# ---------------------------------------------------------------------------
# Canonical labelling: the exhaustive minimiser over every vertex order
# inside each attribute class, for every unit


def _vertex_attr(v: Vertex):
    return (0 if v.colour == I0 else 1, v.genus, v.free or ())


def _orderings(G: AutoGraph):
    # All vertex orders compatible with sorting by attribute; ties are
    # broken by trying every arrangement inside an attribute class.
    groups: dict[tuple, list[int]] = {}
    for v in G.vertices:
        groups.setdefault(_vertex_attr(v), []).append(v.vid)
    keys = sorted(groups)
    pools = [itertools.permutations(groups[k]) for k in keys]
    for combo in itertools.product(*pools):
        order: list[int] = []
        for part in combo:
            order.extend(part)
        yield order


def _encode(G: AutoGraph, order: list[int]):
    pos = {vid: ix for ix, vid in enumerate(order)}
    vparts = tuple(_vertex_attr(G.vertex(vid)) for vid in order)
    eparts = []
    for e in G.edges:
        if e.u != e.v:
            pu, pv = pos[e.u], pos[e.v]
            if pu <= pv:
                eparts.append((0, pu, pv, e.mu, e.mv))
            else:
                eparts.append((0, pv, pu, e.mv, e.mu))
        else:
            eparts.append((1, pos[e.v], e.mu, e.mv, int(e.swapped)))
    return (G.d, vparts, tuple(sorted(eparts)))


def unit_transform(G: AutoGraph, r: int) -> AutoGraph:
    """Multiply every label and free-branching index by a unit r mod d."""
    d = G.d
    r = r % d
    if r not in units_mod(d):
        raise ValueError("%d is not a unit mod %d" % (r, d))
    act = unit_action(d, r)
    vertices = [v if v.colour == I0 else v._replace(free=act(v.free)) for v in G.vertices]
    edges = [make_link(e.u, e.v, r * e.mu % d, r * e.mv % d) if e.u != e.v
             else make_loop(e.v, r * e.mu % d, r * e.mv % d, e.swapped) for e in G.edges]
    return make_graph(d, vertices, edges)


def _best_presentation(G: AutoGraph):
    best = None
    best_graph_order = None
    for r in units_mod(G.d):
        H = unit_transform(G, r)
        for order in _orderings(H):
            enc = _encode(H, order)
            if best is None or enc < best:
                best = enc
                best_graph_order = (H, order)
    return best, best_graph_order


def reference_canonical_encoding(G: AutoGraph):
    """Minimum encoding over relabelings and simultaneous unit actions."""
    return _best_presentation(G)[0]


def reference_canonical_form(G: AutoGraph) -> AutoGraph:
    """The graph relabelled and unit-translated into its canonical presentation."""
    _, (H, order) = _best_presentation(G)
    pos = {vid: ix for ix, vid in enumerate(order)}
    vertices = [H.vertex(vid)._replace(vid=pos[vid]) for vid in order]
    edges = []
    for e in H.edges:
        if e.u != e.v:
            edges.append(make_link(pos[e.u], pos[e.v], e.mu, e.mv))
        else:
            edges.append(make_loop(pos[e.v], e.mu, e.mv, e.swapped))
    return make_graph(H.d, vertices, edges)


def graph_to_doc(G: AutoGraph) -> dict:
    """`graph_doc` of G encoded in vertex-id order: ids 0..n-1 are kept."""
    return graph_doc(_encode(G, [v.vid for v in G.vertices]))


# ---------------------------------------------------------------------------
# Cover algebra: character classes by the carry recursion


def reference_branch_class(ba, i):
    """[D_i], summed afresh from the rows of the divisor table."""
    acc = ba.model.zero()
    for j, rows in ba.divisors:
        if j == i:
            for _, free, torsion in rows:
                acc = acc + ba.model.element(free, torsion)
    return acc


def reference_character_class(ba, chi):
    """The class L_chi of the chi-eigensheaf, by the carry recursion:
    L_{x+1} = L_x + L minus the branch classes whose residue carries."""
    if not (0 <= chi < ba.d):
        raise ValueError("character exponent out of range")
    acc = ba.model.zero()
    for step in range(chi):
        correction = ba.model.zero()
        for i in range(1, ba.d):
            if carry(ba.d, (step * i) % ba.d, i % ba.d):
                correction = correction + reference_branch_class(ba, i)
        acc = acc + ba.L - correction
    return acc


# ---------------------------------------------------------------------------
# Cover algebra on plain coordinate lists (free part first, torsion last)


def _weighted_sum(terms, torsion):
    """sum n*x over (n, x) pairs, torsion coordinates reduced at the end."""
    total = [sum(n * x[k] for n, x in terms) for k in range(len(terms[0][1]))]
    s = len(total) - len(torsion)
    return total[:s] + [a % t for a, t in zip(total[s:], torsion)]


def reference_cover_valid(d, torsion, L, divisors):
    """Whether d*L = sum_i i*[D_i]; divisors maps residue i to class lists."""
    terms = [(d, L)] + [(-i, x) for i, xs in divisors.items() for x in xs]
    return not any(_weighted_sum(terms, torsion))


def reference_irreducibility(d, torsion, L, divisors):
    """(irreducible, m, order of L') for a valid cover, the order found by
    trying multiples: L' = (d/m)L - sum_i (i/m)[D_i] must have order m."""
    m = gcd(d, *(i for i, xs in divisors.items() if xs))
    terms = [(d // m, L)] + [(-(i // m), x) for i, xs in divisors.items() for x in xs]
    witness = _weighted_sum(terms, torsion)[len(L) - len(torsion):]
    order = next(k for k in itertools.count(1)
                 if all(k * a % t == 0 for a, t in zip(witness, torsion)))
    return order == m, m, order


# ---------------------------------------------------------------------------
# Printed output


def _document(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def reference_report_output(rep, doc: bool) -> str:
    """The stdout of `sing` or `sing-bar` for a held report (`decompose_sing`,
    `decompose_sing_bar`), rendered record by record as the CLI once did:
    each component's line from its locus, or in doc format the documents of
    `cli.record_doc` and `cli.boundary_doc` through json.dumps."""
    if doc:
        return _document({"genus": rep.g, "records": [cli.record_doc(r) for r in rep.records],
                          "boundary": [cli.boundary_doc(c) for c in rep.boundary],
                          "warnings": list(rep.warnings), "notes": list(rep.notes)})
    out = ["genus %d" % rep.g, "components:"]
    out += ["  %s dim=%d codim=%d" % (r.locus.label(), r.locus.dim, r.locus.codim)
            for r in rep.components()]
    out += ["  boundary %s" % cli._boundary_line(c) for c in rep.boundary]
    out.append("redundant:")
    out += ["  %s dim=%d case=%s container=%s (>=%d)"
            % (r.locus.label(), r.locus.dim, r.case_tag.value if r.case_tag else "?",
               r.container.label(), r.container.dim_lower_bound) for r in rep.redundant()]
    out.append("excluded:")
    out += ["  %s dim=%d (pseudoreflection)" % (r.locus.label(), r.locus.dim)
            for r in rep.excluded()]
    for header, lines in (("warnings", rep.warnings), ("notes", rep.notes)):
        if lines:
            out += ["%s:" % header] + ["  %s" % line for line in lines]
    return "\n".join(out) + "\n"


def reference_admissible_output(g: int, d: int, doc: bool) -> str:
    """The stdout of `admissible`, rendered locus by locus from `locus_rows`
    as the CLI once did, or in doc format through `cli.locus_doc` and
    json.dumps."""
    rows = enumerate_admissible(g, d)
    loci = list(locus_rows(g, d, rows))
    if doc:
        return _document({"genus": g, "order": d, "loci": [cli.locus_doc(l) for l in loci]})
    return "".join("counts=(%s) h=%d dim=%d codim=%d %s\n"
                   % (",".join(map(str, l.counts)), l.h, l.dim, l.codim, l.label())
                   for l in loci) + "total: %d\n" % len(rows)
