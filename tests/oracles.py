"""Independent brute-force oracles for cross-checking the library.

Everything here is deliberately coded from first principles in a
different style from the package: plain loops over whole search spaces,
closed-form container dimensions, and a direct star-graph constructor
for the boundary enumeration.  Only graph containers and the canonical
encoding are shared, so set comparisons are possible.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd

from cycliccovers.branching import (
    BranchingDatum,
    BranchingSequence,
    admissible_quotient_genus,
    canonical_datum,
)
from cycliccovers.combinat import is_prime, primes_upto, weak_compositions
from cycliccovers.stable_graphs import (
    I0,
    I1,
    Vertex,
    canonical_encoding,
    make_graph,
    make_link,
    make_loop,
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
    Returns the same tuple of (datum, h) pairs, in the same order."""
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
    return tuple((BranchingDatum(d, c), out[c]) for c in ordered)


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


def pregraph_box(d, max_v=5, max_e=6, genus_values=(2, 3, 4)):
    """Every valid stable pre graph in the box, one per canonical class."""
    from cycliccovers.stable_graphs import GraphError, check_graph

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
    return list(found.values())


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


def all_normal_forms(G, memo=None):
    """Canonical encodings reachable by every maximal smoothing order."""
    from cycliccovers.stable_graphs import smooth_node, smoothable_nodes

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
    """Edge multisets over the allowed vertex pairs, as a dict slot -> count.

    Prunes on per-vertex end capacity and on the remaining stability
    deficit (ends still owed to genus-0 and genus-1 vertices).
    """
    V = len(colours)
    slots = []
    for i in range(V):
        if colours[i] == I1 and d >= 3:
            slots.append(("loop", i))
    for i in range(V):
        for j in range(i + 1, V):
            if colours[i] == I0 and colours[j] == I0:
                continue
            if colours[i] == I1 and colours[j] == I1 and d == 2:
                continue
            slots.append(("link", i, j))

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
        if slot[0] == "loop":
            touched = (slot[1],)
            weight = 2
        else:
            touched = (slot[1], slot[2])
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
    for slot in structure:
        if slot[0] == "link":
            _, i, j = slot
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
