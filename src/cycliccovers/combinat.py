"""Shared integer combinatorics: primality, unit groups, compositions."""

from math import gcd


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_upto(n: int) -> tuple[int, ...]:
    return tuple(p for p in range(2, n + 1) if is_prime(p))


def units_mod(d: int) -> tuple[int, ...]:
    """Residues coprime to d, the multiplicative units mod d."""
    return tuple(r for r in range(1, d) if gcd(r, d) == 1)


def weak_compositions(total: int, parts: int):
    """Yield every tuple of `parts` non-negative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in weak_compositions(total - first, parts - 1):
            yield (first,) + rest


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
