import itertools
from math import comb, gcd

from hypothesis import given, settings, strategies as st

import oracles
from oracles import weighted_compositions
from cycliccovers.combinat import connects, free_menu, min_marks


def check_against_reference(total, weights):
    got = list(weighted_compositions(total, weights))
    assert len(got) == len(set(got))
    assert set(got) == set(oracles.reference_weighted_compositions(total, weights))


# The reference takes about 0.5 s at the largest draw (total 24 over six
# weights of 1, 118,755 tuples), past Hypothesis's default 200 ms deadline.
@settings(deadline=3000)
@given(
    st.integers(min_value=0, max_value=24),
    st.lists(st.integers(min_value=1, max_value=7), max_size=6),
)
def test_weighted_compositions_match_reference(total, weights):
    check_against_reference(total, weights)


@given(st.integers(min_value=2, max_value=13), st.integers(min_value=0, max_value=30))
def test_divisor_class_weights_match_reference(d, total):
    # the weights enumerate_admissible uses: one class per divisor of d
    check_against_reference(total, [d - gcd(i, d) for i in range(1, d)])


def test_edge_cases():
    assert list(weighted_compositions(0, ())) == [()]
    assert list(weighted_compositions(3, ())) == []
    assert list(weighted_compositions(0, (2, 2, 3))) == [(0, 0, 0)]
    assert list(weighted_compositions(5, (4, 6))) == []
    assert sorted(weighted_compositions(4, (2, 2))) == [(0, 2), (1, 1), (2, 0)]


def test_min_marks_is_the_stability_threshold():
    # A genus-g curve with n marked points is stable iff 2g - 2 + n > 0.
    for genus in range(10):
        assert min_marks(genus) == min(n for n in range(4) if 2 * genus - 2 + n > 0)


def test_connects_matches_reachability():
    # Every multiset of up to four ordered pairs on up to four vertices,
    # loops and repeats included, against growing the piece of vertex 0.
    for n in range(5):
        for size in range(5):
            for pairs in itertools.combinations_with_replacement(
                    itertools.product(range(n), repeat=2), size):
                reached = set(range(min(n, 1)))
                while True:
                    grown = reached | {j for i, j in pairs if i in reached} \
                        | {i for i, j in pairs if j in reached}
                    if grown == reached:
                        break
                    reached = grown
                assert connects(n, pairs) == (n > 0 and len(reached) == n)


def test_free_menu_files_each_tuple_under_its_residue_sum():
    # Brute force over every tuple of d - 1 counts up to f, independent of
    # weak_compositions.
    for d in range(2, 8):
        for f in range(6 if d < 6 else 4):
            menu = free_menu(f, d)
            assert len(menu) == d
            assert sum(map(len, menu)) == comb(f + d - 2, d - 2)
            for s, bucket in enumerate(menu):
                assert len(set(bucket)) == len(bucket)
                assert set(bucket) == {
                    free for free in itertools.product(range(f + 1), repeat=d - 1)
                    if sum(free) == f and sum(i * c for i, c in enumerate(free, 1)) % d == s}
