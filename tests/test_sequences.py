import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sterntwist.sequences as sequences
from sterntwist.ratwords import (
    admissible_representation,
    count_in_expansion,
    subsequence_transform,
)
from sterntwist.sequences import (
    InputTooLargeError,
    Kind,
    SequenceCache,
    W,
    WeightPolynomial,
    count_admissible,
    digits_of,
    enumerate_admissible,
    mod2,
    prefix,
    stern,
    twisted,
    v2,
    weighted_count_direct,
    weighted_even,
    weighted_stern,
    weighted_stern_alt,
)


def brute_admissible_subsets(n):
    """Oracle: check every subset of digit positions outright."""
    word = digits_of(n, 2)
    size = len(word)
    top = size - 1
    out = []
    for r in range(1, size + 1, 2):
        for combo in combinations(range(size), r):
            if all(word[p] == (1 - i % 2) for i, p in enumerate(combo)):
                out.append(tuple(top - p for p in combo))
    return out


def test_first_terms(stern_first_terms, twisted_first_terms):
    assert [stern(n) for n in range(29)] == stern_first_terms
    assert [twisted(n) for n in range(26)] == twisted_first_terms


def test_spot_values():
    assert stern(0) == 0
    assert stern(11) == 5
    assert stern(21) == 8
    assert twisted(1) == 1
    assert twisted(9) == -2
    assert twisted(17) == 3


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        stern(-1)


def test_point_lookups_match_the_tables_and_store_nothing():
    size = 1 << 14
    assert [stern(n) for n in range(size)] == prefix(Kind.STERN, size)[:size]
    assert [twisted(n) for n in range(size)] == prefix(Kind.TWISTED, size)[:size]
    lengths = [len(table) for table in sequences._PREFIXES.values()]
    rng = random.Random(2010)
    for k in range(500):
        n = rng.getrandbits(200)
        s, t = stern(n), twisted(n)
        if k < 200:
            # an independent route: S(n) counts admissible subsequences
            assert s == sum(weighted_stern(n).coeffs)
        assert s % 2 == t % 2 == mod2(n)
    assert sequences._STERN.values == {} and sequences._TWISTED.values == {}
    assert [len(table) for table in sequences._PREFIXES.values()] == lengths


#: Prefix lengths at the seed and on both sides of the power-of-two block
#: edges of the fill.
EDGE_LENGTHS = [0, 1, 2, 3] + [(1 << k) + d for k in range(2, 13) for d in (-1, 0, 1)]


def _check_prefix_requests(kind, lengths):
    """Ask for each length in turn, starting from an empty table: every
    prefix equals the point values, and the table never grows past the
    longest length asked for."""
    table = sequences._PREFIXES[kind]
    saved = table[:]
    table.clear()
    oracle = SequenceCache(kind)
    try:
        longest = 0
        for length in lengths:
            longest = max(longest, length)
            assert prefix(kind, length) is table
            assert table[:max(length, 0)] == [oracle.value(n) for n in range(length)]
            assert len(table) == longest
    finally:
        table[:] = saved


@pytest.mark.parametrize("kind", list(Kind))
def test_prefix_edge_lengths(kind):
    for length in [-1] + EDGE_LENGTHS:
        _check_prefix_requests(kind, [length])
    # extension from every shorter prefix to the next longer one
    _check_prefix_requests(kind, EDGE_LENGTHS)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(list(Kind)),
    st.lists(st.sampled_from(EDGE_LENGTHS) | st.integers(min_value=-2, max_value=5000),
             min_size=1, max_size=4),
)
def test_prefix_matches_point_values(kind, lengths):
    _check_prefix_requests(kind, lengths)


@given(st.integers(min_value=0, max_value=1 << 16))
def test_doubling_laws(n):
    assert stern(2 * n) == stern(n)
    assert twisted(2 * n) == -twisted(n)


@given(st.integers(min_value=1, max_value=1 << 16))
def test_odd_recursions(n):
    assert stern(2 * n + 1) == stern(n) + stern(n + 1)
    assert twisted(2 * n + 1) == -twisted(n) - twisted(n + 1)


def test_count_admissible_examples():
    assert count_admissible(11) == 5
    assert count_admissible(0) == 0
    assert count_admissible(5) == 3


def test_count_admissible_matches_stern_exhaustive():
    for n in range(1 << 12):
        assert count_admissible(n) == stern(n)


@given(st.integers(min_value=0, max_value=1 << 20))
def test_count_admissible_matches_stern(n):
    assert count_admissible(n) == stern(n)


def test_enumerate_examples():
    assert enumerate_admissible(11) == [(3,), (1,), (0,), (3, 2, 1), (3, 2, 0)]
    assert enumerate_admissible(2) == [(1,)]
    assert enumerate_admissible(5) == [(2,), (0,), (2, 1, 0)]
    assert enumerate_admissible(0) == []


def test_enumerate_matches_brute_force():
    for n in range(512):
        assert sorted(enumerate_admissible(n)) == sorted(brute_admissible_subsets(n))


@given(st.integers(min_value=0, max_value=(1 << 12) - 1))
def test_enumerate_count_agrees(n):
    assert len(enumerate_admissible(n)) == count_admissible(n)


def test_enumeration_guard():
    with pytest.raises(InputTooLargeError):
        enumerate_admissible(1 << 25)
    with pytest.raises(InputTooLargeError):
        weighted_count_direct(1 << 25)
    assert enumerate_admissible(1 << 25, guard_bits=26) is not None


def test_weighted_examples():
    assert weighted_stern(11) == WeightPolynomial((3, 2))
    assert weighted_stern(0) == WeightPolynomial((0,))
    assert weighted_stern(1) == 1
    assert weighted_even(0) == 1 and weighted_even(1) == 1
    assert weighted_even(6) == WeightPolynomial((1, 2))
    assert weighted_stern_alt(11) == WeightPolynomial((3, 2))
    assert weighted_stern_alt(1) == 1
    assert weighted_stern_alt(5) == WeightPolynomial((2, 1))
    assert weighted_count_direct(11) == (WeightPolynomial((3, 2)), WeightPolynomial((1, 1)))
    assert weighted_count_direct(1) == (WeightPolynomial((1,)), WeightPolynomial((1,)))
    assert weighted_count_direct(2) == (WeightPolynomial((1,)), WeightPolynomial((1, 1)))


def test_weighted_routes_agree_exhaustive():
    for n in range(1024):
        expected = weighted_stern(n)
        assert weighted_stern_alt(n) == expected
        direct_s, direct_se = weighted_count_direct(n)
        assert direct_s == expected
        assert direct_se == weighted_even(n)
        assert sum(expected.coeffs) == stern(n)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 14) - 1))
def test_weighted_routes_agree(n):
    expected = weighted_stern(n)
    assert weighted_stern_alt(n) == expected
    direct_s, direct_se = weighted_count_direct(n)
    assert direct_s == expected
    assert direct_se == weighted_even(n)
    assert sum(expected.coeffs) == stern(n)


def test_weighted_fold_matches_automaton_at_1500_bits():
    # far past the recursion limit: the digit fold never recurses
    automaton = subsequence_transform(admissible_representation(weighted=True))
    rng = random.Random(1500)
    for _ in range(4):
        n = rng.getrandbits(1500) | (1 << 1499)
        assert weighted_stern(n) == count_in_expansion(automaton, n, 2)
    n = 1 << 1500
    assert weighted_stern(n + 1) == WeightPolynomial((2, 1499))
    assert weighted_even(n) == WeightPolynomial((1, 1500))
    assert weighted_count_direct(n + 1, guard_bits=1501) == (
        weighted_stern(n + 1), weighted_even(n + 1)
    )


def test_weighted_alt_route_far_past_the_recursion_limit():
    # the mod-4 route runs on an explicit stack, not on Python recursion
    n = (1 << 1500) + 1
    assert weighted_stern_alt(n) == weighted_stern(n) == WeightPolynomial((2, 1499))
    rng = random.Random(1501)
    for _ in range(3):
        n = rng.getrandbits(1500) | (1 << 1499)
        assert weighted_stern_alt(n) == weighted_stern(n)
    assert not hasattr(sequences, "_W_ALT")


def test_weighted_counts_reject_negative_n():
    for fn in (weighted_stern, weighted_even, weighted_stern_alt):
        with pytest.raises(ValueError):
            fn(-1)


def test_weighted_coefficients_nonnegative():
    for n in range(512):
        assert all(c >= 0 for c in weighted_stern(n).coeffs)
        assert all(c >= 0 for c in weighted_even(n).coeffs)
        assert weighted_stern(n).coeffs[-1] != 0 or weighted_stern(n).is_zero()


def test_weight_polynomial_arithmetic():
    p = WeightPolynomial((1, 2))
    assert p + 1 == WeightPolynomial((2, 2))
    assert 1 + p == WeightPolynomial((2, 2))
    assert p - p == WeightPolynomial((0,))
    assert (W - 1) * p == WeightPolynomial((-1, -1, 2))
    assert 2 * p == WeightPolynomial((2, 4))
    assert str(p) == "1 + 2*w"
    assert str(WeightPolynomial((0,))) == "0"
    assert WeightPolynomial((5, 0, 0)).coeffs == (5,)


def test_v2():
    assert v2(12) == 2
    assert v2(1) == 0
    assert v2(1 << 30) == 30
    with pytest.raises(ValueError):
        v2(0)


def test_mod2():
    assert mod2(6) == 0
    assert mod2(11) == 1
    assert mod2(9) == 0
    for n in range(3 << 10):
        assert stern(n) % 2 == twisted(n) % 2 == mod2(n)


def test_ratio_map_injective():
    seen = {Fraction(stern(n), stern(n + 1)) for n in range(1 << 14)}
    assert len(seen) == 1 << 14


@given(st.integers(min_value=0, max_value=1 << 40))
def test_binary_word_roundtrip(n):
    word = digits_of(n, 2)
    assert int("".join(map(str, word)), 2) == n
    if n > 0:
        assert word[0] == 1
    assert len(word) == max(n.bit_length(), 1)
