from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sterntwist.ratwords import (
    LinearRepresentation,
    admissible_representation,
    all_words_representation,
    count_in_expansion,
    digits_of,
    representation_product,
    subfactor_transform,
    subsequence_transform,
    word_indicator,
)
from sterntwist.sequences import W, WeightPolynomial, stern, weighted_stern
from sterntwist.series import infinite_product, DensePolynomial

short_words = st.lists(st.integers(min_value=0, max_value=1), max_size=10).map(tuple)


def brute_subsequence_sum(rep, word):
    total = 0
    for r in range(len(word) + 1):
        for combo in combinations(range(len(word)), r):
            total = total + rep.evaluate(tuple(word[i] for i in combo))
    return total


def brute_factor_sum(rep, word):
    total = 0
    for i in range(len(word) + 1):
        for j in range(i, len(word) + 1):
            total = total + rep.evaluate(tuple(word[i:j]))
    return total


def test_admissible_recogniser():
    rep = admissible_representation()
    assert rep.evaluate((1,)) == 1
    assert rep.evaluate((1, 0, 1)) == W
    assert rep.evaluate((1, 0, 1, 0, 1)) == W * W
    assert rep.evaluate((1, 1)) == 0
    assert rep.evaluate((0, 1)) == 0
    assert rep.evaluate(()) == 0
    assert isinstance(rep.evaluate(()), WeightPolynomial)  # zero of the entries' kind
    assert rep.states == 3


def test_evaluate_empty_word_is_init_dot_final():
    rep = word_indicator((1, 0), 2)
    assert rep.evaluate(()) == 0
    everything = all_words_representation(2)
    assert everything.evaluate(()) == 1


def test_digit_range_checked():
    rep = admissible_representation()
    with pytest.raises(ValueError):
        rep.evaluate((2,))


def test_subsequence_transform_on_admissible():
    weighted = subsequence_transform(admissible_representation())
    assert weighted.evaluate((1, 0, 1, 1)) == WeightPolynomial((3, 2))
    plain = subsequence_transform(admissible_representation(weighted=False))
    assert plain.evaluate((1, 0, 1, 1)) == 5
    assert plain.evaluate(()) == 0


def test_count_in_expansion_examples():
    weighted = subsequence_transform(admissible_representation())
    assert count_in_expansion(weighted, 11, 2) == WeightPolynomial((3, 2))
    ones = subsequence_transform(word_indicator((1,), 2))
    assert count_in_expansion(ones, 21, 2) == 3
    pairs = subfactor_transform(word_indicator((1, 1), 2))
    assert count_in_expansion(pairs, (1 << 8) - 1, 2) == 7
    assert count_in_expansion(pairs, 7, 2) == 2
    assert count_in_expansion(ones, 0, 2) == 0


def test_automaton_route_matches_stern():
    plain = subsequence_transform(admissible_representation(weighted=False))
    for n in range(1 << 11):
        assert count_in_expansion(plain, n, 2) == stern(n)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 14) - 1))
def test_automaton_route_matches_stern_sampled(n):
    plain = subsequence_transform(admissible_representation(weighted=False))
    assert count_in_expansion(plain, n, 2) == stern(n)


def test_automaton_route_matches_weighted_polynomials():
    weighted = subsequence_transform(admissible_representation())
    for n in range(1 << 9):
        assert count_in_expansion(weighted, n, 2) == weighted_stern(n)


def test_thue_morse_sign():
    ones = subsequence_transform(word_indicator((1,), 2))
    signs = infinite_product(DensePolynomial((1, -1)), 2, 1023)
    for n in range(1024):
        assert (-1) ** count_in_expansion(ones, n, 2) == signs.coeff(n)


@settings(max_examples=60, deadline=None)
@given(short_words)
def test_subsequence_transform_matches_brute_force(word):
    rep = admissible_representation()
    assert subsequence_transform(rep).evaluate(word) == brute_subsequence_sum(rep, word)
    simple = word_indicator((1, 0), 2)
    assert subsequence_transform(simple).evaluate(word) == brute_subsequence_sum(
        simple, word
    )


@settings(max_examples=60, deadline=None)
@given(short_words)
def test_subfactor_transform_matches_brute_force(word):
    rep = word_indicator((1, 1), 2)
    assert subfactor_transform(rep).evaluate(word) == brute_factor_sum(rep, word)
    other = word_indicator((0, 1, 1), 2)
    assert subfactor_transform(other).evaluate(word) == brute_factor_sum(other, word)
    # the integer all-words factors lift to w-polynomials around a weighted rep
    weighted = admissible_representation()
    assert subfactor_transform(weighted).evaluate(word) == brute_factor_sum(weighted, word)


def test_subfactor_counts_empty_decompositions():
    # a representation with an empty-word term gets one hit per gap position
    everything = all_words_representation(2)
    counter = subfactor_transform(everything)
    for length in range(5):
        word = (1,) * length
        # factors of a length-L word: one per (start, end) pair
        expected = (length + 1) * (length + 2) // 2
        assert counter.evaluate(word) == expected


def test_representation_product_dimensions():
    rep = word_indicator((1, 1), 2)
    prod = representation_product(rep, all_words_representation(2))
    assert prod.states == rep.states + 1
    both = subfactor_transform(rep)
    assert both.states == rep.states + 2
    with pytest.raises(ValueError):
        representation_product(rep, all_words_representation(3))


def test_digits_of():
    assert digits_of(0, 2) == (0,)
    assert digits_of(11, 2) == (1, 0, 1, 1)
    assert digits_of(11, 3) == (1, 0, 2)
    with pytest.raises(ValueError):
        digits_of(5, 1)
    with pytest.raises(ValueError):
        digits_of(-1, 2)


def test_serialisation():
    rep = subsequence_transform(admissible_representation())
    blob = rep.to_json_dict()
    assert blob["states"] == 3
    assert blob["alphabet"] == 2
    assert blob["ring"] == "integer-polynomial-in-w"
    # w-polynomial entries serialise as coefficient-string arrays
    assert blob["trans"][1][2][1] == ["0", "1"]
    factors = subfactor_transform(admissible_representation()).to_json_dict()
    assert factors["ring"] == "integer-polynomial-in-w"
    assert all(isinstance(x, list) for row in factors["trans"][0] for x in row)
    plain = word_indicator((1,), 2).to_json_dict()
    assert plain["init"] == ["1", "0"]
    assert all(isinstance(x, str) for row in plain["trans"][0] for x in row)
