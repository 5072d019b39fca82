from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sterntwist.ratwords import (
    LinearRepresentation,
    admissible_representation,
    count_in_expansion,
    digits_of,
    subfactor_transform,
    subsequence_transform,
    word_indicator,
)
from sterntwist.sequences import ONE_W, W, WeightPolynomial, stern, weighted_stern
from sterntwist.series import infinite_product

short_words = st.lists(st.integers(min_value=0, max_value=1), max_size=10).map(tuple)

#: One state, value 1 on every binary word.
EVERYTHING = LinearRepresentation((1,), (((1,),), ((1,),)), (1,))


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
    assert EVERYTHING.evaluate(()) == 1


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


def test_a_weighted_count_multiplies_by_no_unit(monkeypatch):
    # the identity that subsequence_transform adds puts 1 on the diagonal;
    # an entry equal to 1 adds its row entry, it is not multiplied by it
    weighted = subsequence_transform(admissible_representation())
    n = 3**2000
    products = []
    mul = WeightPolynomial.__mul__

    def spy(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(WeightPolynomial, "__mul__", spy)
    got = count_in_expansion(weighted, n, 2)
    monkeypatch.undo()
    assert products
    assert not [pair for pair in products if 1 in pair]
    assert got == weighted_stern(n)


def test_a_skipped_unit_keeps_the_product_type():
    # a raw representation may mix ints and w-polynomials: 1 times the
    # w-polynomial 1 is a w-polynomial, so skipping that product must not
    # hand back the int
    rep = LinearRepresentation((1,), (((ONE_W,),),), (1,))
    assert type(rep.evaluate(())) is int
    assert type(rep.evaluate((0,))) is WeightPolynomial
    assert rep.evaluate((0, 0)) == ONE_W


def test_thue_morse_sign():
    ones = subsequence_transform(word_indicator((1,), 2))
    signs = infinite_product((1, -1), 2, 1023)
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
    counter = subfactor_transform(EVERYTHING)
    assert counter.states == EVERYTHING.states + 2
    for length in range(5):
        word = (1,) * length
        # factors of a length-L word: one per (start, end) pair
        expected = (length + 1) * (length + 2) // 2
        assert counter.evaluate(word) == expected


def test_subfactor_transform_of_the_pair_indicator():
    # before state, the three states of the indicator of 11, after state:
    # entering pays init (1, 0, 0), so the before row reads init times the
    # letter's matrix, and 11 has no empty factor, so alpha.beta = 0
    counter = subfactor_transform(word_indicator((1, 1), 2))
    assert counter.init == (1, 0, 0, 0, 0)
    assert counter.trans == (
        ((1, 0, 0, 0, 0),
         (0, 0, 0, 0, 0),
         (0, 0, 0, 0, 0),
         (0, 0, 0, 0, 1),
         (0, 0, 0, 0, 1)),
        ((1, 0, 1, 0, 0),
         (0, 0, 1, 0, 0),
         (0, 0, 0, 1, 0),
         (0, 0, 0, 0, 1),
         (0, 0, 0, 0, 1)),
    )
    assert counter.final == (0, 0, 0, 1, 1)
    entries = (*counter.init, *counter.final, *(x for m in counter.trans for r in m for x in r))
    assert all(type(x) is int for x in entries)


def test_subfactor_transform_with_a_weighted_empty_word():
    # rep's value on the empty word is w*(1 + w), so every one of the
    # L + 1 empty factors of a length-L word adds it
    rep = LinearRepresentation.of((W,), (((1,),), ((W,),)), (1 + W,))
    assert rep.evaluate(()) == W + W * W
    counter = subfactor_transform(rep)
    assert counter.weighted
    for length in range(7):
        for n in range(1 << length):
            word = tuple((n >> i) & 1 for i in range(length))
            assert counter.evaluate(word) == brute_factor_sum(rep, word), word


def test_digits_of():
    assert digits_of(0, 2) == (0,)
    assert digits_of(11, 2) == (1, 0, 1, 1)
    assert digits_of(11, 3) == (1, 0, 2)
    with pytest.raises(ValueError):
        digits_of(5, 1)
    with pytest.raises(ValueError):
        digits_of(-1, 2)
