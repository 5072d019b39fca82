"""Differential tests of the integer coefficient kernel.

The schoolbook product and the term-by-term division recurrence below are the
reference: Kronecker products, through CPython ints or through libmpdec, and
Newton division must reproduce them exactly on every operand shape, including
both sides of the sparse and the transform cutoffs.
"""
import decimal
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sterntwist.series as series
from sterntwist.regularity import AffineSystem, expand_rational, solve_affine_system
from sterntwist.sequences import stern
from sterntwist.series import (
    SPARSE_TERMS,
    TRANSFORM_LENGTH,
    DensePolynomial,
    DivisionError,
    TruncatedSeries,
    div_exact,
    log_derivative,
)


def schoolbook_mul(a, b, n):
    """Coefficients 0..n of a*b."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        for j, y in enumerate(b[: n + 1 - i]):
            out[i + j] += x * y
    return out


def schoolbook_div(m, d, n):
    """Coefficients 0..n of q with q*d = m, for d[0] = +-1."""
    q = []
    for k in range(n + 1):
        q.append((m[k] - sum(q[k - j] * d[j] for j in range(1, k + 1))) * d[0])
    return q


def trim(coeffs):
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@st.composite
def coeff_seqs(draw, min_len=1, max_len=100):
    """Signed coefficients up to 130 bits wide, with anywhere from no nonzero
    term to all of them nonzero."""
    length = draw(st.integers(min_len, max_len))
    bits = draw(st.sampled_from([2, 40, 130]))
    count = draw(st.integers(0, length))
    positions = draw(st.permutations(range(length)))[:count]
    magnitudes = st.integers(1, 1 << bits)
    out = [0] * length
    for p in positions:
        out[p] = draw(magnitudes) * draw(st.sampled_from([1, -1]))
    return out


def with_terms(terms, length, bits, lead=1, start=0):
    """`terms` nonzero wide coefficients after `start`, spread over `length`."""
    out = [0] * length
    out[start] = lead
    step = (length - start - 1) // terms
    for t in range(1, terms + 1):
        out[start + t * step] = (-1) ** t * ((1 << bits) - 3 * t)
    return out


def count_calls(monkeypatch, name):
    calls = []
    route = getattr(series, name)

    def counted(a, b, n):
        calls.append(n)
        return route(a, b, n)

    monkeypatch.setattr(series, name, counted)
    return calls


def count_kron_calls(monkeypatch):
    return count_calls(monkeypatch, "_kron_mul")


def spot_coeff(a, b, k):
    """Coefficient k of a*b, summed directly."""
    return sum(a[i] * b[k - i] for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1))


@settings(max_examples=100, deadline=None)
@given(coeff_seqs(), coeff_seqs())
def test_series_mul_matches_schoolbook(a, b):
    got = TruncatedSeries.from_coeffs(a) * TruncatedSeries.from_coeffs(b)
    n = min(len(a), len(b)) - 1
    assert got.order == n
    assert list(got.coeffs) == schoolbook_mul(a, b, n)


@settings(max_examples=100, deadline=None)
@given(coeff_seqs(), coeff_seqs())
def test_poly_mul_matches_schoolbook(a, b):
    got = DensePolynomial(tuple(a)) * DensePolynomial(tuple(b))
    pa, pb = trim(a), trim(b)
    assert got.coeffs == trim(schoolbook_mul(pa, pb, len(pa) + len(pb) - 2))


@settings(max_examples=100, deadline=None)
@given(
    coeff_seqs(),
    coeff_seqs(),
    st.sampled_from([1, -1]),
    st.integers(0, 3),
    st.integers(0, 20),
)
def test_div_exact_matches_recurrence(num_tail, den_tail, lead, val, extra):
    den = [0] * val + [lead] + den_tail
    num = [0] * val + num_tail + [0] * extra
    got = div_exact(TruncatedSeries.from_coeffs(num), TruncatedSeries.from_coeffs(den))
    n = min(len(num), len(den)) - 1 - val
    assert list(got.coeffs) == schoolbook_div(num[val:], den[val:], n)


@pytest.mark.parametrize("terms", [SPARSE_TERMS, SPARSE_TERMS + 1])
@pytest.mark.parametrize("bits", [3, 70])
def test_mul_at_the_sparse_cutoff(monkeypatch, terms, bits):
    calls = count_kron_calls(monkeypatch)
    a = with_terms(terms - 1, 300, bits)
    b = with_terms(200, 250, bits + 5, lead=-7)
    for x, y in ((a, b), (b, a)):
        got = TruncatedSeries.from_coeffs(x) * TruncatedSeries.from_coeffs(y)
        assert list(got.coeffs) == schoolbook_mul(x, y, 249)
        poly = DensePolynomial(tuple(x)) * DensePolynomial(tuple(y))
        assert poly.coeffs == trim(schoolbook_mul(x, y, 548))
        assert bool(calls) == (terms > SPARSE_TERMS)


@pytest.mark.parametrize("tail_terms", [SPARSE_TERMS, SPARSE_TERMS + 1])
@pytest.mark.parametrize("lead", [1, -1])
def test_div_at_the_sparse_cutoff(monkeypatch, tail_terms, lead):
    calls = count_kron_calls(monkeypatch)
    den = with_terms(tail_terms, 400, 3, lead=lead, start=2)
    num = [0, 0] + with_terms(150, 398, 80, lead=5)
    got = div_exact(TruncatedSeries.from_coeffs(num), TruncatedSeries.from_coeffs(den))
    assert list(got.coeffs) == schoolbook_div(num[2:], den[2:], 397)
    assert bool(calls) == (tail_terms > SPARSE_TERMS)


@pytest.mark.parametrize("length", [33, 63])
@pytest.mark.parametrize("sign", [1, -1])
def test_kron_slots_hold_the_extreme_coefficients(monkeypatch, length, sign):
    # 2*29 + bit_length(length) = 64 bits of magnitude: the sign bit is what
    # pushes the slot to 9 bytes, and the top coefficient needs it
    calls = count_kron_calls(monkeypatch)
    top = (1 << 29) - 1
    a = [top] * length
    b = [sign * top] * length
    got = TruncatedSeries.from_coeffs(a) * TruncatedSeries.from_coeffs(b)
    assert got.coeffs[-1] == sign * length * top * top
    assert list(got.coeffs) == schoolbook_mul(a, b, length - 1)
    poly = DensePolynomial(tuple(a)) * DensePolynomial(tuple(b))
    assert poly.coeffs == tuple(schoolbook_mul(a, b, 2 * length - 2))
    assert calls


def test_zero_and_order_zero_operands():
    zero = TruncatedSeries.zero(200)
    dense = TruncatedSeries.from_coeffs([stern(n + 1) for n in range(201)])
    assert (zero * dense).coeffs == (0,) * 201
    assert div_exact(zero, dense).coeffs == (0,) * 201
    assert DensePolynomial((0,)) * DensePolynomial(dense.coeffs) == DensePolynomial((0,))
    c = TruncatedSeries.constant(-3, 0)
    assert (c * dense).coeffs == (-3,)
    assert div_exact(c, TruncatedSeries.constant(-1, 0)).coeffs == (3,)
    assert div_exact(dense, TruncatedSeries.constant(1, 0)).coeffs == (1,)


def test_dense_division_checks_still_apply():
    dense = TruncatedSeries.from_coeffs([stern(n + 1) for n in range(200)])
    with pytest.raises(DivisionError):
        div_exact(dense, TruncatedSeries.zero(199))
    with pytest.raises(DivisionError):
        div_exact(dense, dense.scale(2))
    with pytest.raises(DivisionError):
        div_exact(dense, dense.shift(1))
    with pytest.raises(DivisionError):
        div_exact(TruncatedSeries.zero(2), dense.shift(5))


def test_h_series_newton_route_matches_fixed_point_at_order_2_pow_14():
    order = 1 << 14
    shifted = TruncatedSeries.from_coeffs([stern(n + 1) for n in range(order + 2)])
    direct = log_derivative(shifted)
    inhom = expand_rational(DensePolynomial((1, 2)), DensePolynomial((1, 1, 1)), order)
    fixed = solve_affine_system(AffineSystem.of(2, [inhom], [[(0, 2)]], [1]), order)[0]
    assert direct.order == fixed.order == order
    assert direct == fixed


needs_libmpdec = pytest.mark.skipif(
    not series._LIBMPDEC, reason="decimal is not the C build with libmpdec"
)


@settings(max_examples=150, deadline=None)
@given(coeff_seqs(), coeff_seqs(), st.integers(0, 210))
@example([0, 0, 0], [5, -7], 4)
@example([-(1 << 70), 3], [1 << 65, -1, 2], 9)
def test_decimal_mul_matches_kron_and_schoolbook(a, b, n):
    # negative, zero and 130-bit coefficients, and n + 1 past the product's
    # len(a) + len(b) - 1 slots, whose top slots must read 0
    a, b = a[: n + 1], b[: n + 1]
    want = schoolbook_mul(a, b, n)
    assert series._kron_mul(a, b, n) == want
    assert series._decimal_mul(a, b, n) == want


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("top", [10**6 - 1, 10**6, 10**21 - 1, 10**21])
def test_decimal_slots_hold_the_extreme_coefficients(sign, top):
    # the extreme coefficient 4*top^2 sits just below the 4*10^(width-1) that
    # makes the slot one digit wider (top = 10^j - 1), or exactly on it
    a = [top] * 4
    b = [sign * top] * 4
    for n in (3, 6, 9):
        got = series._decimal_mul(a, b, n)
        assert got == schoolbook_mul(a, b, n)
        assert got[3] == sign * 4 * top * top


def test_decimal_mul_hands_slots_past_the_str_limit_to_ints(monkeypatch):
    # a 4500-digit coefficient bound would need int/str conversions that
    # CPython refuses by default
    kron = count_kron_calls(monkeypatch)
    a = [10**2250 + 1, -3, 7]
    b = [-(10**2250) + 9, 5]
    assert series._decimal_mul(a, b, 4) == schoolbook_mul(a, b, 4)
    assert kron == [4]


@needs_libmpdec
@settings(max_examples=12, deadline=None)
@given(
    st.integers(TRANSFORM_LENGTH - 2, TRANSFORM_LENGTH + 1),
    st.integers(TRANSFORM_LENGTH - 2, TRANSFORM_LENGTH + 600),
    st.sampled_from([3, 40, 70]),
    st.integers(0, 2**32),
)
def test_transform_cutoff_routes_and_results(len_a, len_b, bits, seed):
    rng = random.Random(seed)
    a = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(len_a)]
    b = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(len_b)]
    n = len(a) + len(b) - 2
    pa, pb = DensePolynomial(tuple(a)), DensePolynomial(tuple(b))
    with pytest.MonkeyPatch.context() as mp:
        dec = count_calls(mp, "_decimal_mul")
        kron = count_kron_calls(mp)
        got = pa * pb
    # the route follows the operands as stored, trailing zeros trimmed
    transform = min(len(pa.coeffs), len(pb.coeffs)) >= TRANSFORM_LENGTH
    assert (len(dec), len(kron)) == ((1, 0) if transform else (0, 1))
    want = series._kron_mul(a, b, n) if transform else series._decimal_mul(a, b, n)
    assert list(got.coeffs) == want[: len(got.coeffs)]
    assert not any(want[len(got.coeffs):])
    for k in (0, 1, len(a) - 1, rng.randrange(n + 1), n):
        assert want[k] == spot_coeff(a, b, k)


@needs_libmpdec
def test_series_products_at_the_transform_cutoff_match_schoolbook(monkeypatch):
    dec = count_calls(monkeypatch, "_decimal_mul")
    rng = random.Random(7)
    for length in (TRANSFORM_LENGTH - 1, TRANSFORM_LENGTH):
        a = [rng.randrange(-(1 << 66), 1 << 66) for _ in range(length)]
        b = [stern(i + 1) for i in range(length)]
        got = TruncatedSeries.from_coeffs(a) * TruncatedSeries.from_coeffs(b)
        assert list(got.coeffs) == schoolbook_mul(a, b, length - 1)
    assert dec == [TRANSFORM_LENGTH - 1]


@needs_libmpdec
def test_decimal_mul_past_the_default_exponent_limit():
    # 2 * 8000 slots of 77 digits: 1.2 million digits in the product, past
    # the default context's Emax of 999,999; the caller's own context, here
    # a rounding one, must not matter
    rng = random.Random(11)
    a = [rng.randrange(-(1 << 120), 1 << 120) for _ in range(8000)]
    b = [rng.randrange(-(1 << 120), 1 << 120) for _ in range(8000)]
    n = 15998
    with decimal.localcontext(decimal.Context(prec=28, traps=[])):
        got = series._decimal_mul(a, b, n)
    assert got == series._kron_mul(a, b, n)
    for k in (0, 7999, 8000, rng.randrange(n + 1), n):
        assert got[k] == spot_coeff(a, b, k)


def test_int_route_without_libmpdec(monkeypatch):
    monkeypatch.setattr(series, "_LIBMPDEC", False)
    dec = count_calls(monkeypatch, "_decimal_mul")
    kron = count_kron_calls(monkeypatch)
    length = 2 * TRANSFORM_LENGTH
    num = TruncatedSeries.from_coeffs([stern(i + 2) for i in range(length)])
    den = TruncatedSeries.from_coeffs([stern(i + 1) for i in range(length)])
    got = div_exact(num, den) * den
    assert got == num
    assert kron and not dec


# ---------------------------------------------------------------------------
# Newton schedule and Karp-Markstein division against the doubling route.
# ---------------------------------------------------------------------------


def _inverse_doubling(d, n):
    """The former Newton inverse, on precisions 1, 2, 4, ... and then n+1;
    kept here only as an oracle."""
    g = [d[0]]
    k = 1
    while k <= n:
        k2 = min(2 * k, n + 1)
        e = [-c for c in series._mul_coeffs(d[:k2], g, k2 - 1)[k:]]
        g += series._mul_coeffs(g, e, k2 - k - 1)
        k = k2
    return g


def _divide_doubling(m, d, n):
    """The former dense quotient: full-length inverse, then one full product."""
    return series._mul_coeffs(m, _inverse_doubling(d, n), n)


#: Factors 1 + a*x + b*x^2 with every root on the unit circle; a product of
#: them in z^k has an inverse whose coefficients grow only polynomially.
CYCLOTOMIC = ((1, 1, 1), (1, -1, 1), (1, 0, 1), (1, 0, -1), (1, 1, 0), (1, -1, 0))


def dense_operands(length, seed, lead=1, bits=40):
    """A random numerator, and a dense denominator with lead `lead`: a
    product of CYCLOTOMIC factors in random powers of z."""
    rng = random.Random(seed)
    d = [0] * length
    d[0] = lead
    for _ in range(2 * length.bit_length()):
        a, b = rng.choice(CYCLOTOMIC)[1:]
        k = rng.randrange(1, 2 + length.bit_length() ** 2)
        for i in range(length - 1, k - 1, -1):
            d[i] += a * d[i - k] + (b * d[i - 2 * k] if i >= 2 * k else 0)
    m = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(length)]
    return m, d


def assert_quotient(q, m, d, n):
    """q against the doubling route, and q*d = m on a few coefficients summed
    directly."""
    assert len(q) == n + 1
    assert q == _divide_doubling(m, d, n)
    for k in {0, n // 2, (n + 1) // 2, n}:
        assert spot_coeff(q, d[: n + 1], k) == m[k]


@pytest.mark.parametrize(
    "length",
    sorted({(1 << k) + j for k in range(13) for j in (-1, 0, 1, 2)} - {0}),
)
def test_newton_and_karp_markstein_at_powers_of_two(length):
    n = length - 1
    m, d = dense_operands(length, length, lead=(-1) ** length)
    assert series._inverse(d, n) == _inverse_doubling(d, n)
    q = series._quotients([m], d, n)[0]
    assert_quotient(q, m, d, n)
    if length <= 130:
        assert q == schoolbook_div(m, d, n)


@pytest.mark.parametrize(
    "length",
    [TRANSFORM_LENGTH - 1, TRANSFORM_LENGTH, TRANSFORM_LENGTH + 1, TRANSFORM_LENGTH + 2,
     2 * TRANSFORM_LENGTH + 1],
)
@pytest.mark.parametrize("lead", [1, -1])
def test_dense_division_on_both_sides_of_the_transform_cutoff(length, lead):
    n = length - 1
    m, d = dense_operands(length, 3 * length + lead, lead=lead, bits=20)
    assert series._inverse(d, n) == _inverse_doubling(d, n)
    got = div_exact(TruncatedSeries.from_coeffs(m), TruncatedSeries.from_coeffs(d))
    assert_quotient(list(got.coeffs), m, d, n)


@pytest.mark.parametrize("lead", [1, -1])
def test_dense_division_with_valuation_and_a_short_numerator(lead):
    m, d = dense_operands(700, 5, lead=lead)
    # the numerator's valuation 3 is above the denominator's 2; both drop by 2
    num = [0, 0, 0] + m[:500]
    den = [0, 0] + d
    got = div_exact(TruncatedSeries.from_coeffs(num), TruncatedSeries.from_coeffs(den))
    n = len(num) - 1 - 2
    assert got.order == n
    assert list(got.coeffs) == schoolbook_div(num[2:], d, n)
    assert list(got.coeffs) == _divide_doubling(num[2:], d, n)


@settings(max_examples=60, deadline=None)
@given(coeff_seqs(), coeff_seqs(), st.sampled_from([1, -1]), st.integers(0, 150))
def test_karp_markstein_matches_the_oracles(m_tail, d_tail, lead, n):
    m = (m_tail * (n + 1))[: n + 1]
    d = ([lead] + d_tail * (n + 1))[: n + 1]
    want = schoolbook_div(m, d, n)
    assert series._inverse(d, n) == _inverse_doubling(d, n)
    assert _divide_doubling(m, d, n) == want
    assert series._quotients([m, d], d, n) == [want, [1] + [0] * n]


def test_newton_steps_never_overshoot_the_target(monkeypatch):
    # at n = 8192 the doubling route reached 8192 coefficients of g and then
    # ran one more full-length step for the last one; the top-down schedule
    # stops at ceil(8193/2) = 4097 before its last step
    m, d = dense_operands(8193, 17, bits=12)
    lengths = []
    route = series._mul_coeffs

    def spy(a, b, n):
        # every Newton product takes g and a slice of d, or g and a correction
        lengths.extend(len(x) for x in (a, b) if list(x) != d[: len(x)])
        return route(a, b, n)

    monkeypatch.setattr(series, "_mul_coeffs", spy)
    g = series._inverse(d, 8192)
    assert len(g) == 8193
    assert lengths and max(lengths) <= 4097
    monkeypatch.undo()
    assert g == _inverse_doubling(d, 8192)


def test_one_inverse_serves_every_numerator(monkeypatch):
    calls = []
    inverse = series._inverse

    def counted(d, n):
        calls.append(n)
        return inverse(d, n)

    monkeypatch.setattr(series, "_inverse", counted)
    den = TruncatedSeries.from_coeffs([stern(n) for n in range(402)])
    nums = [TruncatedSeries.from_coeffs([0] + [stern(n + k) for n in range(401)]) for k in (2, 3, 5)]
    got = series.div_exact_many(nums, den)
    assert calls == [200]
    assert got == tuple(div_exact(num, den) for num in nums)
    assert all(q.order == 400 for q in got)
