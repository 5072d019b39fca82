"""Differential tests of the integer coefficient kernel.

The schoolbook product and the term-by-term division recurrence below are the
reference: Kronecker products over CPython ints and recursive Karp-Markstein
division must reproduce them exactly on every operand shape, including both
sides of the sparse cutoff.  Division by the Stern series through Carlitz's
product must in turn reproduce Karp-Markstein division, and multiplication
by it through its Mahler equation must reproduce the Kronecker product.
"""
import random
from itertools import cycle, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sterntwist.sequences as sequences
import sterntwist.series as series
import sterntwist.verify as verify
from sterntwist.regularity import AffineSystem, solve_affine_system
from sterntwist.sequences import SPARSE_TERMS, Kind, WeightPolynomial, prefix, stern
from sterntwist.series import (
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
    route = getattr(sequences, name)

    def counted(a, b, n):
        calls.append(n)
        return route(a, b, n)

    monkeypatch.setattr(sequences, name, counted)
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


@settings(max_examples=150, deadline=None)
@given(coeff_seqs(max_len=60), coeff_seqs(max_len=60), st.integers(0, 130))
@example([0, 3, 0, 0, 5], [2, 0, 0, 0, 0, 7], 6)
@example([1, 0, 2], [3, 4], 1)
def test_sparse_schoolbook_matches_the_double_loop(a, b, n):
    # the slice product with either operand as the factor, dense or with
    # zeros, cut at n; and the Kronecker route, also with n + 1 past the
    # product's slots, whose top slots must read 0
    assert sequences._times_sparse(a, b, 1, n) == schoolbook_mul(a, b, n)
    assert sequences._times_sparse(b, a, 1, n) == schoolbook_mul(b, a, n)
    assert sequences._kron_mul(a, b, n) == schoolbook_mul(a, b, n)


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
        calls.clear()
        # w-products take the same route
        poly = WeightPolynomial(tuple(x)) * WeightPolynomial(tuple(y))
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
    c = TruncatedSeries((-3,))
    assert (c * dense).coeffs == (-3,)
    assert div_exact(c, TruncatedSeries((-1,))).coeffs == (3,)
    assert div_exact(dense, TruncatedSeries((1,))).coeffs == (1,)


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
    inhom = TruncatedSeries(tuple(islice(cycle((1, 1, -2)), order + 1)))  # (1+2z)/(1+z+z^2)
    fixed = solve_affine_system(AffineSystem.of(2, [inhom], [[(0, 2)]], [1]), order)[0]
    assert direct.order == fixed.order == order
    assert direct == fixed


# ---------------------------------------------------------------------------
# Recursive Karp-Markstein division against the Newton and doubling routes.
# ---------------------------------------------------------------------------


def _inverse_newton(d, n):
    """Coefficients 0..n of 1/d by Newton iteration g <- g + g(1 - d*g) on
    the top-down precisions ceil((n+1)/2^i): the inverse the dense route
    used before it became recursive, kept here only as an oracle."""
    lengths = [n + 1]
    while lengths[-1] > 1:
        lengths.append((lengths[-1] + 1) // 2)
    g = [d[0]]
    k = 1
    for k2 in reversed(lengths[:-1]):
        # d*g = 1 + z^k * e modulo z^{k2}; the correction is -g*e, placed at z^k
        e = [-c for c in series._mul_coeffs(d[:k2], g, k2 - 1)[k:]]
        g += series._mul_coeffs(g, e, k2 - k - 1)
        k = k2
    return g


def _quotient_newton(m, d, n):
    """The dense quotient as the former route formed it: the Newton inverse
    to h = ceil((n+1)/2) coefficients, then one Karp-Markstein step."""
    h = (n + 2) // 2
    g = _inverse_newton(d, h - 1)
    q = series._mul_coeffs(m, g, h - 1)
    if n >= h:
        dq = series._mul_coeffs(d, q, n)
        r = [x - y for x, y in zip(m[h : n + 1], dq[h:])]
        q += series._mul_coeffs(g, r, n - h)
    return q


def unit_quotient(d, n):
    """Coefficients 0..n of 1/d through `_quotient`."""
    return series._quotient([1] + [0] * n, d, n)


def _inverse_doubling(d, n):
    """An older Newton inverse, on precisions 1, 2, 4, ... and then n+1;
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
    assert unit_quotient(d, n) == _inverse_doubling(d, n) == _inverse_newton(d, n)
    q = series._quotient(m, d, n)
    assert_quotient(q, m, d, n)
    if length <= 130:
        assert q == schoolbook_div(m, d, n)


@pytest.mark.parametrize("length", [2047, 2048, 2049, 2050, 4097])
@pytest.mark.parametrize("lead", [1, -1])
def test_dense_division_on_both_sides_of_the_transform_cutoff(length, lead):
    # 2048 is where a second product route, through libmpdec, once took over
    n = length - 1
    m, d = dense_operands(length, 3 * length + lead, lead=lead, bits=20)
    assert unit_quotient(d, n) == _inverse_doubling(d, n)
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
    assert unit_quotient(d, n) == _inverse_doubling(d, n) == _inverse_newton(d, n)
    assert _divide_doubling(m, d, n) == want
    assert series._quotient(m, d, n) == want
    assert series._quotient(d, d, n) == [1] + [0] * n


def test_newton_steps_never_overshoot_the_target(monkeypatch):
    # at n = 8192 the doubling route reached 8192 coefficients of g and then
    # ran one more full-length step for the last one; the top-down schedule
    # stops at ceil(8193/2) = 4097 before its last level
    m, d = dense_operands(8193, 17, bits=12)
    lengths = []
    route = series._mul_coeffs

    def spy(a, b, n):
        # every product takes g and a slice of d, the unit numerator and g,
        # or g and a remainder; each operand is read to n + 1 coefficients
        lengths.extend(len(x[: n + 1]) for x in (a, b) if list(x) != d[: len(x)])
        return route(a, b, n)

    monkeypatch.setattr(series, "_mul_coeffs", spy)
    g = unit_quotient(d, 8192)
    assert len(g) == 8193
    assert lengths and max(lengths) <= 4097
    monkeypatch.undo()
    assert g == _inverse_doubling(d, 8192) == _inverse_newton(d, 8192)


def test_dense_division_is_one_recursion_chain(monkeypatch):
    calls = []
    quotient = series._quotient

    def counted(m, d, n):
        calls.append(n)
        return quotient(m, d, n)

    monkeypatch.setattr(series, "_quotient", counted)
    den = TruncatedSeries.from_coeffs([stern(n) for n in range(402)])
    for k in (2, 3, 5):
        num = TruncatedSeries.from_coeffs([0] + [stern(n + k) for n in range(401)])
        calls.clear()
        got = div_exact(num, den)
        # the numerator at the top, then the unit numerator on each level
        # below, the inverse to 201 coefficients first
        assert calls == [400, 200, 100, 50, 25, 12, 6, 3, 1, 0]
        assert got.order == 400 and got == series.div_stern(num)


@pytest.mark.parametrize("length", [1023, 1024, 2048, 2049, 4097, 8193])
@pytest.mark.parametrize("lead", [1, -1])
def test_dense_division_makes_the_newton_routes_products(monkeypatch, length, lead):
    # each level of the recursion makes the products of one Newton step,
    # d*g and g*e, with the same operands; the unit numerator's product with
    # g has one term and takes the schoolbook loop
    n = length - 1
    m, d = dense_operands(length, 5 * length + lead, lead=lead, bits=20)
    calls = []
    route = sequences._kron_mul

    def recorded(a, b, n):
        calls.append((tuple(a), tuple(b), n))
        return route(a, b, n)

    monkeypatch.setattr(sequences, "_kron_mul", recorded)
    got = div_exact(TruncatedSeries.from_coeffs(m), TruncatedSeries.from_coeffs(d))
    new_calls = calls[:]
    calls.clear()
    want = _quotient_newton(m, d, n)
    assert calls and new_calls == calls
    assert list(got.coeffs) == want


# ---------------------------------------------------------------------------
# Division by the Stern series through Carlitz's product against
# Karp-Markstein division.
# ---------------------------------------------------------------------------


def stern_numerators(order):
    """What the package divides by the Stern series, each known to
    order + 1: the windows W_0 of u, A and B, and z*S' for the direct route
    of H (S the shifted Stern series)."""
    nums = {name: verify._window(name, 0, order + 1) for name in verify.WINDOW_FORMS}
    nums["H"] = series.derivative(series.window_series(Kind.STERN, 1, order + 3)).shift(1)
    return nums


def assert_stern_division(orders):
    """div_stern of every numerator cut to each order against the prefix of
    one Karp-Markstein quotient at the largest order: exact quotients of
    prefixes are prefixes."""
    top = max(orders)
    for name, num in stern_numerators(top).items():
        want = div_exact(num, series.stern_series(top + 2)).coeffs
        for order in orders:
            got = series.div_stern(TruncatedSeries(num.coeffs[: order + 2]))
            assert got.coeffs == want[: order + 1], (name, order)


def test_stern_division_at_every_order_to_600():
    assert_stern_division(range(601))


#: Quotient orders n around each switch of a stride L = 3*2^k from running
#: sums per residue class (L^2 <= n) to block adds, then a stride to 5000.
SWITCH_ORDERS = [L * L + j for L in (3, 6, 12, 24, 48, 96) for j in (-1, 0, 1)]


def test_stern_division_at_the_switch_points_and_on_a_stride():
    assert_stern_division(SWITCH_ORDERS + list(range(601, 5000, 97)))


def test_stern_division_at_65536():
    num = stern_numerators(65536)["u"]
    assert series.div_stern(num) == div_exact(num, series.stern_series(65537))


@settings(max_examples=60, deadline=None)
@given(coeff_seqs(), st.integers(0, 300))
def test_stern_division_matches_karp_markstein(m_tail, n):
    m = (m_tail * (n + 1))[: n + 1]
    d = [stern(k + 1) for k in range(n + 1)]
    got = series.div_stern(TruncatedSeries((0, *m)))
    assert list(got.coeffs) == series._quotient(m, d, n)


@pytest.mark.parametrize("coeffs, message", [
    ((1,), "numerator valuation is below denominator valuation"),
    ((-3, 4, 5), "numerator valuation is below denominator valuation"),
    ((0,), "operand orders are too small for the quotient"),
])
def test_stern_division_refuses_as_div_exact_does(coeffs, message):
    num = TruncatedSeries(coeffs)
    for divide in (series.div_stern, lambda a: div_exact(a, series.stern_series(a.order + 1))):
        with pytest.raises(DivisionError, match=message):
            divide(num)


# ---------------------------------------------------------------------------
# Multiplication by the Stern series through its Mahler equation against the
# Kronecker product with the table-read series.
# ---------------------------------------------------------------------------


def assert_stern_product(q):
    n = len(q) - 1
    got = series.mul_stern(TruncatedSeries(tuple(q)))
    assert list(got.coeffs) == series._mul_coeffs(q, series.stern_series(n).coeffs, n)


def signed_coeffs(length, bits, seed):
    rng = random.Random(seed)
    return [rng.randrange(-(1 << bits), (1 << bits) + 1) for _ in range(length)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5000), st.sampled_from([1, 20, 64]), st.integers(0, 2**32),
       st.sampled_from([1, 2, 7]))
@example(15, 64, 0, 1)
@example(16, 64, 1, 1)
@example(17, 64, 2, 1)
def test_stern_multiplication_matches_the_kernel(n, bits, seed, spacing):
    # coefficients of both signs up to 2^64, every `spacing`-th one nonzero
    q = [c if i % spacing == 0 else 0 for i, c in enumerate(signed_coeffs(n + 1, bits, seed))]
    assert_stern_product(q)


def test_stern_multiplication_at_every_order_to_200():
    q = signed_coeffs(201, 64, 3)
    for n in range(201):
        assert_stern_product(q[: n + 1])


@pytest.mark.parametrize("n, bits", [(1 << 16, 64), (1 << 18, 1)])
def test_stern_multiplication_at_large_orders(n, bits):
    assert_stern_product(signed_coeffs(n + 1, bits, n))


def test_stern_multiplication_base_is_the_stern_prefix():
    base = series._STERN_HEAD
    assert list(base) == prefix(Kind.STERN, len(base))[: len(base)]
