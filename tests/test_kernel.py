"""Differential tests of the integer coefficient kernel.

The schoolbook product and the term-by-term division recurrence below are the
reference: Kronecker products and Newton division must reproduce them exactly
on every operand shape, including both sides of the sparse cutoff.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sterntwist.series as series
from sterntwist.regularity import AffineSystem, expand_rational, solve_affine_system
from sterntwist.sequences import stern
from sterntwist.series import (
    SPARSE_TERMS,
    DensePolynomial,
    DivisionError,
    Ring,
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


def count_kron_calls(monkeypatch):
    calls = []
    kron = series._kron_mul

    def counted(a, b, n):
        calls.append(n)
        return kron(a, b, n)

    monkeypatch.setattr(series, "_kron_mul", counted)
    return calls


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
    with pytest.raises(TypeError):
        div_exact(dense, dense.to_ring(Ring.RATIONAL))


def test_rational_ring_keeps_the_schoolbook_loop(monkeypatch):
    calls = count_kron_calls(monkeypatch)
    a = [Fraction(n + 1, 3) for n in range(80)]
    b = [Fraction(stern(n + 1), n + 2) for n in range(80)]
    got = TruncatedSeries.from_coeffs(a, Ring.RATIONAL) * TruncatedSeries.from_coeffs(b, Ring.RATIONAL)
    assert list(got.coeffs) == schoolbook_mul(a, b, 79)
    q = div_exact(got, TruncatedSeries.from_coeffs(b, Ring.RATIONAL))
    assert q.coeffs == tuple(a)
    assert not calls


def test_h_series_newton_route_matches_fixed_point_at_order_2_pow_14():
    order = 1 << 14
    shifted = TruncatedSeries.from_coeffs([stern(n + 1) for n in range(order + 2)])
    direct = log_derivative(shifted)
    inhom = expand_rational(DensePolynomial((1, 2)), DensePolynomial((1, 1, 1)), order)
    fixed = solve_affine_system(AffineSystem.of(2, [inhom], [[(0, 2)]], [1]), order)[0]
    assert direct.order == fixed.order == order
    assert direct == fixed
