import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_product

import sterntwist.sequences as sequences
import sterntwist.series as series
from sterntwist.ratwords import LinearRepresentation
from sterntwist.cli import run
from sterntwist.regularity import AffineSystem, exact_rank, p_product_logderiv
from sterntwist.sequences import W, WeightPolynomial, _times_sparse, stern, twisted
from sterntwist.series import (
    MAX_PSI_E,
    DivisionError,
    InternalCheckError,
    TruncatedSeries,
    carlitz_series,
    derivative,
    div_exact,
    infinite_product,
    log_derivative,
    psi,
    psi_factored_plain,
    psi_factored_signed,
    psi_from_twisted,
    section,
    stern_series,
    substitute_power,
    twisted_series,
    twisted_series_expansion,
)

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=12)


def S(coeffs, order=None):
    return TruncatedSeries.from_coeffs(coeffs, order)


def test_basic_arithmetic():
    a = S([1, 1], order=4)
    b = S([1, -1], order=4)
    assert (a * b).coeffs == (1, 0, -1, 0, 0)
    z = S([0, 1], order=4)
    assert (z * S([], order=4)).coeffs == (0,) * 5
    c = S([1, 1, 1], order=4) * S([1, -1, 1], order=4)
    assert c.coeffs == (1, 0, 1, 0, 1)


@pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5], ids=["fraction", "float"])
@pytest.mark.parametrize("build", [
    lambda x: TruncatedSeries.from_coeffs([1, x]),
    lambda x: TruncatedSeries.one(3).scale(x),
    lambda x: AffineSystem.of(2, [TruncatedSeries.one(3)], [[(0, x)]], [1]),
    lambda x: AffineSystem.of(2, [TruncatedSeries.one(3)], [[(0, 2)]], [x]),
    lambda x: exact_rank([[1, x], [3, 2]]),
    lambda x: LinearRepresentation.of((1,), (((x,),),), (1,)),
    lambda x: LinearRepresentation.of((W,), (((x,),),), (1,)),
    lambda x: WeightPolynomial((1, x)),
    lambda x: infinite_product((1, x), 2, 4),
    lambda x: p_product_logderiv((1, x), 2, 4),
], ids=["from_coeffs", "scale", "form", "constant", "exact_rank", "rep", "weighted_rep",
        "weight_poly", "infinite_product", "p_product_logderiv"])
def test_non_integers_are_type_errors(build, bad):
    # every coefficient is an integer; nothing is silently truncated or rationalised
    with pytest.raises(TypeError):
        build(bad)


@pytest.mark.parametrize("poly", [(), (0, 1), (2, 1), (-1, 1)])
@pytest.mark.parametrize("build", [
    lambda poly: infinite_product(poly, 2, 9),
    lambda poly: p_product_logderiv(poly, 2, 9),
], ids=["infinite_product", "p_product_logderiv"])
def test_product_factors_start_with_one(build, poly):
    with pytest.raises(ValueError, match=r"^infinite products need a polynomial with P\(0\) = 1$"):
        build(poly)


def test_order_is_min_of_operands():
    a = S([1, 2, 3])
    b = S([1, 1])
    assert (a + b).order == 1
    assert (a * b).order == 1
    assert (a - b).order == 1


def test_equality_on_common_prefix():
    assert S([1, 2, 3]) == S([1, 2])
    assert S([1, 2, 3]) != S([1, 1])


def test_coeff_beyond_order_rejected():
    with pytest.raises(ValueError):
        S([1, 2]).coeff(5)
    with pytest.raises(ValueError):
        S([1]).truncate(3)
    with pytest.raises(ValueError):
        S([1, 2]).truncate(-1)


def test_div_examples():
    q = div_exact(S([0, 1, 1]), S([0, 1], order=2))
    assert q.coeffs == (1, 1)
    u = div_exact(
        S([twisted(3 + n) for n in range(20)]), stern_series(19)
    )
    assert u.coeffs[:13] == (1, 0, -2, 0, 0, -2, 4, 2, -6, 4, 2, -6, 8)
    a = div_exact(
        S([stern(2 + n) - stern(1 + n) for n in range(12)]), stern_series(11)
    )
    assert a.coeffs[:7] == (1, -2, 2, 0, -4, 4, 2)


def test_div_errors():
    with pytest.raises(DivisionError):
        div_exact(S([1, 0, 0]), S([0, 1, 0]))  # valuation too low
    with pytest.raises(DivisionError):
        div_exact(S([2, 2, 0]), S([2, 0, 0]))  # 2 is no unit over the integers
    with pytest.raises(DivisionError):
        div_exact(S([1]), S([0]))


@given(coeff_lists, coeff_lists)
def test_mul_commutes(a, b):
    x, y = S(a), S(b)
    assert x * y == y * x


@given(coeff_lists, coeff_lists, coeff_lists)
def test_mul_associates(a, b, c):
    x, y, z = S(a), S(b), S(c)
    assert (x * y) * z == x * (y * z)


@given(coeff_lists, coeff_lists, st.sampled_from([1, -1]), st.integers(0, 3))
def test_div_inverts_mul(a, b_tail, lead, val):
    b = S([0] * val + [lead] + b_tail)
    x = S(a, order=b.order)
    assert div_exact(x * b, b) == x


def test_substitute_power():
    assert substitute_power(S([1, 1]), 2).coeffs == (1, 0)
    assert substitute_power(S([1, 1]), 2, order=3).coeffs == (1, 0, 1, 0)
    assert substitute_power(S([], order=3), 5).coeffs == (0,) * 4
    # k = 1 truncates; k = 0 and an order below 0 are refused
    assert substitute_power(S([1, 2, 3]), 1, order=1).coeffs == (1, 2)
    assert substitute_power(S([1, 2, 3]), 1).coeffs == (1, 2, 3)
    with pytest.raises(ValueError):
        substitute_power(S([1, 1]), 0)
    with pytest.raises(ValueError):
        substitute_power(S([1, 1]), 1, order=2)
    with pytest.raises(ValueError):
        substitute_power(S([1, 1]), 2, order=100)
    for k in (1, 2, 3):
        with pytest.raises(ValueError):
            substitute_power(S([1, 1]), k, order=-1)


def test_derivative():
    assert derivative(S([1, 1, 1])).coeffs == (1, 2)
    with pytest.raises(ValueError):
        derivative(S([1]))


def test_log_derivative():
    h = log_derivative(stern_series(12), strip_valuation=True)
    assert h.coeffs[:4] == (1, 3, -2, 7)
    assert log_derivative(S([1], order=5)).coeffs == (0,) * 5
    with pytest.raises(DivisionError):
        log_derivative(S([2, 1]))
    with pytest.raises(DivisionError):
        log_derivative(S([0, 1]))  # needs strip_valuation
    with pytest.raises(DivisionError):
        log_derivative(S([0, 0]), strip_valuation=True)


def test_section_examples():
    s = stern_series(64)
    assert section(s, 0, 2) == stern_series(32)
    t = twisted_series(64)
    assert section(t, 0, 2) == -twisted_series(32)
    assert section(S([1, 2, 3, 4]), 1, 2).coeffs == (2, 4)
    with pytest.raises(ValueError):
        section(s, 2, 2)
    with pytest.raises(ValueError):
        section(s, -1, 2)


@given(coeff_lists, st.integers(min_value=2, max_value=4))
def test_section_interleave_identity(coeffs, k):
    a = S(coeffs)
    total = TruncatedSeries.zero(a.order)
    for r in range(min(k, a.order + 1)):
        part = section(a, r, k)
        total = total + substitute_power(part, k, a.order - r).shift(r).truncate(a.order)
    assert total == a


def _infinite_product_by_polynomials(coeffs, k, order):
    """The former route to infinite_product, kept as the oracle: each factor
    is P(z^step) formed in full, then cut to the order."""
    acc = TruncatedSeries.one(order)
    step = 1
    while step <= order:
        out = [0] * ((len(coeffs) - 1) * step + 1)
        out[::step] = coeffs
        acc = acc * S(out, order)
        step *= k
    return acc


@pytest.mark.parametrize("coeffs", [(1, 1, 1), (1, -1), (1, 2, 0, 3, 1)])
@pytest.mark.parametrize("k", [2, 3])
def test_infinite_product_matches_the_polynomial_substitution(coeffs, k):
    for order in [*range(301), 1023, 1024, 4096]:
        got = infinite_product(coeffs, k, order).coeffs
        assert got == _infinite_product_by_polynomials(coeffs, k, order).coeffs, order


@st.composite
def sparse_products(draw):
    """(cs, poly, step, n): cs of both signs up to 2^64 with zeros, a short
    poly with zero and non-unit coefficients, n from 0 to past
    len(cs) + degree*step, and step from 1 to n + 2."""
    cs = draw(st.lists(st.one_of(st.just(0), st.integers(-(1 << 64), 1 << 64)), max_size=24))
    poly = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5))
    n = draw(st.integers(0, len(cs) + 4 * len(poly) + 4))
    return cs, poly, draw(st.integers(1, n + 2)), n


def naive_mul(a, b, n):
    """Coefficients 0..n of a*b, by the double loop."""
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        for j, y in enumerate(b[: n + 1 - i]):
            out[i + j] += x * y
    return out


@settings(max_examples=400, deadline=None)
@given(sparse_products())
def test_times_sparse_matches_the_product_with_the_substituted_poly(args):
    cs, poly, step, n = args
    substituted = [0] * ((len(poly) - 1) * step + 1)
    substituted[::step] = poly
    got = _times_sparse(cs, poly, step, n)
    assert got == naive_mul(cs, substituted, n)
    assert len(got) == n + 1


@pytest.mark.parametrize("cs, poly, step, n, want", [
    ([5, -7], (1, 1, 1), 3, 0, [5]),  # n = 0
    ([5, -7], (2, 0, -1), 4, 3, [10, -14, 0, 0]),  # n < step: only the lowest term
    ([1, 2, 3], (1, 1), 2, 9, [1, 2, 4, 2, 3, 0, 0, 0, 0, 0]),  # n past the product
    ([1, 2, 3], (0, 1), 1, 3, [0, 1, 2, 3]),  # no constant term
    ([1, 2, 3], (1, -1, 1), 1, 4, [1, 1, 2, -1, 3]),  # a -1 between, as in psi's signed factors
    ([1, -2, 3], (-1, 1), 2, 4, [-1, 2, -2, -2, 3]),  # a -1 at j = 0
])
def test_times_sparse_at_the_edges(cs, poly, step, n, want):
    assert _times_sparse(cs, poly, step, n) == want


def _kernel_product(*factors):
    """The product of coefficient lists, left to right, through the product
    kernel."""
    acc = [1]
    for f in factors:
        acc = series._mul_coeffs(acc, f, len(acc) + len(f) - 2)
    return acc


def _kernel_power(cs, k):
    """cs to the k through the product kernel, by repeated squaring."""
    acc = [1]
    while k:
        if k & 1:
            acc = _kernel_product(acc, cs)
        k >>= 1
        if k:
            cs = _kernel_product(cs, cs)
    return acc


def _trinomial(sign, m):
    """1 + sign*z^m + z^(2m)."""
    return [1] + [0] * (m - 1) + [sign] + [0] * (m - 1) + [1]


def _z_times_binomial(e):
    """z(1 + z^(2^e))."""
    return [0, 1] + [0] * ((1 << e) - 1) + [1]


def _psi_factored_plain_by_kernel(e):
    """The former plain route to psi_e, kept as the oracle: each sparse
    factor goes through the product kernel, the long z(1+z^{2^e}) first."""
    trinomials = (_trinomial(1, 1 << i) for i in range(e))
    return tuple(_kernel_product(_z_times_binomial(e), *trinomials))


def _psi_factored_signed_by_kernel(e):
    """The former signed route to psi_e, kept as the oracle: each factor's
    power by repeated squaring through the product kernel, the smallest
    factors first and z(1+z^{2^e}) last."""
    acc = _kernel_power([1, 1, 1], e)
    for i in range(e - 1):
        acc = _kernel_product(acc, _kernel_power(_trinomial(-1, 1 << i), e - 1 - i))
    return tuple(_kernel_product(acc, _z_times_binomial(e)))


def test_psi_plain_route_matches_the_kernel_route():
    for e in range(15):
        assert psi_factored_plain(e).coeffs == _psi_factored_plain_by_kernel(e), e


def test_psi_signed_route_matches_the_kernel_route():
    for e in [*range(15), MAX_PSI_E]:
        assert psi_factored_signed(e).coeffs == _psi_factored_signed_by_kernel(e), e


def test_carlitz_series_is_the_stern_series():
    for order in [*range(4101), 1 << 18]:
        assert carlitz_series(order).coeffs == stern_series(order).coeffs, order


def _spy(monkeypatch, name, modules=(series,)):
    calls = []
    for module in modules:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real: calls.append(args) or real(*args))
    return calls


def test_sparse_routes_stay_off_the_product_kernel(monkeypatch):
    # both factored routes to psi and Carlitz's product multiply by slices
    # and never by the product kernel; the table window takes neither, so a
    # fault in the slices still shows as a disagreement with the window
    kernel = _spy(monkeypatch, "_mul_coeffs", (sequences, series))
    slices = _spy(monkeypatch, "_times_sparse")
    for build in (psi_factored_plain, psi_factored_signed, carlitz_series,
                  lambda n: infinite_product((1, 2, 0, 3, 1), 3, n)):
        slices.clear()
        build(9)
        assert slices
    slices.clear()
    psi_from_twisted(9)
    assert slices == [] and kernel == []


@pytest.mark.parametrize("e", [0, 3, 10])
def test_psi_catches_a_fault_in_the_slice_products(monkeypatch, e):
    # one wrong coefficient out of `_times_sparse` makes both factored
    # routes wrong, and the table window, which takes no slice product,
    # disagrees with them
    times_sparse = series._times_sparse

    def faulty(*args):
        out = times_sparse(*args)
        out[len(out) // 2] += 1
        return out

    monkeypatch.setattr(series, "_times_sparse", faulty)
    assert psi_factored_plain(e).coeffs != psi_from_twisted(e).coeffs
    assert psi_from_twisted(e).coeffs != psi_factored_signed(e).coeffs
    with pytest.raises(InternalCheckError):
        psi(e)


def test_infinite_product():
    prod = infinite_product((1, 1, 1), 2, 21)
    assert prod.coeffs == tuple(stern(n + 1) for n in range(22))
    signs = infinite_product([1, -1], 2, 16)
    assert signs.coeffs == tuple(
        (-1) ** bin(n).count("1") for n in range(17)
    )
    assert infinite_product((1,), 3, 9).coeffs == TruncatedSeries.one(9).coeffs
    # trailing zeros of the factor change nothing
    assert infinite_product((1, 1, 1, 0, 0), 2, 21).coeffs == prod.coeffs


def test_named_series():
    assert stern_series(5).coeffs == (0, 1, 1, 2, 1, 3)
    assert twisted_series(5).coeffs == (0, 1, -1, 0, 1, 1)
    assert stern_series(0).coeffs == (0,)
    assert carlitz_series(512) == stern_series(512)
    assert carlitz_series(0).coeffs == (0,)


def test_polynomials_in_z_are_series():
    p, q = S((1, 1, 1)), S((1, -1, 1))
    assert exact_product(p.coeffs, q.coeffs) == (1, 0, 1, 0, 1)
    assert (p - p).coeffs == (0, 0, 0)
    assert derivative(p).coeffs == (1, 2)
    assert substitute_power(p, 2, 4).coeffs == (1, 0, 1, 0, 1)
    assert str(S((0, 1, 1))) == "0 + 1*z + 1*z^2"


@pytest.mark.parametrize("k", range(18))
def test_powers_match_repeated_products_and_square_only_what_they_use(monkeypatch, k):
    # psi's signed route takes each power as k slice products at the exact
    # degree, so it forms no square and no coefficient past the power's own
    p = (1, -1, 2)
    want = (1,)
    for _ in range(k):
        want = exact_product(want, p)
    kernel, slices = _spy(monkeypatch, "_mul_coeffs"), _spy(monkeypatch, "_times_sparse")
    acc = [1]
    for _ in range(k):
        acc = series._times_sparse(acc, p, 1, len(acc) + 1)
    assert tuple(acc) == want and len(acc) == 2 * k + 1
    assert len(slices) == k and kernel == []


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=48),
       st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=48),
       st.integers(min_value=-3, max_value=3))
def test_w_polynomial_arithmetic_matches_the_coefficient_lists(a, b, c):
    # products against the series kernel; sums, negation and ints by hand
    wa, wb = WeightPolynomial(tuple(a)), WeightPolynomial(tuple(b))
    n = max(len(a), len(b))
    pa, pb = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    lc = [c] + [0] * (n - 1)
    for w, want in [(wa + wb, [x + y for x, y in zip(pa, pb)]),
                    (wa - wb, [x - y for x, y in zip(pa, pb)]),
                    (wa * wb, exact_product(a, b)), (-wa, [-x for x in a]),
                    (c + wa, [x + y for x, y in zip(lc, pa)]),
                    (c - wa, [x - y for x, y in zip(lc, pa)]), (c * wa, [c * x for x in a])]:
        assert type(w) is WeightPolynomial
        assert w.coeffs == WeightPolynomial(want).coeffs
    assert bool(wa) == any(a)


def test_constant_polynomials_hash_like_their_int():
    for c in (3, 0, -7, 1 << 70):
        assert WeightPolynomial((c,)) == c and hash(WeightPolynomial((c,))) == hash(c)
        assert len({c, WeightPolynomial((c,))}) == 1
        assert len({c, WeightPolynomial((c, 0, 0))}) == 1
    assert WeightPolynomial(()) == 0 and len({0, WeightPolynomial(())}) == 1
    assert {WeightPolynomial((1, 2)): "p"}[WeightPolynomial((1, 2, 0))] == "p"


@given(st.integers(min_value=1, max_value=64))
def test_trinomial_telescoping(a):
    plus = (1,) + (0,) * (a - 1) + (1,) + (0,) * (a - 1) + (1,)
    minus = (1,) + (0,) * (a - 1) + (-1,) + (0,) * (a - 1) + (1,)
    doubled = (1,) + (0,) * (2 * a - 1) + (1,) + (0,) * (2 * a - 1) + (1,)
    assert exact_product(plus, minus) == doubled


def test_psi_small_and_routes():
    assert psi(0).coeffs == (0, 1, 1)
    assert psi(1).coeffs == (0, 1, 1, 2, 1, 1)
    assert psi(2).coeffs == (0, 1, 1, 2, 1, 3, 2, 3, 1, 2, 1, 1)
    for e in range(8):
        assert (psi_from_twisted(e).coeffs == psi_factored_plain(e).coeffs
                == psi_factored_signed(e).coeffs)


@pytest.mark.parametrize("route", ["psi_from_twisted", "psi_factored_plain",
                                   "psi_factored_signed"])
@pytest.mark.parametrize("change", [lambda cs: cs[:-1], lambda cs: cs + (0,)],
                         ids=["last_dropped", "zero_appended"])
def test_psi_routes_must_agree_in_length(monkeypatch, route, change):
    # both changes pass a prefix comparison, so psi must compare whole tuples
    real = getattr(series, route)
    monkeypatch.setattr(series, route, lambda e: TruncatedSeries(change(real(e).coeffs)))
    assert getattr(series, route)(3) == real(3)
    with pytest.raises(InternalCheckError):
        psi(3)


def test_psi_routes_agree_at_the_largest_e():
    p = psi(MAX_PSI_E)
    assert p.order == (3 << MAX_PSI_E) - 1
    assert p.coeffs[: (1 << MAX_PSI_E) + 1] == stern_series(1 << MAX_PSI_E).coeffs


def test_psi_palindrome_window():
    # psi's order is its degree, 3*2^e - 1: the window's last entry,
    # t(6*2^e) = 0, is not a coefficient
    for e in range(8):
        m = 3 << e
        p = psi(e)
        window = list(p.coeffs) + [0] * (m + 1 - len(p.coeffs))
        assert window == window[::-1]
        assert window[0] == 0
        assert p.order == m - 1


def test_psi_doubling_recursion():
    # z * psi(e+1) equals (1 + z + z^2) * psi(e)(z^2)
    for e in range(10):
        lhs = psi(e + 1).shift(1)
        rhs = S((1, 1, 1), 6 << e) * substitute_power(S(psi(e).coeffs, 3 << e), 2, 6 << e)
        assert lhs.coeffs == rhs.coeffs


def test_psi_prefix_is_stern():
    for e in range(11):
        p = psi(e)
        for n in range(2**e + 1):
            assert p.coeffs[n] == stern(n)


def test_twisted_expansion():
    assert twisted_series_expansion(2).coeffs == (0, 1, -1)
    assert twisted_series_expansion(12) == twisted_series(12)
    assert twisted_series_expansion(1024) == twisted_series(1024)


def test_rendering_and_json():
    s = stern_series(5)
    assert s.to_text() == "0 + 1*z + 1*z^2 + 2*z^3 + 1*z^4 + 3*z^5"
    assert s.to_json_coeffs() == ["0", "1", "1", "2", "1", "3"]
    parsed = json.loads(json.dumps(s.to_json_coeffs()))
    assert [int(c) for c in parsed] == list(s.coeffs)


#: "<argv> -> first 16 hex digits of the sha256 of its stdout", recorded
#: while psi still returned a polynomial class of its own; every run exits 0 and
#: writes nothing to stderr.
PSI_CARLITZ_DIGESTS = {
    "series --name psi --e 0 --format text": "248a158f8b7b8cea",
    "series --name psi --e 0 --format json": "a04789599eb7d671",
    "series --name psi --e 1 --format text": "13bce0acab9b8365",
    "series --name psi --e 1 --format json": "2dfe703bfca92568",
    "series --name psi --e 2 --format text": "6db96360386e18f7",
    "series --name psi --e 2 --format json": "7327e5f30463404b",
    "series --name psi --e 3 --format text": "dad131b9145eb939",
    "series --name psi --e 3 --format json": "ddb713dbe01a25ad",
    "series --name psi --e 4 --format text": "66ff4b118157df3d",
    "series --name psi --e 4 --format json": "fc4d2ff2084fd3de",
    "series --name psi --e 5 --format text": "7dd8ec13c09fdf7b",
    "series --name psi --e 5 --format json": "b268d8cbba144180",
    "series --name psi --e 6 --format text": "63009b0efccb73c7",
    "series --name psi --e 6 --format json": "1b17975162b39b2b",
    "series --name psi --e 7 --format text": "81b20ba6ff34d8d2",
    "series --name psi --e 7 --format json": "50f719094802714b",
    "series --name psi --e 8 --format text": "c5aae8b5a324e969",
    "series --name psi --e 8 --format json": "5fa4b4471566ba10",
    "series --name psi --e 9 --format text": "4ef1ce403ecef4ff",
    "series --name psi --e 9 --format json": "f749be3ccd40ab4c",
    "series --name psi --e 10 --format text": "ca9fd34c4b4b9380",
    "series --name psi --e 10 --format json": "f77261b78ecfd59c",
    "series --name psi --e 11 --format text": "c8a5ac083e0efb4c",
    "series --name psi --e 11 --format json": "ef51facb65b0f19b",
    "series --name psi --e 12 --format text": "0fae1a62b0c9621b",
    "series --name psi --e 12 --format json": "c0f4664c40545011",
    "series --name psi --e 18 --format text": "0f49d3e91cd7e910",
    "series --name psi --e 18 --format json": "4298e7463ca3d151",
    "series --name carlitz --order 0 --format text": "9a271f2a916b0b6e",
    "series --name carlitz --order 0 --format json": "a34b66c7a69f87c9",
    "series --name carlitz --order 1 --format text": "4efe00fd40db724f",
    "series --name carlitz --order 1 --format json": "9c537daf10a81640",
    "series --name carlitz --order 2 --format text": "248a158f8b7b8cea",
    "series --name carlitz --order 2 --format json": "d1b0b83ca79f317e",
    "series --name carlitz --order 15 --format text": "523b9445dc1558c9",
    "series --name carlitz --order 15 --format json": "b5f49f3e25b08ffd",
    "series --name carlitz --order 16 --format text": "9e1ed7f201e98266",
    "series --name carlitz --order 16 --format json": "73268e054d1ac485",
    "series --name carlitz --order 1024 --format text": "4400afcac0dedd76",
    "series --name carlitz --order 1024 --format json": "35d34961c0db9a8c",
    "series --name carlitz --order 4100 --format text": "977bc58485f4723c",
    "series --name carlitz --order 4100 --format json": "3f5ce7517e81e79d",
    "series --name carlitz --order 262144 --format text": "dfb34c4a48b42331",
    "series --name carlitz --order 262144 --format json": "ca23d2e953542148",
}


@pytest.mark.parametrize("argv", sorted(PSI_CARLITZ_DIGESTS))
def test_psi_and_carlitz_stdout_is_pinned(capsys, argv):
    code = run(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest()[:16] == PSI_CARLITZ_DIGESTS[argv]
