import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sterntwist.sequences as sequences
import sterntwist.series as series
from sterntwist.ratwords import LinearRepresentation
from sterntwist.regularity import AffineSystem, exact_rank
from sterntwist.sequences import W, WeightPolynomial, _times_sparse, stern, twisted
from sterntwist.series import (
    MAX_PSI_E,
    DensePolynomial,
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
    lambda x: DensePolynomial((1, x)),
    lambda x: WeightPolynomial((1, x)),
    lambda x: infinite_product(DensePolynomial((1, x)), 2, 4),
], ids=["from_coeffs", "scale", "form", "constant", "exact_rank", "rep", "weighted_rep",
        "dense_poly", "weight_poly", "infinite_product"])
def test_non_integers_are_type_errors(build, bad):
    # every coefficient is an integer; nothing is silently truncated or rationalised
    with pytest.raises(TypeError):
        build(bad)


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


def _infinite_product_by_polynomials(poly, k, order):
    """The former route to infinite_product, kept as the oracle: each factor
    is poly(z^step) formed as a polynomial, then cut to the order."""
    acc = TruncatedSeries.one(order)
    step = 1
    while step <= order:
        out = [0] * (poly.degree * step + 1)
        out[::step] = poly.coeffs
        acc = acc * DensePolynomial(out).to_series(order)
        step *= k
    return acc


@pytest.mark.parametrize("coeffs", [(1, 1, 1), (1, -1), (1, 2, 0, 3, 1)])
@pytest.mark.parametrize("k", [2, 3])
def test_infinite_product_matches_the_polynomial_substitution(coeffs, k):
    poly = DensePolynomial(coeffs)
    for order in [*range(301), 1023, 1024, 4096]:
        got = infinite_product(poly, k, order).coeffs
        assert got == _infinite_product_by_polynomials(poly, k, order).coeffs, order


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
                  lambda n: infinite_product(DensePolynomial((1, 2, 0, 3, 1)), 3, n)):
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
    assert psi_factored_plain(e) != psi_from_twisted(e) != psi_factored_signed(e)
    with pytest.raises(InternalCheckError):
        psi(e)


def test_infinite_product():
    prod = infinite_product(DensePolynomial((1, 1, 1)), 2, 21)
    assert prod.coeffs == tuple(stern(n + 1) for n in range(22))
    signs = infinite_product(DensePolynomial((1, -1)), 2, 16)
    assert signs.coeffs == tuple(
        (-1) ** bin(n).count("1") for n in range(17)
    )
    assert infinite_product(DensePolynomial((1,)), 3, 9) == TruncatedSeries.one(9)
    with pytest.raises(ValueError):
        infinite_product(DensePolynomial((2, 1)), 2, 9)


def test_named_series():
    assert stern_series(5).coeffs == (0, 1, 1, 2, 1, 3)
    assert twisted_series(5).coeffs == (0, 1, -1, 0, 1, 1)
    assert stern_series(0).coeffs == (0,)
    assert carlitz_series(512) == stern_series(512)
    assert carlitz_series(0).coeffs == (0,)


def test_dense_polynomial():
    p = DensePolynomial((1, 1, 1))
    q = DensePolynomial((1, -1, 1))
    assert (p * q).coeffs == (1, 0, 1, 0, 1)
    assert (p - p).coeffs == (0,)
    assert DensePolynomial((1, 0, 0)).coeffs == (1,)
    assert derivative(p.to_series(2)).coeffs == (1, 2)
    assert substitute_power(p.to_series(2), 2, 4).coeffs == (1, 0, 1, 0, 1)
    assert str(DensePolynomial((0, 1, 1))) == "0 + 1*z + 1*z^2"


@pytest.mark.parametrize("k", range(18))
def test_powers_match_repeated_products_and_square_only_what_they_use(monkeypatch, k):
    # psi's signed route takes each power as k slice products at the exact
    # degree, so it forms no square and no coefficient past the power's own
    p = DensePolynomial((1, -1, 2))
    want = DensePolynomial((1,))
    for _ in range(k):
        want = want * p
    kernel, slices = _spy(monkeypatch, "_mul_coeffs"), _spy(monkeypatch, "_times_sparse")
    acc = [1]
    for _ in range(k):
        acc = series._times_sparse(acc, p.coeffs, 1, len(acc) + 1)
    assert tuple(acc) == want.coeffs and len(acc) == 2 * k + 1
    assert len(slices) == k and kernel == []


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=48),
       st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=48),
       st.integers(min_value=-3, max_value=3))
def test_w_and_z_polynomials_share_one_arithmetic(a, b, c):
    # z-products go through the series kernel, w-products through the
    # slice product; every other operation is the same code
    za, zb = DensePolynomial(tuple(a)), DensePolynomial(tuple(b))
    wa, wb = WeightPolynomial(tuple(a)), WeightPolynomial(tuple(b))
    for z, w in [(za + zb, wa + wb), (za - zb, wa - wb), (za * zb, wa * wb), (-za, -wa),
                 (c + za, c + wa), (c - za, c - wa), (c * za, c * wa)]:
        assert type(z) is DensePolynomial and type(w) is WeightPolynomial
        assert z.coeffs == w.coeffs
    assert bool(za) == bool(wa) == any(a)
    assert str(za).replace("z", "w") == str(wa)


def test_w_and_z_polynomials_never_mix():
    z, w = DensePolynomial((1, 2)), WeightPolynomial((1, 2))
    assert z != w and w != z
    assert z == DensePolynomial((1, 2, 0)) and hash(z) == hash(DensePolynomial((1, 2, 0)))
    assert DensePolynomial((3,)) == 3 and WeightPolynomial((3,)) == 3
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(TypeError):
            op(z, w)
        with pytest.raises(TypeError):
            op(w, z)
    assert str(z) == "1 + 2*z" and str(w) == "1 + 2*w"
    assert repr(z) == "DensePolynomial(coeffs=(1, 2))"


@pytest.mark.parametrize("cls", [WeightPolynomial, DensePolynomial])
def test_constant_polynomials_hash_like_their_int(cls):
    for c in (3, 0, -7, 1 << 70):
        assert cls((c,)) == c and hash(cls((c,))) == hash(c)
        assert len({c, cls((c,))}) == 1
        assert len({c, cls((c, 0, 0))}) == 1
    assert len({3, WeightPolynomial((3,)), DensePolynomial((3,))}) == 1
    assert cls(()) == 0 and len({0, cls(())}) == 1
    assert {cls((1, 2)): "p"}[cls((1, 2, 0))] == "p"


@given(st.integers(min_value=1, max_value=64))
def test_trinomial_telescoping(a):
    plus = DensePolynomial((1,) + (0,) * (a - 1) + (1,) + (0,) * (a - 1) + (1,))
    minus = DensePolynomial((1,) + (0,) * (a - 1) + (-1,) + (0,) * (a - 1) + (1,))
    doubled = DensePolynomial(
        (1,) + (0,) * (2 * a - 1) + (1,) + (0,) * (2 * a - 1) + (1,)
    )
    assert plus * minus == doubled


def test_psi_small_and_routes():
    assert psi(0).coeffs == (0, 1, 1)
    assert psi(1).coeffs == (0, 1, 1, 2, 1, 1)
    assert psi(2).coeffs == (0, 1, 1, 2, 1, 3, 2, 3, 1, 2, 1, 1)
    for e in range(8):
        assert psi_from_twisted(e) == psi_factored_plain(e) == psi_factored_signed(e)


def test_psi_routes_agree_at_the_largest_e():
    p = psi(MAX_PSI_E)
    assert p.degree == (3 << MAX_PSI_E) - 1
    assert p.coeffs[: (1 << MAX_PSI_E) + 1] == stern_series(1 << MAX_PSI_E).coeffs


def test_psi_palindrome_window():
    for e in range(8):
        m = 3 << e
        p = psi(e)
        window = list(p.coeffs) + [0] * (m + 1 - len(p.coeffs))
        assert window == window[::-1]
        assert window[0] == 0
        assert p.degree == m - 1


def test_psi_doubling_recursion():
    # z * psi(e+1) equals (1 + z + z^2) * psi(e)(z^2)
    for e in range(10):
        lhs = psi(e + 1).to_series((6 << e) - 1).shift(1)
        rhs = DensePolynomial((1, 1, 1)).to_series(6 << e) * substitute_power(
            psi(e).to_series(3 << e), 2, 6 << e)
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
