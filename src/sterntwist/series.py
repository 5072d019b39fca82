"""Truncated formal power series with integer coefficients, dense integer
polynomials in z, and the explicit product factorisations built from them.

A series value always carries its truncation order; arithmetic truncates to
the smallest order involved and equality only ever compares the common
prefix, so a result can never silently claim more precision than it has.
"""
from __future__ import annotations

import struct
from itertools import accumulate, repeat
from operator import add, index, itemgetter, mul, neg, sub

from .sequences import (
    MAX_TABLE,
    Frozen,
    IntPolynomial,
    Kind,
    _times_sparse,
    prefix,
    render_coeffs,
)


class DivisionError(ArithmeticError):
    """Exact series division impossible over the integers."""


class InternalCheckError(RuntimeError):
    """Two supposedly equivalent computation routes disagreed."""


# ---------------------------------------------------------------------------
# Coefficient kernel.
#
# Integer products go through Kronecker substitution: both operands are packed
# into one big number each, multiplied once, and the product is read back slot
# by slot.  The slots are bytes of a CPython int, which multiplies by
# Karatsuba, O(n^1.58).  Division by a dense series with a +-1 lead to n+1
# coefficients is recursive Karp-Markstein: the inverse to h = ceil((n+1)/2)
# coefficients is the quotient of 1 by the denominator one level down, and the
# upper half of the quotient comes from the remainder the lower half leaves.
# Each level makes two dense products with a half-length operand, on the
# precisions ceil((n+1)/2^i); the whole is O(M(n)).  When one operand (or the
# denominator's tail) has at most SPARSE_TERMS nonzero coefficients, products
# take `sequences._times_sparse`, every sparse factor's one slice product, and
# division the term recurrence.  The Stern series needs no product:
# `div_stern` divides by it through Carlitz's product form (each 1 - z^L by
# `_over_one_minus`), and `mul_stern` multiplies by it through its Mahler
# equation.  So no command reaches this kernel or `div_exact`; they serve the
# library's `TruncatedSeries.__mul__`, `DensePolynomial.__mul__`, `div_exact`,
# `log_derivative` and `p_product_logderiv`.
# ---------------------------------------------------------------------------

#: Largest nonzero-term count of the sparser operand (or of a denominator's
#: tail) that takes the sparse routes.  Against `_kron_mul` and a dense
#: operand, `_times_sparse` breaks even at 16-32 terms at orders 1024-4096
#: with 8-bit coefficients, at about 48 with 64-bit ones (CPython 3.11.7);
#: sparse division stays ahead of the dense route well past that.
SPARSE_TERMS = 32


def _kron_mul(a, b, n: int) -> list[int]:
    """Coefficients 0..n of a*b for integer sequences, by Kronecker
    substitution.

    Each slot holds a product coefficient plus half its range, so every slot
    reads back as a nonnegative field without borrows.  The slot width covers
    the largest possible coefficient: both operands' bit lengths, plus
    log2 of the shorter length, plus a sign bit.
    """
    bits = (
        max(map(abs, a)).bit_length()
        + max(map(abs, b)).bit_length()
        + min(len(a), len(b)).bit_length()
        + 1
    )
    width = (bits + 7) // 8
    half = 1 << (8 * width - 1)
    half_bytes = half.to_bytes(width, "little")

    def pack(cs) -> int:
        biased = b"".join((c + half).to_bytes(width, "little") for c in cs)
        return int.from_bytes(biased, "little") - int.from_bytes(half_bytes * len(cs), "little")

    total = width * (n + 1)
    product = pack(a) * pack(b) + int.from_bytes(half_bytes * (n + 1), "little")
    data = (product & ((1 << (8 * total)) - 1)).to_bytes(total, "little")
    slots = map(itemgetter(0), struct.iter_unpack(f"{width}s", data))
    return list(map(sub, map(int.from_bytes, slots, repeat("little")), repeat(half)))


def _mul_coeffs(a, b, n: int) -> list[int]:
    """Coefficients 0..n of a*b: Kronecker over CPython ints when both
    operands have more than SPARSE_TERMS nonzero coefficients, otherwise
    one slice update per nonzero term of the sparser (`_times_sparse`)."""
    a = a[: n + 1]
    b = b[: n + 1]
    na = len(a) - a.count(0)
    nb = len(b) - b.count(0)
    if na > nb:
        a, b, na = b, a, nb
    if na > SPARSE_TERMS:
        return _kron_mul(a, b, n)
    return _times_sparse(b, a, 1, n)


def _quotient(m, d, n: int) -> list[int]:
    """Coefficients 0..n of m/d for integer sequences m and d with
    d[0] = +-1, by recursive Karp-Markstein: g = 1/d to h = ceil((n+1)/2)
    coefficients is itself the quotient of 1 by d, one level down.

        q0 = m*g mod z^h,  r = (m - d*q0)[h..n],  q = q0 + z^h * (g*r mod z^(n+1-h))

    d*q0 agrees with m below z^h, so r is the remainder the low half leaves,
    and n+1-h <= h coefficients of g divide it.  The levels run on the
    precisions ceil((n+1)/2^i) down to n = 0, where q = m[0]*d[0].
    """
    if n == 0:
        return [m[0] * d[0]]
    h = (n + 2) // 2
    g = _quotient([1] + [0] * (h - 1), d, h - 1)
    q = _mul_coeffs(m, g, h - 1)
    dq = _mul_coeffs(d, q, n)
    r = list(map(sub, m[h : n + 1], dq[h:]))
    q += _mul_coeffs(g, r, n - h)
    return q


def _padded(cs: tuple, order: int) -> tuple:
    """cs cut, or padded with zeros, to order + 1 coefficients."""
    if order < 0:
        raise ValueError("order must be a natural number")
    return cs[: order + 1] + (0,) * (order + 1 - len(cs))


class TruncatedSeries(Frozen):
    """Integer coefficients 0..order of a formal power series; coefficients
    beyond `order` are unknown and never invented.  The constructor trusts
    its tuple; `from_coeffs` checks that every coefficient is an integer."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_coeffs(cls, coeffs, order: int | None = None):
        """The series of `coeffs`, which must be integers; a given order
        cuts them or pads them with zeros."""
        cs = tuple(map(index, coeffs))
        if order is not None:
            cs = _padded(cs, order)
        if not cs:
            raise ValueError("a series carries at least its constant coefficient")
        return cls(cs)

    @classmethod
    def zero(cls, order: int):
        return cls.from_coeffs((), order)

    @classmethod
    def one(cls, order: int):
        return cls.from_coeffs((1,), order)

    @classmethod
    def constant(cls, value, order: int):
        return cls.from_coeffs((value,), order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int):
        if n < 0 or n > self.order:
            raise ValueError(f"coefficient {n} is beyond truncation order {self.order}")
        return self.coeffs[n]

    def valuation(self) -> int | None:
        """Index of the lowest nonzero stored coefficient, None if all zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def truncate(self, order: int) -> "TruncatedSeries":
        if order < 0:
            raise ValueError("order must be a natural number")
        if order > self.order:
            raise ValueError("cannot raise a truncation order")
        return TruncatedSeries(self.coeffs[: order + 1])

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by z^k; all shifted coefficients stay known, so the
        order grows by k."""
        if k < 0:
            raise ValueError("shift exponent must be a natural number")
        return TruncatedSeries((0,) * k + self.coeffs)

    def _binop_check(self, other) -> int:
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries operand")
        return min(self.order, other.order)

    def __add__(self, other):
        self._binop_check(other)
        return TruncatedSeries(tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._binop_check(other)
        return TruncatedSeries(tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self):
        return TruncatedSeries(tuple(map(neg, self.coeffs)))

    def scale(self, c) -> "TruncatedSeries":
        return TruncatedSeries(tuple(map(mul, self.coeffs, repeat(index(c)))))

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        n = self._binop_check(other)
        return TruncatedSeries(tuple(_mul_coeffs(self.coeffs, other.coeffs, n)))

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(len(self.coeffs), len(other.coeffs))
        return self.coeffs[:n] == other.coeffs[:n]

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"TruncatedSeries(coeffs={self.coeffs!r})"

    def to_text(self) -> str:
        return render_coeffs(self.coeffs, "z")

    def to_json_coeffs(self) -> list[str]:
        return [str(c) for c in self.coeffs]


def div_exact(num: TruncatedSeries, den: TruncatedSeries) -> TruncatedSeries:
    """Exact quotient q with q*den = num up to order min(orders) - val(den).

    The lowest nonzero denominator coefficient must be +-1: a quotient
    needing non-integer coefficients is an error.  A dense denominator is
    divided into by recursive Karp-Markstein (`_quotient`); otherwise the
    quotient comes from the term-by-term recurrence.
    """
    v = den.valuation()
    if v is None:
        raise DivisionError("division by the zero series")
    if any(num.coeffs[i] for i in range(min(v, num.order + 1))):
        raise DivisionError("numerator valuation is below denominator valuation")
    lead = den.coeffs[v]
    if lead not in (1, -1):
        raise DivisionError(
            f"denominator leading coefficient {lead!r} is not a unit of the integer ring"
        )
    n_out = min(num.order, den.order) - v
    if n_out < 0:
        raise DivisionError("operand orders are too small for the quotient")
    m = num.coeffs[v:]
    d = den.coeffs[v:]
    den_terms = [(j, d[j]) for j in range(1, n_out + 1) if d[j]]
    if len(den_terms) > SPARSE_TERMS:
        return TruncatedSeries(tuple(_quotient(m, d, n_out)))
    q = []
    for n in range(n_out + 1):
        acc = m[n]
        for j, dj in den_terms:
            if j > n:
                break
            acc = acc - q[n - j] * dj
        q.append(acc * lead)  # lead is +-1, its own inverse
    return TruncatedSeries(tuple(q))


def _over_one_minus(q: list, step: int) -> None:
    """Divide q, coefficients 0..n, by 1 - z^step in place: one `accumulate`
    per residue class while step^2 <= n, else one addition of each
    length-step block to the next, whichever takes fewer slices."""
    n = len(q) - 1
    if step * step <= n:
        for r in range(step):
            q[r::step] = accumulate(q[r::step])
    else:
        for j in range(step, n + 1, step):
            q[j : j + step] = map(add, q[j : j + step], q[j - step : j])


def div_stern(num: TruncatedSeries) -> TruncatedSeries:
    """div_exact(num, stern_series(num.order + 1)), errors included, through
    Carlitz's product: the Stern series is z times the product over m = 2^k
    of 1 + z^m + z^(2m) = (1 - z^(3m))/(1 - z^m).  Dividing by a factor with
    m <= n is one strided subtraction (times 1 - z^m), then running sums
    with stride 3m (`_over_one_minus`).  O(n log n) slice work, no product.
    """
    if num.coeffs[0]:
        raise DivisionError("numerator valuation is below denominator valuation")
    n = num.order - 1
    if n < 0:
        raise DivisionError("operand orders are too small for the quotient")
    q = list(num.coeffs[1:])
    for k in range(n.bit_length()):
        m = 1 << k
        q[m:] = map(sub, q[m:], q[: n + 1 - m])
        _over_one_minus(q, 3 * m)
    return TruncatedSeries(tuple(q))


#: s(0..15), the Stern series that `mul_stern` multiplies by below order 16.
_STERN_HEAD = (0, 1, 1, 2, 1, 3, 2, 3, 1, 4, 3, 5, 2, 5, 3, 4)


def _times_stern(cs, n: int) -> list[int]:
    """Coefficients 0..n of cs*S, S the Stern series.  Since s(0) = 0, the
    product's coefficient k reads cs only below k, so a short cs is read as
    padded with zeros."""
    if n < len(_STERN_HEAD):
        out = [0] * (n + 1)
        for i, c in enumerate(cs[:n]):
            if c:
                for k in range(i + 1, n + 1):
                    out[k] += c * _STERN_HEAD[k - i]
        return out
    even = _times_stern(cs[0::2], (n + 1) // 2)  # T[2j]
    odd = _times_stern(cs[1::2], n // 2)  # T[2j+1]
    pair = list(map(add, even, odd))  # T[2j] + T[2j+1]
    out = [0] * (n + 1)
    out[0::2] = map(add, pair, [0] + odd)  # + T[2j-1]
    out[1::2] = map(add, pair, even[1:])  # + T[2j+2]
    return out


def mul_stern(q: TruncatedSeries) -> TruncatedSeries:
    """q * stern_series(q.order), through the Mahler equation
    S(z) = (z^-1 + 1 + z) S(z^2), which s(0) = 0, s(2n) = s(n) and
    s(2n+1) = s(n) + s(n+1) give.  With q = q_e(z^2) + z q_o(z^2),
    q S = (z^-1 + 1 + z) T for T = (q_e S)(z^2) + z (q_o S)(z^2): two
    half-order products give T's even and odd coefficients, and
    coefficient k of q S is T[k-1] + T[k] + T[k+1], three slice sums that
    share the pairs T[2j] + T[2j+1].  Below order 16 the product is a
    schoolbook loop over `_STERN_HEAD`.  O(n log n) slice work; no product
    kernel, no table read."""
    return TruncatedSeries(tuple(_times_stern(q.coeffs, q.order)))


def substitute_power(a: TruncatedSeries, k: int, order: int | None = None) -> TruncatedSeries:
    """a(z^k).  Coefficient k*i holds a's coefficient i, everything else is
    zero; the result is known through k*order(a) + k - 1.  With k = 1 it is
    a truncated to `order`."""
    if k < 1:
        raise ValueError("substitution exponent must be positive")
    known = a.order * k + k - 1
    if order is None:
        order = a.order
    if order < 0:
        raise ValueError("order must be a natural number")
    if order > known:
        raise ValueError(f"a(z^{k}) is only determined to order {known}")
    out = [0] * (order + 1)
    cs = a.coeffs[: order // k + 1]
    out[: len(cs) * k : k] = cs
    return TruncatedSeries(tuple(out))


def derivative(a: TruncatedSeries) -> TruncatedSeries:
    """Termwise derivative; the order drops by one."""
    if a.order < 1:
        raise ValueError("derivative needs order at least 1")
    return TruncatedSeries(tuple(map(mul, range(1, a.order + 1), a.coeffs[1:])))


def log_derivative(a: TruncatedSeries, strip_valuation: bool = False) -> TruncatedSeries:
    """a'/a, requiring a constant coefficient of +-1.

    With strip_valuation, a = z^v * u is accepted and the result is u'/u;
    the caller accounts for the missing v/z term itself.
    """
    u = a
    if strip_valuation:
        v = a.valuation()
        if v is None:
            raise DivisionError("logarithmic derivative of the zero series")
        if v:
            u = TruncatedSeries(a.coeffs[v:])
    if u.coeffs[0] not in (1, -1):
        raise DivisionError(
            f"constant coefficient {u.coeffs[0]!r} is not a unit of the integer ring"
        )
    return div_exact(derivative(u), u)


def section(a: TruncatedSeries, r: int, k: int) -> TruncatedSeries:
    """Coefficient subsequence n -> a(r + n*k)."""
    if k < 2:
        raise ValueError("section base must be at least 2")
    if not 0 <= r < k:
        raise ValueError(f"section index must satisfy 0 <= r < {k}")
    if a.order < r:
        raise ValueError("order too small for this section")
    return TruncatedSeries(a.coeffs[r::k])


# ---------------------------------------------------------------------------
# Dense integer polynomials in z.
# ---------------------------------------------------------------------------


class DensePolynomial(IntPolynomial):
    """Dense integer polynomial in z; products go through the series kernel."""

    __slots__ = ()
    var = "z"

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        return DensePolynomial._of_ints(tuple(_mul_coeffs(a, b, len(a) + len(b) - 2)))

    __rmul__ = __mul__

    def to_series(self, order: int) -> TruncatedSeries:
        return TruncatedSeries(_padded(self.coeffs, order))


def infinite_product(poly: DensePolynomial, k: int, order: int) -> TruncatedSeries:
    """Product of poly(z^{k^m}) over all m with k^m <= order, truncated at
    `order`; later factors are 1 modulo z^{order+1}."""
    if k < 2:
        raise ValueError("product base must be at least 2")
    if poly.coeffs[0] != 1:
        raise ValueError("infinite products need a polynomial with P(0) = 1")
    acc, step = [1], 1
    while step <= order:
        acc = _times_sparse(acc, poly.coeffs, step, min(order, len(acc) - 1 + step * poly.degree))
        step *= k
    return TruncatedSeries(_padded(tuple(acc), order))


def window_series(kind: Kind, start: int, stop: int) -> TruncatedSeries:
    """The series whose coefficients are value(start), ..., value(stop - 1)
    of one recursion, read off its prefix table."""
    if stop <= start:
        raise ValueError("a series carries at least its constant coefficient")
    return TruncatedSeries(tuple(prefix(kind, stop)[start:stop]))


def stern_series(order: int) -> TruncatedSeries:
    return window_series(Kind.STERN, 0, order + 1)


def twisted_series(order: int) -> TruncatedSeries:
    return window_series(Kind.TWISTED, 0, order + 1)


def carlitz_series(order: int) -> TruncatedSeries:
    """z times the base-2 infinite product of 1 + z + z^2; coefficient n is
    the Stern value s(n)."""
    if order == 0:
        return TruncatedSeries.zero(0)
    return infinite_product(DensePolynomial((1, 1, 1)), 2, order - 1).shift(1)


#: Largest e that psi takes: its window reads the first 6*2^e + 1 entries
#: of t, and the tables hold at most MAX_TABLE.
MAX_PSI_E = ((MAX_TABLE - 1) // 6).bit_length() - 1


def psi_from_twisted(e: int) -> DensePolynomial:
    """The sign-corrected window of twisted values over [3*2^e, 6*2^e],
    read as a polynomial; an e past MAX_PSI_E raises ValueError before the
    table grows."""
    if e < 0:
        raise ValueError("e must be a natural number")
    if e > MAX_PSI_E:
        raise ValueError(f"e must be at most {MAX_PSI_E} (psi_e reads t up to "
                         f"6*2^e; tables are capped at {MAX_TABLE} entries)")
    m = 3 << e
    window = window_series(Kind.TWISTED, m, 2 * m + 1)
    return DensePolynomial((-window if e % 2 else window).coeffs)


def psi_factored_plain(e: int) -> DensePolynomial:
    """z(1+z^{2^e}) times the product of 1+z^{2^i}+z^{2^{i+1}} for i < e."""
    if e < 0:
        raise ValueError("e must be a natural number")
    acc = [1]
    for i in range(e):
        acc = _times_sparse(acc, (1, 1, 1), 1 << i, len(acc) - 1 + (2 << i))
    acc = _times_sparse([0] + acc, (1, 1), 1 << e, len(acc) + (1 << e))
    return DensePolynomial._of_ints(tuple(acc))


def psi_factored_signed(e: int) -> DensePolynomial:
    """z(1+z^{2^e})(1+z+z^2)^e times the product over i <= e-2 of
    (1-z^{2^i}+z^{2^{i+1}})^{e-1-i}.  Every factor is one `_times_sparse`
    at its exact degree: 1+z+z^2 e times, then each 1-z^m+z^{2m} for
    m = 2^i with i rising, and z(1+z^{2^e}) last."""
    if e < 0:
        raise ValueError("e must be a natural number")
    factors = [((1, 1, 1), 1)] * e
    factors += [((1, -1, 1), 1 << i) for i in range(e - 1) for _ in range(e - 1 - i)]
    acc = [1]
    for poly, step in factors:
        acc = _times_sparse(acc, poly, step, len(acc) - 1 + 2 * step)
    acc = _times_sparse([0] + acc, (1, 1), 1 << e, len(acc) + (1 << e))
    return DensePolynomial._of_ints(tuple(acc))


def psi(e: int) -> DensePolynomial:
    """The palindromic window polynomial, computed three independent ways;
    disagreement is a hard error."""
    a = psi_from_twisted(e)
    b = psi_factored_plain(e)
    c = psi_factored_signed(e)
    if not (a == b == c):
        raise InternalCheckError(f"the three routes to psi({e}) disagree")
    return a


def twisted_series_expansion(order: int) -> TruncatedSeries:
    """Closed expansion of the twisted series: z - z^2 plus the alternating
    sum of (-1)^e z^{3*2^e} psi_e(z), with psi_e from its plain product
    factorisation.  Must match twisted_series."""
    out = [0] * (order + 1)
    out[1:3] = (1, -1)[:order]
    e = 0
    while 3 * 2**e + 1 <= order:
        shift = 3 * 2**e
        part = psi_factored_plain(e).coeffs[: order - shift + 1]
        span = slice(shift, shift + len(part))
        out[span] = map(sub if e % 2 else add, out[span], part)
        e += 1
    return TruncatedSeries(tuple(out))
