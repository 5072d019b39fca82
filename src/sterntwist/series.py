"""Truncated formal power series over exact coefficient rings, dense integer
polynomials in z, and the explicit product factorisations built from them.

A series value always carries its truncation order; arithmetic truncates to
the smallest order involved and equality only ever compares the common
prefix, so a result can never silently claim more precision than it has.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .sequences import (
    ONE_W,
    ZERO_W,
    IntPolynomial,
    WeightPolynomial,
    _schoolbook_mul,
    render_coeffs,
    stern,
    twisted,
)


class Ring(Enum):
    INTEGER = "integer"
    RATIONAL = "rational"
    POLY_W = "integer-polynomial-in-w"


class DivisionError(ArithmeticError):
    """Exact series division impossible in the requested ring."""


class InternalCheckError(RuntimeError):
    """Two supposedly equivalent computation routes disagreed."""


def _zero(ring: Ring):
    if ring is Ring.INTEGER:
        return 0
    if ring is Ring.RATIONAL:
        return Fraction(0)
    return ZERO_W


def _one(ring: Ring):
    if ring is Ring.INTEGER:
        return 1
    if ring is Ring.RATIONAL:
        return Fraction(1)
    return ONE_W


def _coerce(ring: Ring, x):
    if ring is Ring.INTEGER:
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction) and x.denominator == 1:
            return int(x)
        raise TypeError(f"{x!r} is not an integer-ring element")
    if ring is Ring.RATIONAL:
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise TypeError(f"{x!r} is not a rational-ring element")
    p = WeightPolynomial._lift(x)
    if p is not None:
        return p
    raise TypeError(f"{x!r} is not a w-polynomial-ring element")


def _is_unit(ring: Ring, x) -> bool:
    if ring is Ring.RATIONAL:
        return x != 0
    return x in (1, -1)


def _unit_div(ring: Ring, a, unit):
    if ring is Ring.RATIONAL:
        return a / unit
    return a * unit  # unit is +-1


# ---------------------------------------------------------------------------
# Coefficient kernel.
#
# Integer products go through Kronecker substitution: both operands are packed
# into one big int each, CPython multiplies them (Karatsuba), and the product
# is read back slot by slot.  Division by a dense unit-lead integer series
# multiplies by its Newton inverse.  Both are O(M(n)).  When one operand (or
# the denominator's tail) has at most SPARSE_TERMS nonzero coefficients, the
# schoolbook loops are faster and run instead; the other rings always use them.
# ---------------------------------------------------------------------------

#: Largest nonzero-term count of the sparser operand (or of a denominator's
#: tail) that still takes the schoolbook loops.  Measured against a dense
#: operand at orders 128-8192, products break even at 24-48 terms; sparse
#: division stays ahead of Newton well past that, and the denominators in use
#: have at most two tail terms or are dense.
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
    return [
        int.from_bytes(data[i : i + width], "little") - half for i in range(0, total, width)
    ]


def _mul_coeffs(a, b, n: int, ring: Ring) -> list:
    """Coefficients 0..n of a*b in `ring`: Kronecker for dense integer
    operands, the schoolbook loop otherwise."""
    a = a[: n + 1]
    b = b[: n + 1]
    na = sum(1 for c in a if c)
    nb = sum(1 for c in b if c)
    if na > nb:
        a, b, na = b, a, nb
    if ring is Ring.INTEGER and na > SPARSE_TERMS:
        return _kron_mul(a, b, n)
    return _schoolbook_mul(a, b, n, _zero(ring))


def _inverse(d, n: int) -> list[int]:
    """Coefficients 0..n of 1/d for an integer sequence with d[0] = +-1, by
    Newton iteration g <- g + g(1 - d*g) mod z^{2k}."""
    g = [d[0]]
    k = 1
    while k <= n:
        k2 = min(2 * k, n + 1)
        # d*g = 1 + z^k * e modulo z^{k2}; the correction is -g*e, placed at z^k
        e = [-c for c in _mul_coeffs(d[:k2], g, k2 - 1, Ring.INTEGER)[k:]]
        g += _mul_coeffs(g, e, k2 - k - 1, Ring.INTEGER)
        k = k2
    return g


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Coefficients 0..order of a formal power series; coefficients beyond
    `order` are unknown and never invented."""

    coeffs: tuple
    ring: Ring = Ring.INTEGER

    @classmethod
    def from_coeffs(cls, coeffs, ring: Ring = Ring.INTEGER, order: int | None = None):
        cs = [_coerce(ring, c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be a natural number")
            if order < len(cs) - 1:
                cs = cs[: order + 1]
            else:
                cs.extend(_zero(ring) for _ in range(order + 1 - len(cs)))
        if not cs:
            raise ValueError("a series carries at least its constant coefficient")
        return cls(tuple(cs), ring)

    @classmethod
    def zero(cls, order: int, ring: Ring = Ring.INTEGER):
        return cls.from_coeffs([], ring, order)

    @classmethod
    def one(cls, order: int, ring: Ring = Ring.INTEGER):
        return cls.from_coeffs([_one(ring)], ring, order)

    @classmethod
    def constant(cls, value, order: int, ring: Ring = Ring.INTEGER):
        return cls.from_coeffs([value], ring, order)

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
        if order > self.order:
            raise ValueError("cannot raise a truncation order")
        return TruncatedSeries(self.coeffs[: order + 1], self.ring)

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by z^k; all shifted coefficients stay known, so the
        order grows by k."""
        if k < 0:
            raise ValueError("shift exponent must be a natural number")
        zero = _zero(self.ring)
        return TruncatedSeries((zero,) * k + self.coeffs, self.ring)

    def to_ring(self, ring: Ring) -> "TruncatedSeries":
        if ring is self.ring:
            return self
        return TruncatedSeries.from_coeffs(self.coeffs, ring)

    def _binop_check(self, other) -> int:
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries operand")
        if other.ring is not self.ring:
            raise TypeError(
                f"ring mismatch: {self.ring.value} vs {other.ring.value}"
            )
        return min(self.order, other.order)

    def __add__(self, other):
        n = self._binop_check(other)
        return TruncatedSeries(
            tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1)), self.ring
        )

    def __sub__(self, other):
        n = self._binop_check(other)
        return TruncatedSeries(
            tuple(self.coeffs[i] - other.coeffs[i] for i in range(n + 1)), self.ring
        )

    def __neg__(self):
        return TruncatedSeries(tuple(-c for c in self.coeffs), self.ring)

    def scale(self, c) -> "TruncatedSeries":
        c = _coerce(self.ring, c)
        return TruncatedSeries(tuple(c * x for x in self.coeffs), self.ring)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        n = self._binop_check(other)
        return TruncatedSeries(
            tuple(_mul_coeffs(self.coeffs, other.coeffs, n, self.ring)), self.ring
        )

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if other.ring is not self.ring:
            return False
        n = min(self.order, other.order)
        return all(self.coeffs[i] == other.coeffs[i] for i in range(n + 1))

    def __str__(self) -> str:
        return self.to_text()

    def to_text(self) -> str:
        return render_coeffs(self.coeffs, "z")

    def to_json_coeffs(self) -> list[str]:
        return [str(c) for c in self.coeffs]


def div_exact(num: TruncatedSeries, den: TruncatedSeries) -> TruncatedSeries:
    """Exact quotient q with q*den = num up to order min(orders) - val(den).

    The lowest nonzero denominator coefficient must be a unit of the ring;
    over the integers that means +-1, and a quotient needing non-integer
    coefficients is an error rather than a silent ring switch.  A dense
    integer denominator is inverted by Newton iteration; otherwise the
    quotient comes from the term-by-term recurrence.
    """
    if num.ring is not den.ring:
        raise TypeError(f"ring mismatch: {num.ring.value} vs {den.ring.value}")
    ring = num.ring
    v = den.valuation()
    if v is None:
        raise DivisionError("division by the zero series")
    if any(num.coeffs[i] for i in range(min(v, num.order + 1))):
        raise DivisionError("numerator valuation is below denominator valuation")
    lead = den.coeffs[v]
    if not _is_unit(ring, lead):
        raise DivisionError(
            f"denominator leading coefficient {lead!r} is not a unit of the {ring.value} ring"
        )
    n_out = min(num.order, den.order) - v
    if n_out < 0:
        raise DivisionError("operand orders are too small for the quotient")
    m = num.coeffs[v:]
    d = den.coeffs[v:]
    den_terms = [(j, d[j]) for j in range(1, n_out + 1) if d[j]]
    if ring is Ring.INTEGER and len(den_terms) > SPARSE_TERMS:
        return TruncatedSeries(tuple(_mul_coeffs(m, _inverse(d, n_out), n_out, ring)), ring)
    q = []
    for n in range(n_out + 1):
        acc = m[n]
        for j, dj in den_terms:
            if j > n:
                break
            acc = acc - q[n - j] * dj
        q.append(_unit_div(ring, acc, lead))
    return TruncatedSeries(tuple(q), ring)


def substitute_power(a: TruncatedSeries, k: int, order: int | None = None) -> TruncatedSeries:
    """a(z^k).  Coefficient k*i holds a's coefficient i, everything else is
    zero; the result is known through k*order(a) + k - 1."""
    if k < 2:
        raise ValueError("substitution exponent must be at least 2")
    known = a.order * k + k - 1
    if order is None:
        order = a.order
    if order > known:
        raise ValueError(f"a(z^{k}) is only determined to order {known}")
    zero = _zero(a.ring)
    out = [zero] * (order + 1)
    for i, c in enumerate(a.coeffs):
        if i * k > order:
            break
        out[i * k] = c
    return TruncatedSeries(tuple(out), a.ring)


def derivative(a: TruncatedSeries) -> TruncatedSeries:
    """Termwise derivative; the order drops by one."""
    if a.order < 1:
        raise ValueError("derivative needs order at least 1")
    return TruncatedSeries(
        tuple(i * a.coeffs[i] for i in range(1, a.order + 1)), a.ring
    )


def log_derivative(a: TruncatedSeries, strip_valuation: bool = False) -> TruncatedSeries:
    """a'/a, requiring a unit constant coefficient.

    With strip_valuation, a = z^v * u is accepted and the result is u'/u;
    the caller accounts for the missing v/z term itself.
    """
    u = a
    if strip_valuation:
        v = a.valuation()
        if v is None:
            raise DivisionError("logarithmic derivative of the zero series")
        if v:
            u = TruncatedSeries(a.coeffs[v:], a.ring)
    if not _is_unit(u.ring, u.coeffs[0]):
        raise DivisionError(
            f"constant coefficient {u.coeffs[0]!r} is not a unit of the {u.ring.value} ring"
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
    n_out = (a.order - r) // k
    return TruncatedSeries(tuple(a.coeffs[r + i * k] for i in range(n_out + 1)), a.ring)


# ---------------------------------------------------------------------------
# Dense integer polynomials in z.
# ---------------------------------------------------------------------------


class DensePolynomial(IntPolynomial):
    """Dense integer polynomial in z; products go through the series kernel."""

    var = "z"

    @property
    def constant_term(self) -> int:
        return self.coeffs[0]

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        return DensePolynomial(tuple(_mul_coeffs(a, b, len(a) + len(b) - 2, Ring.INTEGER)))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("polynomial powers need a natural exponent")
        result = DensePolynomial((1,))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def derivative(self) -> "DensePolynomial":
        if self.degree == 0:
            return DensePolynomial((0,))
        return DensePolynomial(tuple(i * self.coeffs[i] for i in range(1, self.degree + 1)))

    def substitute_power(self, k: int) -> "DensePolynomial":
        """z -> z^k."""
        if k < 1:
            raise ValueError("substitution exponent must be positive")
        out = [0] * (self.degree * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return DensePolynomial(tuple(out))

    def to_series(self, order: int, ring: Ring = Ring.INTEGER) -> TruncatedSeries:
        return TruncatedSeries.from_coeffs(self.coeffs, ring, order)


def infinite_product(poly: DensePolynomial, k: int, order: int,
                     ring: Ring = Ring.INTEGER) -> TruncatedSeries:
    """Product of poly(z^{k^m}) over all m with k^m <= order, truncated at
    `order`; later factors are 1 modulo z^{order+1}."""
    if k < 2:
        raise ValueError("product base must be at least 2")
    if poly.constant_term != 1:
        raise ValueError("infinite products need a polynomial with P(0) = 1")
    acc = TruncatedSeries.one(order, ring)
    step = 1
    while step <= order:
        factor = poly.substitute_power(step).to_series(order, ring)
        acc = acc * factor
        step *= k
    return acc


def stern_series(order: int) -> TruncatedSeries:
    return TruncatedSeries.from_coeffs([stern(n) for n in range(order + 1)])


def twisted_series(order: int) -> TruncatedSeries:
    return TruncatedSeries.from_coeffs([twisted(n) for n in range(order + 1)])


def carlitz_series(order: int) -> TruncatedSeries:
    """z times the base-2 infinite product of 1 + z + z^2; coefficient n is
    the Stern value s(n)."""
    if order == 0:
        return TruncatedSeries.zero(0)
    prod = infinite_product(DensePolynomial((1, 1, 1)), 2, order - 1)
    return prod.shift(1)


def _plus_trinomial(i: int) -> DensePolynomial:
    """1 + z^{2^i} + z^{2^{i+1}}."""
    out = [0] * (2 ** (i + 1) + 1)
    out[0] = 1
    out[2**i] = 1
    out[2 ** (i + 1)] = 1
    return DensePolynomial(tuple(out))


def _minus_trinomial(i: int) -> DensePolynomial:
    """1 - z^{2^i} + z^{2^{i+1}}."""
    out = [0] * (2 ** (i + 1) + 1)
    out[0] = 1
    out[2**i] = -1
    out[2 ** (i + 1)] = 1
    return DensePolynomial(tuple(out))


def psi_from_twisted(e: int) -> DensePolynomial:
    """The sign-corrected window of twisted values over [3*2^e, 6*2^e],
    read as a polynomial."""
    if e < 0:
        raise ValueError("e must be a natural number")
    m = 3 << e
    sign = -1 if e % 2 else 1
    return DensePolynomial(tuple(sign * twisted(m + i) for i in range(m + 1)))


def psi_factored_plain(e: int) -> DensePolynomial:
    """z(1+z^{2^e}) times the product of 1+z^{2^i}+z^{2^{i+1}} for i < e."""
    if e < 0:
        raise ValueError("e must be a natural number")
    binom = [0] * (2**e + 1)
    binom[0] = 1
    binom[2**e] = 1
    acc = DensePolynomial(tuple(binom)).shift(1)
    for i in range(e):
        acc = acc * _plus_trinomial(i)
    return acc


def psi_factored_signed(e: int) -> DensePolynomial:
    """z(1+z^{2^e})(1+z+z^2)^e times the product over i <= e-2 of
    (1-z^{2^i}+z^{2^{i+1}})^{e-1-i}."""
    if e < 0:
        raise ValueError("e must be a natural number")
    binom = [0] * (2**e + 1)
    binom[0] = 1
    binom[2**e] = 1
    acc = DensePolynomial(tuple(binom)).shift(1)
    acc = acc * DensePolynomial((1, 1, 1)) ** e
    for i in range(e - 1):
        acc = acc * _minus_trinomial(i) ** (e - 1 - i)
    return acc


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
    if order >= 1:
        out[1] += 1
    if order >= 2:
        out[2] -= 1
    e = 0
    while 3 * 2**e + 1 <= order:
        shift = 3 * 2**e
        sign = -1 if e % 2 else 1
        for i, c in enumerate(psi_factored_plain(e).coeffs[: order - shift + 1]):
            out[shift + i] += sign * c
        e += 1
    return TruncatedSeries(tuple(out))
