"""Exact arithmetic for the Stern diatomic sequence, its sign-twisted
companion, and the weighted subsequence-counting polynomials refining both.

Everything here works on plain Python integers (arbitrary precision) or on
integer-coefficient polynomials in the weight variable w; nothing rounds.
Each headline quantity is computable by at least two independent routes so
the routes can be played against each other in tests.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from enum import Enum
from itertools import compress, zip_longest
from operator import add, index, itemgetter, neg
from typing import ClassVar


class Kind(Enum):
    STERN = "stern"
    TWISTED = "twisted"


class InputTooLargeError(ValueError):
    """Enumeration guard tripped: the input has too many binary digits."""


#: Most entries either prefix table may hold: `prefix` refuses a longer one
#: before it grows, and the CLI caps every order it takes below it.
MAX_TABLE = 1 << 21


class Frozen:
    """Base of the package's immutable classes.  Each sets its fields once,
    in `__init__`, through `object.__setattr__` (`_set_fields`, except in
    the hot one-field constructors of IntPolynomial and TruncatedSeries);
    assigning or deleting an attribute afterwards raises AttributeError.
    `__setstate__` sets the fields the same way, so instances still pickle
    and copy."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable "
                             f"{type(self).__name__}")

    def _set_fields(self, *values) -> None:
        """Set the fields named by the class's __slots__, in that order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setstate__(self, state):
        _, fields = state  # (no __dict__, slot values), as pickle saves slots
        for name, value in fields.items():
            object.__setattr__(self, name, value)


class SequenceCache:
    """Point lookups of one of the two diatomic recursions.

    stern:    value(0)=0, value(1)=1, value(2n)=value(n),
              value(2n+1)=value(n)+value(n+1) for n >= 1.
    twisted:  the same recursion with both right-hand sides negated.

    A lookup folds the binary digits of n over the pair
    (value(m), value(m+1)), so it never recurses, and it stores nothing:
    the prefix tables below are the one store of both sequences.
    """

    __slots__ = ("kind", "values")

    def __init__(self, kind: Kind):
        self.kind = kind
        # Always empty.  Kept, with the class, because perfbench/tracer.py
        # rebinds `SequenceCache.value` and reads len(cache.values) on each
        # call.
        self.values: dict[int, int] = {}

    def value(self, n: int) -> int:
        if n < 0:
            raise ValueError("sequence index must be a natural number")
        if n == 0:
            return 0
        sign = 1 if self.kind is Kind.STERN else -1
        a, b = 1, sign  # (value(1), value(2)); the recursion starts at m=1
        for shift in range(n.bit_length() - 2, -1, -1):
            if (n >> shift) & 1:
                a, b = sign * (a + b), sign * b
            else:
                a, b = sign * a, sign * (a + b)
        return a


_STERN = SequenceCache(Kind.STERN)
_TWISTED = SequenceCache(Kind.TWISTED)


def stern(n: int) -> int:
    """Stern diatomic value s(n)."""
    return _STERN.value(n)


def twisted(n: int) -> int:
    """Sign-twisted diatomic value t(n)."""
    return _TWISTED.value(n)


_PREFIXES: dict[Kind, list[int]] = {Kind.STERN: [], Kind.TWISTED: []}


def prefix(kind: Kind, length: int) -> list[int]:
    """The shared table of one of the two recursions, extended in place so
    that its first `length` entries are [value(0), ..., value(length-1)].

    The table is filled by the recursion in O(length) with whole-slice
    operations.  It holds exactly as many entries as the longest prefix
    asked of its kind so far, never more, and a length past MAX_TABLE
    raises ValueError before the table grows.  Callers read it and must
    not change it.
    """
    if length > MAX_TABLE:
        raise ValueError(f"a prefix of {length} entries is past the cap "
                         f"(tables are capped at {MAX_TABLE} entries)")
    table = _PREFIXES[kind]
    if len(table) < length:
        if len(table) < 2:
            table[:] = [0, 1][:length]
        twist = kind is Kind.TWISTED
        while len(table) < length:
            # value(2m) and value(2m+1) read value(m) and value(m+1), so a
            # block [lo, hi) with hi <= 2*lo - 1 reads only filled entries.
            lo = len(table)
            hi = min(length, 2 * lo - 1)
            evens = table[(lo + 1) // 2:(hi + 1) // 2]
            odds = map(add, table[lo // 2:hi // 2], table[lo // 2 + 1:hi // 2 + 1])
            if twist:
                evens = map(neg, evens)
                odds = map(neg, odds)
            block = [0] * (hi - lo)
            block[lo % 2::2] = evens
            block[1 - lo % 2::2] = odds
            table += block
    return table


def digits_of(n: int, base: int) -> tuple[int, ...]:
    """Base-`base` digits of n, most significant first; 0 encodes as (0,)."""
    if base < 2:
        raise ValueError("base must be at least 2")
    if n < 0:
        raise ValueError("expansions encode natural numbers")
    if n == 0:
        return (0,)
    out = []
    while n:
        n, d = divmod(n, base)
        out.append(d)
    out.reverse()
    return tuple(out)


def count_admissible(n: int) -> int:
    """Number of subsequences of the binary digits of n of the form
    1, 101, 10101, ...

    Two-state dynamic program over the digits, most significant first:
    `ending_one` counts subsequences whose extracted word currently ends in
    1 (each of those is a complete match), `ending_ten` those ending in 10
    and awaiting a closing 1.  Position sets are distinct by construction,
    so the counts add without overcounting.
    """
    ending_one = 0
    ending_ten = 0
    for bit in digits_of(n, 2):
        if bit:
            ending_one += ending_ten + 1
        else:
            ending_ten += ending_one
    return ending_one


#: Inputs with more binary digits than this are rejected by the explicit
#: subsequence enumerators.
ENUMERATION_GUARD_BITS = 24


def _check_guard(n: int, guard_bits: int) -> None:
    if n.bit_length() > guard_bits:
        raise InputTooLargeError(
            f"n has {n.bit_length()} binary digits; enumeration is capped at {guard_bits}"
        )


def _digit_positions(n: int) -> tuple[list[int], list[int]]:
    """Ascending bit positions of the 1-digits and of the 0-digits of n."""
    word = digits_of(n, 2)
    top = len(word) - 1
    ones = [top - i for i, b in enumerate(word) if b == 1]
    zeros = [top - i for i, b in enumerate(word) if b == 0]
    ones.reverse()
    zeros.reverse()
    return ones, zeros


def enumerate_admissible(
    n: int, guard_bits: int = ENUMERATION_GUARD_BITS
) -> list[tuple[int, ...]]:
    """Every set of binary digit positions of n whose extracted word lies in
    1(01)*.  Each set is a tuple of bit positions, most significant first.

    The search grows alternating chains directly: a qualifying set reads
    1,0,1,...,1 downward, so a partial chain is only ever extended through a
    position carrying the next required digit.  Every qualifying set has
    all its prefixes of this shape, hence the walk is exhaustive.
    """
    _check_guard(n, guard_bits)
    ones, zeros = _digit_positions(n)
    results: list[tuple[int, ...]] = []

    def grow_with_zero(chain: tuple[int, ...], last: int) -> None:
        for i in range(bisect_left(zeros, last)):
            z = zeros[i]
            longer = chain + (z,)
            for j in range(bisect_left(ones, z)):
                closed = longer + (ones[j],)
                results.append(closed)
                grow_with_zero(closed, ones[j])

    for p in ones:
        results.append((p,))
        grow_with_zero((p,), p)
    results.sort(key=lambda c: (len(c), tuple(-q for q in c)))
    return results


# ---------------------------------------------------------------------------
# Integer polynomials, and weighted counting in the weight variable w.
# ---------------------------------------------------------------------------


def _schoolbook_mul(a, b, n: int) -> list[int]:
    """Coefficients 0..n of a*b, over the nonzero terms of both operands;
    the sparser one goes first, as `a`.  A `b` with zeros has its nonzero
    terms listed once; a dense `b`, as in most small products, is not."""
    out = [0] * (n + 1)
    b = b[: n + 1]
    if 0 not in b:
        for i, ci in enumerate(a[: n + 1]):
            if ci:
                for j, cj in enumerate(b[: n + 1 - i], i):
                    out[j] += ci * cj
        return out
    terms = list(compress(enumerate(b), b))
    for i, ci in enumerate(a[: n + 1]):
        if ci:
            for j, cj in terms[: bisect_right(terms, n - i, key=itemgetter(0))]:
                out[i + j] += ci * cj
    return out


def _trimmed(c: tuple) -> tuple:
    """c without its trailing zeros; (0,) if nothing is left."""
    end = len(c)
    while end > 1 and c[end - 1] == 0:
        end -= 1
    return c[:end] or (0,)


class IntPolynomial(Frozen):
    """Integer polynomial in the variable `var`; coeffs[k] is the coefficient
    of var^k, and the last one is nonzero unless the polynomial is zero.

    Each subclass names its own variable.  Results keep the operands'
    class, plain ints mix in, and polynomials of two different classes
    neither combine nor compare equal.  A coefficient that is not an
    integer raises TypeError.
    """

    __slots__ = ("coeffs",)
    var: ClassVar[str]

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _trimmed(tuple(map(index, coeffs))))

    @classmethod
    def _of_ints(cls, c: tuple):
        """The polynomial of `c`, a tuple of ints: the constructor without
        its integer check, for results that are ints by construction."""
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", _trimmed(c))
        return self

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def __bool__(self) -> bool:
        return not self.is_zero()

    @classmethod
    def _lift(cls, other):
        if isinstance(other, cls):
            return other
        if isinstance(other, int):
            return cls((other,))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return self._of_ints(tuple(out))

    __radd__ = __add__

    def __neg__(self):
        return self._of_ints(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        return self._of_ints(tuple(_schoolbook_mul(a, b, len(a) + len(b) - 2)))

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        # a constant equals its int, so it must hash like it too
        if len(self.coeffs) == 1:
            return hash(self.coeffs[0])
        return hash((self.var, self.coeffs))

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, k: int):
        """Multiply by var^k."""
        if k < 0:
            raise ValueError("shift exponent must be a natural number")
        return self._of_ints((0,) * k + self.coeffs)

    def __str__(self) -> str:
        return render_coeffs(self.coeffs, self.var)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(coeffs={self.coeffs!r})"


class WeightPolynomial(IntPolynomial):
    """Integer polynomial in w; coeffs[k] is the coefficient of w^k.  Its
    products stay schoolbook: S and S_e have small degree and coefficients."""

    __slots__ = ()
    var = "w"
    # Bound in this class too: perfbench/tracer.py wraps the methods found
    # in a class's own __dict__.
    __add__ = __radd__ = IntPolynomial.__add__
    __mul__ = __rmul__ = IntPolynomial.__mul__


ZERO_W = WeightPolynomial((0,))
ONE_W = WeightPolynomial((1,))
W = WeightPolynomial((0, 1))


def render_coeffs(coeffs, var: str) -> str:
    """Canonical text form `c0 + c1*<var> + c2*<var>^2 + ...` listing every
    stored coefficient, zeros included; coefficients print verbatim."""
    parts = []
    for k, c in enumerate(coeffs):
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append(f"{c}*{var}")
        else:
            parts.append(f"{c}*{var}^{k}")
    return " + ".join(parts) if parts else "0"


def _weighted_pair(n: int) -> tuple[WeightPolynomial, WeightPolynomial]:
    """(S(n), S_e(n)) by one fold of the binary digits of n, top bit first,
    from (S(0), S_e(0)) = (0, 1).  It never recurses, keeps no memo, and
    folds plain coefficient lists, which become polynomials once, at the end.

        S(2m)   = S(m)             S_e(2m)   = w*S(m) + S_e(m)
        S(2m+1) = S(m) + S_e(m)    S_e(2m+1) = S_e(m)
    """
    if n < 0:
        raise ValueError("weighted counts need a natural number")
    s, se = [], [1]
    for shift in range(n.bit_length() - 1, -1, -1):
        if (n >> shift) & 1:
            s = [a + b for a, b in zip_longest(s, se, fillvalue=0)]
        else:
            se = [a + b for a, b in zip_longest([0] + s, se, fillvalue=0)]
    return WeightPolynomial._of_ints(tuple(s)), WeightPolynomial._of_ints(tuple(se))


def weighted_stern(n: int) -> WeightPolynomial:
    """S(n): subsequences of the binary digits of n of the form 1(01)^k
    counted with weight w^k."""
    return _weighted_pair(n)[0]


def weighted_even(n: int) -> WeightPolynomial:
    """S_e(n): subsequences of the form (10)^k with weight w^k; the empty
    subsequence is the k=0 case and always contributes 1."""
    return _weighted_pair(n)[1]


def _alt_parts(n: int) -> tuple[int, ...]:
    """The smaller arguments weighted_stern_alt(n) is made of, for n >= 2."""
    if n % 2 == 0:
        return (n >> v2(n),)
    if n % 4 == 1:
        m = (n - 1) // 4
        return (2 * m, 2 * m + 1)
    m = (n + 1) // 4
    q = (m >> v2(m)) // 2
    return (2 * m - 1, 2 * q + 1, 2 * q)


def weighted_stern_alt(n: int) -> WeightPolynomial:
    """S(n) again, through the recursion that splits odd arguments mod 4;
    the 4m-1 branch decomposes m as 2^a(2q+1).  Must agree with
    weighted_stern everywhere.

        S(2^a m) = S(m)
        S(4m+1)  = w*S(2m) + S(2m+1)
        S(4m-1)  = S(2m-1) + S(2q+1) + (w-1)*S(2q)

    Every argument on the right is smaller than the one on the left, so
    one pass collects the arguments n needs and a second evaluates them in
    increasing order.  Nothing recurses, so deep n raise no RecursionError,
    and the memo lives for one call.
    """
    if n < 0:
        raise ValueError("weighted counts need a natural number")
    parts: dict[int, tuple[int, ...]] = {}
    stack = [n]
    while stack:
        x = stack.pop()
        if x > 1 and x not in parts:
            parts[x] = _alt_parts(x)
            stack.extend(parts[x])
    memo, w_less_1 = {0: ZERO_W, 1: ONE_W}, W - 1
    for x in sorted(parts):
        p = parts[x]
        if x % 2 == 0:
            memo[x] = memo[p[0]]
        elif x % 4 == 1:
            memo[x] = W * memo[p[0]] + memo[p[1]]
        else:
            memo[x] = memo[p[0]] + memo[p[1]] + w_less_1 * memo[p[2]]
    return memo[n]


def weighted_count_direct(
    n: int, guard_bits: int = ENUMERATION_GUARD_BITS
) -> tuple[WeightPolynomial, WeightPolynomial]:
    """(S(n), S_e(n)) by walking every qualifying subsequence explicitly.

    The walk visits each 1(01)^k chain once (weight w^k, tallied into S)
    and each (10)^k chain once (tallied into S_e); the empty subsequence
    seeds S_e at weight w^0.
    """
    _check_guard(n, guard_bits)
    ones, zeros = _digit_positions(n)
    s_counts: dict[int, int] = {}
    se_counts: dict[int, int] = {0: 1}
    stack = [(p, 0) for p in ones]  # (position of trailing 1, completed 01-pairs)
    while stack:
        pos, k = stack.pop()
        s_counts[k] = s_counts.get(k, 0) + 1
        for i in range(bisect_left(zeros, pos)):
            z = zeros[i]
            se_counts[k + 1] = se_counts.get(k + 1, 0) + 1
            for j in range(bisect_left(ones, z)):
                stack.append((ones[j], k + 1))

    def poly(counts: dict[int, int]) -> WeightPolynomial:
        if not counts:
            return ZERO_W
        top = max(counts)
        return WeightPolynomial(tuple(counts.get(i, 0) for i in range(top + 1)))

    return poly(s_counts), poly(se_counts)


def v2(n: int) -> int:
    """Exponent of the highest power of 2 dividing n (n >= 1)."""
    if n < 1:
        raise ValueError("2-adic valuation is undefined for n < 1")
    return (n & -n).bit_length() - 1


def mod2(n: int) -> int:
    """Common parity of stern(n) and twisted(n): 0 iff 3 divides n."""
    return 0 if n % 3 == 0 else 1
