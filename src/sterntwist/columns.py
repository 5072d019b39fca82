"""Identity sides evaluated over a block of n at once.

A side of a registry identity is a function of (s, t, e, n).  Called with n
a `Span`, the affine block of indices start + step*k, the integer operators
it builds its indices with keep them affine, so each read of s or t is one
slice of a prefix table.  What it computes from those reads is a `Column`:
one value per k, plus the interval of k where every index it read was >= 0.
The same function called with an int n and int-valued readers gives one
point's value.
"""
from __future__ import annotations

from collections.abc import Callable
from itertools import repeat
from operator import add, mod, mul, neg, sub

from .sequences import Kind, prefix


class Span:
    """The indices start + step*k for 0 <= k < count, with step != 0.  `+`
    and `-` with ints, unary `-`, `int *` and `<<` keep a Span affine;
    `span * span` gives a Column."""

    __slots__ = ("start", "step", "count")

    def __init__(self, start: int, step: int, count: int):
        self.start, self.step, self.count = start, step, count

    def column(self) -> "Column":
        return Column(list(range(self.start, self.start + self.step * self.count, self.step)))

    def _affine(self, scale: int, offset: int) -> "Span":
        return Span(scale * self.start + offset, scale * self.step, self.count)

    def __add__(self, other):
        return self._affine(1, other) if isinstance(other, int) else NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self._affine(1, -other) if isinstance(other, int) else NotImplemented

    def __rsub__(self, other):
        return self._affine(-1, other) if isinstance(other, int) else NotImplemented

    def __neg__(self):
        return self._affine(-1, 0)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._affine(other, 0)
        if isinstance(other, Span):
            return self.column() * other.column()
        return NotImplemented

    __rmul__ = __mul__

    def __lshift__(self, other):
        return self._affine(1 << other, 0) if isinstance(other, int) else NotImplemented


class Column:
    """Values over a block, one per k, and the interval lo <= k < hi where
    every index read to compute them was >= 0.  Outside that interval the
    values are placeholders.  Arithmetic with ints and other Columns works
    value by value and intersects the intervals."""

    __slots__ = ("values", "lo", "hi")

    def __init__(self, values: list, lo: int = 0, hi: int | None = None):
        self.values = values
        self.lo = lo
        self.hi = len(values) if hi is None else hi

    def _apply(self, other, op, swap: bool = False):
        if isinstance(other, Column):
            a, b = self.values, other.values
            lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        elif isinstance(other, int):
            a, b, lo, hi = self.values, repeat(other), self.lo, self.hi
        else:
            return NotImplemented
        if swap:
            a, b = b, a
        return Column(list(map(op, a, b)), lo, hi)

    def __add__(self, other):
        return self._apply(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply(other, sub)

    def __rsub__(self, other):
        return self._apply(other, sub, swap=True)

    def __mul__(self, other):
        return self._apply(other, mul)

    __rmul__ = __mul__

    def __mod__(self, other):
        return self._apply(other, mod)

    def __neg__(self):
        return Column(list(map(neg, self.values)), self.lo, self.hi)


Reader = Callable[[Span], Column]


def _nonnegative(span: Span) -> tuple[int, int]:
    """The interval lo <= k < hi where start + step*k >= 0."""
    start, step, count = span.start, span.step, span.count
    if step > 0:
        return min(count, max(0, -(start // step))), count
    return 0, max(0, min(count, start // -step + 1))


#: Most prefix entries a strided read may fill per value it reads before it
#: looks its values up one by one instead.  A contiguous read always fills:
#: the sweeps walk a range block by block, so the entries it skips are read
#: next.  A strided read's neighbours share its stride, so most of what it
#: fills is never read.  The DIV-S/DIV-T scans fill at most 16 entries per
#: value at strides up to 128 and 70-800 at strides 256-2048, where filling
#: would take the tables to MAX_TABLE entries for a few hundred values.  A
#: lookup costs about as much time as filling 90 entries.
SPARSE_FILL = 32


def column_reader(kind: Kind, point: Callable[[int], int], limit: int) -> Reader:
    """span -> Column of value(index) of one sequence.  Below `limit` the
    values are one slice (strided when step is not 1) of the kind's prefix,
    extended on demand by at least an eighth, so that it grows at most an
    eighth past the furthest index read; from `limit` on, or when a strided
    read would fill more than SPARSE_FILL entries per value it reads,
    point(x) looks each value up on its own.  Negative indices are out of the
    Column's interval."""
    table = prefix(kind, 0)

    def ascending(a: int, d: int, b: int) -> list[int]:
        # [value(x) for x in range(a, b, d)], for 0 <= a < b and d > 0
        top = a + (min(b, limit) - 1 - a) // d * d
        end = len(table)
        if a >= limit or d > 1 and top + 1 - end > SPARSE_FILL * ((top - a) // d + 1):
            return [point(x) for x in range(a, b, d)]
        if top >= end:
            prefix(kind, min(limit, max(end + (end >> 3), top + 1)))
        values = table[a:top + 1:d]
        if b > limit:
            values += [point(x) for x in range(top + d, b, d)]
        return values

    def read(span: Span) -> Column:
        count, start, step = span.count, span.start, span.step
        lo, hi = _nonnegative(span)
        if lo >= hi:
            return Column([0] * count, lo, hi)
        first, last = start + step * lo, start + step * (hi - 1)
        if step > 0:
            values = ascending(first, step, last + 1)
        else:
            values = ascending(last, -step, first + 1)[::-1]
        if lo or hi < count:
            values = [0] * lo + values + [0] * (count - hi)
        return Column(values, lo, hi)

    return read
