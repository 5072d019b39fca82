"""Base-k self-similarity machinery: affine functional-equation systems and
their fixed-point solver, the log-derivative series H and the
divisibility-quotient series C, infinite-product log derivatives, and an
exact-rank probe for kernel growth.

All linear algebra is exact; floating point would manufacture spurious
ranks and is deliberately absent.
"""
from __future__ import annotations

import json
from itertools import cycle, islice, repeat
from math import gcd
from operator import add, index, mul, sub

from .sequences import Frozen, Kind, _times_sparse, _trimmed
from .series import (
    DensePolynomial,
    InternalCheckError,
    TruncatedSeries,
    _over_one_minus,
    derivative,
    div_exact,
    div_stern,
    infinite_product,
    log_derivative,
    substitute_power,
    window_series,
)


class AffineSystem(Frozen):
    """System U_i = A_i + L_i(U_1(z^k), ..., U_d(z^k)).

    forms[i][j] is the z-polynomial coefficient of the j-th unknown inside
    the i-th linear form, stored as a tuple of integers (degree 0 first).
    constants[i] pins U_i(0); construction refuses a vector that does not
    satisfy the equations modulo z.
    """

    __slots__ = ("k", "terms", "forms", "constants")

    def __init__(self, k: int, terms: tuple[TruncatedSeries, ...],
                 forms: tuple[tuple[tuple, ...], ...], constants: tuple):
        d = len(terms)
        if k < 2:
            raise ValueError("base k must be at least 2")
        if len(forms) != d or any(len(row) != d for row in forms):
            raise ValueError("linear-form matrix must be d x d")
        if len(constants) != d:
            raise ValueError("need one pinned constant per unknown")
        for i in range(d):
            acc = terms[i].coeff(0)
            for j in range(d):
                poly = forms[i][j]
                if poly and poly[0]:
                    acc = acc + poly[0] * constants[j]
            if acc != constants[i]:
                raise ValueError(
                    f"constant {i} is inconsistent with the equations modulo z"
                )
        self._set_fields(k, terms, forms, constants)

    @classmethod
    def of(cls, k: int, terms, forms, constants) -> "AffineSystem":
        terms = tuple(terms)
        if not terms:
            raise ValueError("a system needs at least one equation")
        int_forms = tuple(tuple(tuple(map(index, poly)) for poly in row) for row in forms)
        return cls(k, terms, int_forms, tuple(map(index, constants)))

    @property
    def d(self) -> int:
        return len(self.terms)

    def max_form_degree(self) -> int:
        """Largest degree of a nonzero coefficient across all linear forms
        (-1 when every form is zero)."""
        deg = -1
        for row in self.forms:
            for poly in row:
                for m, c in enumerate(poly):
                    if c and m > deg:
                        deg = m
        return deg


def solve_affine_system(system: AffineSystem, order: int) -> list[TruncatedSeries]:
    """Unique solution, truncated at `order`, by fixed-point iteration from
    the pinned constants.

    Coefficient n of a round reads coefficients up to n/k of the last one,
    so a round on a prefix settled through p settles it through k(p+1)-1
    (substitute_power refuses more).  The rounds run on those prefixes up
    to `order`; one extra round at full order must be a no-op, otherwise
    something is deeply wrong.  Each form entry is one `_times_sparse`.
    """
    if order < 0:
        raise ValueError("order must be a natural number")
    for a in system.terms:
        if a.order < order:
            raise ValueError("inhomogeneous terms carry insufficient order")
    k = system.k

    def step(vec: list[TruncatedSeries], n: int) -> list[TruncatedSeries]:
        subs = [substitute_power(u, k, n).coeffs for u in vec]
        out = []
        for a, row in zip(system.terms, system.forms):
            acc = a.coeffs[: n + 1]
            for poly, u in zip(row, subs):
                acc = map(add, acc, _times_sparse(u, poly, 1, n))
            out.append(TruncatedSeries(tuple(acc)))
        return out

    current = [TruncatedSeries.constant(c, 0) for c in system.constants]
    settled = 0
    while settled < order:
        settled = min(k * (settled + 1) - 1, order)
        current = step(current, settled)
    final = step(current, order)
    if any(f.coeffs != c.coeffs for f, c in zip(final, current)):
        raise InternalCheckError("fixed-point iteration failed to stabilise")
    return final


def degree_reduce(system: AffineSystem) -> AffineSystem:
    """One enlargement round lowering the maximal coefficient degree.

    When some form carries a monomial c*z^m*x_j with m >= k, the system is
    doubled by adjoining z*A_i and the unknowns z*U_i; every such monomial
    is rewritten as c*z^{m-k} times the adjoined unknown, which strictly
    lowers the maximal degree while the original coordinates keep their
    solution.  Systems already below degree k come back unchanged.
    """
    k = system.k
    if system.max_form_degree() < k:
        return system
    d = system.d

    def split(row) -> tuple:
        """The forms below z^k, then the rest divided by z^k (trailing
        zeros dropped; () when it is zero), which act on z*U_j."""
        return (tuple(poly[:k] for poly in row)
                + tuple(_trimmed(poly[k:]) if any(poly[k:]) else () for poly in row))

    new_forms = [split(row) for row in system.forms]
    new_forms += [split([(0,) + poly for poly in row]) for row in system.forms]

    new_terms = system.terms + tuple(a.shift(1) for a in system.terms)
    new_constants = system.constants + (0,) * d
    return AffineSystem(k, new_terms, tuple(new_forms), new_constants)


def h_series(order: int) -> TruncatedSeries:
    """Logarithmic derivative S'/S of the shifted Stern series, computed two
    independent ways (direct exact division through the product form of S;
    affine fixed point) and cross-checked before being returned."""
    shifted = window_series(Kind.STERN, 1, order + 3)
    # z*S' over the Stern series z*S
    direct = div_stern(derivative(shifted).shift(1))
    # (1+2z)/(1+z+z^2) = (1+z-2z^2)/(1-z^3): 1, 1, -2 repeated
    inhom = TruncatedSeries(tuple(islice(cycle((1, 1, -2)), order + 1)))
    system = AffineSystem.of(2, [inhom], [[(0, 2)]], [1])
    fixed = solve_affine_system(system, order)[0]
    if direct != fixed:
        raise InternalCheckError("the two routes to the log-derivative series disagree")
    return fixed


def c_series(order: int) -> TruncatedSeries:
    """Solution of C = z(1+2z)/(1-z^2) + C(z^2) with C(0) = 0; coefficient
    n >= 1 is 1 + 2*v2(n)."""
    # z(1+2z)/(1-z^2) = (z+2z^2)(1+z^2+z^4+...): 0, then 1, 2 repeated
    inhom = TruncatedSeries((0, *islice(cycle((1, 2)), order)))
    system = AffineSystem.of(2, [inhom], [[(1,)]], [0])
    return solve_affine_system(system, order)[0]


def p_product_logderiv(poly: DensePolynomial, k: int, order: int
                       ) -> tuple[TruncatedSeries, TruncatedSeries]:
    """(A, B) with A the base-k infinite product of `poly` and B = A'/A.

    B must satisfy B = P'/P + k z^{k-1} B(z^k); the residual is checked
    exactly before returning.  P(0) = 1, so P'/P has integer coefficients.
    `div_exact` divides by the dense product by recursive Karp-Markstein,
    and by P, while P has at most SPARSE_TERMS nonzero tail terms, by the
    term recurrence: the two sides of the check take independent routes.
    """
    if poly.coeffs[0] != 1:
        raise ValueError("infinite products need a polynomial with P(0) = 1")
    if order < 1:
        raise ValueError("order must be at least 1")
    a = infinite_product(poly, k, order)
    b = log_derivative(a)
    pp = div_exact(derivative(poly.to_series(order)), poly.to_series(order - 1))
    sub = substitute_power(b, k, max(order - k, 0))
    rhs = pp + sub.shift(k - 1).truncate(order - 1).scale(k)
    if b != rhs:
        raise InternalCheckError("log derivative violates its functional equation")
    return a, b


def binary_partition_series(order: int) -> TruncatedSeries:
    """Partitions into powers of two: the product of 1/(1 - z^m) over m = 2^j
    <= order, each division by running sums with stride m
    (`_over_one_minus`)."""
    q = list(TruncatedSeries.one(order).coeffs)
    m = 1
    while m <= order:
        _over_one_minus(q, m)
        m *= 2
    return TruncatedSeries(tuple(q))


# ---------------------------------------------------------------------------
# Kernel-growth probe.
# ---------------------------------------------------------------------------


def _reduce(row, basis: list) -> None:
    """Fraction-free echelon step: reduce `row` against the (pivot, row)
    pairs of `basis` by row*b[p] - b*row[p], and append what is left, divided
    by the gcd of its entries, with its first nonzero column as the pivot.
    No step divides, so none can leave a remainder."""
    for p, b in basis:
        c = row[p]
        if c:
            row = list(map(sub, map(mul, row, repeat(b[p])), map(mul, b, repeat(c))))
    lead = next(filter(None, row), 0)
    if lead:
        g = gcd(*row)
        basis.append((row.index(lead), row if g == 1 else [x // g for x in row]))


def exact_rank(rows) -> int:
    """Rank over the rationals of an integer matrix: the size of its
    fraction-free row echelon.  Repeated rows are reduced only once."""
    basis: list = []
    for row in dict.fromkeys(tuple(map(index, row)) for row in rows):
        _reduce(row, basis)
    return len(basis)


class KernelProbeReport(Frozen):
    """Ranks of the span of base-k sections, depth by depth.

    Prefix ranks only lower-bound the kernel dimension, so the same probe
    is re-run at half the order; `stable` records whether the two agree on
    the depths both can reach.  Evidence, never proof.
    """

    __slots__ = ("target", "k", "order", "depth", "ranks", "ranks_half_order", "stable")

    def __init__(self, target: str, k: int, order: int, depth: int,
                 ranks: tuple[int, ...], ranks_half_order: tuple[int, ...], stable: bool):
        sections = 0
        for d, r in enumerate(ranks):
            sections += k**d
            if r > sections:
                raise InternalCheckError("rank exceeds the number of probed sections")
        if any(a > b for a, b in zip(ranks, ranks[1:])):
            raise InternalCheckError("rank sequence decreased with depth")
        self._set_fields(target, k, order, depth, ranks, ranks_half_order, stable)

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "k": self.k,
            "order": self.order,
            "depth": self.depth,
            "ranks": list(self.ranks),
            "ranks_half_order": list(self.ranks_half_order),
            "stable": self.stable,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _echelon_ranks(values: tuple, k: int, length: int, depth: int) -> list[int]:
    """Ranks of the sections of depths 0..`depth`, each cut to `length`
    terms, read after each depth from one growing echelon.  A row seen
    before is skipped, and a basis of `length` rows is full."""
    basis, seen, ranks = [], set(), []
    for j in range(depth + 1):
        step = k**j
        for r in range(step):
            if len(basis) == length:
                break
            row = values[r : r + length * step : step]
            if row not in seen:
                seen.add(row)
                _reduce(row, basis)
        ranks.append(len(basis))
    return ranks


def check_kernel_probe(k: int, depth: int, order: int) -> None:
    """Refuse, with ValueError, a probe that `kernel_rank` cannot run: a
    base below 2, a negative depth, an order below 2 (the half-order probe
    would have nothing to compare), or a depth d with k^d > order.  It needs
    no coefficient values."""
    if k < 2:
        raise ValueError("base k must be at least 2")
    if depth < 0:
        raise ValueError("depth must be a natural number")
    if order < 2:
        raise ValueError("order must be at least 2, "
                         "so that the half-order probe has a prefix to compare")
    # the deepest probe that fits, found without ever forming k**depth
    deepest, span = 0, k
    while span <= order:
        deepest, span = deepest + 1, span * k
    if depth > deepest:
        raise ValueError(f"depth must be at most {deepest}, "
                         f"since order {order} < {k}^{deepest + 1}")


def kernel_rank(target: str, values, k: int, depth: int, order: int) -> KernelProbeReport:
    """Probe the kernel of a coefficient sequence.

    Depth d contributes the k^d sections n -> a(k^d n + r); its rank is
    taken over all sections of depth <= d, each cut to the common prefix
    length floor(order / k^d).  Bounded, stabilising ranks are evidence of
    k-regularity; steady growth is evidence against it.  The probe is re-run
    at half the order; both runs read their ranks from one echelon per
    distinct prefix length.
    """
    check_kernel_probe(k, depth, order)
    values = tuple(map(index, islice(values, order)))
    if len(values) < order:
        raise ValueError(f"need at least {order} coefficient values")
    half = order // 2
    half_depth = depth
    while k**half_depth > half:
        half_depth -= 1
    probes = ((order, depth), (half, half_depth))
    deepest: dict[int, int] = {}
    for n, top in probes:
        for d in range(top + 1):
            deepest[n // k**d] = max(deepest.get(n // k**d, 0), d)
    passes = {length: _echelon_ranks(values, k, length, d) for length, d in deepest.items()}
    ranks, ranks_half = ([passes[n // k**d][d] for d in range(top + 1)] for n, top in probes)
    # a decrease can only come from prefixes shorter than the span they
    # should exhibit: the window is too small to say anything at this depth
    for seq in (ranks, ranks_half):
        if any(a > b for a, b in zip(seq, seq[1:])):
            raise ValueError(
                f"order {order} is too small to probe depth {depth} reliably; "
                "section ranks exceed the available prefix length"
            )
    stable = ranks[: len(ranks_half)] == ranks_half
    return KernelProbeReport(target, k, order, depth, tuple(ranks), tuple(ranks_half), stable)
