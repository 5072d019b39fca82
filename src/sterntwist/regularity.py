"""Base-k self-similarity machinery: affine functional-equation systems and
their fixed-point solver, the log-derivative series H and the
divisibility-quotient series C, infinite-product log derivatives, and an
exact-rank probe for kernel growth.

All linear algebra is exact; floating point would manufacture spurious
ranks and is deliberately absent.
"""
from __future__ import annotations

import json
from itertools import accumulate
from operator import index

from .sequences import Frozen, Kind
from .series import (
    DensePolynomial,
    InternalCheckError,
    TruncatedSeries,
    div_exact,
    infinite_product,
    log_derivative,
    substitute_power,
    window_series,
)


def expand_rational(num: DensePolynomial, den: DensePolynomial, order: int) -> TruncatedSeries:
    """num/den as a truncated series; den must open with +-1."""
    return div_exact(num.to_series(order), den.to_series(order))


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


def _apply_form(row, subs, order: int) -> list[int]:
    """Evaluate one linear form on already-substituted unknowns."""
    out = [0] * (order + 1)
    for poly, sub in zip(row, subs):
        for m, c in enumerate(poly):
            if not c:
                continue
            sc = sub.coeffs
            for n in range(m, order + 1):
                x = sc[n - m]
                if x:
                    out[n] += c * x
    return out


def solve_affine_system(system: AffineSystem, order: int) -> list[TruncatedSeries]:
    """Unique solution, truncated at `order`, by fixed-point iteration from
    the pinned constants.

    Each round fixes every coefficient below the next power of k, so
    floor(log_k order)+1 rounds settle the whole prefix; one extra round is
    run and must be a no-op, otherwise something is deeply wrong.
    """
    if order < 0:
        raise ValueError("order must be a natural number")
    for a in system.terms:
        if a.order < order:
            raise ValueError("inhomogeneous terms carry insufficient order")
    k = system.k
    terms = [a.truncate(order) for a in system.terms]
    current = [TruncatedSeries.constant(c, order) for c in system.constants]

    def step(vec: list[TruncatedSeries]) -> list[TruncatedSeries]:
        subs = [substitute_power(u, k, order) if order else u for u in vec]
        out = []
        for i in range(system.d):
            coeffs = _apply_form(system.forms[i], subs, order)
            base = terms[i].coeffs
            out.append(TruncatedSeries(tuple(base[n] + coeffs[n] for n in range(order + 1))))
        return out

    rounds = 1
    while k**rounds <= order:
        rounds += 1
    for _ in range(rounds):
        current = step(current)
    settled = step(current)
    if any(s.coeffs != c.coeffs for s, c in zip(settled, current)):
        raise InternalCheckError("fixed-point iteration failed to stabilise")
    return settled


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

    def split(poly, row_out, j):
        low = list(poly[:k])
        high = list(poly[k:])
        if any(high):
            routed = list(row_out[d + j])
            for m, c in enumerate(high):
                if c:
                    while len(routed) <= m:
                        routed.append(0)
                    routed[m] = routed[m] + c
            row_out[d + j] = tuple(routed)
        row_out[j] = tuple(low)

    new_forms = []
    for i in range(d):
        row_out = [()] * (2 * d)
        for j in range(d):
            split(system.forms[i][j], row_out, j)
        new_forms.append(tuple(row_out))
    for i in range(d):
        row_out = [()] * (2 * d)
        for j in range(d):
            shifted = (0,) + tuple(system.forms[i][j])
            split(shifted, row_out, j)
        new_forms.append(tuple(row_out))

    new_terms = system.terms + tuple(a.shift(1) for a in system.terms)
    new_constants = system.constants + (0,) * d
    return AffineSystem(k, new_terms, tuple(new_forms), new_constants)


def h_series(order: int) -> TruncatedSeries:
    """Logarithmic derivative of the shifted Stern series, computed two
    independent ways (direct exact division; affine fixed point) and
    cross-checked before being returned."""
    shifted = window_series(Kind.STERN, 1, order + 3)
    direct = log_derivative(shifted)
    inhom = expand_rational(DensePolynomial((1, 2)), DensePolynomial((1, 1, 1)), order)
    system = AffineSystem.of(2, [inhom], [[(0, 2)]], [1])
    fixed = solve_affine_system(system, order)[0]
    if direct != fixed:
        raise InternalCheckError("the two routes to the log-derivative series disagree")
    return fixed


def c_series(order: int) -> TruncatedSeries:
    """Solution of C = z(1+2z)/(1-z^2) + C(z^2) with C(0) = 0; coefficient
    n >= 1 is 1 + 2*v2(n)."""
    inhom = expand_rational(DensePolynomial((0, 1, 2)), DensePolynomial((1, 0, -1)), order)
    system = AffineSystem.of(2, [inhom], [[(1,)]], [0])
    return solve_affine_system(system, order)[0]


def p_product_logderiv(poly: DensePolynomial, k: int, order: int
                       ) -> tuple[TruncatedSeries, TruncatedSeries]:
    """(A, B) with A the base-k infinite product of `poly` and B = A'/A.

    B must satisfy B = P'/P + k z^{k-1} B(z^k); the residual is checked
    exactly before returning.  P(0) = 1, so P'/P has integer coefficients.
    `div_exact` divides by the dense product by Newton, and by P, while P
    has at most SPARSE_TERMS nonzero tail terms, by the term recurrence:
    the two sides of the check take independent routes.
    """
    if poly.constant_term != 1:
        raise ValueError("infinite products need a polynomial with P(0) = 1")
    if order < 1:
        raise ValueError("order must be at least 1")
    a = infinite_product(poly, k, order)
    b = log_derivative(a)
    pp = div_exact(poly.derivative().to_series(order - 1), poly.to_series(order - 1))
    sub = substitute_power(b, k, max(order - k, 0))
    rhs = pp + sub.shift(k - 1).truncate(order - 1).scale(k)
    if b != rhs:
        raise InternalCheckError("log derivative violates its functional equation")
    return a, b


def binary_partition_series(order: int) -> TruncatedSeries:
    """Partitions into powers of two: the product of 1/(1 - z^m) over m = 2^j
    <= order.  Dividing by 1 - z^m is a running sum over each residue class
    mod m that holds more than one coefficient."""
    q = list(TruncatedSeries.one(order).coeffs)
    m = 1
    while m <= order:
        for r in range(min(m, order + 1 - m)):
            q[r::m] = accumulate(q[r::m])
        m *= 2
    return TruncatedSeries(tuple(q))


# ---------------------------------------------------------------------------
# Kernel-growth probe.
# ---------------------------------------------------------------------------


def exact_rank(rows) -> int:
    """Rank over the rationals of an integer matrix by fraction-free
    elimination: Bareiss one-step elimination keeps every intermediate
    entry an exact minor.
    """
    mat = [list(map(index, row)) for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        piv = mat[rank][col]
        prow = mat[rank]
        for r in range(rank + 1, len(mat)):
            rrow = mat[r]
            factor = rrow[col]
            # even factor-0 rows get scaled by the pivot: Bareiss needs it
            # for the later division by `prev` to stay exact
            for c in range(col, ncols):
                num = piv * rrow[c] - factor * prow[c]
                q, rem = divmod(num, prev)
                if rem:
                    raise InternalCheckError("fraction-free elimination lost exactness")
                rrow[c] = q
        prev = piv
        rank += 1
        if rank == len(mat):
            break
    return rank


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


def _section_ranks(values, k: int, depth: int, order: int) -> list[int]:
    ranks = []
    for d in range(depth + 1):
        length = order // k**d
        rows = []
        for j in range(d + 1):
            step = k**j
            for r in range(step):
                rows.append([values[r + i * step] for i in range(length)])
        ranks.append(exact_rank(rows))
    return ranks


def kernel_rank(target: str, values, k: int, depth: int, order: int) -> KernelProbeReport:
    """Probe the kernel of a coefficient sequence.

    Depth d contributes the k^d sections n -> a(k^d n + r); its rank is
    taken over all sections of depth <= d, each cut to the common prefix
    length floor(order / k^d).  Bounded, stabilising ranks are evidence of
    k-regularity; steady growth is evidence against it.
    """
    if k < 2:
        raise ValueError("base k must be at least 2")
    if depth < 0:
        raise ValueError("depth must be a natural number")
    if order < k**depth:
        raise ValueError(f"order must be at least k^depth = {k**depth}")
    values = list(values)
    if len(values) < order:
        raise ValueError(f"need at least {order} coefficient values")
    ranks = _section_ranks(values, k, depth, order)
    half = order // 2
    half_depth = depth
    while half_depth > 0 and k**half_depth > half:
        half_depth -= 1
    ranks_half = _section_ranks(values, k, half_depth, half) if half >= 1 else []
    # a decrease can only come from prefixes shorter than the span they
    # should exhibit: the window is too small to say anything at this depth
    for seq in (ranks, ranks_half):
        if any(a > b for a, b in zip(seq, seq[1:])):
            raise ValueError(
                f"order {order} is too small to probe depth {depth} reliably; "
                "section ranks exceed the available prefix length"
            )
    stable = list(ranks[: len(ranks_half)]) == list(ranks_half)
    return KernelProbeReport(
        target, k, order, depth, tuple(ranks), tuple(ranks_half), stable
    )
