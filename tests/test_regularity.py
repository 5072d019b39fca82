import functools
import json
import random
from fractions import Fraction
from itertools import cycle, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sterntwist.regularity as regularity
import sterntwist.series as series
from sterntwist.regularity import (
    AffineSystem,
    KernelProbeReport,
    binary_partition_series,
    c_series,
    degree_reduce,
    exact_rank,
    h_series,
    kernel_rank,
    p_product_logderiv,
    solve_affine_system,
)
from sterntwist.sequences import stern, v2
from sterntwist.series import (
    DensePolynomial,
    InternalCheckError,
    TruncatedSeries,
    div_exact,
    infinite_product,
    log_derivative,
    stern_series,
    substitute_power,
)


@pytest.mark.parametrize("build, num, den", [
    (h_series, (1, 2), (1, 1, 1)),
    (c_series, (0, 1, 2), (1, 0, -1)),
])
def test_periodic_terms_are_the_rational_expansions(monkeypatch, build, num, den):
    # h_series and c_series state their inhomogeneous terms as periodic data;
    # exact division is the independent reference, the only one C has
    terms = []
    solve = regularity.solve_affine_system
    monkeypatch.setattr(regularity, "solve_affine_system",
                        lambda system, order: terms.append(system.terms[0]) or solve(system, order))
    for n in [*range(601), 8192, 1 << 18]:
        build(n)
        want = div_exact(DensePolynomial(num).to_series(n), DensePolynomial(den).to_series(n))
        assert terms.pop().coeffs == want.coeffs, n


def test_affine_consistency_enforced():
    a = TruncatedSeries.one(8)
    AffineSystem.of(2, [a], [[(0, 2)]], [1])
    with pytest.raises(ValueError):
        AffineSystem.of(2, [a], [[(0, 2)]], [5])
    with pytest.raises(ValueError):
        AffineSystem.of(1, [a], [[(0,)]], [1])
    with pytest.raises(ValueError):
        AffineSystem.of(2, [a], [[(0,)], [(0,)]], [1])


def test_solve_h_system():
    inhom = TruncatedSeries(tuple(islice(cycle((1, 1, -2)), 65)))  # (1+2z)/(1+z+z^2)
    system = AffineSystem.of(2, [inhom], [[(0, 2)]], [1])
    solution = solve_affine_system(system, 64)[0]
    assert solution.coeffs[:4] == (1, 3, -2, 7)
    direct = log_derivative(stern_series(66), strip_valuation=True)
    assert solution == direct


def test_solve_zero_system():
    zero = TruncatedSeries.zero(16)
    system = AffineSystem.of(2, [zero], [[(1,)]], [0])
    assert solve_affine_system(system, 16)[0] == zero


def test_solution_is_fixed_point():
    inhom = div_exact(DensePolynomial((0, 1, 2)).to_series(128),
                      DensePolynomial((1, 0, -1)).to_series(128))
    system = AffineSystem.of(2, [inhom], [[(1,)]], [0])
    u = solve_affine_system(system, 128)[0]
    again = inhom.truncate(128) + substitute_power(u, 2, 128)
    assert again == u


def test_solve_requires_enough_order():
    inhom = TruncatedSeries.one(4)
    system = AffineSystem.of(2, [inhom], [[(0, 1)]], [1])
    with pytest.raises(ValueError):
        solve_affine_system(system, 10)


def test_degree_reduce_identity_when_reduced():
    inhom = TruncatedSeries.one(8)
    system = AffineSystem.of(2, [inhom], [[(0, 2)]], [1])
    assert degree_reduce(system) is system


def test_degree_reduce_preserves_solution():
    inhom = div_exact(DensePolynomial((1,)).to_series(64), DensePolynomial((1, -1)).to_series(64))
    system = AffineSystem.of(2, [inhom], [[(0, 0, 0, 1)]], [1])
    baseline = solve_affine_system(system, 64)[0]
    reduced = degree_reduce(system)
    assert reduced.d == 2
    assert reduced.max_form_degree() < system.max_form_degree()
    while reduced.max_form_degree() >= reduced.k:
        reduced = degree_reduce(reduced)
    solution = solve_affine_system(reduced, 64)
    assert solution[0] == baseline
    # the adjoined coordinates are the shifted originals
    assert solution[1] == baseline.shift(1).truncate(64)


def test_degree_reduce_forms_of_the_degree_3_system():
    # acceptance criterion 9's system, every round pinned form by form: a
    # part from z^k on that is zero reads (), and trailing zeros go
    inhom = div_exact(DensePolynomial((1,)).to_series(64), DensePolynomial((1, -1)).to_series(64))
    reduced = AffineSystem.of(2, [inhom], [[(0, 0, 0, 1)]], [1])
    rounds = []
    while reduced.max_form_degree() >= reduced.k:
        reduced = degree_reduce(reduced)
        rounds.append(reduced.forms)
    assert rounds == [
        (((0, 0), (0, 1)),
         ((0, 0), (0, 0, 1))),
        (((0, 0), (0, 1), (), ()),
         ((0, 0), (0, 0), (), (1,)),
         ((0, 0), (0, 0), (), (1,)),
         ((0, 0), (0, 0), (), (0, 1))),
    ]


def _solve_at_full_order(system, order):
    """The former fixed-point iteration, kept as the oracle: floor(log_k
    order) + 2 rounds, each computing all order + 1 coefficients of every
    unknown term by term, U_i[n] = A_i[n] + sum c * U_j[(n - m) / k] over the
    monomials c*z^m of form (i, j)."""
    k = system.k
    rounds = 1
    while k**rounds <= order:
        rounds += 1
    current = [[c] + [0] * order for c in system.constants]
    for _ in range(rounds + 1):
        nxt = []
        for a, row in zip(system.terms, system.forms):
            out = list(a.coeffs[: order + 1])
            for poly, u in zip(row, current):
                for m, c in enumerate(poly):
                    for q in range(max(order - m, -1) // k + 1):
                        out[m + q * k] += c * u[q]
            nxt.append(out)
        current = nxt
    return current


@st.composite
def affine_systems(draw):
    """A consistent system of d unknowns in base k whose forms may reach
    degree 2k, with its order: the constants are drawn first and A_i(0)
    is set to satisfy the equations modulo z."""
    k = draw(st.sampled_from([2, 3]))
    d = draw(st.sampled_from([1, 2]))
    order = draw(st.integers(0, 300))
    small = st.integers(-3, 3)
    forms = [[draw(st.lists(small, max_size=2 * k + 1)) for _ in range(d)] for _ in range(d)]
    constants = [draw(small) for _ in range(d)]
    terms = []
    for i in range(d):
        tail = draw(st.lists(small, min_size=order + 1, max_size=order + 1))
        tail[0] = constants[i] - sum(p[0] * c for p, c in zip(forms[i], constants) if p)
        terms.append(TruncatedSeries.from_coeffs(tail))
    return AffineSystem.of(k, terms, forms, constants), order


@settings(max_examples=80, deadline=None)
@given(affine_systems())
@example((AffineSystem.of(2, [TruncatedSeries.one(0)], [[(0, 2)]], [1]), 0))
def test_prefix_rounds_match_the_full_order_iteration(case):
    system, order = case
    computed = []
    substitute = regularity.substitute_power

    def counted(u, k, n):
        # called once per unknown per round, with the round's order n
        computed.append(n + 1)
        return substitute(u, k, n)

    want = _solve_at_full_order(system, order)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularity, "substitute_power", counted)
        got = solve_affine_system(system, order)
    assert [list(u.coeffs) for u in got] == want
    # the rounds grow k-fold up to order, then one check round at order
    assert sum(computed) <= 4 * (order + 1) * system.d
    assert computed[-system.d:] == [order + 1] * system.d
    assert len(computed) == system.d or computed[-2 * system.d:] == [order + 1] * 2 * system.d
    reduced = system
    while reduced.max_form_degree() >= reduced.k:
        reduced = degree_reduce(reduced)
    assert [list(u.coeffs) for u in solve_affine_system(reduced, order)[: system.d]] == want


def test_solver_takes_no_product_or_division(monkeypatch):
    # the fixed point is the check on H's division route: it must not
    # reach the product kernel or the division
    order = 1024
    inhom = TruncatedSeries(tuple(islice(cycle((1, 1, -2)), order + 1)))  # (1+2z)/(1+z+z^2)
    system = AffineSystem.of(2, [inhom], [[(0, 2)]], [1])

    def refused(*args):
        raise AssertionError("the fixed-point route reached the product kernel or a division")

    for module, name in [(series, "_mul_coeffs"), (series, "div_exact"), (regularity, "div_exact"),
                         (series, "div_stern"), (regularity, "div_stern")]:
        monkeypatch.setattr(module, name, refused)
    assert solve_affine_system(system, order)[0].coeffs[:4] == (1, 3, -2, 7)


def _perturbed(a, where):
    wrong = list(a.coeffs)
    wrong[int(where * a.order)] += 1
    return TruncatedSeries(tuple(wrong))


@pytest.mark.parametrize("where", [0, 0.5, 1])
def test_h_series_refuses_a_perturbed_route(monkeypatch, where):
    order = 256
    div_stern = regularity.div_stern
    solve = regularity.solve_affine_system
    monkeypatch.setattr(regularity, "div_stern", lambda a: _perturbed(div_stern(a), where))
    with pytest.raises(InternalCheckError):
        h_series(order)
    monkeypatch.setattr(regularity, "div_stern", div_stern)
    assert h_series(order).order == order
    monkeypatch.setattr(regularity, "solve_affine_system",
                        lambda system, n: [_perturbed(u, where) for u in solve(system, n)])
    with pytest.raises(InternalCheckError):
        h_series(order)


def test_h_series_prefix_and_agreement():
    h = h_series(256)
    assert h.coeffs[:4] == (1, 3, -2, 7)
    assert h == log_derivative(stern_series(258), strip_valuation=True)


def test_c_series_law():
    c = c_series(1024)
    assert c.coeff(0) == 0
    assert c.coeff(1) == 1
    assert c.coeff(8) == 7
    assert c.coeff(12) == 5
    for n in range(1, 1025):
        assert c.coeff(n) == 1 + 2 * v2(n)
        assert c.coeff(n) * stern(n) == stern(n - 1) + stern(n + 1)


def test_p_product_logderiv():
    a, b = p_product_logderiv(DensePolynomial((1, 1, 1)), 2, 128)
    assert a.shift(1) == stern_series(129)
    assert b == h_series(127)
    a2, _ = p_product_logderiv(DensePolynomial((1, -1)), 2, 128)
    assert all(c == (-1) ** bin(n).count("1") for n, c in enumerate(a2.coeffs))
    a3, b3 = p_product_logderiv(DensePolynomial((1,)), 2, 16)
    assert a3 == TruncatedSeries.one(16)
    assert b3 == TruncatedSeries.zero(15)
    with pytest.raises(ValueError):
        p_product_logderiv(DensePolynomial((0, 1)), 2, 16)


@pytest.mark.parametrize("coeffs, k", [((1, 1, 1), 2), ((1, -1), 2), ((1, 0, -2, 1), 3)])
@pytest.mark.parametrize("where", [0, 0.5, 1])
def test_p_product_logderiv_residual_check(monkeypatch, coeffs, k, where):
    poly, order = DensePolynomial(coeffs), 256
    calls = []
    quotient = series._quotient

    def spy(m, d, n):
        calls.append(n)
        return quotient(m, d, n)

    monkeypatch.setattr(series, "_quotient", spy)
    b = log_derivative(infinite_product(poly, k, order))
    assert calls  # B divides by the dense product through _quotient ...
    calls.clear()
    monkeypatch.setattr(regularity, "log_derivative", lambda a: b)
    assert p_product_logderiv(poly, k, order)[1] is b
    assert not calls  # ... and the residual's P'/P through the recurrence
    wrong = list(b.coeffs)
    wrong[int(where * b.order)] += 1
    monkeypatch.setattr(regularity, "log_derivative", lambda a: TruncatedSeries(tuple(wrong)))
    with pytest.raises(InternalCheckError):
        p_product_logderiv(poly, k, order)


def test_binary_partitions():
    b = binary_partition_series(2048)
    assert b.coeffs[:10] == (1, 1, 2, 2, 4, 4, 6, 6, 10, 10)
    assert b.coeff(1) == 1
    for n in range(1024):
        assert b.coeff(2 * n + 1) == b.coeff(2 * n)
    # independent oracle: coin-style dynamic program
    dp = [1] + [0] * 512
    power = 1
    while power <= 512:
        for n in range(power, 513):
            dp[n] += dp[n - power]
        power *= 2
    assert list(b.coeffs[:513]) == dp


def _binary_partitions_by_division(order):
    """The former route: one exact division by 1 - z^m per m = 2^j <= order."""
    acc = TruncatedSeries.one(order)
    m = 1
    while m <= order:
        acc = div_exact(acc, DensePolynomial((1,) + (0,) * (m - 1) + (-1,)).to_series(order))
        m *= 2
    return acc


@pytest.mark.parametrize("order", [0, 1, 2, 3, 14, 15, 16, 63, 64, 255, 256, 1024, 2048, 8192])
def test_binary_partitions_match_the_division_route(order):
    got = binary_partition_series(order)
    assert got.coeffs == _binary_partitions_by_division(order).coeffs


def test_binary_partitions_reject_negative_orders():
    with pytest.raises(ValueError, match="order must be a natural number"):
        binary_partition_series(-1)


def _fraction_rank(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    if not rows:
        return 0
    cols = len(rows[0])
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] * inv
                for c in range(col, cols):
                    rows[r][c] -= f * rows[rank][c]
        rank += 1
        if rank == len(rows):
            break
    return rank


def test_exact_rank_small_cases():
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([]) == 0


@st.composite
def redundant_rows(draw):
    """A few base rows, then repeats, zero rows, scaled copies and sums of
    them, shuffled: rows the elimination drops before it starts or after a
    pivot."""
    width = draw(st.integers(1, 8))
    entries = st.integers(-6, 6)
    base = draw(st.lists(st.lists(entries, min_size=width, max_size=width), min_size=1,
                         max_size=5))
    rows = list(base)
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["repeat", "zero", "scaled", "sum"]))
        row, other = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        if kind == "repeat":
            rows.append(list(row))
        elif kind == "zero":
            rows.append([0] * width)
        elif kind == "scaled":
            c = draw(st.integers(-5, 5).filter(bool))
            rows.append([c * x for x in row])
        else:
            rows.append([x + y for x, y in zip(row, other)])
    return draw(st.permutations(rows))


@st.composite
def late_vanishing_rows(draw):
    """Rows with entries up to 2^64, then integer combinations of three or
    more picks of them: a combination turns to zero only after several
    pivots."""
    width = draw(st.integers(3, 7))
    entries = st.integers(-(1 << 64), 1 << 64)
    base = draw(st.lists(st.lists(entries, min_size=width, max_size=width), min_size=3,
                         max_size=width))
    rows = list(base)
    for _ in range(draw(st.integers(1, 4))):
        picked = draw(st.lists(st.sampled_from(base), min_size=3, max_size=len(base)))
        coeffs = draw(st.lists(st.integers(-(1 << 32), 1 << 32).filter(bool),
                               min_size=len(picked), max_size=len(picked)))
        rows.append([sum(c * row[i] for c, row in zip(coeffs, picked)) for i in range(width)])
    return draw(st.permutations(rows))


def _matrices(height, width, entries):
    """Up to `height` rows of one common width up to `width`."""
    return st.integers(1, width).flatmap(lambda w: st.lists(
        st.lists(entries, min_size=w, max_size=w), min_size=1, max_size=height))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    ),
    redundant_rows(),
    _matrices(14, 3, st.integers(-3, 3)),  # tall
    _matrices(3, 14, st.integers(-3, 3)),  # wide
    _matrices(6, 6, st.integers(-(1 << 64), 1 << 64)),
    late_vanishing_rows(),
))
def test_exact_rank_matches_fraction_elimination(rows):
    assert exact_rank(rows) == _fraction_rank(rows)


def test_kernel_rank_stern():
    values = [stern(n) for n in range(512)]
    report = kernel_rank("stern", values, 2, 4, 512)
    assert report.ranks == (1, 2, 2, 2, 2)
    assert report.stable
    parsed = json.loads(report.to_json())
    assert parsed == report.to_json_dict()
    assert parsed["ranks"] == [1, 2, 2, 2, 2]


def test_kernel_rank_constant():
    report = kernel_rank("ones", [1] * 256, 2, 4, 256)
    assert report.ranks == (1, 1, 1, 1, 1)


def test_kernel_rank_binary_partitions_grow():
    values = binary_partition_series(1023).coeffs
    report = kernel_rank("binpart", values, 2, 5, 1024)
    assert all(a < b for a, b in zip(report.ranks[1:], report.ranks[2:]))


def test_kernel_rank_preconditions():
    with pytest.raises(ValueError):
        kernel_rank("x", [1] * 16, 2, 5, 16)
    with pytest.raises(ValueError):
        kernel_rank("x", [1] * 4, 2, 1, 16)
    with pytest.raises(ValueError):
        kernel_rank("x", [1] * 16, 1, 1, 16)
    with pytest.raises(ValueError, match="order must be at least 2, so that the half-order probe"):
        kernel_rank("x", [], 2, 0, 0)
    # order 1 has no half-order prefix, so nothing would be compared
    with pytest.raises(ValueError, match="order must be at least 2, so that the half-order probe"):
        kernel_rank("x", [1], 2, 0, 1)
    # 2^4 <= 16 < 2^5: depth 4 runs, 5 and a depth whose power would take
    # minutes to form are refused at once, naming 4
    assert kernel_rank("x", [1] * 16, 2, 4, 16).ranks == (1,) * 5
    for depth in (5, 10**8):
        with pytest.raises(ValueError, match=r"depth must be at most 4, since order 16 < 2\^5"):
            kernel_rank("x", [1] * 16, 2, depth, 16)


def test_kernel_rank_rejects_unreliable_prefix():
    # deep probes over short windows: the rank a growing target exhibits
    # collapses with the prefix length, which the probe refuses to report
    values = binary_partition_series(255).coeffs
    with pytest.raises(ValueError, match="too small"):
        kernel_rank("binpart", values, 2, 6, 256)


_PROBE_ORDER = 200
_PROBE_TARGETS = {
    "stern": stern_series(_PROBE_ORDER).coeffs,
    "H": h_series(_PROBE_ORDER).coeffs,
    "C": c_series(_PROBE_ORDER).coeffs,
    "binpart": binary_partition_series(_PROBE_ORDER).coeffs,
    "random": tuple(random.Random(2010).choices(range(-3, 4), k=_PROBE_ORDER + 1)),
    "constant": (7,) * (_PROBE_ORDER + 1),
    "zeros": (0,) * (_PROBE_ORDER + 1),
}


@functools.lru_cache(maxsize=None)
def _depth_rank(target, k, d, length):
    """Rank of all sections of depth <= d cut to `length` terms, as one
    matrix eliminated over the rationals."""
    values = _PROBE_TARGETS[target]
    return _fraction_rank([values[r : r + length * k**j : k**j]
                           for j in range(d + 1) for r in range(k**j)])


def _two_pass_probe(target, k, depth, order):
    """The former probe: one matrix per depth at the full order, then a
    separate pass at half the order.  The JSON report or the ValueError text."""
    try:
        regularity.check_kernel_probe(k, depth, order)
        half = order // 2
        half_depth = depth
        while half_depth > 0 and k**half_depth > half:
            half_depth -= 1
        ranks = [_depth_rank(target, k, d, order // k**d) for d in range(depth + 1)]
        ranks_half = [_depth_rank(target, k, d, half // k**d) for d in range(half_depth + 1)]
        for seq in (ranks, ranks_half):
            if any(a > b for a, b in zip(seq, seq[1:])):
                raise ValueError(
                    f"order {order} is too small to probe depth {depth} reliably; "
                    "section ranks exceed the available prefix length"
                )
    except ValueError as exc:
        return str(exc)
    stable = ranks[: len(ranks_half)] == ranks_half
    return KernelProbeReport(target, k, order, depth, tuple(ranks), tuple(ranks_half),
                             stable).to_json()


@pytest.mark.parametrize("target", list(_PROBE_TARGETS))
def test_kernel_rank_matches_the_two_pass_probe(target):
    values = _PROBE_TARGETS[target]
    for k in (2, 3, 4, 5):
        orders = range(1, _PROBE_ORDER + 1) if k == 2 else range(1, _PROBE_ORDER + 1, 7)
        for order in orders:
            for depth in range(9):
                try:
                    got = kernel_rank(target, values, k, depth, order).to_json()
                except ValueError as exc:
                    got = str(exc)
                assert got == _two_pass_probe(target, k, depth, order), (k, depth, order)


def test_kernel_report_monotonicity_guard():
    with pytest.raises(Exception):
        KernelProbeReport("bad", 2, 64, 2, (3, 1, 1), (3, 1, 1), True)
