"""Linear representations of rational series over digit alphabets, plus the
two counting transforms: one turns a recogniser into a subsequence counter,
the other into a contiguous-factor counter.

A representation is (row vector, one matrix per letter, column vector); the
value of a word is the row-matrix-...-column product.  Its entries are
either all integers or all integer polynomials in the weight variable w.
"""
from __future__ import annotations

from operator import index

from .sequences import ONE_W, W, ZERO_W, Frozen, WeightPolynomial, digits_of


def _row_times_matrix(row, matrix, zero, one):
    """row . matrix, a matrix row at a time, so a zero entry of `row` skips
    its matrix row.  An entry that is `one` (1, or the w-polynomial 1) in
    value and type adds its row entry without the product, which would
    give the same value and type; the check builds no polynomial."""
    out = [zero] * len(matrix[0])
    for a, matrix_row in zip(row, matrix):
        if a:
            for j, b in enumerate(matrix_row):
                if b:
                    out[j] = out[j] + (a if type(b) is type(one) and b == one else a * b)
    return out


def _dot(row, col, zero, one):
    acc = zero
    for a, b in zip(row, col):
        if a and b:
            acc = acc + (a if type(b) is type(one) and b == one else a * b)
    return acc


def _weight(x) -> WeightPolynomial:
    p = WeightPolynomial._lift(x)
    if p is None:
        raise TypeError(f"{x!r} is neither an integer nor a w-polynomial")
    return p


class LinearRepresentation(Frozen):
    """(init, trans, final) with integer or w-polynomial entries; trans[letter]
    is a square matrix and the value of a word is
    init . trans(d_1) ... trans(d_m) . final."""

    __slots__ = ("init", "trans", "final")

    def __init__(self, init: tuple, trans: tuple, final: tuple):
        m = len(init)
        if len(final) != m:
            raise ValueError("init and final vectors must have equal length")
        if not trans:
            raise ValueError("need at least one letter")
        for matrix in trans:
            if len(matrix) != m or any(len(row) != m for row in matrix):
                raise ValueError("transition matrices must be square of the state count")
        self._set_fields(init, trans, final)

    @classmethod
    def of(cls, init, trans, final) -> "LinearRepresentation":
        """The representation of integer or w-polynomial entries; when any
        entry is a w-polynomial, every entry is lifted to one."""
        init, final = tuple(init), tuple(final)
        trans = tuple(tuple(tuple(row) for row in matrix) for matrix in trans)
        entries = (*init, *final, *(x for matrix in trans for row in matrix for x in row))
        lift = _weight if any(isinstance(x, WeightPolynomial) for x in entries) else index
        return cls(
            tuple(map(lift, init)),
            tuple(tuple(tuple(map(lift, row)) for row in matrix) for matrix in trans),
            tuple(map(lift, final)),
        )

    @property
    def states(self) -> int:
        return len(self.init)

    @property
    def alphabet_size(self) -> int:
        return len(self.trans)

    @property
    def weighted(self) -> bool:
        """Whether the entries are w-polynomials rather than integers."""
        return any(isinstance(x, WeightPolynomial) for x in self.init)

    def evaluate(self, word) -> object:
        """Value on an explicit digit word (most significant first)."""
        zero, one = (ZERO_W, ONE_W) if self.weighted else (0, 1)
        row = self.init
        for digit in word:
            if not 0 <= digit < self.alphabet_size:
                raise ValueError(
                    f"digit {digit} is outside the alphabet of size {self.alphabet_size}"
                )
            row = _row_times_matrix(row, self.trans[digit], zero, one)
        return _dot(row, self.final, zero, one)


def subsequence_transform(rep: LinearRepresentation) -> LinearRepresentation:
    """Counter over subsequences: every letter matrix gains the identity, so
    a path either feeds the letter through the original matrices or skips
    it, and the value of a word becomes the sum of rep's values over all of
    the word's subsequences."""
    m = rep.states
    new_trans = []
    for matrix in rep.trans:
        new_trans.append(
            tuple(
                tuple(
                    matrix[i][j] + 1 if i == j else matrix[i][j] for j in range(m)
                )
                for i in range(m)
            )
        )
    return LinearRepresentation(rep.init, tuple(new_trans), rep.final)


def subfactor_transform(rep: LinearRepresentation) -> LinearRepresentation:
    """Counter over contiguous factors: the value of a word becomes the sum
    of rep's values over all factors.  A path waits in a before state, runs
    rep over one factor, and waits out the word in an after state; entering
    rep pays its init alpha, leaving it its final beta.  In blocks, with M
    the letter's matrix in rep, each letter matrix is

        [[1, alpha*M, alpha.beta],
         [0, M,       beta      ],
         [0, 0,       1         ]]

    and the vectors are (1, 0, ..., 0) and (alpha.beta, beta, 1), where
    alpha.beta is rep's value on the empty factor."""
    alpha, beta = rep.init, rep.final
    zero, one = (ZERO_W, ONE_W) if rep.weighted else (0, 1)
    empty = _dot(alpha, beta, zero, one)
    pad = (0,) * (rep.states + 1)
    trans = [
        [(1, *_row_times_matrix(alpha, matrix, zero, one), empty),
         *((0, *row, b) for row, b in zip(matrix, beta)),
         pad + (1,)]
        for matrix in rep.trans
    ]
    return LinearRepresentation.of((1,) + pad, trans, (empty, *beta, 1))


def count_in_expansion(rep: LinearRepresentation, n: int, base: int = 2) -> object:
    """Evaluate `rep` on the base-`base` expansion of n (no leading zeros;
    n = 0 is the single-digit word 0)."""
    return rep.evaluate(digits_of(n, base))


def admissible_representation(weighted: bool = True) -> LinearRepresentation:
    """Three-state recogniser of the pattern family 1, 101, 10101, ...

    States: seeking the opening 1 / just matched a 1 / extended by a 0 and
    awaiting the closing 1.  In the weighted version the transition closing
    each 01 extension carries the weight w, so the word 1(01)^k evaluates
    to w^k; unweighted, every complete pattern evaluates to 1.
    """
    close = W if weighted else 1
    m_one = ((0, 1, 0), (0, 0, 0), (0, close, 0))
    m_zero = ((0, 0, 0), (0, 0, 1), (0, 0, 0))
    return LinearRepresentation.of((1, 0, 0), (m_zero, m_one), (0, 1, 0))


def word_indicator(word, k: int) -> LinearRepresentation:
    """Representation valued 1 exactly on the given digit word, 0 elsewhere."""
    word = tuple(word)
    if any(not 0 <= d < k for d in word):
        raise ValueError("word digits must fit the alphabet")
    m = len(word) + 1
    trans = []
    for letter in range(k):
        matrix = [[0] * m for _ in range(m)]
        for i, d in enumerate(word):
            if d == letter:
                matrix[i][i + 1] = 1
        trans.append(tuple(tuple(row) for row in matrix))
    init = (1,) + (0,) * (m - 1)
    final = (0,) * (m - 1) + (1,)
    return LinearRepresentation.of(init, tuple(trans), final)
