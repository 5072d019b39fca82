"""Linear representations of rational series over digit alphabets, plus the
two counting transforms: one turns a recogniser into a subsequence counter,
the other into a contiguous-factor counter.

A representation is (row vector, one matrix per letter, column vector); the
value of a word is the row-matrix-...-column product.  Its entries are
either all integers or all integer polynomials in the weight variable w.
"""
from __future__ import annotations

from operator import index

from .sequences import W, ZERO_W, Frozen, WeightPolynomial, digits_of


def _row_times_matrix(row, matrix, zero):
    cols = len(matrix[0])
    out = []
    for j in range(cols):
        acc = zero
        for i, ri in enumerate(row):
            if ri:
                mij = matrix[i][j]
                if mij:
                    acc = acc + ri * mij
        out.append(acc)
    return out


def _dot(row, col, zero):
    acc = zero
    for a, b in zip(row, col):
        if a and b:
            acc = acc + a * b
    return acc


def _weight(x) -> WeightPolynomial:
    p = WeightPolynomial._lift(x)
    if p is None:
        raise TypeError(f"{x!r} is neither an integer nor a w-polynomial")
    return p


def _entry_json(x):
    if isinstance(x, WeightPolynomial):
        return [str(c) for c in x.coeffs]
    return str(x)


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
        zero = ZERO_W if self.weighted else 0
        row = self.init
        for digit in word:
            if not 0 <= digit < self.alphabet_size:
                raise ValueError(
                    f"digit {digit} is outside the alphabet of size {self.alphabet_size}"
                )
            row = _row_times_matrix(row, self.trans[digit], zero)
        return _dot(row, self.final, zero)

    def to_json_dict(self) -> dict:
        return {
            "states": self.states,
            "alphabet": self.alphabet_size,
            "ring": "integer-polynomial-in-w" if self.weighted else "integer",
            "init": [_entry_json(x) for x in self.init],
            "trans": [
                [[_entry_json(x) for x in row] for row in matrix] for matrix in self.trans
            ],
            "final": [_entry_json(x) for x in self.final],
        }


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


def representation_product(left: LinearRepresentation,
                           right: LinearRepresentation) -> LinearRepresentation:
    """Representation of the word-wise product: the value on w is the sum of
    left(u) * right(v) over all splittings w = uv.

    Block structure: a path spends a prefix in `left`'s states, then jumps
    (paying left's final weight and right's entry weight) into `right`'s.
    The product is weighted when either factor is.
    """
    if left.alphabet_size != right.alphabet_size:
        raise ValueError("alphabet size mismatch between representations")
    m, n = left.states, right.states
    new_trans = []
    for letter in range(left.alphabet_size):
        tl = left.trans[letter]
        tr = right.trans[letter]
        jump = _row_times_matrix(right.init, tr, 0)
        rows = []
        for i in range(m):
            rows.append(tuple(tl[i]) + tuple(left.final[i] * jump[j] for j in range(n)))
        for i in range(n):
            rows.append((0,) * m + tuple(tr[i]))
        new_trans.append(tuple(rows))
    eps_right = _dot(right.init, right.final, 0)
    new_init = tuple(left.init) + (0,) * n
    new_final = tuple(f * eps_right for f in left.final) + tuple(right.final)
    return LinearRepresentation.of(new_init, new_trans, new_final)


def all_words_representation(k: int) -> LinearRepresentation:
    """One state, value 1 on every word over a k-letter alphabet."""
    if k < 1:
        raise ValueError("alphabet needs at least one letter")
    return LinearRepresentation((1,), tuple(((1,),) for _ in range(k)), (1,))


def subfactor_transform(rep: LinearRepresentation) -> LinearRepresentation:
    """Counter over contiguous factors: the value of a word becomes the sum
    of rep's values over all factors, built as the three-phase
    before/inside/after product with absorbing outer phases."""
    everything = all_words_representation(rep.alphabet_size)
    return representation_product(everything, representation_product(rep, everything))


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
