"""Finite-alphabet topological Markov chains: alphabets, words, periodic points.

Everything downstream (measures, factor maps, potentials) sits on top of a
0/1 incidence matrix over a finite ordered alphabet.  Symbols are handled as
integer indices internally; labels only appear at the API boundary.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import AdmissibilityError, ModelError


class Alphabet:
    """Ordered finite alphabet with distinct hashable labels."""

    def __init__(self, labels: Sequence[str]):
        labels = [str(x) for x in labels]
        if len(labels) == 0:
            raise ModelError("alphabet must not be empty")
        if len(set(labels)) != len(labels):
            raise ModelError("alphabet labels must be distinct")
        self.labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(labels)}

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[str(label)]
        except KeyError:
            raise ModelError(f"unknown symbol label {label!r}") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.labels)!r})"


class PrimitivityResult(NamedTuple):
    primitive: bool
    exponent: Optional[int]


def pattern_primitivity(mat: np.ndarray) -> PrimitivityResult:
    """Least m with (pattern of mat)^m strictly positive, searched up to the
    Wielandt bound (size-1)^2 + 1.

    Works on the zero pattern only, so it applies to any square nonnegative
    matrix.  Positivity of P^m is monotone in m, so the search squares the
    pattern until a square is positive or its power passes the bound, then
    descends in binary over the stored squares: about 2 log2(bound)
    products in all, each taken in float (its counts are exact integers at
    most size) and read back as a pattern.
    """
    pattern = np.asarray(mat) != 0
    size = pattern.shape[0]
    if pattern.shape != (size, size):
        raise ModelError("primitivity check needs a square matrix")
    bound = (size - 1) ** 2 + 1
    squares = [pattern]  # squares[k] is the pattern of P^(2^k)
    while not squares[-1].all():
        if 2 ** (len(squares) - 1) >= bound:
            return PrimitivityResult(False, None)
        squares.append(np.matmul(squares[-1], squares[-1], dtype=float) > 0)
    if len(squares) == 1:
        return PrimitivityResult(True, 1)
    # P^m is not positive at m = 2^(K-1) and positive at 2^K, K = len(squares) - 1:
    # add each smaller power of two that leaves it not positive
    power, m = squares[-2], 2 ** (len(squares) - 2)
    for k in range(len(squares) - 3, -1, -1):
        candidate = np.matmul(power, squares[k], dtype=float) > 0
        if not candidate.all():
            power, m = candidate, m + 2**k
    return PrimitivityResult(True, m + 1)


class Tmc:
    """Topological Markov chain: alphabet plus a 0/1 incidence matrix.

    Every row and every column must contain at least one 1, so every symbol
    extends forward and backward.
    """

    def __init__(self, alphabet: Alphabet, incidence):
        incidence = np.asarray(incidence)
        n = alphabet.size
        if incidence.shape != (n, n):
            raise ModelError(
                f"incidence shape {incidence.shape} does not match alphabet size {n}"
            )
        if not np.isin(incidence, (0, 1)).all():
            raise ModelError("incidence entries must be 0 or 1")
        incidence = incidence.astype(np.int8)
        if (incidence.sum(axis=1) == 0).any():
            row = int(np.argmax(incidence.sum(axis=1) == 0))
            raise ModelError(f"symbol {alphabet.labels[row]!r} has no successor")
        if (incidence.sum(axis=0) == 0).any():
            col = int(np.argmax(incidence.sum(axis=0) == 0))
            raise ModelError(f"symbol {alphabet.labels[col]!r} has no predecessor")
        self.alphabet = alphabet
        self.incidence = incidence

    @property
    def size(self) -> int:
        return self.alphabet.size

    @cached_property
    def successor_table(self) -> tuple[tuple[int, ...], ...]:
        """The symbols that may follow each symbol, ascending: one table for every
        admissibility question, built on first use (wide chains need none)."""
        return tuple(tuple(np.flatnonzero(r).tolist()) for r in self.incidence)

    def allows(self, a: int, b: int) -> bool:
        return b in self.successor_table[a]

    def successors(self, a: int) -> tuple[int, ...]:
        """The symbols that may follow a, ascending."""
        return self.successor_table[a]

    def word(self, labels: Sequence[str]) -> "Word":
        return Word(self, tuple(self.alphabet.index(x) for x in labels))

    def __repr__(self) -> str:
        return f"Tmc(size={self.size})"


def check_primitivity(tmc: Tmc) -> PrimitivityResult:
    """Primitivity of the chain's incidence matrix."""
    return pattern_primitivity(tmc.incidence)


def primitive_root(symbols: tuple) -> tuple:
    """The shortest word of which symbols is a power (symbols itself when
    it is primitive)."""
    p = len(symbols)
    for q in range(1, p):
        if p % q == 0 and symbols == symbols[q:] + symbols[:q]:
            return symbols[:q]
    return symbols


class Word:
    """Admissible finite word over a chain, stored as symbol indices."""

    __slots__ = ("tmc", "symbols")

    def __init__(self, tmc: Tmc, symbols: Sequence[int]):
        symbols = tuple(map(int, symbols))
        if len(symbols) == 0:
            raise AdmissibilityError("words must be nonempty")
        n = tmc.size
        for s in symbols:
            if not 0 <= s < n:
                raise AdmissibilityError(f"symbol index {s} out of range")
        table = tmc.successor_table
        for a, b in zip(symbols, symbols[1:]):
            if b not in table[a]:
                raise AdmissibilityError(
                    f"transition {tmc.alphabet.labels[a]!r} -> "
                    f"{tmc.alphabet.labels[b]!r} is not allowed"
                )
        self.tmc = tmc
        self.symbols = symbols

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.tmc.alphabet.labels[s] for s in self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        # the exact type: a word and a periodic point are never equal
        return (
            type(other) is type(self)
            and self.tmc is other.tmc
            and self.symbols == other.symbols
        )

    def __hash__(self) -> int:
        return hash((id(self.tmc), self.symbols))

    def __repr__(self) -> str:
        return "Word(" + "".join(self.labels) + ")"


def word_symbols(tmc: Tmc, word) -> tuple[int, ...]:
    """The symbol indices of a Word over tmc, or of a sequence of indices
    admissible in tmc; anything else raises AdmissibilityError."""
    if isinstance(word, Word):
        if word.tmc is not tmc:
            raise AdmissibilityError("word does not belong to this chain")
        return word.symbols
    return Word(tmc, word).symbols


class PeriodicPoint(Word):
    """Periodic point given by one period of symbols: the period word.

    The period word must be cyclically admissible and primitive (not a power
    of a shorter word).  Rotations are distinct points; positivity checks on
    one-period matrix products are phase dependent, so each rotation matters.
    """

    __slots__ = ()

    def __init__(self, tmc: Tmc, symbols: Sequence[int]):
        super().__init__(tmc, symbols)
        if not tmc.allows(self.symbols[-1], self.symbols[0]):
            raise AdmissibilityError("period word does not close up cyclically")
        if primitive_root(self.symbols) != self.symbols:
            raise AdmissibilityError("period word is a power of a shorter word")

    @property
    def period(self) -> int:
        return len(self.symbols)

    def canonical_rotation(self) -> tuple[int, ...]:
        """Lexicographically least rotation; identifies the orbit."""
        p = len(self.symbols)
        return min(self.symbols[k:] + self.symbols[:k] for k in range(p))

    def __repr__(self) -> str:
        return "PeriodicPoint((" + "".join(self.labels) + ")^inf)"


def enumerate_words(tmc: Tmc, n: int) -> list[Word]:
    """All admissible words of length n, in lexicographic order of indices.

    The count always equals 1^T M^(n-1) 1.
    """
    if n < 1:
        raise AdmissibilityError("word length must be >= 1")
    # extending each word of one length by its successors, in ascending
    # order, keeps the words of the next length in lexicographic order
    level = [(a,) for a in range(tmc.size)]
    for _ in range(n - 1):
        level = [w + (b,) for w in level for b in tmc.successors(w[-1])]
    words: list[Word] = []
    for symbols in level:
        w = Word.__new__(Word)
        w.tmc = tmc
        w.symbols = symbols
        words.append(w)
    return words


def enumerate_periodic(tmc: Tmc, p_max: int) -> list[PeriodicPoint]:
    """All periodic points of period <= p_max.

    Every cyclically admissible primitive word contributes one point per
    rotation; rotations are listed as distinct points.
    """
    if p_max < 1:
        raise AdmissibilityError("maximal period must be >= 1")
    points: list[PeriodicPoint] = []
    for p in range(1, p_max + 1):
        for word in enumerate_words(tmc, p):
            symbols = word.symbols
            if not tmc.allows(symbols[-1], symbols[0]):
                continue
            if primitive_root(symbols) != symbols:
                continue
            pt = PeriodicPoint.__new__(PeriodicPoint)
            pt.tmc = tmc
            pt.symbols = symbols
            points.append(pt)
    return points
