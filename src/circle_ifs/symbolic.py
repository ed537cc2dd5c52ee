"""Finite words, cylinders, and random sequence models on {1..k}^N.

Sequence models carry a probability floor p in (0, 1/k]: every conditional
next-letter probability is >= p regardless of the past.  Sampling uses a
counter-based generator (Philox) keyed by (seed, stream), so distinct
streams are non-overlapping and every draw is reproducible.  Each model
samples through one method, `sample_matrix`; `sample` is its first row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


class InvalidModel(ValueError):
    """Weights or transition rows violate the floor-p invariant."""


@dataclass(frozen=True)
class Word:
    """Finite word over the alphabet {1..k}."""

    letters: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("alphabet size k must be >= 1")
        for a in self.letters:
            if not 1 <= a <= self.k:
                raise ValueError(f"letter {a} outside alphabet 1..{self.k}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.letters[i], self.k)
        return self.letters[i]

    def concat(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters, max(self.k, other.k))

    def reversed(self) -> "Word":
        return Word(self.letters[::-1], self.k)

    def repeat(self, times: int) -> "Word":
        return Word(self.letters * times, self.k)

    def to_json(self) -> list[int]:
        return list(self.letters)

    @staticmethod
    def from_json(letters: Sequence[int], k: int) -> "Word":
        return Word(tuple(int(a) for a in letters), k)


@dataclass(frozen=True)
class Cylinder:
    """C_sigma = set of infinite sequences starting with the word sigma."""

    word: Word


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    key = np.array([seed % (1 << 64), stream % (1 << 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _letter_dtype(k: int) -> type:
    """int8 letters unless the alphabet outgrows them."""
    return np.int8 if k <= np.iinfo(np.int8).max else np.int64


class SequenceModel:
    """Base for distributions on {1..k}^N with conditional floor p."""

    k: int
    p: float

    def sample_matrix(self, n_rows: int, length: int, seed: int, stream: int = 0) -> np.ndarray:
        """(n_rows, length) matrix of letters 1..k."""
        raise NotImplementedError

    def sample(self, length: int, seed: int, stream: int = 0) -> Word:
        """Deterministic sample of a length-n prefix: row 0 of sample_matrix."""
        if length < 1:
            raise ValueError("length must be >= 1")
        row = self.sample_matrix(1, length, seed, stream)[0]
        return Word(tuple(row.tolist()), self.k)

    def cylinder_measure(self, c: Cylinder) -> float:
        """Exact product of conditional probabilities; always >= p^|sigma|."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class BernoulliModel(SequenceModel):
    """Independent letters with fixed weights; p = min weight."""

    def __init__(self, weights: Sequence[float]):
        w = tuple(float(x) for x in weights)
        if len(w) < 1:
            raise InvalidModel("need at least one letter")
        if abs(sum(w) - 1.0) > 1e-9:
            raise InvalidModel(f"weights must sum to 1, got {sum(w)}")
        if min(w) <= 0.0:
            raise InvalidModel("every letter weight must be positive (floor p > 0)")
        self.weights = w
        self.k = len(w)
        self.p = min(w)
        self._cum = np.cumsum(w)

    def sample_matrix(self, n_rows: int, length: int, seed: int, stream: int = 0) -> np.ndarray:
        """(n_rows, length) letter matrix; all rows share one stream, row-major."""
        u = _rng(seed, stream).random((n_rows, length))
        idx = np.minimum(np.searchsorted(self._cum, u.ravel(), side="right"), self.k - 1)
        return (idx.reshape(n_rows, length) + 1).astype(_letter_dtype(self.k))

    def cylinder_measure(self, c: Cylinder) -> float:
        out = 1.0
        for a in c.word:
            out *= self.weights[a - 1]
        return out

    def to_json(self) -> dict:
        return {"kind": "bernoulli", "weights": list(self.weights)}


class MarkovMinorizedModel(SequenceModel):
    """One-step Markov chain whose transition entries all stay >= p > 0."""

    def __init__(self, rows: Sequence[Sequence[float]], initial: Sequence[float] | None = None):
        mat = [tuple(float(x) for x in r) for r in rows]
        k = len(mat)
        if k < 1 or any(len(r) != k for r in mat):
            raise InvalidModel("transition matrix must be square")
        for i, r in enumerate(mat):
            if abs(sum(r) - 1.0) > 1e-9:
                raise InvalidModel(f"row {i} must sum to 1, got {sum(r)}")
        floor = min(min(r) for r in mat)
        if floor <= 0.0:
            raise InvalidModel("every transition entry must be positive (floor p > 0)")
        if initial is None:
            initial = [1.0 / k] * k
        init = tuple(float(x) for x in initial)
        if abs(sum(init) - 1.0) > 1e-9 or min(init) < 0.0:
            raise InvalidModel("initial distribution must be a probability vector")
        self.rows = tuple(mat)
        self.initial = init
        self.k = k
        self.p = floor
        self._row_cum = [np.cumsum(r) for r in mat]
        self._init_cum = np.cumsum(init)

    def sample_matrix(self, n_rows: int, length: int, seed: int, stream: int = 0) -> np.ndarray:
        """(n_rows, length) letter matrix; row r is drawn from stream + r.

        Each uniform u_i picks the next state of every possible current
        state at once (one table row per state), and the chain then walks
        that table by list lookup.
        """
        last = self.k - 1
        out = np.empty((n_rows, length), dtype=_letter_dtype(self.k))
        for r in range(n_rows):
            u = _rng(seed, stream + r).random(length)
            table = [
                np.minimum(np.searchsorted(cum, u, side="right"), last).tolist()
                for cum in self._row_cum
            ]
            state = min(int(np.searchsorted(self._init_cum, u[0], side="right")), last)
            states = [state]
            for i in range(1, length):
                state = table[state][i]
                states.append(state)
            out[r] = states
        return out + 1

    def cylinder_measure(self, c: Cylinder) -> float:
        if len(c.word) == 0:
            return 1.0
        letters = c.word.letters
        out = self.initial[letters[0] - 1]
        for prev, nxt in zip(letters, letters[1:]):
            out *= self.rows[prev - 1][nxt - 1]
        return out

    def to_json(self) -> dict:
        return {
            "kind": "markov",
            "rows": [list(r) for r in self.rows],
            "initial": list(self.initial),
        }


def model_from_json(obj: dict) -> SequenceModel:
    kind = obj.get("kind")
    if kind == "bernoulli":
        return BernoulliModel(obj["weights"])
    if kind == "markov":
        return MarkovMinorizedModel(obj["rows"], obj.get("initial"))
    raise InvalidModel(f"unknown model kind: {kind!r}")


def is_prefix_dense(w: Word, depth: int) -> bool:
    """True iff every word of length <= depth over {1..k} occurs as a factor.

    Checking length exactly `depth` suffices: any shorter word extends to a
    length-`depth` word, and factors of factors are factors.  This is the
    finite-depth proxy for having a dense orbit under the one-sided shift.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if len(w) < depth:
        return False
    needed = w.k**depth
    seen: set[tuple[int, ...]] = set()
    letters = w.letters
    for i in range(len(letters) - depth + 1):
        seen.add(letters[i : i + depth])
        if len(seen) == needed:
            return True
    return False


def all_words_concatenated(k: int, depth: int) -> Word:
    """Concatenation of every word of length <= depth, in lexicographic order.

    Prefix-dense to `depth` by construction; handy for building test
    sequences with a dense shift orbit prefix.
    """
    letters: list[int] = []
    for n in range(1, depth + 1):
        for idx in range(k**n):
            digits = []
            v = idx
            for _ in range(n):
                digits.append(v % k + 1)
                v //= k
            letters.extend(reversed(digits))
    return Word(tuple(letters), k)
