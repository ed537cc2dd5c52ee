"""Finite words and random sequence models on {1..k}^N.

Sequence models carry a probability floor p in (0, 1/k]: every conditional
next-letter probability is >= p regardless of the past.  Sampling uses a
counter-based generator (Philox): stream s of a seed is the key [seed, s],
both ints in 0..2**64-1, and row r of a stream starts at counter
[0, r, 0, 0], so distinct (stream, row) pairs never share a draw and every
draw is reproducible.  The streams in use are 0 (letter rows), 1 (sync-pair
points, and the backward attractor word of a density sweep), 100 + s
(the detection word of seed s) and 7000 + i (the bump of generator i
under `perturb`).  Each model samples through one method,
`sample_matrix`; `sample` is its first row.  A Markov matrix draws row r
from row r of its stream, so its letters are fixed by (seed, stream)
alone, whatever the shape asked for.  The chain is walked in chunks of
about sqrt(length) letters from every state at once, so besides one
counter reset per row the Python-level loop runs about 2 sqrt(length)
times per block of rows rather than once per letter.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator, Sequence

import numpy as np

from .circle_maps import _array, _finite, _object, _parsed


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
        # Each distinct letter is checked once; the message names the first bad one.
        if not all(1 <= a <= self.k for a in set(self.letters)):
            bad = next(a for a in self.letters if not 1 <= a <= self.k)
            raise ValueError(f"letter {bad} outside alphabet 1..{self.k}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.letters[i], self.k)
        return self.letters[i]

    def to_json(self) -> list[int]:
        return list(self.letters)


def _seed(value) -> int:
    """The one seed rule (config `seed`, --seed, `params.perturb_seed`, and
    every Philox key word): an int that fits one 64-bit key word (not a
    bool, a float or a string)."""
    if type(value) is not int or value < 0:
        raise ValueError("must be a non-negative integer")
    if value >= 1 << 64:
        raise ValueError(f"must be below 2**64, got {value!r}")
    return value


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Row 0 of stream `stream`: a Philox keyed [seed, stream].  Both follow
    `_seed`, so no two (seed, stream) pairs share a key."""
    try:
        key = np.array([_seed(seed), _seed(stream)], dtype=np.uint64)
    except ValueError as exc:
        raise ValueError(f"seed {seed!r}, stream {stream!r}: {exc}") from None
    return np.random.Generator(np.random.Philox(key=key))


def _stream_uniforms(n_rows: int, length: int, seed: int, stream: int, row: int) -> np.ndarray:
    """(n_rows, length) uniforms; line i is row `row + i` of the stream.

    One Philox has its counter reset per row, which draws the same numbers
    as a fresh generator advanced by (row + i) * 2**64 at less cost.
    """
    u = np.empty((n_rows, length))
    gen = _rng(seed, stream)
    fresh = gen.bit_generator.state
    for i in range(n_rows):
        fresh["state"]["counter"][1] = row + i
        gen.bit_generator.state = fresh
        gen.random(out=u[i])
    return u


def _add_next_states(u: np.ndarray, cum: np.ndarray, out: np.ndarray) -> None:
    """Add to `out` the inverse-CDF index of each uniform, capped at k - 1;
    both samplers pick letters by this rule.

    sum_{j < k-1} [u >= cum[j]] equals min(searchsorted(cum, u, "right"),
    k - 1) for any nondecreasing cum, zero-probability letters included.
    """
    for c in cum[:-1]:
        out += u >= c


# Markov rows are walked in blocks of about this many letters, so that the
# walk's temporaries (8 bytes of uniforms per letter) stay cache-sized and
# a large matrix does not leave the allocator holding extra memory.
_BLOCK_LETTERS = 1 << 16


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
        out = np.ones((n_rows, length), dtype=_letter_dtype(self.k))
        _add_next_states(u, self._cum, out)
        return out

    def to_json(self) -> dict:
        return {"kind": "bernoulli", "weights": list(self.weights)}


class MarkovMinorizedModel(SequenceModel):
    """One-step Markov chain whose transition entries all stay >= p > 0.

    Row r of `sample_matrix` is the chain driven by the uniforms of row r
    of stream `stream`: u_0 picks the first state from `initial`, and u_i picks
    state i from the transition row of state i-1.  A block of rows is
    walked together in chunks of C = isqrt(length) letters: each chunk is
    walked from every one of the k states at once, the chunks are joined
    left to right, and the letters are gathered from the walks of the
    states that the joins enter each chunk in.
    """

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
        if len(init) != k or abs(sum(init) - 1.0) > 1e-9 or min(init) < 0.0:
            raise InvalidModel(f"initial distribution must be a probability vector of {k} entries")
        self.rows = tuple(mat)
        self.initial = init
        self.k = k
        self.p = floor
        self._row_cum = [np.cumsum(r) for r in mat]
        self._init_cum = np.cumsum(init)

    def sample_matrix(self, n_rows: int, length: int, seed: int, stream: int = 0) -> np.ndarray:
        """(n_rows, length) letter matrix; row r is row r of the stream."""
        out = np.empty((n_rows, length), dtype=_letter_dtype(self.k))
        block = max(1, _BLOCK_LETTERS // max(length, 1))
        for r in range(0, n_rows, block):
            rows = min(block, n_rows - r)
            out[r : r + rows] = self._chain_letters(_stream_uniforms(rows, length, seed, stream, r))
        return out

    def _chain_letters(self, u: np.ndarray) -> np.ndarray:
        """Letters of the chains driven by the rows of uniforms u."""
        n_rows, length = u.shape
        k, dtype = self.k, _letter_dtype(self.k)
        if u.size == 0:
            return np.empty(u.shape, dtype=dtype)
        chunk = isqrt(length)
        n_chunks = -(-length // chunk)
        lanes = n_rows * n_chunks  # one lane per (row, chunk)
        # step[s, r, i]: state i of row r when state i-1 is s.  Column 0
        # draws from `initial` whatever s is, so chunk 0 enters in state 0.
        step = np.zeros((k, n_rows, n_chunks * chunk), dtype=dtype)
        for s, cum in enumerate(self._row_cum):
            _add_next_states(u[:, 1:], cum, step[s, :, 1:length])
        _add_next_states(u[:, 0], self._init_cum, step[:, :, 0])
        step = step.reshape(k, lanes, chunk).transpose(2, 0, 1).reshape(chunk, k * lanes)
        # walk[t, s * lanes + m]: state at offset t of lane m entered in state s.
        lane = np.arange(lanes)
        lane_of = np.tile(lane, k)
        walk = np.empty_like(step)
        walk[0] = step[0]
        for t in range(1, chunk):
            walk[t] = step[t].take(walk[t - 1].astype(np.intp) * lanes + lane_of)
        ends = walk[-1].reshape(k, n_rows, n_chunks)
        entry = np.zeros((n_rows, n_chunks), dtype=np.intp)
        rows = np.arange(n_rows)
        for c in range(1, n_chunks):
            entry[:, c] = ends[entry[:, c - 1], rows, c - 1]
        states = walk.take(entry.reshape(-1) * lanes + lane, axis=1)
        states = states.reshape(chunk, n_rows, n_chunks).transpose(1, 2, 0).reshape(n_rows, -1)
        return states[:, :length] + 1

    def to_json(self) -> dict:
        return {
            "kind": "markov",
            "rows": [list(r) for r in self.rows],
            "initial": list(self.initial),
        }


def model_from_json(obj: dict) -> SequenceModel:
    """The model of a JSON descriptor; `weights`, `rows` and `initial` are
    arrays of finite numbers (a bad entry's path reads e.g. `rows[1][0]`)."""
    kind = _object(obj).get("kind")
    if kind == "bernoulli":
        return BernoulliModel(_parsed(obj, "weights", _array(_finite)))
    if kind == "markov":
        rows = _parsed(obj, "rows", _array(_array(_finite)))
        return MarkovMinorizedModel(rows, _parsed(obj, "initial", _array(_finite), None))
    raise InvalidModel(f"unknown model kind: {kind!r}")

