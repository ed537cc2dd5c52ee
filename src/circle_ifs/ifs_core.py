"""IFS orbital branches, semigroup orbits, and density estimation.

Composition convention: a word w = (w_1, ..., w_n) acts by applying the
generator for w_1 first, i.e. the branch is f_{w_n} o ... o f_{w_1}.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .circle_maps import (CirclePoint, Composition, LiftMap, _frac, _Record, _scalar_step,
                          circle_distance_array)
from .symbolic import Word

WordLike = Union[Word, Sequence[int]]

# Orbit points closer than this are merged during breadth-first enumeration;
# far below every epsilon of interest, prevents exponential blowup.
DEDUP_RES = 1e-9
# An orbit of _orbit_levels holds at most ORBIT_CAP points, its start
# included, and keeps at most FRONTIER_CAP frontier points per level.
ORBIT_CAP = 1_000_000
FRONTIER_CAP = 50_000

# branch_lift_array walks each value on Python floats, SYNC_CHECK letters at a
# time, each block from its start reduced mod 1, and its memo keys a tail by
# (block offset, bit pattern of that start), so tails that meet on the circle
# at a block boundary walk on as one; synchronization.sync_fraction drops
# its bitwise-merged pairs before every SYNC_CHECK-th letter.
SYNC_CHECK = 64


def _letters(w: WordLike) -> tuple[int, ...]:
    if isinstance(w, Word):
        return w.letters
    return tuple(int(a) for a in w)


@dataclass(frozen=True)
class IFS:
    """Finitely many orientation-preserving circle homeomorphisms.

    Construction also builds the scalar step table `_steps`, one
    `_scalar_step` per letter 1..k (entry 0 is None); the maps are
    immutable, so it never changes.
    """

    generators: tuple[LiftMap, ...]
    label: str = ""

    def __init__(self, generators: Sequence[LiftMap], label: str = ""):
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "label", label)
        if len(self.generators) < 1:
            raise ValueError("an IFS needs at least one generator")
        object.__setattr__(self, "_steps", (None, *map(_scalar_step, self.generators)))

    @property
    def k(self) -> int:
        return len(self.generators)

    def inverse_ifs(self) -> "IFS":
        """The IFS of the inverse maps (semigroup of inverses)."""
        lbl = f"{self.label}^-1" if self.label else ""
        return IFS([g.inverse() for g in self.generators], label=lbl)

    def branch(self, letters: Sequence[int]) -> Composition:
        """The branch map f_{w_n} o ... o f_{w_1} of a word (first letter first)."""
        return Composition([self.generators[a - 1] for a in reversed(letters)])


def branch_apply(ifs: IFS, w: WordLike, x: float) -> CirclePoint:
    """Apply f_{w_n} o ... o f_{w_1} to x (first letter first), on the walk
    of `orbit_to_csv_rows`.  Library API: nothing in the package calls it;
    it replays a record's word on a point.
    """
    points = orbit_to_csv_rows(ifs, w, x)
    return CirclePoint(points[-1] if points else x)


def branch_lift_array(ifs: IFS, w: WordLike, xs: np.ndarray, memo: dict | None = None) -> np.ndarray:
    """Branch application on the lift, preserving order and shape.

    Lift differences of the output give image arc lengths for monotone
    inputs.

    Every value walks on Python floats (`_float_tail`), one SYNC_CHECK
    block at a time, each block from its start reduced mod 1 with the whole
    turns carried as an int, so the walk keeps F(x + n) = F(x) + n.  `memo`
    (fresh if omitted; one per (ifs, w)) maps every (block offset, bit
    pattern of the reduced start) that a tail passed to the turns it gains
    to the word's end and its final value, so a tail that meets a walked
    one stops: points equal mod 1 walk once, and on a synchronizing branch,
    which contracts the circle off its ell repellers, the tails merge within
    a few blocks.  The tails (`_word_lift`) step rotations and sine maps
    inline with the operations of their `lift`: the result is that of the
    block-reduced per-letter array loop bit for bit, given that scalar sine
    lifts match numpy's.
    """
    memo = {} if memo is None else memo
    vals = np.asarray(xs, dtype=float)
    letters = _letters(w)
    walked = [_float_tail(ifs, letters, x, memo) for x in vals.ravel().tolist()]
    return np.array(walked).reshape(vals.shape)


def _float_tail(ifs: IFS, letters: tuple[int, ...], x: float, memo: dict) -> float:
    """`_word_lift` of letters at x, block by block from t = x - floor(x)
    (exact unless x lies in (-1/2, 0)) with the whole turns carried as an
    int, until memo knows the tail; returns turns + t."""
    turns, visited = 0, []
    for at in range(0, len(letters), SYNC_CHECK):
        n = math.floor(x)
        turns, x = turns + n, x - n
        if (key := (at, struct.pack("<d", x))) in memo:
            gained, x = memo[key]
            turns += gained
            break
        visited.append((key, turns))
        x = _word_lift(ifs, letters[at : at + SYNC_CHECK], x)
    memo.update({key: (turns - before, x) for key, before in visited})
    return turns + x


def _word_lift(ifs: IFS, letters: Sequence[int], x: float) -> float:
    """f_{w_n} o ... o f_{w_1} on the lift at one point, without mod: x is
    coerced to a Python float once, and every step keeps it one.  Rotation
    and sine letters are stepped inline from `ifs._steps`, with no Python
    call but `math.sin`; any other letter calls its generator's `lift`."""
    steps, sin = ifs._steps, math.sin
    x = float(x)
    for a in letters:
        shift, bw, freq, _, other = steps[a]
        if bw is not None:
            x = x + shift + bw * sin(freq * x)
        elif other is None:
            x = x + shift
        else:
            x = other.lift(x)
    return x


def _walk_step(gens: Sequence[LiftMap], pos: np.ndarray, col: np.ndarray) -> None:
    """One step of a batch of random walks: pos[i] moves in place by the
    generator of letter col[i] (letters 1..k).

    pos may carry a trailing axis of points that share their row's letter.
    Each generator is evaluated once per step, on the rows it moves.  Its
    rows are found once and gathered and scattered by index; a boolean mask
    moves the same values in the same order but scans itself in `np.any`,
    the gather and the scatter.
    """
    for a, g in enumerate(gens, start=1):
        rows = (col == a).nonzero()[0]
        if rows.size:
            pos[rows] = _frac(g.lift(pos.take(rows, axis=0)))


def branch_deriv(ifs: IFS, w: WordLike, x: float) -> float:
    """Chain-rule derivative of the branch at x, reducing mod 1 after each
    letter.  Rotation and sine letters are stepped inline from `ifs._steps`
    (a rotation's derivative is 1 and leaves the product as it is); any
    other letter calls its generator's `lift_deriv`."""
    steps, sin, cos = ifs._steps, math.sin, math.cos
    pos = float(x) % 1.0
    total = 1.0
    for a in _letters(w):
        shift, bw, freq, b, other = steps[a]
        if bw is not None:
            wx = freq * pos
            pos = (pos + shift + bw * sin(wx)) % 1.0
            total *= 1.0 + b * cos(wx)
        elif other is None:
            pos = (pos + shift) % 1.0
        else:
            lifted, d = other.lift_deriv(pos)
            total *= float(d)
            pos = lifted % 1.0
    return total


# ---------------------------------------------------------------------------
# Semigroup orbits and minimality estimation
# ---------------------------------------------------------------------------


def _quantize(xs: np.ndarray) -> np.ndarray:
    m = int(round(1.0 / DEDUP_RES))
    return np.round(_frac(xs) / DEDUP_RES).astype(np.int64) % m


def _orbit_levels(ifs: IFS, x: float, depth: int) -> Iterator[np.ndarray]:
    """Yield the fresh points of each breadth-first level of the orbit of x.

    Generators expand in index order; within a level the first occurrence of
    a duplicated point wins, which makes the enumeration deterministic.  At
    most ORBIT_CAP - 1 points are yielded in total (with x, ORBIT_CAP);
    FRONTIER_CAP bounds the per-level frontier, keeping lexicographically
    earliest nodes (so pure first-generator words always survive).  Stops
    early when a level brings nothing new.
    """
    frontier = np.array([float(x) % 1.0])
    seen: set[int] = set()
    total = 1  # x counts towards ORBIT_CAP
    for _ in range(depth):
        children = np.concatenate(
            [_frac(g.lift(frontier)) for g in ifs.generators]
        )
        keys = _quantize(children)
        _, first_idx = np.unique(keys, return_index=True)
        first_idx.sort()
        children = children[first_idx]
        keys = keys[first_idx]
        fresh = np.fromiter((k not in seen for k in keys.tolist()), bool, len(keys))
        children = children[fresh]
        keys = keys[fresh]
        if len(children) == 0:
            return
        seen.update(keys.tolist())
        children = children[: ORBIT_CAP - total]
        total += len(children)
        yield children
        if total >= ORBIT_CAP:
            return
        frontier = children[:FRONTIER_CAP]


@dataclass(frozen=True)
class MinimalityEstimate(_Record):
    minimal: bool
    worst_gap: float
    witness: CirclePoint | None


def _coverage_gap(orbit_sorted: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Min circle distance from each target to the sorted orbit points."""
    idx = np.searchsorted(orbit_sorted, targets)
    n = len(orbit_sorted)
    left = orbit_sorted[(idx - 1) % n]
    right = orbit_sorted[idx % n]
    return np.minimum(
        circle_distance_array(targets, left), circle_distance_array(targets, right)
    )


def minimality_estimate(
    ifs: IFS,
    eps: float,
    start_grid: int = 16,
    depth: int = 10_000,
) -> MinimalityEstimate:
    """Empirical minimality: from every start on a grid, the semigroup orbit
    must come within eps of every point of an eps/2-grid.  Each orbit is
    the start point and the levels of `_orbit_levels`: at most ORBIT_CAP
    points, and FRONTIER_CAP frontier points per level.

    Returns the worst covering gap over all starts and a failing start point
    if any.  Backward minimality is the same call on ifs.inverse_ifs().
    The grid/depth proxy can produce false negatives near slow recurrences;
    the reported gap makes that visible.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    n_targets = int(np.ceil(2.0 / eps))
    targets = np.arange(n_targets) / n_targets
    worst = 0.0
    for i in range(start_grid):
        start = i / start_grid
        points = [np.array([start])]
        covered = np.zeros(n_targets, dtype=bool)
        for children in _orbit_levels(ifs, start, depth):
            points.append(children)
            srt = np.sort(children)
            todo = np.flatnonzero(~covered)
            if len(todo):
                gaps = _coverage_gap(srt, targets[todo])
                covered[todo[gaps <= eps]] = True
            if covered.all():
                break
        orbit = np.sort(np.concatenate(points))
        worst = max(worst, float(np.max(_coverage_gap(orbit, targets))))
        if not covered.all():
            return MinimalityEstimate(False, worst, CirclePoint(start))
    return MinimalityEstimate(True, worst, None)


@dataclass(frozen=True)
class DensityReport:
    fraction: float
    stderr: float
    n_samples: int
    seed: int


def random_orbit_density(
    ifs: IFS,
    model,
    x: float,
    eps: float,
    n_max: int,
    n_samples: int,
    seed: int,
) -> DensityReport:
    """Fraction of sampled branches whose orbit of x is eps-dense by n_max.

    Density is measured against a fixed eps/2-grid (orbit within eps of every
    grid point).  Monte Carlo with binomial standard error; deterministic for
    a fixed seed.  Library API: the title theorem's quantity, which no CLI
    command reports yet.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n_targets = int(np.ceil(2.0 / eps))
    targets = np.arange(n_targets) / n_targets
    letters = model.sample_matrix(n_samples, n_max, seed)
    pos = np.full(n_samples, float(x) % 1.0)
    track = np.empty((n_samples, n_max + 1), dtype=float)
    track[:, 0] = pos
    for step in range(n_max):
        _walk_step(ifs.generators, pos, letters[:, step])
        track[:, step + 1] = pos
    dense = 0
    for s in range(n_samples):
        orbit = np.sort(track[s])
        if float(np.max(_coverage_gap(orbit, targets))) <= eps:
            dense += 1
    frac = dense / n_samples
    stderr = float(np.sqrt(frac * (1.0 - frac) / n_samples))
    return DensityReport(frac, stderr, n_samples, seed)


def orbit_to_csv_rows(ifs: IFS, w: WordLike, x: float) -> list[float]:
    """The point column [f^1(x), ..., f^n(x)] of an orbit dump along w, as
    Python floats in [0, 1); `branch_apply` runs on it too.  Rotation and
    sine letters are stepped inline from `ifs._steps`, as in `_word_lift`;
    the point is reduced mod 1 after each letter, a 1.0 (a lift just below
    an integer) to 0.0 as in `CirclePoint`."""
    steps, sin = ifs._steps, math.sin
    pos = float(x) % 1.0
    out = []
    for a in w.letters if isinstance(w, Word) else w:
        shift, bw, freq, _, other = steps[a]
        if bw is not None:
            pos = (pos + shift + bw * sin(freq * pos)) % 1.0
        elif other is None:
            pos = (pos + shift) % 1.0
        else:
            pos = float(other.lift(pos)) % 1.0
        if pos == 1.0:
            pos = 0.0
        out.append(pos)
    return out
