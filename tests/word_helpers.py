"""Word builders, circle helpers and orbit statistics that only the tests use."""

import math
from typing import NamedTuple

import numpy as np

from circle_ifs.certifier import UniversalWordResult
from circle_ifs.circle_maps import Arc, LiftMap, circle_distance_array
from circle_ifs.ifs_core import IFS, WordLike, _orbit_levels, orbit_to_csv_rows
from circle_ifs.periodic_points import SweepReport
from circle_ifs.symbolic import BernoulliModel, MarkovMinorizedModel, SequenceModel, Word


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


def concat(*words: Word) -> Word:
    """The words one after another, over the largest of their alphabets."""
    return Word(sum((w.letters for w in words), ()), max(w.k for w in words))


def capture_time(res: UniversalWordResult, ifs: IFS, z: float) -> int | None:
    """First t <= |word| with the prefix branch sending z into the target."""
    pos = float(z) % 1.0
    if res.target.contains(pos):
        return 0
    for t, a in enumerate(res.word.letters, start=1):
        pos = float(ifs.generators[a - 1].lift(pos)) % 1.0
        if res.target.contains(pos):
            return t
    return None


def contains_arc(outer: Arc, inner: Arc) -> bool:
    """Whether `inner` lies inside `outer`, both traversed counterclockwise."""
    if outer.length >= 1.0:
        return True
    offset = (inner.start - outer.start) % 1.0
    return offset + inner.length <= outer.length


def inverse_eval(f: LiftMap, y: float) -> float:
    """The circle point f^-1(y) in [0, 1)."""
    return f.inverse_lift(y) % 1.0


def reversed_word(w: Word) -> Word:
    """The letters of w in reverse order, over the same alphabet."""
    return Word(w.letters[::-1], w.k)


def word_from_json(letters, k: int) -> Word:
    """The word of a JSON integer array over {1..k}."""
    return Word(tuple(int(a) for a in letters), k)


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


def cylinder_measure(model: SequenceModel, w: Word) -> float:
    """Measure of the cylinder of sequences starting with w: the exact
    product of conditional probabilities, always >= p^|w|."""
    letters = w.letters
    if isinstance(model, BernoulliModel):
        return math.prod(model.weights[a - 1] for a in letters)
    assert isinstance(model, MarkovMinorizedModel)
    if not letters:
        return 1.0
    steps = (model.rows[prev - 1][nxt - 1] for prev, nxt in zip(letters, letters[1:]))
    return math.prod(steps, start=model.initial[letters[0] - 1])


class RotationNumberEstimate(NamedTuple):
    value: float
    n_iters: int


def rotation_number(f: LiftMap, n_iters: int) -> RotationNumberEstimate:
    """Mean lift displacement (F^n(0) - 0) / n.

    Error is O(1/n) for circle homeomorphisms.  Maps built purely from
    rotations short-circuit to their exact translation amount.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    t = f.as_translation()
    if t is not None:
        return RotationNumberEstimate(t, n_iters)
    x = 0.0
    for _ in range(n_iters):
        x = f.lift(x)
    return RotationNumberEstimate(x / n_iters, n_iters)


def semigroup_orbit(ifs: IFS, x: float, depth: int) -> np.ndarray:
    """Breadth-first orbit {h(x) : h a word of length 1..depth}, deduplicated
    at DEDUP_RES, in the enumeration order of `_orbit_levels`.

    `_orbit_levels` stops at ORBIT_CAP - 1 points and keeps FRONTIER_CAP
    frontier points per level; no test input comes near either bound
    (depth <= 1000, at most 1000 points in all and 32 in one level), so
    this is the whole orbit.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    collected = list(_orbit_levels(ifs, x, depth))
    if not collected:
        return np.empty(0, dtype=float)
    return np.concatenate(collected)


def pair_distance_trajectory(ifs: IFS, w: WordLike, x: float, y: float) -> list[float]:
    """d(f^n(x), f^n(y)) for n = 0..|w| along the branch of w."""
    xs = [float(x) % 1.0, *orbit_to_csv_rows(ifs, w, x)]
    ys = [float(y) % 1.0, *orbit_to_csv_rows(ifs, w, y)]
    return [float(circle_distance_array(px, py)) for px, py in zip(xs, ys)]


def coverage(report: SweepReport, stability: str) -> float:
    """Share of the mesh's arcs with a found record of this stability."""
    hits = sum(1 for r in report.rows if r.stability == stability and r.found)
    return hits / report.mesh
