"""Synchronization statistics, random repeller detection, and hitting tails.

For forward-and-backward minimal circle IFSs exactly one of three behaviors
occurs: all generators are simultaneously conjugate to rotations (no
synchronization beyond chance), or almost every branch contracts the
complement of ell >= 1 exceptional points r_1(omega), ..., r_ell(omega).
The detector below brackets those points by refining a dyadic arc partition
and keeping the arcs whose branch images stay macroscopic while everything
else collapses.

The hitting-time check compares the empirical probability that a random
orbit has missed a target arc by time n against (1 - p^ell)^(1 + floor(n/ell)),
where ell = r*s comes from covering the circle with inverse iterates of a
minimal map in the semigroup.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .circle_maps import (Arc, CirclePoint, Exhausted, LiftMap, Refuted, _FieldError, _Record,
                          circle_distance_array, find_fixed_points)
from .ifs_core import (IFS, SYNC_CHECK, WordLike, _check_model, _letters, _walk_step,
                       branch_lift_array, minimality_estimate)
from .symbolic import SequenceModel, Word, _rng

# Polarization threshold: an arc counts as growing when its image length
# exceeds THETA_GROW times the largest image length at its level.  With a
# single repeller the largest image tends to 1 and this reduces to the
# absolute dichotomy test; with ell repellers the growing arcs share the
# circle, tending to 1/ell each.
THETA_GROW = 0.9

# detect_repellers starts from 2^START_LEVEL arcs and declares the branch
# unpolarized when more than MAX_CANDIDATES arcs keep growing.
START_LEVEL = 3
# Deepest refinement level: the level-52 endpoints 1/3 + i/2^52 are distinct
# float64 values, deeper ones collide.
MAX_LEVEL = 52
MAX_CANDIDATES = 64
MAJORITY = 0.8  # share of antonov_classify's seeds that must agree on ell
COVER_R_MAX = 10_000  # inverse iterates that covering_count tries
# Largest letter matrix sized by two counts (n_pairs x sync_horizon, n_trials
# x max(n_grid)); 10^4 x 10^4 Bernoulli letters peak near 1 GB of memory.
MAX_CELLS = 10**8
# antonov_classify measures the commutator gap at the midpoints of
# COMMUTATOR_GRID equal cells, and a gap above COMMUTATOR_TOL excludes case 1.
COMMUTATOR_GRID = 4096
COMMUTATOR_TOL = 1e-9

# Partition endpoints are offset by 1/3 so that dyadic repellers (such as a
# fixed point at 1/2) stay interior to one arc at every refinement level.
PARTITION_OFFSET = 1.0 / 3.0

class Unpolarized(Refuted):
    """Arc-image lengths never polarized along the supplied word."""


class NoMinimalGenerator(Refuted):
    """The designated map has a fixed point, so it cannot act minimally."""


class CoverSearchExhausted(Exhausted):
    """Inverse iterates of the designated map failed to cover the circle."""


# ---------------------------------------------------------------------------
# Pairwise synchronization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyncReport(_Record):
    ifs_label: str
    model: dict
    n_pairs: int
    horizon: int
    sync_fraction: float
    median_final_distance: float
    seed: int


def sync_fraction(
    ifs: IFS,
    model: SequenceModel,
    n: int,
    n_pairs: int,
    tol_sync: float,
    seed: int,
) -> SyncReport:
    """Fraction of sampled (omega, x, y) whose final distance is < tol_sync.

    Point pairs are drawn uniformly (stream 1), branch letters from the
    model (stream 0); with n = 0 this is just the empirical mass of pairs
    that start within tol_sync, the no-dynamics baseline (about 2*tol for
    uniform pairs).

    A pair whose two points are bitwise equal before a SYNC_CHECK-th letter
    stops walking: lifts and inverse solves are elementwise, so it would
    stay at distance 0.0 (`_final_distances`).
    """
    _check_model(ifs, model)
    if tol_sync <= 0.0:
        raise ValueError("tol_sync must be positive")
    pair_rng = _rng(seed, 1)
    # One row per pair: column 0 holds x, column 1 holds y.
    pairs = np.column_stack([pair_rng.random(n_pairs), pair_rng.random(n_pairs)])
    dist = _final_distances(ifs, pairs, model.sample_matrix(n_pairs, n, seed))
    return SyncReport(
        ifs_label=ifs.label,
        model=model.to_json(),
        n_pairs=n_pairs,
        horizon=n,
        sync_fraction=float(np.mean(dist < tol_sync)),
        median_final_distance=float(np.median(dist)),
        seed=seed,
    )


def _final_distances(ifs: IFS, pairs: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """Circle distance between the two points of each row of `pairs` after
    its row of `letters`; merged rows are dropped as in `sync_fraction`."""
    dist = np.zeros(len(pairs))
    live = np.arange(len(pairs))  # the row of each pair still walked
    for start in range(0, letters.shape[1], SYNC_CHECK):
        apart = np.not_equal(*pairs.view(np.int64).T)  # compare bit patterns
        pairs, live = pairs[apart], live[apart]
        if not len(live):
            break
        for col in letters[live, start : start + SYNC_CHECK].T:
            _walk_step(ifs.generators, pairs, col)
    dist[live] = circle_distance_array(pairs[:, 0], pairs[:, 1])
    return dist


# ---------------------------------------------------------------------------
# Repeller detection by partition refinement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepellerEstimate(_Record):
    omega_prefix_length: int
    levels: int
    points: tuple[CirclePoint, ...]
    ell_hat: int
    residual: float
    final_image_lengths: tuple[float, ...]


def detect_repellers(ifs: IFS, w: WordLike, m_levels: int = 12) -> RepellerEstimate:
    """Bracket the branch's exceptional points by nested partition refinement.

    At level j the circle is split into 2^j arcs (endpoints offset by 1/3 so
    dyadic repellers stay interior); each kept arc's image length is the
    difference of its endpoint images under the full branch, exact for
    monotone maps.  Arcs whose image length exceeds THETA_GROW times the
    level maximum are kept and split for the next level.  The kept count
    must stabilize over the last three levels; all-rotation branches keep
    every arc, never stabilize, and raise Unpolarized.

    Each level walks the endpoints of its kept arcs (`branch_lift_array`)
    on Python floats, through one memo shared by every level: a value walked
    at an earlier level stops at its first memo key without stepping a
    letter, and a float tail that meets one walked before stops there, so
    on a synchronizing branch the endpoints merge into a few values within
    a few hundred letters.  Each point's image does not depend on the
    points walked with it.

    Returns one bracketing midpoint per kept arc at the finest level; the
    residual is the final arc length 2^-m_levels.  It bounds the partition,
    not the walk: each endpoint image carries the rounding of its float
    walk.  At m_levels 52, on three of classify's golden-sine words (fair
    coin, seed 7, streams 107, 113 and 118), the reported point lies
    2.1e-15, 2.3e-16 and 2.9e-14 from a 160-bit bisection, up to about 130
    times the residual.  Sound brackets wait for enclosures of the
    endpoint images (ROADMAP, item 1).
    """
    word = w if isinstance(w, Word) else Word(_letters(w), ifs.k)
    if not START_LEVEL + 3 <= m_levels <= MAX_LEVEL:
        raise ValueError(f"m_levels must be in {START_LEVEL + 3}..{MAX_LEVEL}")
    memo: dict = {}  # float tails of `word`, shared by every walk

    # Domain coordinates live on the lift in [offset, offset + 1].  Arc i at
    # level j has the same endpoint floats as its halves at level j + 1,
    # since (2i) / 2^(j+1) == i / 2^j exactly.
    def endpoint(i: int, level: int) -> float:
        return PARTITION_OFFSET + i / (1 << level)

    kept: list[int] = list(range(1 << START_LEVEL))  # arc indices at current level
    counts: list[int] = []
    for level in range(START_LEVEL, m_levels + 1):
        if level > START_LEVEL:
            kept = [c for i in kept for c in (2 * i, 2 * i + 1)]
        ends = sorted({endpoint(i + j, level) for i in kept for j in (0, 1)})
        image = dict(zip(ends, branch_lift_array(ifs, word, np.array(ends), memo).tolist()))
        lengths = {i: image[endpoint(i + 1, level)] - image[endpoint(i, level)] for i in kept}
        top = max(lengths.values())  # > 0: the arcs split ones of positive image
        kept = [i for i in kept if lengths[i] > THETA_GROW * top]
        if len(kept) > MAX_CANDIDATES:
            raise Unpolarized(f"{len(kept)} growing arcs exceed the candidate cap")
        counts.append(len(kept))
        if level >= START_LEVEL + 2 and len(kept) / (1 << level) > 0.5:
            raise Unpolarized("growing arcs cover most of the circle (isometric branch?)")

    if not counts[-1] == counts[-2] == counts[-3]:
        raise Unpolarized(f"growing-arc count never stabilized: {counts}")
    ell = counts[-1]
    final_lengths = [lengths[i] for i in kept]
    if min(final_lengths) <= THETA_GROW / ell * 0.5:
        raise Unpolarized("final bracketing arcs are not uniformly grown")
    points = tuple(CirclePoint(endpoint(i, m_levels) + 0.5 / (1 << m_levels)) for i in kept)
    return RepellerEstimate(
        omega_prefix_length=len(word),
        levels=m_levels,
        points=points,
        ell_hat=ell,
        residual=2.0 ** -m_levels,
        final_image_lengths=tuple(final_lengths),
    )


# ---------------------------------------------------------------------------
# Trichotomy classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrichotomyResult(_Record):
    case: str  # "case1" | "case2" | "case3" | "inconclusive"
    ell: int | None
    commutator_gap: float
    sync: SyncReport | None  # None, with the baseline, when no sync test ran
    baseline: float | None
    baseline_sigma: float | None
    ell_counts: dict  # {ell: seeds}, written with str keys
    n_unpolarized: int
    minimality_checked: bool
    warnings: tuple[str, ...] = ()


def _commutator_gap(ifs: IFS) -> float:
    """Largest circle distance between g_i o g_j and g_j o g_i over every
    pair of generators, at the midpoints of COMMUTATOR_GRID equal cells;
    0.0 for a single generator."""
    x = (np.arange(COMMUTATOR_GRID) + 0.5) / COMMUTATOR_GRID
    gap = 0.0
    for i, j in combinations(range(1, ifs.k + 1), 2):
        d = circle_distance_array(ifs.branch((j, i)).lift(x), ifs.branch((i, j)).lift(x))
        gap = max(gap, float(d.max()))
    return gap


def antonov_classify(
    ifs: IFS,
    model: SequenceModel,
    *,
    n_pairs: int = 500,
    sync_horizon: int = 2000,
    tol_sync: float = 1e-3,
    n_seeds: int = 20,
    word_length: int = 5000,
    m_levels: int = 10,
    seed: int = 0,
    check_minimality: bool = False,
) -> TrichotomyResult:
    """Empirical trichotomy: common-rotation behavior, or ell-point contraction.

    In case 1 one homeomorphism conjugates every generator to a rotation,
    and rotations commute, so g_i o g_j = g_j o g_i for every pair.  A
    commutator gap (`_commutator_gap`) above COMMUTATOR_TOL therefore
    excludes case 1, whatever the model, and no sync test runs.  The gap
    never declares case 1 by itself: the converse needs a generator with
    irrational rotation number (Denjoy; its centralizer is the rotations),
    and a float angle is rational.  So a commuting system still faces a
    two-sided 3-sigma test of the synchronized fraction (`sync_fraction`)
    against the no-dynamics baseline.

    COMMUTATOR_TOL (1e-9) sits far from both sides of the gaps met so far:
    conjugates h o R o h^-1 of two rotations, h = sine(0, 0.3), miss
    commuting by 8.6e-13, since their inverse solves stop at TOL_INV =
    1e-12, while the golden rotation against sine(0, -1e-4) misses by
    3.0e-5.  A wrong tolerance only moves a system between the sync test
    and repeller detection.

    Unless case 1 holds, the modal bracketing count across seeds decides
    ell.  The verdict is inconclusive when the modal count falls short of
    MAJORITY of the seeds.  Seed s detects on the word of stream 100 + s.
    """
    _check_model(ifs, model)
    warnings: list[str] = []
    if check_minimality:
        fwd = minimality_estimate(ifs, eps=0.05, start_grid=4, depth=3000)
        bwd = minimality_estimate(ifs.inverse_ifs(), eps=0.05, start_grid=4, depth=3000)
        if not (fwd.minimal and bwd.minimal):
            warnings.append(
                f"minimality estimate failed (forward={fwd.minimal}, backward={bwd.minimal})"
            )
    gap = _commutator_gap(ifs)
    report = baseline = sigma = None
    if gap <= COMMUTATOR_TOL:
        report = sync_fraction(ifs, model, sync_horizon, n_pairs, tol_sync, seed)
        baseline = min(1.0, 2.0 * tol_sync)
        sigma = math.sqrt(baseline * (1.0 - baseline) / n_pairs)
        if abs(report.sync_fraction - baseline) <= 3.0 * sigma:
            return TrichotomyResult("case1", None, gap, report, baseline, sigma, {}, 0,
                                    check_minimality, tuple(warnings))
    ell_counts: dict[int, int] = {}
    unpolarized = 0
    for s in range(n_seeds):
        w = model.sample(word_length, seed, stream=100 + s)
        try:
            ell = detect_repellers(ifs, w, m_levels=m_levels).ell_hat
        except Unpolarized:
            unpolarized += 1
            continue
        ell_counts[ell] = ell_counts.get(ell, 0) + 1
    case, modal_ell = "inconclusive", None
    if ell_counts:
        ell, count = max(ell_counts.items(), key=lambda kv: (kv[1], -kv[0]))
        if count >= MAJORITY * n_seeds:
            case, modal_ell = ("case2" if ell == 1 else "case3"), ell
    return TrichotomyResult(
        case, modal_ell, gap, report, baseline, sigma, ell_counts,
        unpolarized, check_minimality, tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Hitting-time tail bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailBoundRow:
    n: int
    empirical_miss: float
    bound: float
    stderr: float

    @property
    def dominated(self) -> bool:
        return self.empirical_miss <= self.bound + 3.0 * self.stderr


@dataclass(frozen=True)
class TailBoundReport:
    rows: tuple[TailBoundRow, ...]
    ell: int
    cover_count: int
    word_length: int
    p: float

    @property
    def dominated(self) -> bool:
        return all(r.dominated for r in self.rows)


def covering_count(h: LiftMap, target: Arc) -> int:
    """Smallest r with S^1 = union of h^{-1}(target), ..., h^{-r}(target).

    Arcs are pulled back through inverse endpoint evaluations (exact for
    monotone maps), and each closed pull-back is cut out of the uncovered
    part of the line, kept as sorted open gaps: [0, 1] is covered once only
    (-inf, 0) and (1, inf) are left.  The pull-back of the whole circle is
    the whole circle, so a full-circle target gives 1 without the
    evaluations, whose rounding can leave it just short of a turn.
    """
    if target.length == 1.0:
        return 1
    los, his = [-math.inf], [math.inf]
    lo_lift = float(target.start)
    hi_lift = lo_lift + target.length
    for r in range(1, COVER_R_MAX + 1):
        lo_lift = float(h.inverse_lift(lo_lift))
        hi_lift = float(h.inverse_lift(hi_lift))
        length = hi_lift - lo_lift
        if length >= 1.0:
            return r
        start = lo_lift % 1.0
        end = start + max(length, 0.0)  # an end rounded below its start holds the start
        if end <= 1.0:
            _uncover(los, his, start, end)
        else:
            _uncover(los, his, start, 1.0)
            _uncover(los, his, 0.0, end - 1.0)
        if len(los) == 2 and his[0] <= 0.0 and los[1] >= 1.0:
            return r
    raise CoverSearchExhausted(
        f"inverse iterates failed to cover the circle within r_max={COVER_R_MAX}"
    )


def _uncover(los: list[float], his: list[float], a: float, b: float) -> None:
    """Cut the closed interval [a, b] out of the sorted open gaps (los[i], his[i])."""
    i = bisect_right(his, a)  # the first gap that ends past a
    j = bisect_left(los, b, i)  # past the last gap that starts before b
    if i < j:
        left_and_right = [(x, y) for x, y in ((los[i], a), (b, his[j - 1])) if x < y]
        los[i:j] = [x for x, _ in left_and_right]
        his[i:j] = [y for _, y in left_and_right]


def hitting_tail_check(
    ifs: IFS,
    model: SequenceModel,
    target: Arc,
    x: float,
    n_grid: Sequence[int] | None = None,
    n_trials: int = 10_000,
    seed: int = 0,
    minimal_index: int = 0,
    minimal_word: Word | None = None,
) -> TailBoundReport:
    """Empirical miss probabilities against (1 - p^ell)^(1 + floor(n/ell)).

    The designated minimal map is a generator (s = 1) unless minimal_word
    supplies the word of a composite h, in which case s = |word| and
    ell = r*s counts letters.  Raises NoMinimalGenerator when the designated
    map has a fixed point.  The default grid is n = ell, 2 ell, ..., 10 ell.

    The trials sample an n_trials x max(n_grid) letter matrix; one above
    MAX_CELLS raises _FieldError at `n_trials` before any letter is
    sampled.  A trial stops walking once it has hit the target.
    """
    _check_model(ifs, model)
    if minimal_word is not None:
        h: LiftMap = ifs.branch(minimal_word.letters)
        s = len(minimal_word)
    else:
        h = ifs.generators[minimal_index]
        s = 1
    if find_fixed_points(h, 512):
        raise NoMinimalGenerator("designated map has a fixed point")
    r = covering_count(h, target)
    ell = r * s
    if n_grid is None:
        n_grid = [ell * i for i in range(1, 11)]
    n_grid = sorted(set(int(n) for n in n_grid))
    if not n_grid or n_grid[0] < 1:
        raise ValueError("n_grid entries must be >= 1")
    horizon = n_grid[-1]
    if n_trials * horizon > MAX_CELLS:
        raise _FieldError("n_trials", f"{n_trials} x {horizon} letters exceeds {MAX_CELLS} cells")
    hit_time = _hit_times(ifs.generators, model.sample_matrix(n_trials, horizon, seed), x, target)
    rows = []
    for n in n_grid:
        miss = float(np.mean(hit_time > n))
        bound = (1.0 - model.p**ell) ** (1 + n // ell)
        stderr = math.sqrt(miss * (1.0 - miss) / n_trials)
        rows.append(TailBoundRow(n, miss, bound, stderr))
    return TailBoundReport(tuple(rows), ell, r, s, model.p)


def _hit_times(gens: Sequence[LiftMap], letters: np.ndarray, x: float, target: Arc) -> np.ndarray:
    """First step at which the walk from x along each row of `letters` lies
    in target (int64 max if none); a row stops walking once it has hit."""
    pos = np.full(len(letters), float(x) % 1.0)
    hit_time = np.full(len(letters), np.iinfo(np.int64).max, dtype=np.int64)
    live = np.arange(len(letters))  # the row of each entry of `pos`
    for step in range(1, letters.shape[1] + 1):
        if not len(live):
            break
        _walk_step(gens, pos, letters[live, step - 1])
        hits = target.contains_array(pos)
        if np.any(hits):
            hit_time[live[hits]] = step
            pos, live = pos[~hits], live[~hits]
    return hit_time
