"""Constructive periodic points of the semigroup.

A scan of the fixed points of a sampled branch's prefixes finds a prefix
composition g with an attracting fixed point a that maps its attracted
interval (the basin) into itself.  With (g, a, basin) in hand, a periodic
point inside any prescribed arc J comes from the three-stage composition
G o g^m o F:

    F sends part of J into the basin of a,
    g^m pulls that image into a small neighborhood (a - d, a + d),
    G returns the neighborhood into a closed V inside J,

so the composite maps V into itself and has a fixed point there.  Running
the same construction on the inverse IFS and reversing the word yields
repelling periodic points of the forward system; the point is polished
once, by Newton on the reversed (expanding) forward word.

On the inverse IFS a letter that is not a translation costs a Newton
solve (`SinePerturbed.inverse_lift`), so each stage picks its direction:
    F search: the target's ends step through the IFS, one letter per BFS
        node (`_bfs_orbit`); V = F^-1(core) walks the reversed word on the
        other IFS, forward lifts on the repelling side;
    G search: reads the attractor's BFS orbit, walked once per IFS and
        shared by every arc (`Attractor.orbits`); `_delta_for` walks G on
        the IFS;
    pull-in and bisection: where a word's inverse is a forward word
        (`_inverse_is_forward`), they walk that inverse and solve nothing;
        otherwise they walk the word.
"""

from __future__ import annotations

import math
from collections import deque
from copy import copy
from dataclasses import dataclass, field
from itertools import tee
from typing import Iterator, Sequence

from .circle_maps import (
    Arc,
    CirclePoint,
    Exhausted,
    FixedPoint,
    Inverse,
    _classify,
    _Record,
    circle_distance,
    find_fixed_points,
)
from .ifs_core import IFS, _check_model, _word_lift, branch_deriv
from .symbolic import SequenceModel, Word

TOL_FIX = 1e-9
# Fixed construction budgets.
BFS_DEPTH = 12  # longest transport word F or G
BFS_NODES = 100_000  # words enumerated per breadth-first search
F_CANDIDATES = 40  # transports F tried per target
G_CANDIDATES = 20  # returns G tried per transport F
M_CAP = 500  # largest pull-in iterate m
MILD_BAND = (0.02, 0.9)  # multipliers accepted for a short attracting prefix
MIN_BASIN = 0.05  # shortest attracted interval of such a prefix
BANACH_ROUNDS = 80
NEWTON_ROUNDS = 12


class HorizonExceeded(Exhausted):
    """No self-mapped arc appeared within the sampled horizon."""


class StageExhausted(Exhausted):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[stage {stage}] {message}")
        self.stage = stage
        self.detail = message


@dataclass(frozen=True)
class PeriodicPointRecord(_Record):
    word: Word
    point: CirclePoint
    residual: float
    multiplier: float
    stability: str


@dataclass(frozen=True)
class Attractor:
    """An attracting fixed point a of the branch composition g and the
    interval attracted to a (its basin): all that `periodic_in_interval`
    reads.  The multiplier is `branch_deriv(ifs, word.letters, point)`.

    `orbits` keeps, per IFS that `periodic_in_interval` ran on, the BFS
    orbit of a (`_bfs_orbit`) as far as any G search read it, so the arcs
    of a sweep walk it once; it takes no part in equality, hash or repr,
    and a copy or an unpickled attractor starts without it."""

    word: Word
    point: CirclePoint
    basin: Arc
    orbits: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __reduce__(self):
        return Attractor, (self.word, self.point, self.basin)


def _residual(ifs: IFS, letters: Sequence[int], q: float) -> float:
    return circle_distance(_word_lift(ifs, letters, q) % 1.0, q)


def _inverse_is_forward(ifs: IFS) -> bool:
    """Whether every generator is an `Inverse` or a pure translation (the
    inverse IFS), so that a word's inverse, the reversed word on
    `ifs.inverse_ifs()`, is a composition of forward lifts and needs no
    inverse solve (Rotation(-a).lift(y) is y - a exactly)."""
    return all(isinstance(g, Inverse) or g.as_translation() is not None for g in ifs.generators)


def _bisect_fixed_point(ifs: IFS, letters: Sequence[int], lo: float, hi: float) -> float:
    """Root of branch(x) = x on [lo, hi], assuming the branch maps the
    interval into itself (so the normalized displacement changes sign).

    For the monotone degree-one branch h, h(x) >= x + k holds exactly when
    x >= h^-1(x) + k.  When h^-1 is a forward word (`_inverse_is_forward`),
    the sign tests run on x - h^-1(x) - k with k = floor(lo - h^-1(lo));
    otherwise they run on h(x) - k - x with k = floor(h(lo) - lo).  Both
    give the same signs, hence the same "interval is not mapped into
    itself" condition.
    """
    if _inverse_is_forward(ifs):
        inverse, reversed_letters = ifs.inverse_ifs(), letters[::-1]
        k = math.floor(lo - _word_lift(inverse, reversed_letters, lo))

        def disp(x: float) -> float:
            return x - _word_lift(inverse, reversed_letters, x) - k

    else:
        k = math.floor(_word_lift(ifs, letters, lo) - lo)

        def disp(x: float) -> float:
            return _word_lift(ifs, letters, x) - k - x

    dlo = disp(lo)
    dhi = disp(hi)
    if dlo < 0.0 or dhi > 0.0:
        raise ValueError("interval is not mapped into itself")
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if disp(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _banach_polish(ifs: IFS, letters: Sequence[int], q: float) -> float:
    """Iterate the branch from q; converges to machine precision when the
    fixed point attracts."""
    for _ in range(BANACH_ROUNDS):
        nxt = _word_lift(ifs, letters, q) % 1.0
        if circle_distance(nxt, q) < 1e-15:
            return nxt
        q = nxt
    return q


def _newton_polish(ifs: IFS, letters: Sequence[int], q: float) -> float:
    """Newton refinement of branch(q) = q for expanding words, in float64.

    A float64 point near a fixed point with multiplier D carries residual
    about D * ulp, so the iteration stops at that noise floor: after
    NEWTON_ROUNDS steps, on a zero derivative, or before taking a step
    above 0.1 (no convergence) or one that fails to halve the step before
    (float64 noise).
    """
    prev = math.inf
    for _ in range(NEWTON_ROUNDS):
        img = _word_lift(ifs, letters, q)
        k = math.floor(img - q + 0.5)
        d = branch_deriv(ifs, letters, q) - 1.0
        if d == 0.0:
            break
        step = (img - k - q) / d
        if abs(step) > 0.1 or abs(step) > 0.5 * prev:
            break
        q -= step
        prev = abs(step)
    return q % 1.0


def _record(
    ifs: IFS, letters: Sequence[int], q: float, stage: str, *, expanding: bool
) -> PeriodicPointRecord:
    """Record of the branch fixed point near q.

    A contracting branch is polished by iteration first; Newton refinement
    runs on an expanding branch, and on a contracting one whose residual
    is still above TOL_FIX.  A residual above TOL_FIX after Newton raises
    StageExhausted(stage, ...).
    """
    residual = math.inf
    if not expanding:
        q = _banach_polish(ifs, letters, q)
        residual = _residual(ifs, letters, q)
    if residual > TOL_FIX:
        q = _newton_polish(ifs, letters, q)
        residual = _residual(ifs, letters, q)
        if residual > TOL_FIX:
            raise StageExhausted(stage, f"residual {residual:.2e} above tolerance")
    mult = branch_deriv(ifs, letters, q)
    return PeriodicPointRecord(
        word=Word(letters, ifs.k),
        point=CirclePoint(q),
        residual=residual,
        multiplier=mult,
        stability=_classify(mult),
    )


# ---------------------------------------------------------------------------
# Contracted invariant arcs
# ---------------------------------------------------------------------------


def find_contracted_fixed_arc(
    ifs: IFS,
    model: SequenceModel,
    seed: int,
    horizon: int = 512,
    stream: int = 0,
) -> Attractor:
    """Sample a branch and return the first attracting fixed point of a
    prefix composition, with its basin, that `_prefix_attractor` verifies.

    Two scans of prefix lengths: short prefixes with a multiplier in
    MILD_BAND first, since strong contraction makes downstream composite
    fixed points unrepresentable in float64 (their reversed words expand
    residuals past tolerance); then longer ones up to the horizon with any
    attracting multiplier.
    """
    _check_model(ifs, model)
    w_full = model.sample(horizon, seed, stream=stream)
    lengths = [n for n in (16, 24, 32, 48, 64, 96, 128, 192, 256, 384) if n < horizon] + [horizon]
    attractor = _prefix_attractor(
        ifs, w_full, (4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48), MILD_BAND
    ) or _prefix_attractor(ifs, w_full, lengths, (0.0, 1.0))
    if attractor is None:
        raise HorizonExceeded(f"within horizon {horizon}: no prefix has a verified attractor")
    return attractor


def _prefix_attractor(
    ifs: IFS, w_full: Word, lengths: Sequence[int], band: tuple[float, float]
) -> Attractor | None:
    """First prefix, in the order of `lengths`, whose composition has an
    attracting fixed point with multiplier in `band` and an attracted
    interval of length at least MIN_BASIN.

    The attracted interval between neighboring fixed points is itself
    invariant (points move monotonically toward the attractor); the prefix
    must map it into itself, and it becomes the record's basin.
    """
    for j in lengths:
        if j > len(w_full):
            break
        prefix = w_full[:j]
        fps = find_fixed_points(ifs.branch(prefix.letters), 2048)
        for fp in fps:
            if fp.stability != "attracting" or not band[0] <= fp.derivative <= band[1]:
                continue
            q = _banach_polish(ifs, prefix.letters, float(fp.point))
            if _residual(ifs, prefix.letters, q) > TOL_FIX:
                continue
            basin = _attracted_interval(fps, q, Arc(q - 0.25, 0.5))
            if basin.length < MIN_BASIN:
                continue
            img_lo = _word_lift(ifs, prefix.letters, basin.start)
            img_hi = _word_lift(ifs, prefix.letters, basin.start + basin.length)
            if not basin.contains_span(img_lo, img_hi - img_lo):
                continue
            return Attractor(prefix, CirclePoint(q), basin)
    return None


def _attracted_interval(fps: list[FixedPoint], q: float, fallback: Arc) -> Arc:
    """Open interval around q attracted to it under a word composition,
    bounded by the neighboring ones of its fixed points `fps`."""
    others = sorted(
        float(fp.point) for fp in fps if circle_distance(float(fp.point), q) > 1e-6
    )
    if not others:
        return fallback
    below = [p for p in others if p < q]
    above = [p for p in others if p > q]
    left = below[-1] if below else others[-1] - 1.0
    right = above[0] if above else others[0] + 1.0
    pad = min(1e-4, 0.01 * (right - left))
    return Arc(left + pad, (right - left) - 2.0 * pad)


# ---------------------------------------------------------------------------
# Periodic point in a prescribed interval
# ---------------------------------------------------------------------------


def _bfs_orbit(
    ifs: IFS, points: tuple[float, ...]
) -> Iterator[tuple[tuple[int, ...], tuple[float, ...]]]:
    """All words in breadth-first lexicographic order, empty word first, up
    to BFS_DEPTH letters and BFS_NODES enqueued, each with the lifts of
    `points` under it.  A word's lifts are its parent's stepped by its last
    letter when it is dequeued: the bits of `_word_lift` from the points,
    one letter a node."""
    queue = deque([((), points)])
    count = 0
    while queue:
        w, xs = queue.popleft()
        if w:
            xs = tuple(_word_lift(ifs, w[-1:], x) for x in xs)
        yield w, xs
        if len(w) >= BFS_DEPTH:
            continue
        for a in range(1, ifs.k + 1):
            count += 1
            if count > BFS_NODES:
                return
            queue.append((w + (a,), xs))


def _arc_intersection(a: Arc, b: Arc) -> Arc | None:
    """Largest single arc contained in both (None when disjoint).

    In coordinates relative to a.start, b spans [rb, rb + |b|] and may also
    wrap around to cover [0, rb + |b| - 1]; both components are clipped to
    [0, |a|] and the longer one wins.
    """
    rb = (b.start - a.start) % 1.0
    candidates = []
    lo, hi = rb, min(a.length, rb + b.length)
    if lo < a.length and hi > lo:
        candidates.append((lo, hi))
    if rb + b.length > 1.0:
        lo, hi = 0.0, min(a.length, rb + b.length - 1.0)
        if hi > lo:
            candidates.append((lo, hi))
    if not candidates:
        return None
    lo, hi = max(candidates, key=lambda c: c[1] - c[0])
    return Arc(a.start + lo, hi - lo)


def periodic_in_interval(
    ifs: IFS, target: Arc, attractor: Attractor, *, forward: IFS | None = None
) -> PeriodicPointRecord:
    """Fixed point of G o g^m o F inside the target arc.

    F and G are found by breadth-first search (empty word allowed, so arcs
    already meeting the basin need no transport); m is the smallest
    iterate pulling F(V) into the delta-neighborhood of the attractor, plus
    two for safety.  Stage failures raise StageExhausted with the stage name.

    With `forward` (the IFS whose inverse is `ifs`), the bisection point is
    recorded as a repelling point of the reversed word on `forward`, by
    Newton alone; a residual above TOL_FIX raises StageExhausted("polish")
    at once, without trying further candidates.
    """
    a = float(attractor.point)
    basin = attractor.basin
    g_letters = attractor.word.letters
    inverse = ifs.inverse_ifs()  # F^-1 is the reversed word on it
    min_overlap = max(1e-6, 0.02 * target.length)
    # A tee that never advances keeps every node; each copy replays them
    # from the empty word and extends them on demand.
    a_orbit = attractor.orbits.get(ifs)
    if a_orbit is None:
        a_orbit = attractor.orbits[ifs] = tee(_bfs_orbit(ifs, (a,)), 1)[0]

    f_tried = 0
    stage = "F"
    detail = "no image of the target met the basin"
    for f_word, (lo, hi) in _bfs_orbit(ifs, (target.start, target.start + target.length)):
        if f_tried >= F_CANDIDATES:
            break
        if not 0.0 < hi - lo < 1.0:
            continue
        image = Arc(lo % 1.0, hi - lo)
        overlap = _arc_intersection(image, basin)
        if overlap is None or overlap.length < min_overlap:
            continue
        f_tried += 1
        core = overlap.shrunk(0.25 * overlap.length)
        # Lift representatives of the core endpoints inside [lo, hi], then
        # V = F^{-1}(core), a closed subarc of the target.
        c_lo_lift = core.start + math.floor(lo - core.start)
        if c_lo_lift < lo:
            c_lo_lift += 1.0
        c_hi_lift = c_lo_lift + core.length
        v_lo = _word_lift(inverse, f_word[::-1], c_lo_lift)
        v_hi = _word_lift(inverse, f_word[::-1], c_hi_lift)
        if not (
            target.start - 1e-9 <= v_lo < v_hi <= target.start + target.length + 1e-9
        ):
            detail = "pullback of the basin core left the target"
            continue
        v_arc = Arc(v_lo % 1.0, v_hi - v_lo)

        g_tried = 0
        g_found_any = False
        inner = v_arc.shrunk(0.2 * v_arc.length)
        for g_word, (g_a,) in copy(a_orbit):
            if g_tried >= G_CANDIDATES:
                break
            if not inner.contains(g_a % 1.0):
                continue
            g_found_any = True
            g_tried += 1
            delta = _delta_for(ifs, g_word, a, v_arc, basin)
            if delta is None:
                stage, detail = "G", "no neighborhood of the attractor maps into V"
                continue
            m = _pull_in_iterations(ifs, g_letters, c_lo_lift, c_hi_lift, a, delta)
            if m is None:
                stage, detail = "m", f"g^m never entered the {delta:.2e}-neighborhood"
                continue
            letters = f_word + g_letters * (m + 2) + g_word
            try:
                q = _bisect_fixed_point(ifs, letters, v_lo, v_hi)
            except ValueError:
                stage, detail = "m", "composite failed to map V into itself"
                continue
            if forward is not None:
                return _record(forward, letters[::-1], q, "polish", expanding=True)
            try:
                return _record(ifs, letters, q, "m", expanding=False)
            except StageExhausted as exc:
                stage, detail = exc.stage, exc.detail
        if not g_found_any:
            stage, detail = "G", "the attractor's orbit never entered V"
    raise StageExhausted(stage, detail)


def _delta_for(
    ifs: IFS, g_word: Sequence[int], a: float, v_arc: Arc, basin: Arc
) -> float | None:
    """Largest tested delta with G((a-delta, a+delta)) inside V, capped so
    the neighborhood stays inside the attractor's basin."""
    rel_a = (a - basin.start) % 1.0
    edge = min(rel_a, basin.length - rel_a)
    delta = min(0.25 * v_arc.length, 0.5 * edge)
    for _ in range(40):
        lo = _word_lift(ifs, g_word, a - delta)
        if v_arc.contains_span(lo, _word_lift(ifs, g_word, a + delta) - lo):
            return delta
        delta *= 0.5
        if delta < 1e-12:
            break
    return None


def _pull_in_iterations(
    ifs: IFS,
    g_letters: Sequence[int],
    lo_lift: float,
    hi_lift: float,
    a: float,
    delta: float,
) -> int | None:
    """Smallest m <= M_CAP with g^m([lo_lift, hi_lift]) inside the closed
    window [a - delta, a + delta], or None.

    When g^-1 is a forward word (`_inverse_is_forward`: the inverse IFS of
    the repelling side), the window's ends walk backward, through g^-1 on
    `ifs.inverse_ifs()`, and the test is [lo_lift, hi_lift] inside
    g^-m(window); otherwise the span's ends walk forward through g into the
    window.  g is an increasing degree-one lift, so the two are one
    statement (a window rounded past a full turn is the whole circle); in
    floats they can differ only on a knife-edge containment, where a span
    end meets a window end to rounding, and only m leaves.
    """
    if _inverse_is_forward(ifs):
        walked, letters, (lo, hi) = ifs.inverse_ifs(), g_letters[::-1], (a - delta, a + delta)

        def inside(lo: float, hi: float) -> bool:
            return Arc(lo, min(hi - lo, 1.0)).contains_span(lo_lift, hi_lift - lo_lift)

    else:
        walked, letters, (lo, hi) = ifs, g_letters, (lo_lift, hi_lift)
        window = Arc(a - delta, 2.0 * delta)

        def inside(lo: float, hi: float) -> bool:
            return window.contains_span(lo, hi - lo)

    for m in range(M_CAP + 1):
        if inside(lo, hi):
            return m
        lo = _word_lift(walked, letters, lo)
        hi = _word_lift(walked, letters, hi)
    return None


# ---------------------------------------------------------------------------
# Density sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    arc_index: int
    stability: str
    found: bool
    word_length: int
    residual: float
    multiplier: float
    error: str = ""


@dataclass(frozen=True)
class SweepReport:
    mesh: int
    rows: tuple[SweepRow, ...]
    records: tuple[PeriodicPointRecord, ...]


def density_sweep(
    ifs: IFS,
    mesh: int,
    model: SequenceModel,
    seed: int,
    *,
    horizon: int = 512,
) -> SweepReport:
    """Run the periodic-point construction on every arc of a mesh partition,
    both for the forward IFS (attracting records) and, through the inverse
    IFS with reversed words, for repelling records, each Newton-polished
    once on the forward IFS.  Per-arc failures are recorded, not raised; a
    side whose attractor search exceeds the horizon fails all its own rows."""
    rows: list[SweepRow] = []
    records: list[PeriodicPointRecord] = []
    for side, system, stream, forward in (
        ("attracting", ifs, 0, None),
        ("repelling", ifs.inverse_ifs(), 1, ifs),
    ):
        try:
            attractor = find_contracted_fixed_arc(system, model, seed, horizon=horizon, stream=stream)
        except HorizonExceeded as exc:
            # No contracted arc within the horizon: none of this side can be built.
            rows += [SweepRow(i, side, False, 0, math.nan, math.nan, str(exc)) for i in range(mesh)]
            continue
        for i in range(mesh):
            arc = Arc(i / mesh, 1.0 / mesh)
            try:
                rec = periodic_in_interval(system, arc, attractor, forward=forward)
            except StageExhausted as exc:
                rows.append(SweepRow(i, side, False, 0, math.nan, math.nan, str(exc)))
                continue
            rows.append(SweepRow(i, side, True, len(rec.word), rec.residual, rec.multiplier))
            records.append(rec)
    return SweepReport(mesh=mesh, rows=tuple(rows), records=tuple(records))
