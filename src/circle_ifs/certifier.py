"""Margin-backed certificates of robust forward-and-backward minimality.

For a pair (g1, g2) with g1 an irrational rotation and g2 a diffeomorphism
with rational rotation number not conjugate to a rotation, minimality of the
generated semigroup follows from four checkable conditions built around an
attracting fixed point p of g2 with one-sided basin A = (p, p + eps):

  (1) closure(B) is covered by h_1(B), ..., h_k(B) with h_i = g1^{n_i} o g2,
      where B = (g2^2(p+eps), g2(p+eps));
  (2) g1^{n_i}(closure(D)) sits inside (p + delta, p + eps) for every i,
      where D = (p, g2(p+eps)) and |delta - eps| > |p - g2(p+eps)|;
  (3) Dh_i < lambda < 1 on (p + delta, p + eps);
  (4) finitely many rotation images T_i(B) cover the circle, and so do
      inverse images S_i^{-1}(B).

The searches only pick the words.  `reverify_certificate`, the one evaluator
of every number a certificate stores, gives each condition an explicit
arc-length margin (derivative margins are Lipschitz-inflated grid maxima,
not formal interval bounds), then lambda and the conservative C^1
perturbation radius the margins convert into; `certify`, `certify --check`
and perturbed re-verification all take their numbers from it.  The same
pipeline applied to (g1^-1, g2^-1) yields the backward certificate.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .circle_maps import (
    Arc,
    CirclePoint,
    Composition,
    LiftMap,
    MAX_POWER,
    Power,
    Rotation,
    SinePerturbed,
    TOL_INV,
    _array,
    _factor_count,
    _FieldError,
    _finite,
    _parsed,
    _scalar_step,
    _string,
    circle_distance,
    find_fixed_points,
    map_from_json,
)
from .ifs_core import IFS
from .symbolic import Word

C_SAFETY = 0.1
CONTRACTION_GRID = 1024  # grid cells on (p + delta, p + eps) for lambda
BASIN_GRID = 4096  # grid cells on the circle for the basin search
BASIN_MIN_EPS = 1e-3  # shortest admissible basin
COVER_WINDOW_FRAC = 0.05  # edge padding of the return window for cover exponents
# A rotation number within RATIONAL_TOL of p/q, q <= RATIONAL_Q_MAX, is rational.
RATIONAL_Q_MAX, RATIONAL_TOL = 64, 1e-9
CHECK_TOL = 1e-12  # stored against recomputed margins (absolute) and radius (relative)
C1_GRID = 512  # grid points of the C^1 gauge
PRUNE_SLACK_MAX = 1e-3  # largest rounding slack at which reverify_certificate prunes its grid
# Power chains of SCALAR_VALUES points or fewer walk one Python float at a
# time (`_float_chain`), stepping rotation and sine factors inline.  On a
# 2-vCPU Xeon an array lift on 1 to 16 points is nearly all fixed cost: about
# 2.6 us for a sine map and 0.7 us for a rotation.  The value stays 16 unless
# it is re-measured on perfbench's certify workload, the one that runs the
# chains.
SCALAR_VALUES = 16
# Universal-word search: target shrink fraction, suffix BFS depth and
# node budget, fine-grid refinement factor and verification rounds.
UNIVERSAL_SHRINK = 0.1
UNIVERSAL_BFS_DEPTH = 64
UNIVERSAL_BFS_NODES = 200_000
UNIVERSAL_FINE_FACTOR = 10
UNIVERSAL_RETRIES = 3


class NoAttractingSide(RuntimeError):
    """No fixed point admits a one-sided contracting basin."""


class RationalRotation(ValueError):
    """The rotation factor must have (numerically) irrational rotation number."""


class SearchExhausted(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class ContractionFails(RuntimeError):
    """The inflated derivative bound is not below 1."""


class CoverGap(RuntimeError):
    """A nested-selection step found no covering arc (margin erosion)."""


class NestedLimitViolation(RuntimeError):
    """The approximant missed the lambda^n * |B| guarantee."""


class LengthExceeded(RuntimeError):
    """The universal word outgrew max_len or its suffix search ran dry."""


# ---------------------------------------------------------------------------
# Basin location
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasinData:
    """Attracting-side data for g2: the point p, the one-sided basin
    A = (p, p+eps) where 0 < Dg2 < 1 with margin deriv_margin, the return
    gap delta, and the derived arcs B and D."""

    p: float
    eps: float
    delta: float
    arc_A: Arc
    arc_B: Arc
    arc_D: Arc
    deriv_margin: float

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "eps": self.eps,
            "delta": self.delta,
            "arc_A": self.arc_A.to_json(),
            "arc_B": self.arc_B.to_json(),
            "arc_D": self.arc_D.to_json(),
            "deriv_margin": self.deriv_margin,
        }

    @staticmethod
    def from_json(obj: dict) -> "BasinData":
        numbers = {k: _parsed(obj, k, _finite) for k in ("p", "eps", "delta", "deriv_margin")}
        arcs = {k: _parsed(obj, k, Arc.from_json) for k in ("arc_A", "arc_B", "arc_D")}
        return BasinData(**numbers, **arcs)


def _local_iterate(g: LiftMap, p: float) -> Callable[[float], float]:
    """g in coordinates relative to its fixed point p: t -> g(p + t) - p."""
    shift = float(g.lift(p)) - p
    offset = round(shift)
    if abs(shift - offset) > 1e-7:
        raise NoAttractingSide(f"{p} is not a fixed point (lift defect {shift - offset:.2e})")
    return lambda t: float(g.lift(p + t)) - p - offset


def locate_basin(g2: LiftMap, deriv_margin: float = 0.01) -> BasinData:
    """Find an attracting-side fixed point of g2 and its basin geometry.

    Picks the fixed point with the longest right-sided interval on which the
    derivative stays below 1 - deriv_margin (grid resolution 1/BASIN_GRID), then
    sets delta to the midpoint of the admissible interval
    (0, eps - |p - g2(p+eps)|) and computes B and D from g2 evaluations.
    """
    fps = find_fixed_points(g2, BASIN_GRID)
    if not fps:
        raise NoAttractingSide("map has no fixed points")
    step = 1.0 / BASIN_GRID
    best: tuple[float, float] | None = None  # (eps, p)
    for fp in fps:
        p = float(fp.point)
        xs = p + step * np.arange(1, BASIN_GRID)
        ds = np.asarray(g2.deriv(xs))
        bad = np.flatnonzero(ds > 1.0 - deriv_margin)
        good = int(bad[0]) if len(bad) else BASIN_GRID - 1
        eps = good * step
        if eps >= BASIN_MIN_EPS and (best is None or eps > best[0] + 1e-15):
            best = (eps, p)
    if best is None:
        raise NoAttractingSide(
            f"no fixed point has a right basin of length >= {BASIN_MIN_EPS} "
            f"with derivative margin {deriv_margin}"
        )
    eps, p = best
    local = _local_iterate(g2, p)
    d1 = local(eps)  # g2(p + eps) relative to p
    if not 0.0 < d1 < eps:
        raise NoAttractingSide("basin edge is not pulled strictly inward")
    b0 = local(d1)
    if not 0.0 < b0 < d1:
        raise NoAttractingSide("second iterate left the basin")
    delta = 0.5 * (eps - d1)
    if not b0 > delta:
        raise NoAttractingSide(
            f"B starts at {b0:.6f} inside the return gap delta={delta:.6f}"
        )
    return BasinData(
        p=p,
        eps=eps,
        delta=delta,
        arc_A=Arc(p, eps),
        arc_B=Arc(p + b0, d1 - b0),
        arc_D=Arc(p, d1),
        deriv_margin=deriv_margin,
    )


# ---------------------------------------------------------------------------
# Condition (1)-(2): covering words
# ---------------------------------------------------------------------------


def _require_rotation(g1: LiftMap) -> float:
    alpha = g1.as_translation()
    if alpha is None:
        raise RationalRotation("the first generator must be built from rotations")
    frac = alpha % 1.0
    for q in range(1, RATIONAL_Q_MAX + 1):
        if abs(frac * q - round(frac * q)) < RATIONAL_TOL:
            raise RationalRotation(
                f"rotation number is approximately {round(frac * q)}/{q}; "
                "an irrational rotation is required"
            )
    return alpha


def _greedy_cover(
    starts: np.ndarray, ends: np.ndarray, reach: float, stop: float,
    demand: float, bucket: float, stage: str,
) -> list[int]:
    """Indices of a greedy left-to-right cover by the arcs (starts, ends),
    from `reach` until the reach passes `stop`.

    An arc is admissible when it starts at least `demand` before the
    current reach and ends beyond it.  Among the admissible arcs ending
    within `bucket` of the farthest end, the lowest index wins.  Each pick
    ends beyond every earlier one, so no index repeats.
    """
    picks: list[int] = []
    while reach < stop:
        adm = np.flatnonzero((starts <= reach - demand) & (ends > reach))
        if len(adm) == 0:
            raise SearchExhausted(stage, f"cover stalls at {reach:.6f}")
        best_end = float(np.max(ends[adm]))
        best = int(adm[ends[adm] >= best_end - bucket][0])
        picks.append(best)
        reach = float(ends[best])
    return picks


def search_cover_words(
    g1: LiftMap,
    g2: LiftMap,
    basin: BasinData,
    n_max: int = 10_000,
    min_margin: float = 1e-4,
) -> tuple[int, ...]:
    """Exponents n_i of the smallest greedy family h_i = g1^{n_i} o g2
    meant to satisfy (1) and (2); `reverify_certificate` measures how well.

    Admissible exponents place the rotated closure(D) inside
    (p + delta, p + eps), staying COVER_WINDOW_FRAC of the window away from
    its edges so the condition-(2) margin is macroscopic.  `_greedy_cover`
    then covers closure(B) by the translated copies of g2(B), with reach
    ties bucketed at a quarter arc so the smallest workable exponent wins
    (small exponents keep the perturbation amplification down).
    """
    alpha = _require_rotation(g1)
    if basin.arc_B.length >= 1.0:
        # Homeomorphism images of proper arcs stay proper, so a full-circle
        # B can never be covered the stated way; the basin geometry also
        # cannot produce one.
        raise SearchExhausted("cover_words", "degenerate full-circle B")
    p, eps, delta = basin.p, basin.eps, basin.delta
    local = _local_iterate(g2, p)
    d1 = basin.arc_D.length
    b0 = (basin.arc_B.start - p) % 1.0  # g2 sends B's top endpoint here
    c0 = local(b0)
    if not 0.0 < c0 < b0:
        raise SearchExhausted("cover_words", "image of B under g2 is degenerate")
    w_lo, w_hi = delta, eps - d1
    pad = max(min_margin, COVER_WINDOW_FRAC * (w_hi - w_lo))
    if w_hi - w_lo <= 2.0 * pad:
        raise SearchExhausted(
            "cover_words", f"return window ({w_lo:.6f}, {w_hi:.6f}) is too thin"
        )
    ns = np.arange(1, n_max + 1)
    betas = np.mod(ns * alpha, 1.0)
    ok = (betas >= w_lo + pad) & (betas <= w_hi - pad)
    ns, betas = ns[ok], betas[ok]
    if len(ns) == 0:
        raise SearchExhausted("cover_words", f"no exponent <= {n_max} lands in the window")
    # Relative to p, B = (b0, d1) and g2(B) = (c0, b0).
    c_len = b0 - c0
    picks = _greedy_cover(
        c0 + betas, b0 + betas, reach=b0, stop=d1 + min_margin,
        demand=max(min_margin, 0.05 * c_len), bucket=0.25 * c_len, stage="cover_words",
    )
    return tuple(int(ns[i]) for i in picks)


# ---------------------------------------------------------------------------
# Condition (4): global circle cover by rotated copies of B
# ---------------------------------------------------------------------------


def _circle_cover(offsets: np.ndarray, length: float, min_margin: float) -> tuple[int, ...]:
    """Cover the circle by arcs (offset_m, offset_m + length), anchored at
    index 0, with `_greedy_cover` and quarter-arc reach buckets.  Returns
    the picked indices, 0 first."""
    if length >= 1.0:
        return (0,)  # a full-circle arc covers unconditionally
    rel = np.mod(offsets - offsets[0], 1.0)
    bucket = 0.25 * length
    close_by = max(min_margin, 0.5 * bucket)  # demanded closing overlap
    picks = _greedy_cover(
        rel, rel + length, reach=length, stop=1.0 + close_by,
        demand=max(min_margin, 0.1 * length), bucket=bucket, stage="global_cover",
    )
    return (0, *picks)


def verify_global_cover(
    g1: LiftMap, arc_b: Arc, n_max: int = 10_000, min_margin: float = 1e-4
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Rotation exponents (forward, backward) covering the circle by copies
    of B, by forward images T_i(B) = B + m_i*alpha and by inverse images
    S_i^{-1}(B) = B - m_i*alpha, each picked by `_greedy_cover`;
    `reverify_certificate` measures the overlaps."""
    alpha = _require_rotation(g1)
    ms = np.arange(0, n_max + 1)  # ms[i] == i, so the picks are the exponents
    fwd = _circle_cover(np.mod(arc_b.start + ms * alpha, 1.0), arc_b.length, min_margin)
    bwd = _circle_cover(np.mod(arc_b.start - ms * alpha, 1.0), arc_b.length, min_margin)
    return fwd, bwd


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

MARGIN_KEYS = ("cover_overlap", "return_window", "contraction", "circle_cover")
DIRECTIONS = ("forward", "backward")  # a certificate's sides, as keys and `direction`


def _direction(value) -> str:
    if value not in DIRECTIONS:
        raise ValueError(f"must be 'forward' or 'backward', got {value!r}")
    return value


def _generator_pair(value) -> tuple[LiftMap, LiftMap]:
    maps = _array(map_from_json)(value)
    if len(maps) != 2:
        raise ValueError(f"must be an array of two map objects, got {value!r}")
    return maps[0], maps[1]


def _exponents(value) -> tuple[int, ...]:
    """Up to MAX_POWER: the evaluator walks and folds f1 that many times."""
    if not (isinstance(value, list) and value
            and all(type(n) is int and 0 <= n <= MAX_POWER for n in value)):
        raise ValueError(f"must be a non-empty array of integers in 0..{MAX_POWER}, got {value!r}")
    return tuple(value)


def _margins(value) -> dict:
    return {k: _parsed(value, k, _finite) for k in MARGIN_KEYS}


@dataclass(frozen=True)
class Certificate:
    direction: str  # "forward" | "backward"
    label: str
    generators: tuple[LiftMap, LiftMap]  # the pair the numbers below were evaluated on
    basin: BasinData
    cover_exponents: tuple[int, ...]
    lam: float
    global_forward_exponents: tuple[int, ...]
    global_backward_exponents: tuple[int, ...]
    margins: dict
    radius: float

    @property
    def valid(self) -> bool:
        """Every margin is positive."""
        return all(self.margins[k] > 0.0 for k in MARGIN_KEYS)

    def h_maps(self) -> tuple[LiftMap, ...]:
        g1, g2 = self.generators
        return tuple(Composition([Power(g1, n), g2]) for n in self.cover_exponents)

    def to_json(self) -> dict:
        return {
            "direction": self.direction,
            "label": self.label,
            "generators": [g.to_json() for g in self.generators],
            "basin": self.basin.to_json(),
            "cover_exponents": list(self.cover_exponents),
            "lambda": self.lam,
            "global_forward_exponents": list(self.global_forward_exponents),
            "global_backward_exponents": list(self.global_backward_exponents),
            "margins": {k: self.margins[k] for k in MARGIN_KEYS},
            "radius": self.radius,
        }

    @staticmethod
    def from_json(obj: dict) -> "Certificate":
        """Parse and check one side; a bad field raises ValueError("<path>: ...")."""
        return Certificate(
            direction=_parsed(obj, "direction", _direction),
            label=_parsed(obj, "label", _string, ""),
            generators=_parsed(obj, "generators", _generator_pair),
            basin=_parsed(obj, "basin", BasinData.from_json),
            cover_exponents=_parsed(obj, "cover_exponents", _exponents),
            lam=_parsed(obj, "lambda", _finite),
            global_forward_exponents=_parsed(obj, "global_forward_exponents", _exponents),
            global_backward_exponents=_parsed(obj, "global_backward_exponents", _exponents),
            margins=_parsed(obj, "margins", _margins),
            radius=_parsed(obj, "radius", _finite),
        )


@dataclass(frozen=True)
class CertificatePair:
    forward: Certificate
    backward: Certificate

    @property
    def radius(self) -> float:
        return min(self.forward.radius, self.backward.radius)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "label": self.forward.label,
            "radius": self.radius,
            "forward": self.forward.to_json(),
            "backward": self.backward.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "CertificatePair":
        """Parse both sides; a bad field raises ValueError("<side>.<path>: ...").

        The pair must be what `to_json` writes for one system: `schema` 1,
        each side's `direction` its key, backward generators the inverses
        of the forward ones (compared as the maps' `to_json`), one `label` at the top and
        on both sides, and the top `radius` the smaller side radius."""
        schema = _parsed(obj, "schema", lambda v: v)
        if schema != 1:
            raise _FieldError("schema", f"must be 1, got {schema!r}")
        sides = {k: _parsed(obj, k, Certificate.from_json) for k in DIRECTIONS}
        for side, cert in sides.items():
            if cert.direction != side:
                raise _FieldError(f"{side}.direction", f"must be {side!r}, got {cert.direction!r}")
        pair = CertificatePair(**sides)
        inverses = [g.inverse().to_json() for g in pair.forward.generators]
        if [g.to_json() for g in pair.backward.generators] != inverses:
            raise _FieldError("backward.generators", "must be the inverses of forward.generators")
        label = _parsed(obj, "label", _string)
        if not label == pair.forward.label == pair.backward.label:
            raise _FieldError("label", f"must equal both sides' labels, got {label!r}")
        radius = _parsed(obj, "radius", _finite)
        if radius != pair.radius:
            raise _FieldError("radius", f"must be {pair.radius!r}, the smaller side radius")
        return pair


def _perturbation_radius(margins: dict, cert: Certificate, g1: LiftMap, g2: LiftMap) -> float:
    """Conservative C^1 radius keeping every margin positive, for the words
    of `cert` on the pair (g1, g2).

    A C^1 perturbation of size eta moves an L-letter composition by at most
    eta * L in C^0 (rotation factors have unit Lipschitz constant; the
    envelope holds while eta * L stays small, which C_SAFETY enforces) and
    moves its derivative by at most eta * L * (1 + M2 * L / 2) where M2
    bounds the generators' second derivatives.  Arc margins divide by the
    first amplification, the contraction margin by the second.
    """
    l_max = max(max(cert.cover_exponents) + 1,
                *cert.global_forward_exponents, *cert.global_backward_exponents)
    m2_bound = max(g1.second_deriv_bound(), g2.second_deriv_bound())
    a0 = float(l_max)
    a1 = l_max * (1.0 + 0.5 * m2_bound * l_max)
    return C_SAFETY * min(
        margins["cover_overlap"] / a0,
        margins["return_window"] / a0,
        margins["circle_cover"] / a0,
        margins["contraction"] / a1,
    )


def _certify_direction(
    g1: LiftMap,
    g2: LiftMap,
    direction: str,
    label: str,
    n_max: int,
    deriv_margin: float,
    min_margin: float,
) -> Certificate:
    """Search the words, then return what `reverify_certificate` makes of
    them on (g1, g2), as `--check` does; reject lambda >= 1 or a margin <= 0."""
    basin = locate_basin(g2, deriv_margin=deriv_margin)
    cover_exponents = search_cover_words(g1, g2, basin, n_max, min_margin)
    fwd, bwd = verify_global_cover(g1, basin.arc_B, n_max, min_margin)
    cert = reverify_certificate(Certificate(
        direction=direction,
        label=label,
        generators=(g1, g2),
        basin=basin,
        cover_exponents=cover_exponents,
        lam=math.nan,
        global_forward_exponents=fwd,
        global_backward_exponents=bwd,
        margins={},
        radius=math.nan,
    ))
    if not cert.lam < 1.0:
        raise ContractionFails(f"inflated derivative bound {cert.lam:.6f} >= 1")
    for key in MARGIN_KEYS:
        if not cert.margins[key] > 0.0:
            raise SearchExhausted(key, f"margin {cert.margins[key]:.3e} is not positive")
    return cert


def certify_robust_minimality(
    g1: LiftMap,
    g2: LiftMap,
    *,
    n_max: int = 10_000,
    deriv_margin: float = 0.01,
    min_margin: float = 1e-4,
    label: str = "",
) -> CertificatePair:
    """Forward and backward certificates for the pair (g1, g2).

    The backward pass runs the identical pipeline on (g1^-1, g2^-1); a
    failure there invalidates the pair (exceptions propagate with the
    failing stage).  A side is never emitted unless its own check passes:
    lambda >= 1 raises ContractionFails, and any other margin <= 0 raises
    SearchExhausted with the margin's name as the stage.
    """
    forward = _certify_direction(
        g1, g2, "forward", label, n_max, deriv_margin, min_margin
    )
    backward = _certify_direction(
        g1.inverse(), g2.inverse(), "backward", label, n_max, deriv_margin, min_margin
    )
    return CertificatePair(forward, backward)


# ---------------------------------------------------------------------------
# Re-verification with frozen words
# ---------------------------------------------------------------------------


def _power_chain(
    f: LiftMap, pos: np.ndarray, deriv: np.ndarray | None, exponents: Sequence[int],
) -> dict[int, tuple[np.ndarray, np.ndarray | None]]:
    """(f^n(pos), deriv * Df^n(pos)) for every requested n >= 0, from a
    single chain of steps up to max(exponents); lifts only if deriv is None.
    A translation f just shifts pos.

    At most SCALAR_VALUES points walk one by one on Python floats
    (`_float_chain`) from f's factor table, built once per call: one
    `_scalar_step` per factor of a Composition in application order, or
    f's own.  More points walk as one array, one `f.lift_deriv` (or
    `f.lift`) per step.  Lifts and inverse solves are elementwise and the
    float walk takes the methods' operations in their order, so both walks
    give the same bits, given that scalar sine lifts match numpy's."""
    t = f.as_translation()
    if t is not None:
        return {n: (pos + n * t, deriv) for n in set(exponents)}
    if len(pos) <= SCALAR_VALUES:
        factors = reversed(f.maps) if isinstance(f, Composition) else (f,)
        table = [_scalar_step(m) for m in factors]
        derivs = [None] * len(pos) if deriv is None else deriv.tolist()
        walks = [_float_chain(table, x, d, exponents) for x, d in zip(pos.tolist(), derivs)]
        return {
            n: (
                np.array([w[n][0] for w in walks]),
                None if deriv is None else np.array([w[n][1] for w in walks]),
            )
            for n in set(exponents)
        }
    out: dict[int, tuple[np.ndarray, np.ndarray | None]] = {}
    done = 0
    for n in sorted(set(exponents)):
        for _ in range(n - done):
            if deriv is None:
                pos = f.lift(pos)
            else:
                pos, d = f.lift_deriv(pos)
                deriv = deriv * d
        out[n] = (pos, deriv)
        done = n
    return out


def _float_chain(
    table: Sequence[tuple], x: float, deriv: float | None, exponents: Sequence[int],
) -> dict[int, tuple[float, float | None]]:
    """`_power_chain` of one Python float x through the factor table of f.

    Rotation and sine factors step inline with the operations of
    `Rotation.lift` and `SinePerturbed.lift_deriv`; any other factor calls
    its own `lift` or `lift_deriv`.  A step's derivative is the product of
    its factors' from 1.0, and only then multiplies deriv: the grouping of
    `Composition.lift_deriv`, since (deriv * d1) * d2 is another float.
    With deriv None the steps are lifts and evaluate no cos."""
    sin, cos = math.sin, math.cos
    out: dict[int, tuple[float, float | None]] = {}
    done = 0
    for n in sorted(set(exponents)):
        for _ in range(n - done):
            if deriv is None:
                for shift, bw, freq, _, other in table:
                    if bw is not None:
                        x = x + shift + bw * sin(freq * x)
                    elif other is None:
                        x = x + shift
                    else:
                        x = other.lift(x)
                continue
            total = 1.0
            for shift, bw, freq, b, other in table:
                if bw is not None:
                    wx = freq * x
                    x = x + shift + bw * sin(wx)
                    total = total * (1.0 + b * cos(wx))
                elif other is None:
                    x = x + shift
                else:
                    x, d = other.lift_deriv(x)
                    total = total * d
            deriv = deriv * total
        out[n] = (x, deriv)
        done = n
    return out


def _overlaps(spans: Sequence[tuple[float, float]]) -> list[float]:
    """Overlap of each (start, end) span with the next one."""
    return [end - start for (_, end), (start, _) in zip(spans, spans[1:])]


def _spans(ends, origin: float) -> list[tuple[float, float]]:
    """(start, end) of each (lo, hi) pair of lifted arc ends, start taken mod 1 from origin."""
    return [((lo - origin) % 1.0, (lo - origin) % 1.0 + (hi - lo)) for lo, hi in ends]


def reverify_certificate(
    cert: Certificate,
    f1: LiftMap | None = None,
    f2: LiftMap | None = None,
) -> Certificate:
    """The certificate that the frozen words of `cert` give for (f1, f2).

    The one evaluator of lambda, the margins and the radius: `certify`
    returns its output for the searched words, and `certify --check` and
    perturbed re-verification call it again.  With f1/f2 omitted the stored
    generators are used, so a fresh certificate comes back equal to itself
    (`check_certificate` still allows CHECK_TOL for certificates written by
    older versions).  Perturbed maps re-check the same combinatorial data;
    the result is `valid` when the certificate survives.

    One f1 chain (`_power_chain`) carries f2(B ends), the D ends, the B
    ends and f2 of the contraction-grid points that can hold the grid
    maximum of Dh_n up to the largest cover or global forward exponent.
    When pruning leaves at most SCALAR_VALUES points, as on small
    perturbations, each walks on Python floats, stepping f1's rotation and
    sine factors inline (`_float_chain`); otherwise one array
    `f1.lift_deriv` per step.  At each cover exponent n the chain gives the
    ends of h_n(B) and f1^n(D) and the grid maximum of Dh_n; at each global
    forward exponent, the ends of f1^n(B).  The f1^-1 images of B for
    condition (4) take a chain of lifts only, on the two ends of B as
    Python floats.

    Pruning: with g = Df2 on the grid, (lo, hi) = f1.deriv_bounds() and N
    the largest cover exponent, point i walks only if g_i >= max(g)
    (lo/hi)^N (1 - s)/(1 + s), which keeps the candidates of every smaller
    exponent too.  s = 4(m + 1)Nu, with u = 2^-53 and m = `_factor_count(f1)`,
    covers rounding: a computed factor lies in its own bounds by monotone
    rounding (1 + b cos(wx) in [1 - |b|, 1 + |b|], 1/Df in [1/hi, 1/lo]),
    up to 2(m - 1) roundings from a composite's reordered product, and the
    running product adds one per step.  A dropped point and the argmax of g
    drift (4m - 2)N roundings, the test adds N + 6, and (1 + s)/(1 - s) holds
    8(m + 1)N, also covering second-order terms while s <= PRUNE_SLACK_MAX;
    otherwise, or if the bounds are not positive and finite, the full grid
    walks.  Lifts and inverse solves are elementwise, so lambda, every
    margin and `valid` equal the full grid's bit for bit.

    Condition (3) takes one second-derivative fold, that of f1^N o f2.  The
    fold never decreases in n: every `deriv_bounds()[1]` is >= 1 and every
    M2 is >= 0, so no `_m2_fold` step b -> M2 d^2 + b sup Df lowers b, and
    rounding is monotone; it is the largest over the exponents, bit for bit.
    """
    s1, s2 = cert.generators
    f1 = s1 if f1 is None else f1
    f2 = s2 if f2 is None else f2
    basin = cert.basin
    p, eps, delta = basin.p, basin.eps, basin.delta
    d_len = basin.arc_D.length
    rb0 = (basin.arc_B.start - p) % 1.0
    rb1 = rb0 + basin.arc_B.length
    b_ends = np.array([basin.arc_B.start, basin.arc_B.start + basin.arc_B.length])

    # One f1 chain: the f2(B), D and B ends, then the grid points that pass.
    b_img = np.asarray(f2.lift(np.array([p + rb0, p + rb1])), dtype=float)
    xs = p + np.linspace(delta, eps, CONTRACTION_GRID + 1)
    grid_pos, grid_deriv = (np.asarray(v, dtype=float) for v in f2.lift_deriv(xs))
    (lo, hi), n = f1.deriv_bounds(), max(cert.cover_exponents)
    s = 2.0 * (_factor_count(f1) + 1) * n * np.finfo(float).eps
    keep = np.full(len(xs), True)
    if 0.0 < lo <= hi < math.inf and s <= PRUNE_SLACK_MAX:
        keep = grid_deriv >= np.max(grid_deriv) * (lo / hi) ** n * ((1 - s) / (1 + s))
    pos = np.concatenate([b_img, [p, p + d_len], b_ends, grid_pos[keep]])
    deriv = np.concatenate([np.ones(6), grid_deriv[keep]])
    chain = _power_chain(f1, pos, deriv, [*cert.cover_exponents, *cert.global_forward_exponents])
    worst = max(float(np.max(chain[n][1][6:])) for n in cert.cover_exponents)

    # (1) closure(B) covered by h_i = f1^{n_i} o f2 images, in stored order.
    spans = _spans([chain[n][0][:2] for n in cert.cover_exponents], p)
    m1 = min([rb0 - spans[0][0], *_overlaps(spans), spans[-1][1] - rb1])

    # (2) rotated closure(D) inside (p + delta, p + eps).
    d_spans = _spans([chain[n][0][2:4] for n in cert.cover_exponents], p)
    m2 = min(min(start - delta, eps - end) for start, end in d_spans)

    # (3) contraction on (p + delta, p + eps), Lipschitz-inflated at N = n.
    c_bound = Composition([Power(f1, n), f2]).second_deriv_bound()
    lam = worst + 0.5 * c_bound * (eps - delta) / CONTRACTION_GRID
    m3 = 1.0 - lam

    # (4) circle covers in stored order, forward and inverse families.
    exps = cert.global_backward_exponents
    backward = _power_chain(f1.inverse(), b_ends, None, exps)
    m4 = math.inf
    for ends in (
        [chain[m][0][4:6] for m in cert.global_forward_exponents],
        [backward[m][0] for m in exps],
    ):
        spans = _spans(ends, ends[0][0])
        m4 = min(m4, min([*_overlaps(spans), spans[-1][1] - 1.0]))

    margins = dict(zip(MARGIN_KEYS, map(float, (m1, m2, m3, m4))))
    radius = _perturbation_radius(margins, cert, f1, f2)
    return replace(cert, generators=(f1, f2), lam=float(lam), margins=margins, radius=radius)


def check_certificate(cert: Certificate) -> tuple[bool, Certificate]:
    """Re-evaluate `cert` on its stored generators and compare.  Fails when
    lambda or a margin drifts beyond CHECK_TOL or a margin is not positive,
    or when the stored radius exceeds the re-evaluated one by more than a
    relative CHECK_TOL (a smaller radius is conservative, so it passes)."""
    rev = reverify_certificate(cert)
    drifts = [rev.lam - cert.lam, *(rev.margins[k] - cert.margins[k] for k in MARGIN_KEYS)]
    ok = all(abs(d) <= CHECK_TOL for d in drifts) and cert.radius <= rev.radius * (1.0 + CHECK_TOL)
    return rev.valid and ok, rev


# ---------------------------------------------------------------------------
# Nested-limit construction
# ---------------------------------------------------------------------------


def _contains_closed(arc: Arc, x: float, tol: float) -> bool:
    offset = (float(x) - arc.start) % 1.0
    return offset <= arc.length + tol or offset >= 1.0 - tol


@dataclass(frozen=True)
class NestedLimitResult:
    word: Word
    approximant: CirclePoint
    bound: float
    error: float


def nested_limit(
    cert: Certificate, x: float, n_levels: int, y: float | None = None
) -> NestedLimitResult:
    """Select indices i_1..i_n with x in h_{i_1} o ... o h_{i_n}(B) and
    return the approximant h_{i_1} o ... o h_{i_n}(y), for the h_i of `cert`.

    The covering condition guarantees a valid index at every level (ties
    break toward the lowest index); the returned error is certified to be
    at most lambda^n * |B|.  Each level adds one inverse evaluation, so the
    containment test is inflated by a matching multiple of TOL_INV.
    Library API: the paper's approximation of points of B, which no CLI
    command runs.
    """
    h_maps, arc_b, lam = cert.h_maps(), cert.basin.arc_B, cert.lam
    images = []
    for h in h_maps:
        lo = float(h.lift(arc_b.start))
        hi = float(h.lift(arc_b.start + arc_b.length))
        images.append(Arc(lo % 1.0, hi - lo))
    z = float(x) % 1.0
    if not _contains_closed(arc_b, z, 4.0 * TOL_INV):
        raise ValueError("x must lie in the closure of B")
    indices: list[int] = []
    for level in range(n_levels):
        tol = 4.0 * TOL_INV * (level + 1)
        for i, arc in enumerate(images):
            if _contains_closed(arc, z, tol):
                indices.append(i)
                z = float(h_maps[i].inverse_lift(z)) % 1.0
                break
        else:
            raise CoverGap(f"no covering arc contains the level-{level} pullback")
    y0 = float(arc_b.midpoint) if y is None else float(y) % 1.0
    approx = y0
    for i in reversed(indices):
        approx = float(h_maps[i].lift(approx)) % 1.0
    bound = lam**n_levels * arc_b.length
    error = circle_distance(approx, float(x) % 1.0)
    if error > bound + 1e-9:
        raise NestedLimitViolation(f"error {error:.3e} exceeds bound {bound:.3e}")
    word = Word(tuple(i + 1 for i in indices), max(len(h_maps), 1))
    return NestedLimitResult(word, CirclePoint(approx), bound, error)


# ---------------------------------------------------------------------------
# Universal words
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniversalWordResult:
    word: Word
    capture_times: tuple[int, ...]  # per grid index; time t means word[:t]
    target: Arc
    shrunk_target: Arc
    z_grid: int
    fine_verified: bool


def _largest_cluster(sorted_pos: np.ndarray, span_cap: float) -> tuple[float, float]:
    """(start, span) of the largest circular run fitting inside span_cap."""
    n = len(sorted_pos)
    doubled = np.concatenate([sorted_pos, sorted_pos + 1.0])
    hi = np.searchsorted(doubled, sorted_pos + span_cap, side="right")
    counts = np.minimum(hi - np.arange(n), n)
    best = int(np.argmax(counts))
    last = doubled[best + counts[best] - 1]
    return float(sorted_pos[best]), float(last - sorted_pos[best])


def _bfs_arc_to_target(ifs: IFS, lo: float, span: float, goal: Arc) -> tuple[int, ...] | None:
    """Shortest word sending the arc (lo, lo+span) inside the goal arc.

    Breadth-first over arc states with visited-state quantization for
    pruning only; the goal test always uses the exact tracked endpoints, so
    any returned word is valid.
    """
    if goal.contains_span(lo, span):
        return ()
    quantum = 1 << 21
    seen = {(round(lo * quantum), round(span * quantum))}
    queue = deque([(lo, span, ())])
    nodes = 0
    while queue:
        cur_lo, cur_span, word = queue.popleft()
        if len(word) >= UNIVERSAL_BFS_DEPTH:
            continue
        for a, g in enumerate(ifs.generators, start=1):
            new_lo_lift = float(g.lift(cur_lo))
            new_span = float(g.lift(cur_lo + cur_span)) - new_lo_lift
            new_lo = new_lo_lift % 1.0
            new_word = word + (a,)
            if goal.contains_span(new_lo, new_span):
                return new_word
            key = (round(new_lo * quantum), round(new_span * quantum))
            if key in seen:
                continue
            seen.add(key)
            nodes += 1
            if nodes > UNIVERSAL_BFS_NODES:
                return None
            queue.append((new_lo, new_span, new_word))
    return None


def find_universal_word(
    ifs: IFS,
    target: Arc,
    z_grid: int = 1000,
    max_len: int = 500,
) -> UniversalWordResult:
    """Word sigma such that every grid point z enters the target at some
    prefix time t(z) <= |sigma|.

    Greedy growth: repeatedly find the shortest suffix sending the largest
    surviving cluster into the target shrunk by a safety margin (so the grid
    property extrapolates between grid points), capturing stragglers
    opportunistically after every letter.  The property is then verified on
    a UNIVERSAL_FINE_FACTOR-times finer grid against the full target; any
    fine points that slipped through are appended as survivors and the
    greedy loop resumes, up to UNIVERSAL_RETRIES rounds.
    """
    if target.length >= 1.0:
        return UniversalWordResult(
            Word((), ifs.k), tuple([0] * z_grid), target, target, z_grid, True
        )
    shrunk = target.shrunk(UNIVERSAL_SHRINK * target.length)
    gens = ifs.generators

    pos = np.arange(z_grid) / z_grid
    capture = np.full(z_grid, -1, dtype=np.int64)
    capture[shrunk.contains_array(pos)] = 0
    letters: list[int] = []

    def greedy(positions: np.ndarray, caps: np.ndarray) -> None:
        while True:
            alive = np.flatnonzero(caps < 0)
            if len(alive) == 0:
                return
            if len(letters) > max_len:
                raise LengthExceeded(
                    f"word exceeded max_len={max_len} with {len(alive)} survivors"
                )
            srt = np.sort(positions[alive])
            lo, span = _largest_cluster(srt, 0.8 * shrunk.length)
            suffix = _bfs_arc_to_target(ifs, lo, span, shrunk)
            if suffix is None:
                # Fall back to steering the single worst straggler.
                lo = float(srt[0])
                suffix = _bfs_arc_to_target(ifs, lo, 0.0, shrunk)
                if suffix is None:
                    raise LengthExceeded("suffix search exhausted")
            for a in suffix:
                g = gens[a - 1]
                alive = np.flatnonzero(caps < 0)
                positions[alive] = np.mod(g.lift(positions[alive]), 1.0)
                letters.append(a)
                hit = alive[shrunk.contains_array(positions[alive])]
                caps[hit] = len(letters)

    greedy(pos, capture)

    fine_verified = False
    for _ in range(UNIVERSAL_RETRIES):
        fine_n = z_grid * UNIVERSAL_FINE_FACTOR
        fine_pos = np.arange(fine_n) / fine_n
        entered = target.contains_array(fine_pos)
        cur = fine_pos.copy()
        for a in letters:
            cur = np.mod(gens[a - 1].lift(cur), 1.0)
            entered |= target.contains_array(cur)
        missing = np.flatnonzero(~entered)
        if len(missing) == 0:
            fine_verified = True
            break
        # Track the laggards from their current positions and keep growing.
        extra_pos = cur[missing]
        extra_cap = np.full(len(missing), -1, dtype=np.int64)
        greedy(extra_pos, extra_cap)
    if not fine_verified:
        raise LengthExceeded("fine-grid verification kept failing")
    return UniversalWordResult(
        word=Word(tuple(letters), ifs.k),
        capture_times=tuple(int(t) for t in capture),
        target=target,
        shrunk_target=shrunk,
        z_grid=z_grid,
        fine_verified=True,
    )


# ---------------------------------------------------------------------------
# C^1 perturbations
# ---------------------------------------------------------------------------


def c1_distance(f: LiftMap, g: LiftMap) -> float:
    """sup |F - G| + sup |DF - DG| on a C1_GRID-point grid (the C^1 gauge
    used throughout)."""
    xs = np.arange(C1_GRID) / C1_GRID
    d0 = float(np.max(np.abs(np.asarray(f.lift(xs)) - np.asarray(g.lift(xs)))))
    d1 = float(np.max(np.abs(np.asarray(f.deriv(xs)) - np.asarray(g.deriv(xs)))))
    return d0 + d1


def perturb_map(g: LiftMap, size: float, rng: np.random.Generator) -> LiftMap:
    """Post-compose g with a random phase-shifted sine bump of C^1 size `size`.

    The bump is R_{-c} o SinePerturbed(u, v) o R_c, whose C^1 distance from
    the identity is exactly linear in (u, v), so a single rescale lands the
    requested size.
    """
    if size <= 0.0:
        return g
    u = float(rng.uniform(-1.0, 1.0))
    v = float(rng.uniform(-1.0, 1.0))
    c = float(rng.random())
    if u == 0.0 and v == 0.0:
        u = 1.0

    def bumped(scale: float) -> LiftMap:
        return Composition(
            [Rotation(-c), SinePerturbed(u * scale, v * scale), Rotation(c), g]
        )

    probe = 1e-3
    measured = c1_distance(bumped(probe), g)
    scale = size * probe / measured
    out = bumped(scale)
    achieved = c1_distance(out, g)
    if achieved > 0:
        out = bumped(scale * size / achieved)
    return out
