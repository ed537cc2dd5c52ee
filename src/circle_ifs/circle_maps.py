"""Circle points, arcs, and orientation-preserving circle maps via monotone lifts.

The circle is parametrized as R/Z: positions live in [0, 1) and the metric is
d(x, y) = min(|x - y|, 1 - |x - y|), so d <= 1/2 always.  Every map is
represented by its lift F: R -> R, a strictly increasing function with
F(x + 1) = F(x) + 1 (degree one, orientation preserving).  Supported map
families:

    Rotation(alpha)              F(x) = x + alpha
    SinePerturbed(a, b)          F(x) = x + a + (b / 2*pi*f) * sin(2*pi*f*x),
                                 |b| < 1, harmonic count f >= 1
    Composition([m1, ..., mk])   m1 o m2 o ... o mk  (mk applied first)
    Power(base, n)               n-fold composition, n may be negative
    Inverse(base)                F^-1, evaluated by base.inverse_lift

Only the sine family has no closed-form inverse: `SinePerturbed.inverse_lift`
solves F(x) = y by bracketed Newton steps and bisection; the other maps
invert in closed form or factor by factor.  All evaluation methods accept
plain floats or numpy arrays.  A Python float given to a sine map's `lift`,
`deriv`, `lift_deriv` or `inverse_lift` is evaluated with `math.sin` and
`math.cos` instead of numpy's: the same operations in the same order, so the
bits match as long as numpy's float64 sin and cos agree with the platform
libm (a property test checks this on every host that runs the suite).  The
scalar word walks of `ifs_core` and the float walks of the certificate power
chains (`certifier._power_chain`) do not call these methods for a rotation or
sine map: they evaluate x + alpha, and x + a + (b/w) sin(w x) with
derivative 1 + b cos(w x), inline from a step table of `_scalar_step`
entries (the IFS's generators, or the chain map's factors), with the
methods' operations in the same order on the same stored floats, so the bits
are the methods' (property tests compare the walks letter by letter and the
chains step by step).

`lift_deriv(x)` returns (F(x), DF(x)) from one pass and is the one chain-rule
evaluator: `deriv` of a Composition, Power or Inverse is its second component.
A composite folds its factors' derivatives in application order, skipping
translations (a factor of exactly 1), and an Inverse solves F(x) = y once for
both components, so the result equals `(lift(x), deriv(x))` bit for bit.

Every JSON input (config, map, model, certificate) is read by `_parsed`
and its strict casts, here at the bottom layer: a missing or malformed field
raises `_FieldError` with the field's path, e.g. `generators[1].maps[0].alpha`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Iterable, NamedTuple, Sequence, Union

import numpy as np

FloatLike = Union[float, np.ndarray]

# Inverse solves target |F(x) - y| <= TOL_INV within MAX_INVERSE_ITER rounds.
TOL_INV = 1e-12
MAX_INVERSE_ITER = 200
# Below this, finite-precision derivative estimates cannot separate a
# multiplier from 1, so fixed points are tagged neutral.
TOL_NEUTRAL = 1e-6
# Largest |exponent| of a JSON power map, and largest `_factor_count` of one:
# a lift steps through that many factors.
MAX_POWER = 10_000


class ConvergenceFailure(RuntimeError):
    """Inverse evaluation failed to reach TOL_INV within MAX_INVERSE_ITER."""


# ---------------------------------------------------------------------------
# JSON fields
# ---------------------------------------------------------------------------


class _FieldError(ValueError):
    """A missing or malformed JSON field; str() is "<path>: <reason>"."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"must be an object, got {value!r}")
    return value


_REQUIRED = object()  # the `_parsed` default of a field that must be present


def _parsed(obj, key: str | int, parse: Callable, default=_REQUIRED):
    """parse(obj[key]) for a key of an object, or an index of an array
    (path `[i]`); an absent key gives `default` unless it is _REQUIRED.
    Failures raise _FieldError with the field's path."""
    name = f"[{key}]" if type(key) is int else key
    if type(key) is str and key not in _object(obj):
        if default is _REQUIRED:
            raise _FieldError(name, "missing required field")
        return default
    try:
        return parse(obj[key])
    except _FieldError as exc:
        sep = "" if exc.path.startswith("[") else "."
        raise _FieldError(f"{name}{sep}{exc.path}", exc.reason) from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _FieldError(name, str(exc)) from exc


def _array(parse: Callable) -> Callable[[object], list]:
    """Cast a JSON array elementwise by parse, each element at its index."""

    def cast(value) -> list:
        if not isinstance(value, list):
            raise ValueError(f"must be an array, got {value!r}")
        return [_parsed(value, i, parse) for i in range(len(value))]

    return cast


def _finite(value) -> float:
    """Cast a finite int or float (not a bool or a string) to float."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {value!r}")
    return float(value)


def _string(value) -> str:
    """Cast a JSON string (not a number, an array or null) to str."""
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


def _integer(lo: int | None = None, hi: int | None = None) -> Callable[[object], int]:
    """Cast an int, or an integral float, to an integer >= lo and <= hi (a
    None bound is open).  Bools, strings and non-integral floats are rejected."""
    bound = "" if lo is None else f" >= {lo}" if hi is None else f" in {lo}..{hi}"

    def cast(value) -> int:
        n = int(value) if type(value) in (int, float) else None
        if n is None or n != value or (lo is not None and n < lo) or (hi is not None and n > hi):
            raise ValueError(f"must be an integer{bound}, got {value!r}")
        return n

    return cast


class CirclePoint(float):
    """A point of R/Z.  Construction reduces mod 1, so 0 <= value < 1."""

    def __new__(cls, value: float) -> "CirclePoint":
        return super().__new__(cls, float(value) % 1.0)

    def __repr__(self) -> str:
        return f"CirclePoint({float(self)!r})"


def circle_distance(x: float, y: float) -> float:
    """Metric d(x, y) = min(|x - y| mod 1, 1 - |x - y| mod 1) on R/Z."""
    d = (x - y) % 1.0
    return min(d, 1.0 - d)


def circle_distance_array(x: FloatLike, y: FloatLike) -> np.ndarray:
    d = np.mod(np.asarray(x, dtype=float) - y, 1.0)
    return np.minimum(d, 1.0 - d)


@dataclass(frozen=True)
class Arc:
    """Oriented arc traversed counterclockwise from `start`, length in (0, 1].

    Length 1 is the full circle.  Membership is half open:
    x in arc  iff  (x - start) mod 1 < length.
    """

    start: float
    length: float

    def __post_init__(self) -> None:
        if not 0.0 < self.length <= 1.0:
            raise ValueError(f"arc length must be in (0, 1], got {self.length}")
        object.__setattr__(self, "start", float(self.start) % 1.0)
        object.__setattr__(self, "length", float(self.length))

    @property
    def midpoint(self) -> CirclePoint:
        return CirclePoint(self.start + 0.5 * self.length)

    def contains(self, x: float) -> bool:
        return (float(x) - self.start) % 1.0 < self.length

    def contains_array(self, xs: FloatLike) -> np.ndarray:
        return np.mod(np.asarray(xs, dtype=float) - self.start, 1.0) < self.length

    def contains_span(self, lo: float, length: float) -> bool:
        """Whether the lifted span [lo, lo + length] lies inside the closed arc."""
        return (lo - self.start) % 1.0 + length <= self.length

    def shrunk(self, margin: float) -> "Arc":
        if 2.0 * margin >= self.length:
            raise ValueError("margin swallows the arc")
        return Arc(self.start + margin, self.length - 2.0 * margin)

    def to_json(self) -> dict:
        return {"start": self.start, "length": self.length}

    @staticmethod
    def from_json(obj: dict) -> "Arc":
        return Arc(_parsed(obj, "start", _finite), _parsed(obj, "length", _finite))


# ---------------------------------------------------------------------------
# Lift maps
# ---------------------------------------------------------------------------


def _ones(x: FloatLike) -> FloatLike:
    """The derivative of a translation: 1.0, or ones shaped like an array x.
    A Python float is tested first, so the scalar path makes no numpy call."""
    return 1.0 if type(x) is float or np.ndim(x) == 0 else np.ones(np.shape(x))


class LiftMap:
    """Base class: an orientation-preserving circle homeomorphism.

    Subclasses implement `lift`, `inverse_lift`, `deriv` or `lift_deriv`,
    the derivative bounds and `to_json`; only circle evaluation and the
    defaults of `inverse` and `as_translation` are generic.  Instances are
    immutable and all operations are pure, so maps can be shared freely.
    What a constructor derives from the parameters (a sine map's frequency,
    a composition's step table, a power's factor) is computed once and
    never changes, so it is not a cache.
    """

    def lift(self, x: FloatLike) -> FloatLike:
        raise NotImplementedError

    def inverse_lift(self, y: FloatLike) -> FloatLike:
        """The x with F(x) = y, on the lift."""
        raise NotImplementedError

    def deriv(self, x: FloatLike) -> FloatLike:
        return self.lift_deriv(x)[1]

    def lift_deriv(self, x: FloatLike) -> tuple[FloatLike, FloatLike]:
        """(F(x), DF(x)) in one pass, equal bit for bit to (lift, deriv)."""
        return self.lift(x), self.deriv(x)

    def __call__(self, x: FloatLike) -> FloatLike:
        return self.lift(x) % 1.0

    # -- structure ----------------------------------------------------------

    def inverse(self) -> "LiftMap":
        return Inverse(self)

    def as_translation(self) -> float | None:
        """Exact translation amount when the map is built from rotations only."""
        return None

    def deriv_bounds(self) -> tuple[float, float]:
        """(lower, upper) bounds on the derivative over the whole circle."""
        raise NotImplementedError

    def second_deriv_bound(self) -> float:
        """Bound on sup |F''|, used for Lipschitz inflation of grid maxima."""
        raise NotImplementedError

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Rotation(LiftMap):
    alpha: float

    def lift(self, x: FloatLike) -> FloatLike:
        return x + self.alpha

    def deriv(self, x: FloatLike) -> FloatLike:
        return _ones(x)

    def inverse(self) -> LiftMap:
        return Rotation(-self.alpha)

    def inverse_lift(self, y: FloatLike) -> FloatLike:
        return y - self.alpha

    def as_translation(self) -> float | None:
        return self.alpha

    def deriv_bounds(self) -> tuple[float, float]:
        return (1.0, 1.0)

    def second_deriv_bound(self) -> float:
        return 0.0

    def to_json(self) -> dict:
        return {"kind": "rotation", "alpha": self.alpha}


@dataclass(frozen=True)
class SinePerturbed(LiftMap):
    """F(x) = x + a + (b / w) sin(w x) with w = 2*pi*harmonics and |b| < 1.

    The derivative 1 + b cos(w x) stays positive, so the map is a
    diffeomorphism.  harmonics=m makes the map commute with the rotation
    by 1/m.
    """

    a: float
    b: float
    harmonics: int = 1

    def __post_init__(self) -> None:
        if not abs(self.b) < 1.0:
            raise ValueError(f"|b| must be < 1 for a diffeomorphism, got {self.b}")
        if self.harmonics < 1:
            raise ValueError("harmonics must be >= 1")
        w = 2.0 * math.pi * self.harmonics
        object.__setattr__(self, "_w", w)
        object.__setattr__(self, "_bw", self.b / w)
        object.__setattr__(self, "_d", abs(self.a) + abs(self.b) / w)  # sup |F(x) - x|

    def lift(self, x: FloatLike) -> FloatLike:
        sin = math.sin if type(x) is float else np.sin
        return x + self.a + self._bw * sin(self._w * x)

    def deriv(self, x: FloatLike) -> FloatLike:
        cos = math.cos if type(x) is float else np.cos
        return 1.0 + self.b * cos(self._w * x)

    def lift_deriv(self, x: FloatLike) -> tuple[FloatLike, FloatLike]:
        sin, cos = (math.sin, math.cos) if type(x) is float else (np.sin, np.cos)
        wx = self._w * x
        return x + self.a + self._bw * sin(wx), 1.0 + self.b * cos(wx)

    def inverse_lift(self, y: FloatLike) -> FloatLike:
        """Solve F(x) = y by Newton steps clipped to the bracket y +- (sup
        |F(x) - x| + 1e-9), then bisect the points Newton leaves unsolved.

        Each point is solved on its own: a converged point stops moving and
        a bracket stops halving once it is narrow, so an array entry equals
        the solve of that entry alone bit for bit, whatever else shares the
        array.  A 0-d input (float, numpy scalar or 0-d array) takes the
        Newton steps on Python floats, the fast path for single solves, with
        the operations of `lift` and `deriv` inline and one w x per round,
        and comes back as a Python float; a Python float is tested before
        `np.ndim`, whose dispatch costs more than a scalar lift.  The rare
        point those steps leave unsolved is solved again as a 1-element
        array, so there is one bisection.
        """
        if type(y) is float or np.ndim(y) == 0:
            y = float(y)
            lo, hi = y - self._d - 1e-9, y + self._d + 1e-9
            a, b, bw, w, sin, cos = self.a, self.b, self._bw, self._w, math.sin, math.cos
            x = y
            for _ in range(12):
                wx = w * x
                fx = x + a + bw * sin(wx) - y
                if abs(fx) <= 0.5 * TOL_INV:
                    return x
                x = min(max(x - fx / (1.0 + b * cos(wx)), lo), hi)
            if abs(self.lift(x) - y) <= 0.5 * TOL_INV:
                return x
            return float(self.inverse_lift(np.array([y]))[0])
        yy = np.asarray(y, dtype=float)
        lo, hi = yy - self._d - 1e-9, yy + self._d + 1e-9
        x = yy.copy()
        iters = 0
        # Newton phase; the derivative 1 + b cos(w x) is at least 1 - |b| > 0.
        for _ in range(12):
            fx = self.lift(x) - yy
            done = np.abs(fx) <= 0.5 * TOL_INV
            if np.all(done):
                return x
            x = np.where(done, x, np.clip(x - fx / self.deriv(x), lo, hi))
            iters += 1
        bad = np.abs(self.lift(x) - yy) > 0.5 * TOL_INV
        if np.any(bad):
            lo, hi, yb = lo[bad], hi[bad], yy[bad]
            wide = hi - lo > 0.25 * TOL_INV
            while iters < MAX_INVERSE_ITER and np.any(wide):
                mid = 0.5 * (lo + hi)
                too_low = self.lift(mid) < yb
                lo = np.where(wide & too_low, mid, lo)
                hi = np.where(wide & ~too_low, mid, hi)
                wide = hi - lo > 0.25 * TOL_INV
                iters += 1
            x[bad] = 0.5 * (lo + hi)
            if np.any(np.abs(self.lift(x[bad]) - yb) > 10.0 * TOL_INV):
                raise ConvergenceFailure(
                    f"inverse residual above {TOL_INV} after {iters} iterations"
                )
        return x

    def deriv_bounds(self) -> tuple[float, float]:
        return (1.0 - abs(self.b), 1.0 + abs(self.b))

    def second_deriv_bound(self) -> float:
        return abs(self.b) * self._w

    def to_json(self) -> dict:
        out = {"kind": "sine", "a": self.a, "b": self.b}
        if self.harmonics != 1:
            out["harmonics"] = self.harmonics
        return out


def _scalar_step(g: LiftMap) -> tuple:
    """g's entry (shift, bw, freq, b, other) in an IFS's scalar step table.

    A rotation is (alpha, None, None, None, None) and a sine map
    (a, b/w, w, b, None): the scalar walks step them inline with the
    operations of `Rotation.lift` and `SinePerturbed.lift_deriv`, so the
    bits are the methods'.  Any other kind is (None, None, None, None, g),
    stepped by its own `lift` or `lift_deriv`; a composition of rotations
    is not folded into one shift, since (x + b) + a is not x + (a + b).
    A plain tuple: a NamedTuple unpacks through the iterator protocol,
    which costs more than the step.
    """
    if type(g) is Rotation:
        return (g.alpha, None, None, None, None)
    if type(g) is SinePerturbed:
        return (g.a, g._bw, g._w, g.b, None)
    return (None, None, None, None, g)


def _m2_fold(pairs: Iterable[tuple[float, float]]) -> float:
    """Bound on sup |F''| of a composition from its factors' (M2, sup DF) pairs
    in application order, folding |D2(f o g)| <= M2_f (sup Dg)^2 + sup Df * M2_g."""
    bound = 0.0
    dhi = 1.0
    for m2, mhi in pairs:
        bound = m2 * dhi * dhi + mhi * bound
        dhi *= mhi
    return bound


def _flatten(maps: Sequence[LiftMap]) -> tuple[LiftMap, ...]:
    flat: list[LiftMap] = []
    for m in maps:
        if isinstance(m, Composition):
            flat.extend(m.maps)
        else:
            flat.append(m)
    return tuple(flat)


@dataclass(frozen=True)
class Composition(LiftMap):
    """maps[0] o maps[1] o ... o maps[-1]; the last entry is applied first.

    Nested compositions are flattened at construction, which also builds
    the step table `_steps`: per factor in application order, its bound
    `lift` and its bound `lift_deriv`, or None for a translation.
    """

    maps: tuple[LiftMap, ...]

    def __init__(self, maps: Sequence[LiftMap]):
        flat = _flatten(maps)
        object.__setattr__(self, "maps", flat)
        steps = tuple(
            (m.lift, None if m.as_translation() is not None else m.lift_deriv)
            for m in reversed(flat)
        )
        object.__setattr__(self, "_steps", steps)

    def lift(self, x: FloatLike) -> FloatLike:
        for lift, _ in self._steps:
            x = lift(x)
        return x

    def lift_deriv(self, x: FloatLike) -> tuple[FloatLike, FloatLike]:
        total = None
        for lift, lift_deriv in self._steps:
            if lift_deriv is None:
                x = lift(x)
                continue
            x, d = lift_deriv(x)
            total = d if total is None else total * d
        return x, _ones(x) if total is None else total

    def inverse(self) -> LiftMap:
        return Composition([m.inverse() for m in reversed(self.maps)])

    def inverse_lift(self, y: FloatLike) -> FloatLike:
        for m in self.maps:
            y = m.inverse_lift(y)
        return y

    def as_translation(self) -> float | None:
        total = 0.0
        for m in self.maps:
            t = m.as_translation()
            if t is None:
                return None
            total += t
        return total

    def deriv_bounds(self) -> tuple[float, float]:
        lo = hi = 1.0
        for m in self.maps:
            mlo, mhi = m.deriv_bounds()
            lo *= mlo
            hi *= mhi
        return (lo, hi)

    def second_deriv_bound(self) -> float:
        return _m2_fold(
            [(m.second_deriv_bound(), m.deriv_bounds()[1]) for m in reversed(self.maps)]
        )

    def to_json(self) -> dict:
        return {"kind": "composition", "maps": [m.to_json() for m in self.maps]}


@dataclass(frozen=True)
class Power(LiftMap):
    """base^exponent.  Construction stores the factor applied |exponent|
    times (base, or base.inverse() for a negative exponent) and, for a
    translation base, the shift exponent * t."""

    base: LiftMap
    exponent: int

    def __post_init__(self) -> None:
        t = self.base.as_translation()
        object.__setattr__(self, "_shift", None if t is None else self.exponent * t)
        factor = self.base if self.exponent >= 0 else self.base.inverse()
        object.__setattr__(self, "_factor", factor)

    def lift(self, x: FloatLike) -> FloatLike:
        if self._shift is not None:
            return x + self._shift
        lift = self._factor.lift
        for _ in range(abs(self.exponent)):
            x = lift(x)
        return x

    def lift_deriv(self, x: FloatLike) -> tuple[FloatLike, FloatLike]:
        if self._shift is not None:
            return self.lift(x), _ones(x)
        lift_deriv = self._factor.lift_deriv
        total = None
        for _ in range(abs(self.exponent)):
            x, d = lift_deriv(x)
            total = d if total is None else total * d
        return x, _ones(x) if total is None else total

    def inverse(self) -> LiftMap:
        return Power(self.base, -self.exponent)

    def inverse_lift(self, y: FloatLike) -> FloatLike:
        if self._shift is not None:
            return y - self._shift
        inverse_lift = self._factor.inverse_lift
        for _ in range(abs(self.exponent)):
            y = inverse_lift(y)
        return y

    def as_translation(self) -> float | None:
        return self._shift

    def deriv_bounds(self) -> tuple[float, float]:
        lo, hi = self._factor.deriv_bounds()
        n = abs(self.exponent)
        return (lo**n, hi**n)

    def second_deriv_bound(self) -> float:
        # The n-fold Composition fold, over a table of the factor's maps.
        f = self._factor
        table = [
            (m.second_deriv_bound(), m.deriv_bounds()[1])
            for m in reversed(f.maps if isinstance(f, Composition) else (f,))
        ]
        return _m2_fold(chain.from_iterable(repeat(table, abs(self.exponent))))

    def to_json(self) -> dict:
        return {"kind": "power", "base": self.base.to_json(), "exponent": self.exponent}


@dataclass(frozen=True)
class Inverse(LiftMap):
    base: LiftMap

    def lift(self, x: FloatLike) -> FloatLike:
        return self.base.inverse_lift(x)

    def lift_deriv(self, x: FloatLike) -> tuple[FloatLike, FloatLike]:
        pre = self.base.inverse_lift(x)
        return pre, 1.0 / self.base.deriv(pre)

    def inverse(self) -> LiftMap:
        return self.base

    def inverse_lift(self, y: FloatLike) -> FloatLike:
        return self.base.lift(y)

    def as_translation(self) -> float | None:
        t = self.base.as_translation()
        return None if t is None else -t

    def deriv_bounds(self) -> tuple[float, float]:
        lo, hi = self.base.deriv_bounds()
        return (1.0 / hi, 1.0 / lo)

    def second_deriv_bound(self) -> float:
        # |(f^-1)''| = |f'' o f^-1| * ((f^-1)')^3 <= M2 / lo^3
        lo, _ = self.base.deriv_bounds()
        return self.base.second_deriv_bound() / lo**3

    def to_json(self) -> dict:
        return {"kind": "inverse", "base": self.base.to_json()}


def _factor_count(f: LiftMap) -> int:
    """Number m of non-translation factors one `f.lift_deriv` multiplies."""
    if f.as_translation() is not None:
        return 0
    if isinstance(f, Composition):
        return sum(map(_factor_count, f.maps))
    if isinstance(f, Power):
        return abs(f.exponent) * _factor_count(f.base)
    return _factor_count(f.base) if isinstance(f, Inverse) else 1


def map_from_json(obj: dict) -> LiftMap:
    if not isinstance(obj, dict):
        raise TypeError(f"map must be an object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "rotation":
        return Rotation(_parsed(obj, "alpha", _finite))
    if kind == "sine":
        a, b = _parsed(obj, "a", _finite), _parsed(obj, "b", _finite)
        return SinePerturbed(a, b, _parsed(obj, "harmonics", _integer(1), 1))
    if kind == "composition":
        return Composition(_parsed(obj, "maps", _array(map_from_json)))
    if kind == "power":
        exponent = _parsed(obj, "exponent", _integer(-MAX_POWER, MAX_POWER))
        power = Power(_parsed(obj, "base", map_from_json), exponent)
        if (factors := _factor_count(power)) > MAX_POWER:
            raise _FieldError("exponent", f"{factors} factors exceed {MAX_POWER}")
        return power
    if kind == "inverse":
        return Inverse(_parsed(obj, "base", map_from_json))
    raise ValueError(f"unknown map kind: {kind!r}")


# ---------------------------------------------------------------------------
# Map-level operations
# ---------------------------------------------------------------------------


class FixedPoint(NamedTuple):
    point: CirclePoint
    derivative: float
    stability: str  # "attracting" | "repelling" | "neutral"


def _classify(derivative: float) -> str:
    if abs(derivative - 1.0) <= TOL_NEUTRAL:
        return "neutral"
    return "attracting" if derivative < 1.0 else "repelling"


def find_fixed_points(f: LiftMap, grid_n: int) -> list[FixedPoint]:
    """Roots of F(x) - x = m (integer m) on [0, 1), sorted by position.

    Scans the displacement on a grid of `grid_n` cells and bisects every sign
    change down to TOL_INV.  Fixed-point-free maps (e.g. irrational
    rotations) return an empty list.
    """
    if grid_n < 16:
        raise ValueError("grid_n must be >= 16")
    xs = np.linspace(0.0, 1.0, grid_n + 1)
    disp = np.asarray(f.lift(xs)) - xs
    roots: list[float] = []
    for m in range(math.ceil(disp.min()), math.floor(disp.max()) + 1):
        g = disp - m
        for i in range(grid_n):
            if g[i] == 0.0:
                roots.append(xs[i])
                continue
            if g[i] * g[i + 1] < 0.0:
                lo, hi = xs[i], xs[i + 1]
                glo = g[i]
                while hi - lo > TOL_INV:
                    mid = 0.5 * (lo + hi)
                    gm = f.lift(mid) - mid - m
                    if gm == 0.0:
                        lo = hi = mid
                        break
                    if (gm > 0) == (glo > 0):
                        lo, glo = mid, gm
                    else:
                        hi = mid
                roots.append(0.5 * (lo + hi))
        if g[grid_n] == 0.0 and xs[grid_n] % 1.0 not in roots:
            roots.append(xs[grid_n] % 1.0)
    # Deduplicate mod 1 at well below any grid scale.
    cleaned: list[float] = []
    for r in sorted(p % 1.0 for p in roots):
        if not cleaned or (r - cleaned[-1]) > 1e-9:
            cleaned.append(r)
    if len(cleaned) >= 2 and (cleaned[0] + 1.0 - cleaned[-1]) <= 1e-9:
        cleaned.pop()
    out = []
    for r in cleaned:
        d = float(f.deriv(r))
        out.append(FixedPoint(CirclePoint(r), d, _classify(d)))
    return out
