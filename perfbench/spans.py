"""In-memory span tracer that instruments circle_ifs from outside the package.

`Tracer.instrument()` replaces every public function of the seven modules
(including the names other modules re-import, such as
`synchronization.branch_lift_array` or `cli.antonov_classify`) and the map
and model methods listed below with wrappers that record one span per call:
name, parent span, start, end and, for map methods, the number of points.
Spans stay in flat arrays until `aggregate()` turns them into per-layer
metrics; a span's self time is its duration minus the durations of its
direct children.  The tracer keeps a single span stack, so it assumes the
program runs on one thread (the benchmark passes `--threads 1`).
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import defaultdict
from typing import NamedTuple

import numpy as np

LAYERS = (
    "circle_maps",
    "symbolic",
    "ifs_core",
    "synchronization",
    "periodic_points",
    "certifier",
    "cli",
)
MAP_KINDS = {
    "Rotation": "rotation",
    "SinePerturbed": "sine",
    "Composition": "composition",
    "Power": "power",
    "Inverse": "inverse",
}
MAP_METHODS = ("lift", "deriv", "inverse_lift")
MODEL_CLASSES = ("BernoulliModel", "MarkovMinorizedModel")
MODEL_METHODS = ("sample", "sample_matrix")
# The sine family is the only one without a closed-form inverse, so its
# inverse_lift is the bracketed Newton solve whose inner lifts are counted.
SOLVE_SPAN = "circle_maps.sine.inverse_lift"


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    last = name.rsplit(".", 1)[-1]
    if ".ns_per_point." in name:
        return "ns/point"
    if last.startswith("ns_per_"):
        return "ns/" + last[len("ns_per_"):].replace("_", "-")
    if last.endswith("_frac"):
        return "ratio"
    if last == "lifts_per_solve":
        return "lifts/solve"
    if last == "word_letters_mean":
        return "letters"
    if last in ("s", "self_s", "overhead_s"):
        return "s"
    if last.endswith("bytes") or last == "bytes_changed":
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------
# Probes: counters read off a call's arguments or result
# ---------------------------------------------------------------------------


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _word_len(w) -> int:
    letters = getattr(w, "letters", w)
    return len(letters)


def _probes() -> dict:
    """Counter updates keyed by span name: f(counters, fn, args, kwargs, result, exc)."""

    def branch_lift_array(c, fn, args, kwargs, result, exc):
        a = _bind(fn, args, kwargs)
        c["ifs_core.branch_lift_array.letter_points"] += _word_len(a["w"]) * np.size(a["xs"])

    def orbit_to_csv_rows(c, fn, args, kwargs, result, exc):
        c["ifs_core.orbit_to_csv_rows.letters"] += _word_len(_bind(fn, args, kwargs)["w"])

    def sync_fraction(c, fn, args, kwargs, result, exc):
        a = _bind(fn, args, kwargs)
        # Both points of every pair advance by one letter per step.
        c["synchronization.sync_fraction.letter_points"] += 2 * a["n"] * a["n_pairs"]

    def detect_repellers(c, fn, args, kwargs, result, exc):
        if type(exc).__name__ == "Unpolarized":
            c["synchronization.detect_repellers.unpolarized"] += 1

    def periodic_in_interval(c, fn, args, kwargs, result, exc):
        if exc is None:
            c["periodic_points.periodic_in_interval.found"] += 1
            c["periodic_points.periodic_in_interval.word_letters"] += len(result.word)

    def reverify_certificate(c, fn, args, kwargs, result, exc):
        if exc is None and result.valid:
            c["certifier.reverify_certificate.valid"] += 1

    def find_universal_word(c, fn, args, kwargs, result, exc):
        if exc is None:
            c["certifier.find_universal_word.word_letters"] += len(result.word)

    def sample(c, fn, args, kwargs, result, exc):
        if exc is None:
            c["symbolic.sample.letters"] += len(result)

    def sample_matrix(c, fn, args, kwargs, result, exc):
        if exc is None:
            c["symbolic.sample_matrix.letters"] += int(np.size(result))

    probes = {
        "ifs_core.branch_lift_array": branch_lift_array,
        "ifs_core.orbit_to_csv_rows": orbit_to_csv_rows,
        "synchronization.sync_fraction": sync_fraction,
        "synchronization.detect_repellers": detect_repellers,
        "periodic_points.periodic_in_interval": periodic_in_interval,
        "certifier.reverify_certificate": reverify_certificate,
        "certifier.find_universal_word": find_universal_word,
    }
    for cls in MODEL_CLASSES:
        probes[f"symbolic.{cls}.sample"] = sample
        probes[f"symbolic.{cls}.sample_matrix"] = sample_matrix
    return probes


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class Stat(NamedTuple):
    calls: int
    total_s: float
    self_s: float
    points: float
    scalars: float


class Tracer:
    """Records spans for calls into instrumented circle_ifs names."""

    def __init__(self, modules: dict):
        """`modules` maps each layer name to its imported module."""
        self.modules = modules
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # -1 for a scalar argument, else the array size (map methods only).
        self.points = array("q")
        self.stack: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object, bool]] = []
        self._probes = _probes()

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, point_arg: int | None = None):
        nid = self._id(name)
        probe = self._probes.get(name)
        counters = self.counters
        stack = self.stack
        starts, ends = self.start, self.end
        add_name, add_parent = self.name_id.append, self.parent.append
        add_start, add_end, add_points = starts.append, ends.append, self.points.append
        clock = time.perf_counter
        ndarray = np.ndarray

        def traced(*args, **kwargs):
            idx = len(starts)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            if point_arg is not None and len(args) > point_arg:
                x = args[point_arg]
                add_points(x.size if type(x) is ndarray and x.ndim else -1)
            else:
                add_points(0)
            add_end(0.0)
            stack.append(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                if probe is not None:
                    probe(counters, fn, args, kwargs, None, exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if probe is not None:
                probe(counters, fn, args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def clear(self) -> None:
        for arr in (self.name_id, self.parent, self.start, self.end, self.points):
            del arr[:]
        self.stack.clear()
        self.counters.clear()

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._restore.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def instrument(self) -> None:
        """Wrap public functions in every namespace that holds them, then
        the map and model methods.  Undone by `restore()`."""
        wrappers: dict[int, object] = {}
        package = self.modules["package"]
        for holder in [package, *(self.modules[layer] for layer in LAYERS)]:
            for attr, obj in list(vars(holder).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(package.__name__ + "."):
                    continue
                layer = home.rsplit(".", 1)[1]
                if layer not in LAYERS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(obj, f"{layer}.{obj.__name__}")
                self._set(holder, attr, wrappers[id(obj)])
        maps = self.modules["circle_maps"]
        for cls_name, kind in MAP_KINDS.items():
            cls = getattr(maps, cls_name)
            for method in MAP_METHODS:
                fn = getattr(cls, method)
                self._set(cls, method, self.wrap(fn, f"circle_maps.{kind}.{method}", 1))
        symbolic = self.modules["symbolic"]
        for cls_name in MODEL_CLASSES:
            cls = getattr(symbolic, cls_name)
            for method in MODEL_METHODS:
                # Only existing methods: callers probe for sample_matrix.
                if hasattr(cls, method):
                    fn = getattr(cls, method)
                    self._set(cls, method, self.wrap(fn, f"symbolic.{cls_name}.{method}"))

    def restore(self) -> None:
        while self._restore:
            owner, attr, old, had = self._restore.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    # -- aggregation -------------------------------------------------------

    def _columns(self):
        names = np.frombuffer(self.name_id, dtype=np.intc).astype(np.int64)
        parents = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        pts = np.frombuffer(self.points, dtype=np.int64)
        return names, parents, dur, pts

    def stats(self) -> dict[str, Stat]:
        """Calls, total and self time, and points per span name."""
        names, parents, dur, pts = self._columns()
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        n = len(self.span_names)

        def per_name(weights=None):
            return np.bincount(names, weights=weights, minlength=n)

        calls = per_name()
        total = per_name(dur)
        self_t = per_name(dur - child)
        points = per_name(np.where(pts < 0, 1, pts).astype(float))
        scalars = per_name((pts < 0).astype(float))
        return {
            name: Stat(int(calls[i]), float(total[i]), float(self_t[i]),
                       float(points[i]), float(scalars[i]))
            for i, name in enumerate(self.span_names)
        }

    def solve_lifts(self) -> int:
        """Lift calls made directly by a numeric inverse solve."""
        solve_id = self._ids.get(SOLVE_SPAN)
        lift_ids = [i for k, i in self._ids.items()
                    if k.startswith("circle_maps.") and k.endswith(".lift")]
        if solve_id is None or not lift_ids:
            return 0
        names, parents, _, _ = self._columns()
        is_lift = np.isin(names, lift_ids) & (parents >= 0)
        return int(np.count_nonzero(names[parents[is_lift]] == solve_id))

    def span_table(self) -> list[tuple[str, Stat]]:
        """Span names that were called, largest self time first."""
        return sorted(((k, v) for k, v in self.stats().items() if v.calls),
                      key=lambda kv: -kv[1].self_s)

    def aggregate(self) -> dict[str, float]:
        """The per-layer metrics derived from the recorded spans."""
        by = self.stats()
        empty = Stat(0, 0.0, 0.0, 0.0, 0.0)

        def get(name: str) -> Stat:
            return by.get(name, empty)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        c = self.counters
        m: dict[str, float] = {}
        for method in MAP_METHODS:
            rows = [get(f"circle_maps.{kind}.{method}") for kind in MAP_KINDS.values()]
            calls = sum(r.calls for r in rows)
            m[f"circle_maps.{method}.calls"] = calls
            m[f"circle_maps.{method}.points"] = sum(r.points for r in rows)
            m[f"circle_maps.{method}.self_s"] = sum(r.self_s for r in rows)
            m[f"circle_maps.{method}.scalar_frac"] = ratio(sum(r.scalars for r in rows), calls)
        m["circle_maps.inverse_lift.lifts_per_solve"] = ratio(self.solve_lifts(),
                                                             get(SOLVE_SPAN).calls)
        for kind in MAP_KINDS.values():
            for method in MAP_METHODS:
                m[f"circle_maps.{kind}.{method}.calls"] = get(f"circle_maps.{kind}.{method}").calls

        samples = [get(f"symbolic.{cls}.sample") for cls in MODEL_CLASSES]
        matrices = [get(f"symbolic.{cls}.sample_matrix") for cls in MODEL_CLASSES]
        m["symbolic.sample.calls"] = sum(r.calls for r in samples)
        m["symbolic.sample.letters"] = c["symbolic.sample.letters"]
        m["symbolic.sample.self_s"] = sum(r.self_s for r in samples)
        m["symbolic.sample_matrix.letters"] = c["symbolic.sample_matrix.letters"]
        m["symbolic.sample_matrix.self_s"] = sum(r.self_s for r in matrices)
        m["symbolic.ns_per_letter"] = 1e9 * ratio(
            m["symbolic.sample.self_s"] + m["symbolic.sample_matrix.self_s"],
            m["symbolic.sample.letters"] + m["symbolic.sample_matrix.letters"],
        )

        bla = get("ifs_core.branch_lift_array")
        letter_points = c["ifs_core.branch_lift_array.letter_points"]
        m["ifs_core.branch_lift_array.calls"] = bla.calls
        m["ifs_core.branch_lift_array.letter_points"] = letter_points
        m["ifs_core.branch_lift_array.self_s"] = bla.self_s
        # Word application cost includes the lifts it dispatches.
        m["ifs_core.branch_lift_array.ns_per_letter_point"] = 1e9 * ratio(bla.total_s,
                                                                          letter_points)
        m["ifs_core.orbit_to_csv_rows.letters"] = c["ifs_core.orbit_to_csv_rows.letters"]
        m["ifs_core.orbit_to_csv_rows.self_s"] = get("ifs_core.orbit_to_csv_rows").self_s
        for fn in ("minimality_estimate", "branch_deriv"):
            m[f"ifs_core.{fn}.calls"] = get(f"ifs_core.{fn}").calls
            m[f"ifs_core.{fn}.s"] = get(f"ifs_core.{fn}").total_s

        sf = get("synchronization.sync_fraction")
        m["synchronization.sync_fraction.s"] = sf.total_s
        m["synchronization.sync_fraction.self_s"] = sf.self_s
        m["synchronization.sync_fraction.letter_points"] = c[
            "synchronization.sync_fraction.letter_points"]
        dr = get("synchronization.detect_repellers")
        m["synchronization.detect_repellers.calls"] = dr.calls
        m["synchronization.detect_repellers.s"] = dr.total_s
        m["synchronization.detect_repellers.self_s"] = dr.self_s
        m["synchronization.detect_repellers.unpolarized"] = c[
            "synchronization.detect_repellers.unpolarized"]
        ht = get("synchronization.hitting_tail_check")
        m["synchronization.hitting_tail_check.s"] = ht.total_s
        m["synchronization.hitting_tail_check.self_s"] = ht.self_s
        m["synchronization.covering_count.s"] = get("synchronization.covering_count").total_s
        m["synchronization.antonov_classify.s"] = get("synchronization.antonov_classify").total_s

        fa = get("periodic_points.find_contracted_fixed_arc")
        m["periodic_points.find_contracted_fixed_arc.calls"] = fa.calls
        m["periodic_points.find_contracted_fixed_arc.s"] = fa.total_s
        pi = get("periodic_points.periodic_in_interval")
        found = c["periodic_points.periodic_in_interval.found"]
        m["periodic_points.periodic_in_interval.calls"] = pi.calls
        m["periodic_points.periodic_in_interval.s"] = pi.total_s
        m["periodic_points.periodic_in_interval.self_s"] = pi.self_s
        m["periodic_points.periodic_in_interval.found_frac"] = ratio(found, pi.calls)
        m["periodic_points.word_letters_mean"] = ratio(
            c["periodic_points.periodic_in_interval.word_letters"], found)
        m["periodic_points.density_sweep.s"] = get("periodic_points.density_sweep").total_s

        for fn in ("certify_robust_minimality", "locate_basin", "search_cover_words",
                   "verify_contraction", "verify_global_cover", "check_certificate"):
            m[f"certifier.{fn}.s"] = get(f"certifier.{fn}").total_s
        rv = get("certifier.reverify_certificate")
        m["certifier.reverify_certificate.calls"] = rv.calls
        m["certifier.reverify_certificate.s"] = rv.total_s
        m["certifier.reverify_certificate.self_s"] = rv.self_s
        m["certifier.reverify_certificate.valid_frac"] = ratio(
            c["certifier.reverify_certificate.valid"], rv.calls)
        m["certifier.perturb_map.calls"] = get("certifier.perturb_map").calls
        m["certifier.perturb_map.s"] = get("certifier.perturb_map").total_s
        m["certifier.find_universal_word.s"] = get("certifier.find_universal_word").total_s
        m["certifier.find_universal_word.word_letters"] = c[
            "certifier.find_universal_word.word_letters"]

        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, stat in by.items():
            layer_self[name.split(".", 1)[0]] += stat.self_s
        m["cli.main.calls"] = get("cli.main").calls
        # Argument parsing, config load, formatting and writing: the cli
        # layer's own time, all of which runs inside main.
        m["cli.main.self_s"] = layer_self["cli"]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        return m
