import math
import re

import pytest

from circle_ifs import periodic_points
from circle_ifs.circle_maps import Arc, Rotation, SinePerturbed, circle_distance
from circle_ifs.ifs_core import IFS, _word_lift, branch_apply, branch_deriv
from circle_ifs.periodic_points import (
    HorizonExceeded,
    StageExhausted,
    density_sweep,
    find_contracted_fixed_arc,
    periodic_in_interval,
)
from circle_ifs.symbolic import BernoulliModel
from word_helpers import coverage, reversed_word

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="module")
def sweep(golden_sine_ifs, fair_coin):
    return density_sweep(golden_sine_ifs, 20, fair_coin, seed=3)


@pytest.fixture(scope="module")
def inverse_composites(golden_sine_ifs, fair_coin):
    """The inverse IFS and the (letters, lo, hi) of the bisections that the
    repelling side of a mesh-20 sweep runs for two of its arcs."""
    inv = golden_sine_ifs.inverse_ifs()
    att = find_contracted_fixed_arc(inv, fair_coin, seed=3, stream=1)
    calls = []
    original = periodic_points._bisect_fixed_point

    def recording(ifs, letters, lo, hi):
        calls.append((tuple(letters), lo, hi))
        return original(ifs, letters, lo, hi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(periodic_points, "_bisect_fixed_point", recording)
        for i in (3, 12):
            periodic_in_interval(inv, Arc(i / 20, 1 / 20), att)
    return inv, calls


@pytest.fixture(scope="module")
def inverse_records(golden_sine_ifs, fair_coin):
    """Attracting records of the inverse IFS on the arcs of a mesh-4 sweep.
    Their reversed words are the sweep's repelling words, and their points
    lie within 1e-13 of the bisection points the repelling side starts its
    Newton polish from, so they serve as Newton starts here."""
    inv = golden_sine_ifs.inverse_ifs()
    att = find_contracted_fixed_arc(inv, fair_coin, seed=7, stream=1)
    return [periodic_in_interval(inv, Arc(i / 4, 1 / 4), att) for i in range(4)]


def reference_bisection(ifs, letters, lo, hi):
    """Bisection on the direct displacement h(x) - k - x."""
    def disp(x):
        return _word_lift(ifs, letters, x) - k - x

    k = math.floor(_word_lift(ifs, letters, lo) - lo)
    if disp(lo) < 0.0 or disp(hi) > 0.0:
        raise ValueError("interval is not mapped into itself")
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if disp(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBisectFixedPoint:
    def test_inverse_ifs_matches_direct_displacement(self, inverse_composites):
        inv, calls = inverse_composites
        assert len(calls) == 2
        for letters, lo, hi in calls:
            q = periodic_points._bisect_fixed_point(inv, letters, lo, hi)
            assert abs(q - reference_bisection(inv, letters, lo, hi)) < 1e-12

    def test_inverse_ifs_needs_no_inverse_solve(self, inverse_composites, monkeypatch):
        inv, calls = inverse_composites
        expected = [periodic_points._bisect_fixed_point(inv, *c) for c in calls]

        def no_solve(self, y):
            raise AssertionError("inverse solve on the forward-map side")

        monkeypatch.setattr(SinePerturbed, "inverse_lift", no_solve)
        assert [periodic_points._bisect_fixed_point(inv, *c) for c in calls] == expected

    def test_interval_not_mapped_into_itself_raises(self, inverse_composites):
        inv, calls = inverse_composites
        for letters, lo, hi in calls:
            q = periodic_points._bisect_fixed_point(inv, letters, lo, hi)
            lo, hi = q + 0.2, q + 0.21
            with pytest.raises(ValueError, match="not mapped into itself"):
                reference_bisection(inv, letters, lo, hi)
            with pytest.raises(ValueError, match="not mapped into itself"):
                periodic_points._bisect_fixed_point(inv, letters, lo, hi)


class TestNewtonPolish:
    def test_newton_point_sits_at_noise_floor(self, golden_sine_ifs, inverse_records):
        # The polish returns the point Newton stopped at; no float64 within
        # +-4 ulp of it has a residual more than 10% smaller, so a scan of
        # the neighbors would only pick among rounding noise.
        def resid(letters, x):
            return periodic_points._residual(golden_sine_ifs, letters, x)

        for rec in inverse_records:
            letters = rec.word.letters[::-1]
            q = periodic_points._newton_polish(golden_sine_ifs, letters, float(rec.point))
            window = [q]
            for direction in (-math.inf, math.inf):
                x = q
                for _ in range(4):
                    x = math.nextafter(x, direction)
                    window.append(x)
            assert resid(letters, q) <= 1.1 * min(resid(letters, x) for x in window)
            assert resid(letters, q) < 1e-11


class TestContractedFixedArc:
    def test_single_map_closed_form(self):
        # The pure contracting-map branch: fixed point 0, multiplier (1/2)^n.
        ifs = IFS([SinePerturbed(0.0, -0.5)])
        att = find_contracted_fixed_arc(ifs, BernoulliModel([1.0]), seed=1)
        n = len(att.word)
        assert circle_distance(float(att.point), 0.0) < 1e-12
        assert branch_deriv(ifs, att.word.letters, float(att.point)) == pytest.approx(
            0.5**n, rel=1e-12
        )
        assert att.basin.contains(float(att.point))
        assert not att.basin.contains(0.5)

    def test_all_rotations_exceed_horizon(self, fair_coin):
        ifs = IFS([Rotation(GOLDEN), Rotation(0.3)])
        with pytest.raises(HorizonExceeded):
            find_contracted_fixed_arc(ifs, fair_coin, seed=1, horizon=256)

    def test_twenty_seeds_all_succeed(self, golden_sine_ifs, fair_coin):
        for s in range(20):
            att = find_contracted_fixed_arc(golden_sine_ifs, fair_coin, seed=s)
            residual = circle_distance(
                float(branch_apply(golden_sine_ifs, att.word, float(att.point))),
                float(att.point),
            )
            assert residual < 1e-10
            assert branch_deriv(golden_sine_ifs, att.word.letters, float(att.point)) < 1.0

    def test_basin_is_self_mapped(self, golden_sine_ifs, fair_coin):
        att = find_contracted_fixed_arc(golden_sine_ifs, fair_coin, seed=7)
        lo = att.basin.start
        hi = lo + att.basin.length
        img_lo = float(branch_apply(golden_sine_ifs, att.word, lo))
        img_hi = float(branch_apply(golden_sine_ifs, att.word, hi))
        assert att.basin.contains(img_lo)
        assert att.basin.contains(img_hi)

    def test_repeller_bracket_fallback(self, fair_coin, monkeypatch):
        # No short prefix of this seed-0 word has a fixed point with
        # multiplier in MILD_BAND and a long enough basin, so the arc is a
        # complement component of the repeller brackets (the attractor
        # found has multiplier about 9e-4).  That arc U is the bracket of
        # the last bisection.
        ifs = IFS([Rotation(GOLDEN), SinePerturbed(0.0, -0.95, harmonics=2)])
        mild, components, brackets = [], [], []
        for name, log in (("_mild_prefix_attractor", mild), ("_complement_components", components)):
            fn = getattr(periodic_points, name)
            monkeypatch.setattr(periodic_points, name,
                                lambda *a, fn=fn, log=log: log.append(fn(*a)) or log[-1])
        bisect = periodic_points._bisect_fixed_point
        monkeypatch.setattr(periodic_points, "_bisect_fixed_point",
                            lambda f, letters, lo, hi: brackets.append((lo, hi))
                            or bisect(f, letters, lo, hi))
        att = find_contracted_fixed_arc(ifs, fair_coin, seed=0)
        assert mild == [None]
        lo, hi = brackets[-1]
        assert any((lo - c.start) % 1.0 + (hi - lo) <= c.length for c in components[-1])
        img_lo = _word_lift(ifs, att.word.letters, lo)
        img_hi = _word_lift(ifs, att.word.letters, hi)
        assert (img_lo - lo) % 1.0 + (img_hi - img_lo) <= hi - lo
        q = float(att.point)
        assert circle_distance(_word_lift(ifs, att.word.letters, q) % 1.0, q) <= periodic_points.TOL_FIX
        assert branch_deriv(ifs, att.word.letters, q) < 1.0


class TestPeriodicInInterval:
    def test_record_lands_in_target(self, golden_sine_ifs, fair_coin):
        att = find_contracted_fixed_arc(golden_sine_ifs, fair_coin, seed=3)
        target = Arc(0.37, 0.05)
        rec = periodic_in_interval(golden_sine_ifs, target, att)
        assert target.contains(float(rec.point))
        assert rec.residual < 1e-9
        assert rec.stability == "attracting"

    def test_target_containing_attractor_allows_trivial_g(self, golden_sine_ifs, fair_coin):
        att = find_contracted_fixed_arc(golden_sine_ifs, fair_coin, seed=3)
        a = float(att.point)
        target = Arc(a - 0.025, 0.05)
        rec = periodic_in_interval(golden_sine_ifs, target, att)
        assert target.contains(float(rec.point))

    def test_single_map_search_exhausts(self):
        ifs = IFS([SinePerturbed(0.0, -0.5)])
        att = find_contracted_fixed_arc(ifs, BernoulliModel([1.0]), seed=1)
        with pytest.raises(StageExhausted) as err:
            periodic_in_interval(ifs, Arc(0.37, 0.05), att)
        assert err.value.stage in ("F", "G")

    def test_multiplier_matches_finite_differences(self, golden_sine_ifs, fair_coin):
        att = find_contracted_fixed_arc(golden_sine_ifs, fair_coin, seed=3)
        rec = periodic_in_interval(golden_sine_ifs, Arc(0.62, 0.05), att)
        q = float(rec.point)
        h = 1e-6
        up = float(branch_apply(golden_sine_ifs, rec.word, q + h))
        dn = float(branch_apply(golden_sine_ifs, rec.word, q - h))
        num = ((up - dn + 0.5) % 1.0 - 0.5) / (2.0 * h)
        assert rec.multiplier == pytest.approx(num, rel=1e-4)


class TestStageFailures:
    """Each stage failure of `periodic_in_interval` on the target (0.37, 0.05)
    of the seed-3 golden-sine attractor, forced through one helper."""

    @pytest.fixture(scope="class")
    def attractor(self, golden_sine_ifs, fair_coin):
        return find_contracted_fixed_arc(golden_sine_ifs, fair_coin, seed=3)

    def exhausted(self, ifs, attractor):
        with pytest.raises(StageExhausted) as err:
            periodic_in_interval(ifs, Arc(0.37, 0.05), attractor)
        return err.value.stage, err.value.detail

    def test_pullback_leaving_the_target(self, golden_sine_ifs, attractor, monkeypatch):
        # F^-1 walks the inverse IFS; shift every such walk half a turn.
        word_lift = periodic_points._word_lift
        monkeypatch.setattr(periodic_points, "_word_lift", lambda ifs, w, x: (
            word_lift(ifs, w, x) + (0.0 if ifs is golden_sine_ifs else 0.5)))
        assert self.exhausted(golden_sine_ifs, attractor) == (
            "F", "pullback of the basin core left the target")

    def test_no_neighborhood_maps_into_v(self, golden_sine_ifs, attractor, monkeypatch):
        # V moved half a turn away from G(a): no delta fits.
        delta_for, deltas = periodic_points._delta_for, []
        monkeypatch.setattr(periodic_points, "_delta_for", lambda ifs, g, a, v, basin: (
            deltas.append(delta_for(ifs, g, a, Arc(v.start + 0.5, v.length), basin))
            or deltas[-1]))
        assert self.exhausted(golden_sine_ifs, attractor) == (
            "G", "no neighborhood of the attractor maps into V")
        assert deltas and set(deltas) == {None}

    def test_pull_in_never_entering(self, golden_sine_ifs, attractor, monkeypatch):
        pull_in, ms = periodic_points._pull_in_iterations, []
        monkeypatch.setattr(periodic_points, "M_CAP", 0)
        monkeypatch.setattr(periodic_points, "_pull_in_iterations",
                            lambda *args: ms.append(pull_in(*args)) or ms[-1])
        stage, detail = self.exhausted(golden_sine_ifs, attractor)
        assert stage == "m"
        assert re.fullmatch(r"g\^m never entered the \d\.\d\de-\d\d-neighborhood", detail)
        assert ms and set(ms) == {None}

    def test_composite_not_mapping_v_into_itself(self, golden_sine_ifs, attractor, monkeypatch):
        # Bisect half a turn from V, which the composite does not map into itself.
        bisect = periodic_points._bisect_fixed_point
        monkeypatch.setattr(periodic_points, "_bisect_fixed_point",
                            lambda ifs, letters, lo, hi: bisect(ifs, letters, lo + 0.5, hi + 0.5))
        assert self.exhausted(golden_sine_ifs, attractor) == (
            "m", "composite failed to map V into itself")

    def test_candidate_loop_survives_a_record_failure(
        self, golden_sine_ifs, attractor, monkeypatch
    ):
        # The first composite reads an infinite residual, so `_record`
        # raises; the next G candidate gives the record.
        residual, first = periodic_points._residual, []

        def failing_first(ifs, letters, q):
            first[:] = first or [tuple(letters)]
            return math.inf if tuple(letters) == first[0] else residual(ifs, letters, q)

        monkeypatch.setattr(periodic_points, "_residual", failing_first)
        target = Arc(0.37, 0.05)
        rec = periodic_in_interval(golden_sine_ifs, target, attractor)
        assert rec.word.letters != first[0]
        assert target.contains(float(rec.point))
        assert rec.residual <= periodic_points.TOL_FIX
        with pytest.raises(StageExhausted) as err:
            periodic_points._record(golden_sine_ifs, first[0], 0.4, "m", expanding=False)
        assert err.value.detail == "residual inf above tolerance"


class TestDensitySweep:
    def test_full_coverage_both_classes(self, sweep):
        assert coverage(sweep, "attracting") == 1.0
        assert coverage(sweep, "repelling") == 1.0

    def test_seed42_every_arc_at_ulp_scale(self, golden_sine_ifs, fair_coin):
        # Float64 Newton from the bisection point: every arc found,
        # repelling residuals far below TOL_FIX.
        report = density_sweep(golden_sine_ifs, 20, fair_coin, seed=42)
        assert all(row.found for row in report.rows)
        assert max(r.residual for r in report.rows if r.stability == "repelling") < 1e-11

    def test_residuals_under_tolerance(self, sweep):
        for row in sweep.rows:
            assert row.found
            assert row.residual < 1e-9

    def test_multipliers_match_stability(self, sweep):
        for row in sweep.rows:
            if row.stability == "attracting":
                assert row.multiplier < 1.0
            else:
                assert row.multiplier > 1.0

    def test_records_in_their_arcs(self, golden_sine_ifs, sweep):
        for row, rec in zip(sweep.rows, sweep.records):
            arc = Arc(row.arc_index / sweep.mesh, 1.0 / sweep.mesh)
            assert arc.contains(float(rec.point))

    def test_stability_semantics(self, golden_sine_ifs, sweep):
        # Attracting records attract from +-1e-3; repelling records attract
        # under the inverse composition.
        checked_a = checked_r = 0
        for rec in sweep.records:
            q = float(rec.point)
            if rec.stability == "attracting" and checked_a < 4:
                for x0 in (q - 1e-3, q + 1e-3):
                    x = x0 % 1.0
                    for _ in range(60):
                        x = float(branch_apply(golden_sine_ifs, rec.word, x))
                    assert circle_distance(x, q) < 1e-6
                checked_a += 1
            if rec.stability == "repelling" and checked_r < 4:
                inv = golden_sine_ifs.inverse_ifs()
                inv_word = reversed_word(rec.word)
                for x0 in (q - 1e-4, q + 1e-4):
                    x = x0 % 1.0
                    for _ in range(200):
                        x = float(branch_apply(inv, inv_word, x))
                    assert circle_distance(x, q) < 1e-6
                checked_r += 1
        assert checked_a >= 1 and checked_r >= 1

    def test_inverse_duality(self, golden_sine_ifs, sweep):
        # q repelling for w on the forward IFS <-> attracting for the
        # reversed word on the inverse IFS, with reciprocal multiplier.
        inv = golden_sine_ifs.inverse_ifs()
        rec = next(r for r in sweep.records if r.stability == "repelling")
        q = float(rec.point)
        inv_word = reversed_word(rec.word)
        image = float(branch_apply(inv, inv_word, q))
        assert circle_distance(image, q) < 1e-8
        inv_mult = branch_deriv(inv, inv_word, q)
        assert inv_mult == pytest.approx(1.0 / rec.multiplier, rel=1e-6)

    def test_rotations_cover_nothing(self, fair_coin):
        ifs = IFS([Rotation(GOLDEN), Rotation(0.3)])
        report = density_sweep(ifs, 4, fair_coin, seed=1, horizon=128)
        assert coverage(report, "attracting") == 0.0
        assert coverage(report, "repelling") == 0.0

    def test_mesh_one_trivial(self, golden_sine_ifs, fair_coin):
        report = density_sweep(golden_sine_ifs, 1, fair_coin, seed=3)
        assert coverage(report, "attracting") == 1.0

    def test_one_side_beyond_horizon_fails_only_its_rows(self, golden_sine_ifs, fair_coin):
        # At seed 0 and horizon 32 only the forward branch fails to
        # polarize; the repelling side still constructs every arc.
        report = density_sweep(golden_sine_ifs, 4, fair_coin, seed=0, horizon=32)
        attracting = [r for r in report.rows if r.stability == "attracting"]
        repelling = [r for r in report.rows if r.stability == "repelling"]
        assert all(not r.found and r.error.startswith("within horizon 32") for r in attracting)
        assert [r.word_length for r in repelling] == [53, 34, 41, 61]
        assert all(r.found and r.residual < 1e-9 for r in repelling)
        assert [rec.stability for rec in report.records] == ["repelling"] * 4

    def test_every_record_is_made_on_the_forward_ifs(self, golden_sine_ifs, fair_coin, monkeypatch):
        # The repelling side polishes once, on the reversed forward word; no
        # record (and no Banach polish) runs on the inverse IFS.
        seen = []
        record = periodic_points._record

        def recording(ifs, letters, q, stage, *, expanding):
            seen.append((ifs, stage, expanding))
            return record(ifs, letters, q, stage, expanding=expanding)

        monkeypatch.setattr(periodic_points, "_record", recording)
        report = density_sweep(golden_sine_ifs, 2, fair_coin, seed=3)
        assert all(row.found for row in report.rows)
        assert all(ifs is golden_sine_ifs for ifs, _, _ in seen)
        assert [(stage, expanding) for _, stage, expanding in seen] == (
            [("m", False)] * 2 + [("polish", True)] * 2
        )

    def test_repeller_above_tolerance_is_not_found(self, golden_sine_ifs, fair_coin, monkeypatch):
        # A polish that leaves the point 1e-6 off the fixed point: the
        # expanding composition moves it further, far above tol_fix.
        polish = periodic_points._newton_polish
        monkeypatch.setattr(periodic_points, "_newton_polish",
                            lambda ifs, letters, q: polish(ifs, letters, q) + 1e-6)
        report = density_sweep(golden_sine_ifs, 2, fair_coin, seed=3)
        repelling = [r for r in report.rows if r.stability == "repelling"]
        assert len(repelling) == 2
        for row in repelling:
            assert not row.found
            assert row.error.startswith("[stage polish] residual ")
        assert coverage(report, "repelling") == 0.0
        assert all(rec.stability != "repelling" for rec in report.records)
