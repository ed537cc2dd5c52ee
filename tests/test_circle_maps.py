import math
import random

import numpy as np
import pytest

from circle_ifs.circle_maps import (
    Arc,
    CirclePoint,
    Composition,
    Inverse,
    MAX_POWER,
    Power,
    Rotation,
    SinePerturbed,
    TOL_INV,
    _factor_count,
    _FieldError,
    circle_distance,
    find_fixed_points,
    map_from_json,
)
from circle_ifs.certifier import perturb_map
from word_helpers import contains_arc, inverse_eval, rotation_number

TWO_PI = 2.0 * math.pi
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def sample_maps():
    return [
        Rotation(0.25),
        Rotation(GOLDEN),
        SinePerturbed(0.0, -0.5),
        SinePerturbed(0.1, 0.3),
        SinePerturbed(0.0, -0.4, harmonics=2),
        Composition([Rotation(0.3), SinePerturbed(0.0, -0.5)]),
        Power(SinePerturbed(0.0, -0.5), 3),
        Power(SinePerturbed(0.0, -0.5), -2),
        Inverse(SinePerturbed(0.05, 0.6)),
    ]


class TestCirclePoint:
    def test_reduction_mod_one(self):
        assert CirclePoint(1.25) == 0.25
        assert CirclePoint(-0.25) == 0.75
        assert 0.0 <= CirclePoint(7.0) < 1.0

    def test_distance_bounded_by_half(self):
        rng = random.Random(1)
        for _ in range(200):
            x, y = rng.random(), rng.random()
            assert circle_distance(x, y) <= 0.5 + 1e-15
        assert circle_distance(0.1, 0.9) == pytest.approx(0.2)


class TestArc:
    def test_membership_half_open(self):
        arc = Arc(0.875, 0.25)  # dyadic endpoints: boundary tests are exact
        assert arc.contains(0.875)
        assert arc.contains(0.0)
        assert not arc.contains(0.125)
        assert not arc.contains(0.5)

    def test_full_circle(self):
        arc = Arc(0.3, 1.0)
        for x in (0.0, 0.3, 0.99):
            assert arc.contains(x)

    def test_contains_arc_wrapping(self):
        outer = Arc(0.8, 0.5)
        assert contains_arc(outer, Arc(0.95, 0.2))
        assert not contains_arc(outer, Arc(0.2, 0.2))

    def test_contains_span_closed_ends(self):
        arc = Arc(0.875, 0.25)  # dyadic endpoints: every sum below is exact
        assert arc.contains_span(0.875, 0.25)  # ends exactly at the arc's end
        assert arc.contains_span(0.875, 0.0)  # zero length at the start
        assert not arc.contains_span(0.875, 0.25 + 2.0**-20)
        assert not arc.contains_span(0.75, 0.125)  # ends at the arc's start

    def test_contains_span_wrapping_past_one(self):
        arc = Arc(0.875, 0.25)
        assert arc.contains_span(0.9375, 0.1875)  # [0.9375, 1.125]
        assert not arc.contains_span(0.9375, 0.25)
        assert Arc(0.25, 0.5).contains_span(0.5, 0.25)
        assert not Arc(0.25, 0.5).contains_span(0.9375, 0.125)  # [0.9375, 1.0625]

    @pytest.mark.parametrize("turns", [-3, -1, 1, 4])
    def test_contains_span_ignores_whole_turns(self, turns):
        arc = Arc(0.875, 0.25)
        assert arc.contains_span(0.9375 + turns, 0.1875)
        assert arc.contains_span(0.875 + turns, 0.25)
        assert not arc.contains_span(0.5 + turns, 0.125)


class TestEval:
    def test_rotation_is_translation(self):
        assert Rotation(0.25)(0.5) == 0.75

    def test_sine_closed_form(self):
        # Direct evaluation of the closed-form lift at x = 1/4.
        expected = 0.25 - 0.5 / TWO_PI
        assert SinePerturbed(0.0, -0.5)(0.25) == pytest.approx(expected, abs=1e-15)

    def test_power_of_rotation_identity(self):
        assert Power(Rotation(0.1), 10)(0.3) == pytest.approx(0.3, abs=1e-12)

    def test_lift_representative_independence(self):
        f = SinePerturbed(0.1, 0.4)
        for x in (0.2, 0.77):
            assert float(f.lift(x) % 1.0) == pytest.approx(float(f.lift(x + 3.0) % 1.0), abs=1e-12)


class TestDeriv:
    def test_rotation_derivative_is_one(self):
        for x in (0.0, 0.3, 0.9):
            assert Rotation(GOLDEN).deriv(x) == 1.0

    def test_sine_derivative_closed_form(self):
        f = SinePerturbed(0.0, -0.5)
        assert f.deriv(0.0) == pytest.approx(0.5)   # 1 + b cos 0
        assert f.deriv(0.5) == pytest.approx(1.5)   # 1 + b cos pi

    def test_chain_rule_against_finite_differences(self):
        rng = random.Random(7)
        h = 1e-6
        for f in sample_maps():
            for _ in range(20):
                x = rng.random()
                num = (f.lift(x + h) - f.lift(x - h)) / (2.0 * h)
                assert f.deriv(x) == pytest.approx(num, rel=1e-4)


def reference_deriv(f, x):
    """The chain rule as written before `lift_deriv`: separate deriv and
    lift loops per factor, and two inverse solves for an Inverse."""
    if isinstance(f, Composition):
        total = 1.0
        for m in reversed(f.maps):
            total = total * reference_deriv(m, x)
            x = m.lift(x)
        return total
    if isinstance(f, Power):
        g = f.base if f.exponent >= 0 else f.base.inverse()
        total = 1.0
        for _ in range(abs(f.exponent)):
            total = total * reference_deriv(g, x)
            x = g.lift(x)
        return total
    if isinstance(f, Inverse):
        return 1.0 / reference_deriv(f.base, f.base.inverse_lift(x))
    return f.deriv(x)


def reference_power_second_deriv_bound(f):
    """Power.second_deriv_bound as the n-fold Composition fold."""
    n = abs(f.exponent)
    g = f.base if f.exponent >= 0 else f.base.inverse()
    return Composition([g] * n).second_deriv_bound() if n else 0.0


def lift_deriv_maps():
    rng = np.random.Generator(np.random.Philox(key=np.array([2024, 0], dtype=np.uint64)))
    word = Composition([Rotation(0.3), SinePerturbed(0.0, -0.5), Inverse(SinePerturbed(0.1, 0.4))])
    return sample_maps() + [
        perturb_map(Rotation(GOLDEN), 1e-3, rng),
        perturb_map(SinePerturbed(0.0, -0.5), 1e-3, rng),
        perturb_map(SinePerturbed(0.0, -0.5), 1e-3, rng).inverse(),
        Inverse(word),
        Power(word, -3),
        Power(Composition([Power(word, 2), Rotation(0.1)]), -2),
        Power(Rotation(0.3), 4),
        Composition([Rotation(0.1), Inverse(Rotation(0.2))]),
    ]


def same_bits(a, b):
    return type(a) is type(b) and np.shape(a) == np.shape(b) and np.array_equal(a, b)


class TestLiftDeriv:
    def test_matches_lift_and_chain_rule_bit_for_bit(self):
        xs = np.linspace(-1.5, 2.5, 97)
        for f in lift_deriv_maps():
            for x in (xs, 0.3, np.float64(-1.7)):
                value, d = f.lift_deriv(x)
                assert same_bits(value, f.lift(x)), f
                assert same_bits(d, reference_deriv(f, x)), f
                assert same_bits(d, f.deriv(x)), f

    def test_array_input_gives_array_derivative(self):
        xs = np.linspace(0.0, 1.0, 5)
        for f in (Power(Rotation(0.3), 0), Power(SinePerturbed(0.0, -0.5), 0),
                  Composition([Rotation(0.1), Rotation(0.2)])):
            assert np.array_equal(f.deriv(xs), np.ones(5))
            assert f.deriv(0.5) == 1.0

    def test_inverse_solves_once(self, monkeypatch):
        base = SinePerturbed(0.05, 0.6)
        calls = []
        solve = SinePerturbed.inverse_lift
        monkeypatch.setattr(SinePerturbed, "inverse_lift",
                            lambda self, y: calls.append(y) or solve(self, y))
        Inverse(base).lift_deriv(np.linspace(0.0, 1.0, 9))
        assert len(calls) == 1

    def test_negative_power_is_the_power_of_the_inverse_built_once(self, monkeypatch):
        c = Composition([Rotation(0.3), SinePerturbed(0.05, 0.6), Rotation(GOLDEN),
                         SinePerturbed(0.0, -0.4, harmonics=2)])
        neg, pos = Power(c, -3), Power(c.inverse(), 3)
        calls = []
        inverse = Composition.inverse
        monkeypatch.setattr(Composition, "inverse", lambda self: calls.append(self) or inverse(self))
        for x in (0.3, np.linspace(-1.5, 2.5, 33)):
            assert same_bits(neg.lift(x), pos.lift(x))
            assert same_bits(neg.deriv(x), pos.deriv(x))
            assert all(map(same_bits, neg.lift_deriv(x), pos.lift_deriv(x)))
            assert same_bits(neg.inverse_lift(x), pos.inverse_lift(x))
        assert neg.deriv_bounds() == pos.deriv_bounds()
        assert neg.second_deriv_bound() == pos.second_deriv_bound()
        assert calls == []

    def test_power_second_deriv_bound_matches_composition_fold(self):
        word = Composition([Rotation(0.3), SinePerturbed(0.0, -0.5), Inverse(SinePerturbed(0.1, 0.4))])
        for base in (SinePerturbed(0.0, -0.5), Rotation(0.3), word, Inverse(word)):
            for n in (-5, -1, 0, 1, 2, 7, 40):
                f = Power(base, n)
                assert f.second_deriv_bound() == reference_power_second_deriv_bound(f)


class TestInverse:
    def test_rotation_inverse(self):
        assert inverse_eval(Rotation(0.25), 0.75) == pytest.approx(0.5, abs=TOL_INV)

    def test_sine_inverse_matches_forward_example(self):
        f = SinePerturbed(0.0, -0.5)
        y = 0.25 - 0.5 / TWO_PI
        assert inverse_eval(f, y) == pytest.approx(0.25, abs=1e-10)

    def test_round_trip_100_random_points(self):
        rng = random.Random(3)
        for f in sample_maps():
            for _ in range(12):
                x = rng.random()
                y = f(x)
                back = inverse_eval(f, y)
                assert circle_distance(back, x) < 1e-9

    def test_scalar_solve_matches_array_bit_for_bit(self):
        # SinePerturbed(0.3, 0.999, 3) sends about a quarter of these
        # points through the bisection fallback.
        rng = random.Random(17)
        for f in sample_maps() + [SinePerturbed(0.3, 0.999, harmonics=3)]:
            for _ in range(50):
                y = rng.uniform(-3.0, 3.0)
                assert f.inverse_lift(y) == f.inverse_lift(np.array([y]))[0]

    def test_scalar_solve_returns_python_float(self):
        f = SinePerturbed(0.1, 0.3)
        for y in (0.4, np.float64(0.4), np.array(0.4)):
            x = f.inverse_lift(y)
            assert type(x) is float
            assert x == f.inverse_lift(np.array([0.4]))[0]

    def test_vectorized_round_trip(self):
        f = Composition([SinePerturbed(0.0, -0.5), Rotation(GOLDEN)])
        xs = np.linspace(0.0, 1.0, 101)[:-1]
        ys = f.lift(xs)
        assert np.max(np.abs(f.inverse_lift(ys) - xs)) < 1e-9


class TestRotationNumber:
    def test_rotation_exact(self):
        est = rotation_number(Rotation(0.61803), 10_000)
        assert est.value == 0.61803
        assert est.n_iters == 10_000

    def test_fixed_point_forces_zero(self):
        est = rotation_number(SinePerturbed(0.0, -0.5), 10_000)
        assert abs(est.value) < 1e-4

    def test_composition_against_long_orbit_oracle(self):
        # Frozen Birkhoff-average oracle at 1e7 iterates of the same lift.
        oracle = 0.29273982642947405
        f = Composition([Rotation(0.3), SinePerturbed(0.0, -0.5)])
        est = rotation_number(f, 100_000)
        assert est.value == pytest.approx(oracle, abs=1e-4)

    def test_power_scales_rotation_number(self):
        f = Composition([Rotation(0.3), SinePerturbed(0.0, -0.5)])
        base = rotation_number(f, 20_000).value
        powered = rotation_number(Power(f, 3), 20_000).value
        assert (powered - 3.0 * base) % 1.0 == pytest.approx(0.0, abs=1e-3) or (
            3.0 * base - powered
        ) % 1.0 == pytest.approx(0.0, abs=1e-3)


class TestFixedPoints:
    def test_sine_closed_form_roots(self):
        fps = find_fixed_points(SinePerturbed(0.0, -0.5), 64)
        assert len(fps) == 2
        (p0, d0, s0), (p1, d1, s1) = fps
        assert p0 == pytest.approx(0.0, abs=1e-9)
        assert d0 == pytest.approx(0.5, abs=1e-9)
        assert s0 == "attracting"
        assert p1 == pytest.approx(0.5, abs=1e-9)
        assert d1 == pytest.approx(1.5, abs=1e-9)
        assert s1 == "repelling"

    def test_rotations_are_fixed_point_free(self):
        assert find_fixed_points(Rotation(0.25), 64) == []

    def test_displaced_sine_against_bisection_oracle(self):
        # asin oracle: sin(2 pi x) = a * 2 pi / |b| with a=0.01, b=-0.5.
        fps = find_fixed_points(SinePerturbed(0.01, -0.5), 256)
        assert len(fps) == 2
        assert fps[0].point == pytest.approx(0.020053015495216604, abs=1e-9)
        assert fps[0].derivative == pytest.approx(0.5039635515009363, abs=1e-8)
        assert fps[1].point == pytest.approx(0.4799469845047834, abs=1e-9)
        assert fps[1].derivative == pytest.approx(1.4960364484990638, abs=1e-8)


class TestLiftInvariants:
    def test_degree_one(self):
        rng = random.Random(11)
        for f in sample_maps():
            for _ in range(10):
                x = rng.uniform(-1.0, 2.0)
                assert f.lift(x + 1.0) == pytest.approx(f.lift(x) + 1.0, abs=1e-9)

    def test_strict_monotonicity(self):
        rng = random.Random(13)
        for f in sample_maps():
            for _ in range(30):
                x = rng.random()
                y = rng.random()
                if x == y:
                    continue
                x, y = min(x, y), max(x, y)
                assert f.lift(x) < f.lift(y)

    def test_image_of_grid_is_dense(self):
        # Surjectivity proxy: image gaps are bounded by sup|Df| * spacing,
        # so the image of a 1e4 grid is 1e-4 dense for the base generators.
        n = 10_000
        grid = np.arange(n) / n
        for f in sample_maps():
            img = np.sort(np.mod(f.lift(grid), 1.0))
            gaps = np.diff(np.concatenate([img, img[:1] + 1.0]))
            assert gaps.max() <= f.deriv_bounds()[1] / n + 1e-9
        for f in (Rotation(GOLDEN), SinePerturbed(0.0, -0.5)):
            img = np.sort(np.mod(f.lift(grid), 1.0))
            gaps = np.diff(np.concatenate([img, img[:1] + 1.0]))
            assert gaps.max() <= 2.0 / n + 1e-9


class TestSerialization:
    def test_round_trip_all_kinds(self):
        for f in sample_maps():
            g = map_from_json(f.to_json())
            for x in (0.1, 0.6):
                assert g(x) == pytest.approx(f(x), abs=1e-12)

    def test_power_factor_count_is_bounded(self):
        # A power may step at most MAX_POWER non-translation factors a lift,
        # however it nests; a power of rotations shifts once, so any passes.
        sine, rot = SinePerturbed(0.0, -0.5).to_json(), Rotation(0.3).to_json()

        def power(base, n):
            return {"kind": "power", "base": base, "exponent": n}

        assert _factor_count(map_from_json(power(power(sine, -2), MAX_POWER // 2))) == MAX_POWER
        assert _factor_count(map_from_json(power(power(rot, MAX_POWER), MAX_POWER))) == 0
        for obj in (
            power(power(sine, 2), MAX_POWER // 2 + 1),
            power(power(sine, MAX_POWER), -MAX_POWER),
            power({"kind": "composition", "maps": [sine, rot, sine]}, MAX_POWER // 2 + 1),
            power({"kind": "inverse", "base": power(sine, 2)}, MAX_POWER // 2 + 1),
        ):
            with pytest.raises(_FieldError) as exc:
                map_from_json(obj)
            assert exc.value.path == "exponent"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown map kind"):
            map_from_json({"kind": "mystery"})

    def test_sine_requires_contraction_bound(self):
        with pytest.raises(ValueError):
            SinePerturbed(0.0, 1.0)
