import math
import random
import struct

import numpy as np
import pytest

from circle_ifs import ifs_core
from circle_ifs.circle_maps import (
    CirclePoint,
    Rotation,
    SinePerturbed,
    circle_distance,
    circle_distance_array,
)
from circle_ifs.ifs_core import (
    IFS,
    branch_apply,
    branch_deriv,
    branch_lift_array,
    minimality_estimate,
    orbit_to_csv_rows,
    random_orbit_density,
)
from circle_ifs.symbolic import BernoulliModel, MarkovMinorizedModel, Word
from word_helpers import pair_distance_trajectory, semigroup_orbit

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="module")
def golden_sine():
    return IFS([Rotation(GOLDEN), SinePerturbed(0.0, -0.5)], label="golden-sine")


class TestBranchApply:
    def test_commuting_rotations(self):
        ifs = IFS([Rotation(0.25), Rotation(0.5)])
        assert branch_apply(ifs, Word((1, 2), 2), 0.0) == pytest.approx(0.75)

    def test_order_sensitivity_against_manual_composition(self):
        # Frozen two-step oracle for R_{1/4} and the b=-0.5 sine map at x=0.1.
        ifs = IFS([Rotation(0.25), SinePerturbed(0.0, -0.5)])
        assert branch_apply(ifs, Word((2, 1), 2), 0.1) == pytest.approx(
            0.30322553581056805, abs=1e-15
        )
        assert branch_apply(ifs, Word((1, 2), 2), 0.1) == pytest.approx(
            0.2856204731499395, abs=1e-15
        )

    def test_empty_word_is_identity(self):
        ifs = IFS([Rotation(0.25)])
        assert branch_apply(ifs, Word((), 1), 0.37) == 0.37

    def test_matches_manual_right_to_left_on_random_inputs(self, golden_sine):
        rng = random.Random(5)
        gens = golden_sine.generators
        for _ in range(100):
            w = [rng.randint(1, 2) for _ in range(rng.randint(1, 12))]
            x = rng.random()
            manual = x
            for a in w:
                manual = float(gens[a - 1].lift(manual)) % 1.0
            assert float(branch_apply(golden_sine, w, x)) == manual

    def test_trajectory_prefix(self, golden_sine):
        traj = orbit_to_csv_rows(golden_sine, Word((1, 2, 1), 2), 0.2)
        assert len(traj) == 3
        assert traj[-1] == branch_apply(golden_sine, Word((1, 2, 1), 2), 0.2)

    def test_lift_just_below_an_integer_is_the_point_zero(self):
        # -0.3 + nextafter(0.3, 0) is -2^-54 + ..., which % 1.0 rounds to 1.0.
        ifs = IFS([Rotation(-0.3)])
        x = math.nextafter(0.3, 0.0)
        assert orbit_to_csv_rows(ifs, [1], x) == [0.0]
        assert orbit_to_csv_rows(ifs, [1, 1], x) == [0.0, orbit_to_csv_rows(ifs, [1], 0.0)[0]]
        assert branch_apply(ifs, [1], x) == 0.0

    @pytest.mark.parametrize("inverse", [False, True])
    def test_bit_identical_to_per_letter_loop(self, golden_sine, inverse):
        # Reference: the loops branch_apply and pair_distance_trajectory ran
        # before both moved onto the one scalar walk, orbit_to_csv_rows.
        ifs = golden_sine.inverse_ifs() if inverse else golden_sine
        gens = ifs.generators
        rng = random.Random(11)
        for _ in range(40):
            w = Word(tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 200))), 2)
            x, y = rng.uniform(-2.0, 2.0), rng.random()
            pos, traj, distances = float(x) % 1.0, [], []
            other = float(y) % 1.0
            distances.append(float(circle_distance_array(pos, other)))
            for a in w:
                pos = CirclePoint(gens[a - 1].lift(pos))
                traj.append(pos)
                other = float(CirclePoint(gens[a - 1].lift(other)))
                distances.append(float(circle_distance_array(float(pos), other)))
            end = branch_apply(ifs, w, x)
            assert type(end) is CirclePoint
            assert end.hex() == CirclePoint(pos).hex()
            points = orbit_to_csv_rows(ifs, list(w), x)
            assert all(type(p) is float for p in points)
            assert [p.hex() for p in points] == [p.hex() for p in traj]
            got = pair_distance_trajectory(ifs, w, x, y)
            assert [d.hex() for d in got] == [d.hex() for d in distances]


def reference_branch_lift_array(ifs, w, xs):
    """Every point through every letter with no memo, on the circle: each
    SYNC_CHECK block starts at x - floor(x), and the whole turns are added
    back at the end."""
    vals = np.asarray(xs, dtype=float)
    turns = np.zeros_like(vals)
    letters = list(w)
    for at in range(0, len(letters), ifs_core.SYNC_CHECK):
        whole = np.floor(vals)
        turns, vals = turns + whole, vals - whole
        for a in letters[at : at + ifs_core.SYNC_CHECK]:
            vals = ifs.generators[a - 1].lift(vals)
    return turns + vals


LIFT_IFS = {
    "golden-sine": IFS([Rotation(GOLDEN), SinePerturbed(0.0, -0.5)]),
    "half-turn": IFS([Rotation(GOLDEN), SinePerturbed(0.0, -0.5, harmonics=2)]),
    "rotations": IFS([Rotation(GOLDEN), Rotation(0.3)]),
}
LIFT_MODELS = {
    "bernoulli": BernoulliModel([0.5, 0.5]),
    "markov": MarkovMinorizedModel([[0.7, 0.3], [0.3, 0.7]]),
}
# detect_repellers' level-7 endpoints: 129 points offset by 1/3.
ENDPOINTS = 1.0 / 3.0 + np.arange(129) / 128


class TestBranchLiftArray:
    # Every point walks on Python floats, reduced at each block start.  On
    # synchronizing words the float tails merge into ell values (one turn
    # apart tails merge too); rotations never merge.  Each case must equal
    # the block-reduced loop bit for bit.
    @pytest.mark.parametrize("n_points", [1, 7, 129])
    @pytest.mark.parametrize("length", [16, 64, 5000])
    @pytest.mark.parametrize("model", sorted(LIFT_MODELS))
    @pytest.mark.parametrize("label", sorted(LIFT_IFS))
    def test_bit_identical_to_per_letter_loop(self, label, model, length, n_points):
        ifs = LIFT_IFS[label]
        w = LIFT_MODELS[model].sample(length, seed=n_points, stream=5)
        xs = ENDPOINTS[:n_points]
        got = branch_lift_array(ifs, w, xs)
        ref = reference_branch_lift_array(ifs, w, xs)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("model", sorted(LIFT_MODELS))
    @pytest.mark.parametrize("label", sorted(LIFT_IFS))
    def test_second_walk_with_the_first_walks_memo(self, label, model):
        # Two walks of one word that share a memo, as detect_repellers' levels
        # do: the level-7 endpoints, then finer points whose float tails may
        # end on the first walk's.
        ifs = LIFT_IFS[label]
        w = LIFT_MODELS[model].sample(5000, seed=3, stream=5)
        memo = {}
        for xs in (ENDPOINTS[:129], ENDPOINTS[:7] + 1 / 1024):
            got = branch_lift_array(ifs, w, xs, memo)
            assert got.tobytes() == reference_branch_lift_array(ifs, w, xs).tobytes()

    def test_memo_keys_carry_offset_and_sign(self):
        # 0.5 is at 16.5 after letter 64 and back at 0.5 after letter 128:
        # every block starts at t = 0.5, and the block offset keeps the three
        # keys apart.  16.5 starts at t = 0.5 too, so it shares the key
        # (0, 0.5) and ends 16 turns further on.  Rotation(-0.0) keeps 0.0
        # and -0.0 apart, so their keys differ in the sign bit.
        ifs = IFS([Rotation(0.25), Rotation(-0.25)])
        w = [1] * 64 + [2] * 64 + [1] * 64
        memo = {}
        half, later = (branch_lift_array(ifs, w, np.array([x]), memo) for x in (0.5, 16.5))
        assert half.tobytes() == reference_branch_lift_array(ifs, w, [0.5]).tobytes()
        assert later[0] == half[0] + 16.0
        assert sorted(memo) == [(at, struct.pack("<d", 0.5)) for at in (0, 64, 128)]
        signed, memo = IFS([Rotation(-0.0)]), {}
        xs = np.array([0.0, -0.0])
        got = branch_lift_array(signed, [1] * 100, xs, memo)
        assert got.tobytes() == reference_branch_lift_array(signed, [1] * 100, xs).tobytes()
        assert sorted(memo) == sorted((at, struct.pack("<d", x)) for at in (0, 64) for x in xs)

    @pytest.mark.parametrize("label", sorted(LIFT_IFS))
    def test_one_turn_on_steps_no_letter(self, label, monkeypatch):
        # y + 1 starts its first block at y's key, so it walks no letter and
        # ends exactly one turn past y: the walk keeps F(y + 1) = F(y) + 1.
        ifs = LIFT_IFS[label]
        w = LIFT_MODELS["bernoulli"].sample(5000, seed=6, stream=5)
        y, memo = 0.375, {}
        first = branch_lift_array(ifs, w, np.array([y]), memo)
        letters = []
        word_lift = ifs_core._word_lift
        monkeypatch.setattr(ifs_core, "_word_lift",
                            lambda f, block, x: letters.append(len(block)) or word_lift(f, block, x))
        again = branch_lift_array(ifs, w, np.array([y + 1.0]), memo)
        assert letters == []
        assert again[0] - first[0] == 1.0

    @pytest.mark.parametrize("label", sorted(LIFT_IFS))
    def test_rewalk_over_a_shared_memo_steps_no_letter(self, label, monkeypatch):
        # Every value the first call walked maps through its first memo key
        # to its final lift, so a second call over those values, in another
        # order and with repeats, steps no letter.
        ifs = LIFT_IFS[label]
        w = LIFT_MODELS["bernoulli"].sample(5000, seed=4, stream=5)
        memo = {}
        first = branch_lift_array(ifs, w, ENDPOINTS[:33], memo)
        letters = []
        word_lift = ifs_core._word_lift
        monkeypatch.setattr(ifs_core, "_word_lift",
                            lambda f, block, x: letters.append(len(block)) or word_lift(f, block, x))
        picks = [32, 0, 7, 7, 19]
        again = branch_lift_array(ifs, w, ENDPOINTS[picks], memo)
        assert letters == []
        assert again.tobytes() == first[picks].tobytes()

    @pytest.mark.parametrize("label", sorted(LIFT_IFS))
    def test_two_dimensional_input_with_repeats(self, label):
        ifs = LIFT_IFS[label]
        w = LIFT_MODELS["bernoulli"].sample(5000, seed=2, stream=5)
        xs = np.concatenate([ENDPOINTS[:96], ENDPOINTS[:32]]).reshape(8, 16)
        got = branch_lift_array(ifs, w, xs)
        assert got.shape == (8, 16)
        assert got.tobytes() == reference_branch_lift_array(ifs, w, xs).tobytes()

    def test_empty_word_and_no_points(self, golden_sine):
        xs = ENDPOINTS[:7].reshape(7, 1)
        assert branch_lift_array(golden_sine, Word((), 2), xs).tobytes() == xs.tobytes()
        w = LIFT_MODELS["bernoulli"].sample(100, seed=0, stream=5)
        assert branch_lift_array(golden_sine, w, np.empty((0, 3))).shape == (0, 3)

    def test_merged_walk_makes_few_array_sine_lifts(self, golden_sine, monkeypatch):
        sizes = []
        lift = SinePerturbed.lift

        def counting(self, x):
            if np.ndim(x):
                sizes.append(np.size(x))
            return lift(self, x)

        monkeypatch.setattr(SinePerturbed, "lift", counting)
        w = LIFT_MODELS["bernoulli"].sample(5000, seed=0, stream=0)
        reference_branch_lift_array(golden_sine, w, ENDPOINTS)
        assert len(sizes) == w.letters.count(2) > 2400
        sizes.clear()
        branch_lift_array(golden_sine, w, ENDPOINTS)
        assert sizes == []


class TestBranchDeriv:
    def test_inverse_word_matches_deriv_then_lift_with_one_solve_per_letter(
        self, golden_sine, monkeypatch
    ):
        ifs = golden_sine.inverse_ifs()
        rng = random.Random(5)
        cases = [([rng.randint(1, 2) for _ in range(rng.randint(1, 40))], rng.random())
                 for _ in range(30)]
        expected = []
        for letters, x in cases:
            pos, total = float(x) % 1.0, 1.0
            for a in letters:
                g = ifs.generators[a - 1]
                total *= float(g.deriv(pos))
                pos = g.lift(pos) % 1.0
            expected.append(total)
        solves = []
        solve = SinePerturbed.inverse_lift
        monkeypatch.setattr(SinePerturbed, "inverse_lift",
                            lambda self, y: solves.append(y) or solve(self, y))
        for (letters, x), want in zip(cases, expected):
            del solves[:]
            assert branch_deriv(ifs, letters, x) == want
            assert len(solves) == letters.count(2)


class TestSemigroupOrbit:
    def test_golden_rotation_fills_circle(self):
        orbit = semigroup_orbit(IFS([Rotation(GOLDEN)]), 0.0, depth=1000)
        assert len(orbit) == 1000
        srt = np.sort(orbit)
        gaps = np.diff(np.concatenate([srt, srt[:1] + 1.0]))
        assert gaps.max() <= 0.004

    def test_identity_ifs_stays_put(self):
        orbit = semigroup_orbit(IFS([Rotation(0.0)]), 0.37, depth=10)
        assert len(orbit) == 1
        assert orbit[0] == pytest.approx(0.37)

    def test_word_count_bound(self):
        ifs = IFS([Rotation(0.1), Rotation(0.35)])
        orbit = semigroup_orbit(ifs, 0.0, depth=2)
        assert len(orbit) <= 6  # 2 + 4 words of length <= 2

    def test_monotone_in_depth(self, golden_sine):
        shallow = set(np.round(semigroup_orbit(golden_sine, 0.2, depth=4), 9))
        deep = set(np.round(semigroup_orbit(golden_sine, 0.2, depth=5), 9))
        assert shallow <= deep

    def test_forward_backward_duality(self, golden_sine):
        rng = random.Random(9)
        inv = golden_sine.inverse_ifs()
        x = rng.random()
        forward = semigroup_orbit(golden_sine, x, depth=5)
        y = float(forward[17 % len(forward)])
        back = semigroup_orbit(inv, y, depth=5)
        assert min(circle_distance(float(b), x) for b in back) < 1e-8


class TestMinimality:
    def test_irrational_rotation_is_minimal(self):
        est = minimality_estimate(IFS([Rotation(GOLDEN)]), eps=0.01, start_grid=4, depth=2000)
        assert est.minimal
        assert est.worst_gap <= 0.01

    def test_single_sine_map_fails_with_witness(self):
        est = minimality_estimate(
            IFS([SinePerturbed(0.0, -0.5)]), eps=0.01, start_grid=4, depth=2000
        )
        assert not est.minimal
        assert est.witness is not None

    def test_certified_pair_minimal_both_directions(self, golden_sine):
        fwd = minimality_estimate(golden_sine, eps=0.05, start_grid=4, depth=3000)
        bwd = minimality_estimate(
            golden_sine.inverse_ifs(), eps=0.05, start_grid=4, depth=3000
        )
        assert fwd.minimal and bwd.minimal

    def test_worst_gap_decreases_with_depth(self):
        ifs = IFS([Rotation(GOLDEN)])
        shallow = minimality_estimate(ifs, eps=0.05, start_grid=2, depth=100)
        deep = minimality_estimate(ifs, eps=0.05, start_grid=2, depth=400)
        assert deep.worst_gap <= shallow.worst_gap + 1e-12


class TestRandomOrbitDensity:
    def test_minimal_instance_orbits_dense(self, golden_sine):
        report = random_orbit_density(
            golden_sine, BernoulliModel([0.5, 0.5]), x=0.1, eps=0.05,
            n_max=10_000, n_samples=200, seed=3,
        )
        assert report.fraction >= 0.99

    def test_contracting_map_orbits_never_dense(self):
        # Single generator: every orbit falls into the attracting fixed point.
        ifs = IFS([SinePerturbed(0.0, -0.5)])
        report = random_orbit_density(
            ifs, BernoulliModel([1.0]), x=0.1, eps=0.05, n_max=2000, n_samples=50, seed=3
        )
        assert report.fraction == 0.0

    def test_everything_is_one_dense(self, golden_sine):
        report = random_orbit_density(
            golden_sine, BernoulliModel([0.5, 0.5]), x=0.0, eps=1.0,
            n_max=10, n_samples=20, seed=1,
        )
        assert report.fraction == 1.0

    @pytest.mark.parametrize("model", [
        BernoulliModel([0.5, 0.5]),
        MarkovMinorizedModel([[0.7, 0.3], [0.4, 0.6]]),
    ])
    def test_zero_steps_is_the_start_point(self, golden_sine, model):
        # The orbit is {x} alone: 1-dense (eps = 1) but not 0.4-dense.
        for eps, fraction in [(1.0, 1.0), (0.4, 0.0)]:
            report = random_orbit_density(
                golden_sine, model, x=0.1, eps=eps, n_max=0, n_samples=5, seed=2
            )
            assert report.fraction == fraction

    def test_deterministic_per_seed(self, golden_sine):
        kw = dict(x=0.1, eps=0.1, n_max=500, n_samples=40, seed=12)
        m = BernoulliModel([0.5, 0.5])
        a = random_orbit_density(golden_sine, m, **kw)
        b = random_orbit_density(golden_sine, m, **kw)
        assert a == b
