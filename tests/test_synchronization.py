import math

import numpy as np
import pytest

from circle_ifs.circle_maps import Arc, Rotation, SinePerturbed
from circle_ifs.ifs_core import IFS
from circle_ifs.symbolic import BernoulliModel, Word
from circle_ifs.synchronization import (
    NoMinimalGenerator,
    Unpolarized,
    antonov_classify,
    covering_count,
    detect_repellers,
    hitting_tail_check,
    pair_distance_trajectory,
    repeller_bracket_arcs,
    sync_fraction,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="module")
def golden_sine():
    return IFS([Rotation(GOLDEN), SinePerturbed(0.0, -0.5)], label="golden-sine")


@pytest.fixture(scope="module")
def rotations():
    return IFS([Rotation(GOLDEN), Rotation(0.3)], label="rotations")


@pytest.fixture(scope="module")
def fair_coin():
    return BernoulliModel([0.5, 0.5])


class TestPairDistance:
    def test_equal_points_stay_equal(self, golden_sine):
        traj = pair_distance_trajectory(golden_sine, Word((1, 2, 2, 1), 2), 0.3, 0.3)
        assert traj == [0.0] * 5

    def test_rotations_are_isometries(self, rotations):
        w = Word((1, 2, 1, 1, 2), 2)
        traj = pair_distance_trajectory(rotations, w, 0.1, 0.4)
        assert all(d == pytest.approx(traj[0], abs=1e-12) for d in traj)

    def test_synchronization_monte_carlo(self, golden_sine, fair_coin):
        # Synchronizing pair: final distance < 1e-3 in >= 95% of 500 seeds.
        close = 0
        for s in range(500):
            w = fair_coin.sample(2000, seed=s, stream=7)
            key = np.array([s, 77], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key))
            x, y = rng.random(), rng.random()
            traj = pair_distance_trajectory(golden_sine, w, x, y)
            if traj[-1] < 1e-3:
                close += 1
        assert close >= 475


class TestSyncFraction:
    def test_rotations_match_uniform_pair_geometry(self, rotations, fair_coin):
        # Constant distances: fraction equals the initially-close mass ~2*tol.
        rep = sync_fraction(rotations, fair_coin, n=2000, n_pairs=2000, tol_sync=1e-3, seed=5)
        sigma = math.sqrt(0.002 * 0.998 / 2000)
        assert abs(rep.sync_fraction - 0.002) <= 3.0 * sigma

    def test_synchronizing_pair(self, golden_sine, fair_coin):
        rep = sync_fraction(golden_sine, fair_coin, n=2000, n_pairs=500, tol_sync=1e-3, seed=5)
        assert rep.sync_fraction >= 0.95

    def test_zero_horizon_is_baseline(self, golden_sine, fair_coin):
        rep = sync_fraction(golden_sine, fair_coin, n=0, n_pairs=5000, tol_sync=0.1, seed=5)
        assert rep.sync_fraction == pytest.approx(0.2, abs=0.03)

    def test_deterministic(self, golden_sine, fair_coin):
        a = sync_fraction(golden_sine, fair_coin, 200, 100, 1e-3, seed=9)
        b = sync_fraction(golden_sine, fair_coin, 200, 100, 1e-3, seed=9)
        assert a == b


class TestDetectRepellers:
    def test_deterministic_word_brackets_the_repelling_fixed_point(self, golden_sine):
        est = detect_repellers(golden_sine, Word((2,) * 5000, 2), m_levels=22)
        assert est.ell_hat == 1
        assert len(est.points) == 1
        assert abs(float(est.points[0]) - 0.5) < 1e-6
        assert est.residual == 2.0**-22

    def test_all_rotations_raise_unpolarized(self, rotations):
        with pytest.raises(Unpolarized):
            detect_repellers(rotations, Word((1, 2) * 1000, 2))

    def test_bernoulli_words_give_single_repeller(self, golden_sine, fair_coin):
        hits = 0
        for s in range(50):
            w = fair_coin.sample(5000, seed=s, stream=0)
            try:
                if detect_repellers(golden_sine, w, m_levels=12).ell_hat == 1:
                    hits += 1
            except Unpolarized:
                pass
        assert hits >= 48

    def test_bracketing_soundness(self, golden_sine):
        # The returned point sits inside its final bracketing arc, and that
        # arc shrinks with the level count.
        coarse = detect_repellers(golden_sine, Word((2,) * 5000, 2), m_levels=8)
        fine = detect_repellers(golden_sine, Word((2,) * 5000, 2), m_levels=12)
        (arc_c,) = repeller_bracket_arcs(coarse)
        (arc_f,) = repeller_bracket_arcs(fine)
        assert arc_c.contains(float(coarse.points[0]))
        assert arc_f.contains(float(fine.points[0]))
        assert arc_c.contains_arc(arc_f)

    def test_antipodal_pair_detected(self):
        # Generators commuting with the half turn: repellers come in
        # antipodal pairs and ell_hat = 2.
        ifs = IFS([Rotation(GOLDEN), SinePerturbed(0.0, -0.5, harmonics=2)])
        m = BernoulliModel([0.5, 0.5])
        est = detect_repellers(ifs, m.sample(5000, seed=3, stream=0), m_levels=12)
        assert est.ell_hat == 2
        a, b = (float(p) for p in est.points)
        assert abs(abs(a - b) - 0.5) < 1e-3


class TestWordOfCaution:
    def test_growth_is_monotone_after_polarization(self, golden_sine, fair_coin):
        # Once the growing arc's image exceeds the threshold it stays
        # macroscopic for longer prefixes of the same word.
        w = fair_coin.sample(4000, seed=11, stream=0)
        lengths = []
        for n in (1500, 2000, 3000, 4000):
            est = detect_repellers(golden_sine, w[:n], m_levels=8)
            lengths.append(min(est.final_image_lengths))
        assert all(l > 0.45 for l in lengths)


class TestAntonovClassify:
    def test_rotations_are_case1(self, rotations, fair_coin):
        res = antonov_classify(rotations, fair_coin, n_seeds=5, seed=1)
        assert res.case == "case1"

    def test_golden_sine_is_case2(self, golden_sine, fair_coin):
        res = antonov_classify(golden_sine, fair_coin, n_seeds=10, seed=1)
        assert res.case == "case2"
        assert res.ell == 1

    def test_half_turn_symmetric_pair_is_case3(self, fair_coin):
        ifs = IFS([Rotation(GOLDEN), SinePerturbed(0.0, -0.5, harmonics=2)])
        res = antonov_classify(ifs, fair_coin, n_seeds=10, seed=1)
        assert res.case == "case3"
        assert res.ell == 2


class TestHittingTail:
    def test_covering_count_matches_grid_oracle(self):
        # Frozen oracle: 200k-point grid coverage by backward golden
        # translates of a 0.05 arc needs exactly 34 iterates.
        assert covering_count(Rotation(GOLDEN), Arc(0.0, 0.05)) == 34

    def test_rotation_without_fixed_points_required(self, golden_sine, fair_coin):
        with pytest.raises(NoMinimalGenerator):
            hitting_tail_check(
                golden_sine, fair_coin, Arc(0.3, 0.05), x=0.1, minimal_index=1
            )

    def test_full_circle_target_trivial(self, golden_sine, fair_coin):
        rep = hitting_tail_check(
            golden_sine, fair_coin, Arc(0.0, 1.0), x=0.1, n_grid=[1, 2], n_trials=10
        )
        assert all(r.empirical_miss == 0.0 for r in rep.rows)

    def test_bound_formula_instance(self):
        # p = 1/2, ell = 1: the bound at n is (1 - p)^(1 + n) = 2^-(n+1).
        p, ell = 0.5, 1
        for n in (1, 5, 10):
            assert (1.0 - p**ell) ** (1 + n // ell) == pytest.approx(2.0 ** -(n + 1))

    def test_certified_instance_dominated(self, golden_sine, fair_coin):
        rep = hitting_tail_check(
            golden_sine, fair_coin, Arc(0.3, 0.05), x=0.1, n_trials=4000, seed=2
        )
        assert rep.word_length == 1
        assert rep.ell == rep.cover_count
        assert rep.dominated

    def test_user_supplied_composite_minimal_word(self, golden_sine, fair_coin):
        # h given as the word (1,1): the double rotation is still minimal,
        # s = 2, and ell counts letters (r * s).
        rep = hitting_tail_check(
            golden_sine, fair_coin, Arc(0.3, 0.05), x=0.1, n_trials=2000, seed=2,
            minimal_word=Word((1, 1), 2),
        )
        assert rep.word_length == 2
        assert rep.ell == 2 * rep.cover_count
        assert rep.dominated

    def test_markov_model_drives_the_dynamics(self, golden_sine):
        from circle_ifs.symbolic import MarkovMinorizedModel

        markov = MarkovMinorizedModel([[0.7, 0.3], [0.3, 0.7]])
        rep = sync_fraction(golden_sine, markov, n=2000, n_pairs=200, tol_sync=1e-3, seed=3)
        rep2 = sync_fraction(golden_sine, markov, n=2000, n_pairs=200, tol_sync=1e-3, seed=3)
        assert rep == rep2
        assert rep.sync_fraction >= 0.9
