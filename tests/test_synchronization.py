import math
from bisect import insort
from types import SimpleNamespace

import numpy as np
import pytest

from circle_ifs import ifs_core, synchronization
from circle_ifs.circle_maps import (
    Arc,
    CirclePoint,
    Composition,
    Inverse,
    Power,
    Rotation,
    SinePerturbed,
    find_fixed_points,
)
from circle_ifs.ifs_core import IFS, branch_lift_array
from circle_ifs.symbolic import BernoulliModel, MarkovMinorizedModel, Word, _rng
from circle_ifs.synchronization import (
    MAX_LEVEL,
    PARTITION_OFFSET,
    CoverSearchExhausted,
    NoMinimalGenerator,
    RepellerEstimate,
    SyncReport,
    Unpolarized,
    antonov_classify,
    covering_count,
    detect_repellers,
    hitting_tail_check,
    repeller_bracket_arcs,
    sync_fraction,
)
from word_helpers import contains_arc, pair_distance_trajectory

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

    def test_zero_horizon_ignores_the_model(self, golden_sine, fair_coin):
        markov = MarkovMinorizedModel([[0.7, 0.3], [0.4, 0.6]])
        coin = sync_fraction(golden_sine, fair_coin, n=0, n_pairs=300, tol_sync=0.1, seed=5)
        chain = sync_fraction(golden_sine, markov, n=0, n_pairs=300, tol_sync=0.1, seed=5)
        assert (chain.sync_fraction, chain.median_final_distance) == (
            coin.sync_fraction, coin.median_final_distance
        )

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

    @pytest.mark.parametrize("m_levels", [5, MAX_LEVEL + 1, 100_000])
    def test_levels_outside_range_rejected(self, golden_sine, m_levels):
        # Past MAX_LEVEL the partition endpoints collide as floats.
        with pytest.raises(ValueError, match="m_levels"):
            detect_repellers(golden_sine, Word((2,) * 50, 2), m_levels=m_levels)

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
        assert contains_arc(arc_c, arc_f)

    def test_antipodal_pair_detected(self):
        # Generators commuting with the half turn: repellers come in
        # antipodal pairs and ell_hat = 2.
        ifs = IFS([Rotation(GOLDEN), SinePerturbed(0.0, -0.5, harmonics=2)])
        m = BernoulliModel([0.5, 0.5])
        est = detect_repellers(ifs, m.sample(5000, seed=3, stream=0), m_levels=12)
        assert est.ell_hat == 2
        a, b = (float(p) for p in est.points)
        assert abs(abs(a - b) - 0.5) < 1e-3

    def test_level_52_point_against_a_160_bit_bisection(self, golden_sine, fair_coin):
        # classify's golden-sine word for detection seed 18 (stream 118) at
        # config seed 7, where a walk of the unreduced lift errs by 2.2e-13.
        # The reference walks the configured maps (the float constants taken
        # exactly, 2 pi at 160 bits) and bisects the jump of the branch lift
        # across the repeller from +-2^-40 down to 2^-70 around the point.
        mpmath = pytest.importorskip("mpmath")
        w = fair_coin.sample(5000, 7, stream=118)
        (point,) = detect_repellers(golden_sine, w, m_levels=52).points
        with mpmath.workprec(160):
            alpha = mpmath.mpf(GOLDEN)
            two_pi = 2 * mpmath.pi
            bw = mpmath.mpf(-0.5) / two_pi

            def lift(x):
                for a in w.letters:
                    x = x + alpha if a == 1 else x + bw * mpmath.sin(two_pi * x)
                return x

            lo, hi = (mpmath.mpf(float(point)) + d * mpmath.ldexp(1, -40) for d in (-1, 1))
            at_lo = lift(lo)
            assert lift(hi) - at_lo > 0.5
            while hi - lo > mpmath.ldexp(1, -70):
                mid = (lo + hi) / 2
                lo, hi = (lo, mid) if lift(mid) - at_lo > 0.5 else (mid, hi)
            assert abs(float(point) - (lo + hi) / 2) < 1e-13


def detect_repellers_per_level(ifs, w, m_levels, arcs_log=None):
    """Reference: one branch walk per refinement level, carrying only the
    endpoints that level is missing, each walk with a fresh memo.  With
    `arcs_log`, each level appends the arcs it measures."""
    theta_grow, start_level, max_candidates = 0.9, 3, 64
    letters = w.letters
    cache = {}

    def endpoint(i, level):
        return PARTITION_OFFSET + i / (1 << level)

    kept = list(range(1 << start_level))
    counts = []
    for level in range(start_level, m_levels + 1):
        if arcs_log is not None:
            arcs_log.append(kept)
        pts = sorted({endpoint(i, level) for i in kept} | {endpoint(i + 1, level) for i in kept})
        fresh = [p for p in pts if p not in cache]
        if fresh:
            vals = synchronization.branch_lift_array(ifs, letters, np.array(fresh))
            cache.update(zip(fresh, vals.tolist()))
        lengths = {i: cache[endpoint(i + 1, level)] - cache[endpoint(i, level)] for i in kept}
        top = max(lengths.values())
        grown = [i for i in kept if lengths[i] > theta_grow * top]
        if not grown:
            raise Unpolarized("no arc image exceeded the growth threshold")
        if len(grown) > max_candidates:
            raise Unpolarized(f"{len(grown)} growing arcs exceed the candidate cap")
        counts.append(len(grown))
        if level >= start_level + 2 and len(grown) / (1 << level) > 0.5:
            raise Unpolarized("growing arcs cover most of the circle (isometric branch?)")
        if level == m_levels:
            kept = grown
            final_lengths = [lengths[i] for i in grown]
            break
        kept = [c for i in grown for c in (2 * i, 2 * i + 1)]
    if len(counts) >= 3 and not (counts[-1] == counts[-2] == counts[-3]):
        raise Unpolarized(f"growing-arc count never stabilized: {counts}")
    ell = counts[-1]
    if min(final_lengths) <= theta_grow / ell * 0.5:
        raise Unpolarized("final bracketing arcs are not uniformly grown")
    points = tuple(
        CirclePoint(endpoint(i, m_levels) + 0.5 / (1 << m_levels)) for i in sorted(kept)
    )
    return RepellerEstimate(w, m_levels, points, ell, 2.0**-m_levels, tuple(final_lengths))


def _outcome(detect, ifs, w, m_levels):
    try:
        return detect(ifs, w, m_levels=m_levels)
    except Unpolarized as exc:
        return ("Unpolarized", str(exc))


EQUIVALENCE_IFS = {
    "golden-sine": [Rotation(GOLDEN), SinePerturbed(0.0, -0.5)],
    "half-turn": [Rotation(GOLDEN), SinePerturbed(0.0, -0.5, harmonics=2)],
    "rotations": [Rotation(GOLDEN), Rotation(0.3)],
}
EQUIVALENCE_MODELS = {
    "bernoulli": BernoulliModel([0.5, 0.5]),
    "markov": MarkovMinorizedModel([[0.7, 0.3], [0.3, 0.7]]),
}


class TestSharedWalks:
    @pytest.mark.parametrize("m_levels", [6, 8, 10, 12, 22])
    @pytest.mark.parametrize("length", [64, 5000])
    @pytest.mark.parametrize("model", sorted(EQUIVALENCE_MODELS))
    @pytest.mark.parametrize("label", sorted(EQUIVALENCE_IFS))
    def test_matches_per_level_reference(self, label, model, length, m_levels):
        ifs = IFS(EQUIVALENCE_IFS[label], label=label)
        w = EQUIVALENCE_MODELS[model].sample(length, seed=m_levels, stream=3)
        got = _outcome(detect_repellers, ifs, w, m_levels)
        ref = _outcome(detect_repellers_per_level, ifs, w, m_levels)
        assert got == ref
        if isinstance(got, RepellerEstimate):
            # Dataclass equality compares floats with ==; check the bits too.
            assert [p.hex() for p in got.points] == [p.hex() for p in ref.points]
            assert [x.hex() for x in got.final_image_lengths] == [
                x.hex() for x in ref.final_image_lengths
            ]

    @pytest.mark.parametrize(
        "seed, stream, expected",
        [
            (0, 0, [9096, 640, 640, 640, 640, 640, 704, 640]),
            # classify's first golden-sine word at seed 7.
            (7, 100, [9992] + [704] * 7),
        ],
    )
    def test_golden_sine_at_ten_levels_walks_each_level_through_one_memo(
        self, golden_sine, fair_coin, monkeypatch, seed, stream, expected
    ):
        calls = []
        level_letters = []  # letters that each level's float tails step
        value_letters = []  # (value, letters its float tail steps), per value
        word_lift, float_tail = ifs_core._word_lift, ifs_core._float_tail

        def counting_word_lift(ifs, letters, x):
            level_letters[-1] += len(letters)
            return word_lift(ifs, letters, x)

        def counting_float_tail(ifs, letters, x, memo):
            before = level_letters[-1]
            out = float_tail(ifs, letters, x, memo)
            value_letters.append((x, level_letters[-1] - before))
            return out

        def counting(ifs, w, xs, memo=None):
            calls.append(xs.tolist())
            level_letters.append(0)
            return branch_lift_array(ifs, w, xs, memo)

        monkeypatch.setattr(ifs_core, "_word_lift", counting_word_lift)
        monkeypatch.setattr(ifs_core, "_float_tail", counting_float_tail)
        monkeypatch.setattr(synchronization, "branch_lift_array", counting)
        w = fair_coin.sample(5000, seed=seed, stream=stream)
        est = detect_repellers(golden_sine, w, m_levels=10)
        assert est.ell_hat == 1
        walks, shared, per_value = calls[:], level_letters[:], value_letters[:]
        # Each walk holds exactly the endpoints of the arcs its level
        # measures, those of the per-level reference.
        arcs = []
        detect_repellers_per_level(golden_sine, w, 10, arcs)
        assert len(walks) == len(arcs) == 8  # levels 3..10
        for level, (xs, kept) in enumerate(zip(walks, arcs), start=3):
            assert xs == sorted({PARTITION_OFFSET + (i + j) / (1 << level)
                                 for i in kept for j in (0, 1)})
        # A value walked at an earlier level steps no letter; each level
        # steps as many letters as when it walked only the values it lacked.
        seen, repeats = set(walks[0]), 0
        for x, letters in per_value[len(walks[0]):]:
            if x in seen:
                assert letters == 0
                repeats += 1
            seen.add(x)
        assert repeats == sum(map(len, walks)) - len(seen) >= 7
        assert shared == expected
        # A later walk's float tails meet those of earlier levels in the
        # shared memo: with a fresh memo each walks its tail further.
        for xs, letters in zip(walks[1:], shared[1:]):
            level_letters.append(0)
            branch_lift_array(golden_sine, w, np.array(xs), {})
            assert 0 < letters < level_letters[-1]


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

    @pytest.mark.parametrize(
        "n_unpolarized, case, ell", [(10, "inconclusive", None), (2, "case2", 1)]
    )
    def test_unpolarized_seeds_are_counted_apart(
        self, golden_sine, fair_coin, monkeypatch, n_unpolarized, case, ell
    ):
        # The first n_unpolarized seeds never polarize and the rest bracket
        # one repeller; an unpolarized seed counts against the majority.
        calls = []

        def detect(ifs, w, m_levels):
            calls.append(w)
            if len(calls) <= n_unpolarized:
                raise Unpolarized("never polarized")
            return SimpleNamespace(ell_hat=1)

        monkeypatch.setattr(synchronization, "detect_repellers", detect)
        res = antonov_classify(golden_sine, fair_coin, n_pairs=50, sync_horizon=200,
                               n_seeds=20, word_length=10, seed=1)
        assert len(calls) == 20
        assert (res.case, res.ell) == (case, ell)
        assert res.n_unpolarized == n_unpolarized
        assert res.ell_counts == {1: 20 - n_unpolarized}


# Golden rotation against a weak sine: the generators do not commute, yet
# their sync fraction stays within 3 sigma of the no-dynamics baseline.
NEAR_ROTATIONS = {b: IFS([Rotation(GOLDEN), SinePerturbed(0.0, b)]) for b in (-0.02, -1e-4)}
SMALL_DETECTION = {"n_seeds": 3, "word_length": 1000, "m_levels": 8}
# h o R_a o h^-1 for the golden mean and 0.3, h = sine(0, 0.3): commuting,
# but not rotations.
CONJUGATED_ROTATIONS = IFS([
    Composition([SinePerturbed(0.0, 0.3), Rotation(a), Inverse(SinePerturbed(0.0, 0.3))])
    for a in (GOLDEN, 0.3)
])


class TestCommutatorGap:
    @pytest.mark.parametrize("b", sorted(NEAR_ROTATIONS))
    def test_near_rotations_are_not_case1(self, fair_coin, b):
        res = antonov_classify(NEAR_ROTATIONS[b], fair_coin, seed=7, **SMALL_DETECTION)
        assert res.commutator_gap > synchronization.COMMUTATOR_TOL
        assert res.case != "case1"
        assert (res.sync_report, res.baseline, res.baseline_sigma) == (None, None, None)

    @pytest.mark.parametrize("label", ["rotations", "conjugated"])
    def test_commuting_generators_are_case1_by_the_sync_test(self, rotations, fair_coin, label):
        # The conjugated pair misses commuting by its inverse solves' error.
        ifs = rotations if label == "rotations" else CONJUGATED_ROTATIONS
        res = antonov_classify(ifs, fair_coin, n_pairs=100, sync_horizon=200, seed=7)
        assert res.commutator_gap <= synchronization.COMMUTATOR_TOL
        assert res.case == "case1"
        assert res.sync_report is not None and res.sync_report.n_pairs == 100
        assert res.baseline == 0.002

    def test_non_commuting_generators_skip_the_sync_test(self, golden_sine, fair_coin, monkeypatch):
        def no_sync(*args, **kwargs):
            raise AssertionError("sync test ran")

        monkeypatch.setattr(synchronization, "sync_fraction", no_sync)
        res = antonov_classify(golden_sine, fair_coin, seed=7, **SMALL_DETECTION)
        assert (res.case, res.ell) == ("case2", 1)

    def test_gap_does_not_depend_on_the_model(self):
        ifs = NEAR_ROTATIONS[-0.02]
        results = [antonov_classify(ifs, model, seed=7, **SMALL_DETECTION)
                   for model in EQUIVALENCE_MODELS.values()]
        assert results[0].commutator_gap == results[1].commutator_gap > 0.0
        assert all(res.case != "case1" for res in results)

    def test_gap_is_the_largest_over_generator_pairs(self, golden_sine):
        # A third generator commuting with the first two adds no gap; one
        # generator has no pair and no gap.
        ifs = IFS([*golden_sine.generators, Rotation(0.0)])
        assert synchronization._commutator_gap(ifs) == synchronization._commutator_gap(golden_sine)
        assert synchronization._commutator_gap(IFS([SinePerturbed(0.0, -0.5)])) == 0.0


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

    def test_default_grid_above_max_cells_raises_before_sampling(
        self, golden_sine, fair_coin, monkeypatch
    ):
        # ell = 1597 for a 1e-3 target, so the default grid reaches 15970
        # letters and 10^6 trials would sample 1.6e10 cells.
        def no_sampling(*args, **kwargs):
            raise AssertionError("letters sampled")

        monkeypatch.setattr(fair_coin, "sample_matrix", no_sampling)
        with pytest.raises(ValueError, match=r"^n_trials: 1000000 x 15970 letters exceeds"):
            hitting_tail_check(golden_sine, fair_coin, Arc(0.3, 1e-3), x=0.1, n_trials=10**6)

    # From the second start, start + 1.0 and the inverse lifts of the golden
    # rotation round, so the pulled-back endpoints lie just short of a turn
    # apart; the pull-back of the whole circle is still the whole circle.
    @pytest.mark.parametrize("start", [0.0, math.nextafter(0.05322553581056805, 1.0)])
    @pytest.mark.parametrize("minimal_word", [None, Word((1, 1), 2)])
    @pytest.mark.parametrize("n_grid", [None, [1, 2, 7]])
    @pytest.mark.parametrize("model", sorted(EQUIVALENCE_MODELS))
    def test_full_circle_target_trivial(self, golden_sine, model, n_grid, minimal_word, start):
        # Every trial hits the whole circle at step 1: no miss, no spread,
        # and the closed-form bound, bit for bit.
        m = EQUIVALENCE_MODELS[model]
        rep = hitting_tail_check(
            golden_sine, m, Arc(start, 1.0), x=0.1, n_grid=n_grid, n_trials=10,
            minimal_word=minimal_word,
        )
        s = 1 if minimal_word is None else len(minimal_word)
        assert (rep.cover_count, rep.word_length, rep.ell) == (1, s, s)
        grid = n_grid or [s * i for i in range(1, 11)]
        expected = [(n, 0.0, (1.0 - m.p**s) ** (1 + n // s), 0.0) for n in grid]
        got = [(r.n, r.empirical_miss, r.bound, r.stderr) for r in rep.rows]
        assert [(n, *map(float.hex, v)) for n, *v in got] == [
            (n, *map(float.hex, v)) for n, *v in expected
        ]

    def test_full_circle_target_holds_a_landing_just_below_its_start(self):
        # Step 1 lands one ulp below the target's start, whose offset rounds
        # up to 1.0; the whole circle still holds it.  (A single letter of
        # probability 1 makes the bound 0.0 whatever the cover count.)
        x, alpha = 0.1, 0.2
        target = Arc(math.nextafter(x + alpha, 1.0), 1.0)
        rep = hitting_tail_check(
            IFS([Rotation(alpha)]), BernoulliModel([1.0]), target, x=x, n_grid=[1, 2],
            n_trials=10,
        )
        assert [(r.n, r.empirical_miss, r.bound, r.stderr) for r in rep.rows] == [
            (1, 0.0, 0.0, 0.0), (2, 0.0, 0.0, 0.0)
        ]

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


def reference_covering_count(h, target):
    """covering_count before the sorted gaps: after every pull-back it sweeps
    every interval so far in sorted order.  (The list is kept sorted on
    insertion, so `sorted` in the sweep is a linear copy of the same list.)"""
    if target.length == 1.0:
        return 1
    intervals = []
    lo_lift = float(target.start)
    hi_lift = lo_lift + target.length
    for r in range(1, synchronization.COVER_R_MAX + 1):
        lo_lift = float(h.inverse_lift(lo_lift))
        hi_lift = float(h.inverse_lift(hi_lift))
        start = lo_lift % 1.0
        length = min(hi_lift - lo_lift, 1.0)
        if length >= 1.0:
            return r
        end = start + length
        if end <= 1.0:
            insort(intervals, (start, end))
        else:
            insort(intervals, (start, 1.0))
            insort(intervals, (0.0, end - 1.0))
        if reference_covers_unit_interval(intervals):
            return r
    raise CoverSearchExhausted(
        f"inverse iterates failed to cover the circle within r_max={synchronization.COVER_R_MAX}"
    )


def reference_covers_unit_interval(intervals):
    reach = 0.0
    for a, b in sorted(intervals):
        if a > reach:
            return False
        reach = max(reach, b)
        if reach >= 1.0:
            return True
    return reach >= 1.0


COVER_MAPS = {
    "golden-rotation": Rotation(GOLDEN),
    "sine": SinePerturbed(0.3, 0.4),
    "branch-11": IFS([Rotation(GOLDEN), SinePerturbed(0.0, -0.5)]).branch(Word((1, 1), 2).letters),
}


class TestCoveringCount:
    @pytest.mark.parametrize("start", [0.0, 0.3, 0.95])  # from 0.95 the pull-backs wrap
    @pytest.mark.parametrize("length", [0.05, 1e-2, 1e-3, 5e-4])
    @pytest.mark.parametrize("label", sorted(COVER_MAPS))
    def test_matches_sort_and_sweep_reference(self, label, length, start):
        h = COVER_MAPS[label]
        assert find_fixed_points(h, 512) == []
        target = Arc(start, length)
        assert covering_count(h, target) == reference_covering_count(h, target)

    def test_exhaustion_matches_reference(self):
        # A 1e-4 target needs F_21 = 10946 golden pull-backs, past COVER_R_MAX.
        for count in (covering_count, reference_covering_count):
            with pytest.raises(CoverSearchExhausted, match="r_max=10000"):
                count(Rotation(GOLDEN), Arc(0.3, 1e-4))

    @pytest.mark.parametrize("intervals", [
        [(0.5, 1.0), (0.25, 0.25), (0.0, 0.25), (0.25, 0.5)],  # touching arcs and a point
        [(0.0, 0.25), (0.5, 1.0), (0.25, 0.25)],  # the open gap (0.25, 0.5) is left
        [(0.0, 0.5), (0.75, 1.0), (0.5, 0.5)],
        [(1.0, 1.0), (0.0, 0.75), (0.75, 1.0 - 2**-53)],  # only 1 - 2^-53 < x < 1 is left
        [(0.0, 1.0 - 2**-53), (1.0, 1.0)],
        [(2**-1074, 1.0)],  # only 0 is left
        [(0.0, 0.0), (2**-1074, 1.0)],
        [(0.75, 1.0), (0.0, 0.5), (0.5, 0.75)],
    ])
    def test_gaps_agree_with_the_sweep(self, intervals):
        los, his = [-math.inf], [math.inf]
        for a, b in intervals:
            synchronization._uncover(los, his, a, b)
        covered = len(los) == 2 and his[0] <= 0.0 and los[1] >= 1.0
        assert covered == reference_covers_unit_interval(intervals)


def reference_walk_step(gens, pos, col):
    """Per-generator masked step; letter 0 matches no generator and stays put."""
    for a, g in enumerate(gens, start=1):
        mask = col == a
        if np.any(mask):
            pos[mask] = np.mod(g.lift(pos[mask]), 1.0)


WALK_STEP_GENERATORS = {
    "rotation": Rotation(GOLDEN),
    "sine": SinePerturbed(0.0, -0.5),
    "inverse-sine": Inverse(SinePerturbed(0.0, -0.5)),
    "power": Power(SinePerturbed(0.1, 0.3), 3),
    "composition": Composition([Rotation(0.3), SinePerturbed(0.0, -0.5, harmonics=2)]),
}


class TestWalkStep:
    @pytest.mark.parametrize("shape", [(1,), (300,), (1, 2), (300, 2)])
    @pytest.mark.parametrize("label", sorted(WALK_STEP_GENERATORS))
    def test_matches_masked_reference(self, label, shape):
        # Letter 1 is the generator under test; letters 2 and 3 move the rest.
        gens = [WALK_STEP_GENERATORS[label], SinePerturbed(0.2, 0.4), Rotation(0.3)]
        rng = _rng(11, 0)
        pos = rng.random(shape)
        ref = pos.copy()
        cols = rng.integers(1, 4, size=(40, shape[0])).astype(np.int8)
        cols[1::4][cols[1::4] == 1] = 2  # letter 1 has no rows
        cols[2::4][cols[2::4] == 3] = 1  # letter 3 has no rows
        cols[3::4] = 1  # only letter 1 has rows
        assert any(not np.any(col == 1) for col in cols)
        for col in cols:
            ifs_core._walk_step(gens, pos, col)
            reference_walk_step(gens, ref, col)
            assert pos.tobytes() == ref.tobytes()


def reference_sync_fraction(ifs, model, n, n_pairs, tol_sync, seed):
    """The sync walk before merged pairs were dropped: every pair steps every
    letter.  Returns the report and the final distances."""
    pair_rng = _rng(seed, 1)
    pairs = np.column_stack([pair_rng.random(n_pairs), pair_rng.random(n_pairs)])
    letters = model.sample_matrix(n_pairs, n, seed)
    for step in range(n):
        reference_walk_step(ifs.generators, pairs, letters[:, step])
    dist = synchronization.circle_distance_array(pairs[:, 0], pairs[:, 1])
    report = SyncReport(
        ifs.label, model.to_json(), n_pairs, n,
        float(np.mean(dist < tol_sync)), float(np.median(dist)), seed,
    )
    return report, dist


def reference_hit_times(gens, letters, x, target):
    """The tail walk before hit trials were dropped: a trial that has hit
    gets letter 0 and stays put."""
    n_trials, horizon = letters.shape
    pos = np.full(n_trials, float(x) % 1.0)
    hit_time = np.full(n_trials, np.iinfo(np.int64).max, dtype=np.int64)
    alive = np.ones(n_trials, dtype=bool)
    for step in range(1, horizon + 1):
        reference_walk_step(gens, pos, np.where(alive, letters[:, step - 1], 0))
        hits = alive & target.contains_array(pos)
        hit_time[hits] = step
        alive &= ~hits
        if not np.any(alive):
            break
    return hit_time


LIVE_ROW_MODELS = {
    "bernoulli": BernoulliModel([0.5, 0.5]),
    "markov": MarkovMinorizedModel([[0.7, 0.3], [0.4, 0.6]]),
}


@pytest.fixture
def walked(monkeypatch):
    """The distances that each `_final_distances` call returns, in call order."""
    out = []
    final_distances = synchronization._final_distances

    def recording(*args):
        out.append(final_distances(*args))
        return out[-1]

    monkeypatch.setattr(synchronization, "_final_distances", recording)
    return out


class TestLiveRowWalks:
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 1000, 2000])
    @pytest.mark.parametrize("model", sorted(LIVE_ROW_MODELS))
    @pytest.mark.parametrize("label", sorted(EQUIVALENCE_IFS))
    def test_sync_fraction_matches_all_rows_walk(self, label, model, n, walked):
        ifs = IFS(EQUIVALENCE_IFS[label], label=label)
        chain = LIVE_ROW_MODELS[model]
        for seed in (0, 5, 7):
            for n_pairs in (1, 64, 65, 500):
                ref, ref_dist = reference_sync_fraction(ifs, chain, n, n_pairs, 1e-3, seed)
                got = sync_fraction(ifs, chain, n, n_pairs, 1e-3, seed)
                assert walked.pop().tobytes() == ref_dist.tobytes()
                assert got == ref
                assert got.median_final_distance.hex() == ref.median_final_distance.hex()

    @pytest.mark.parametrize("gens, n", [
        ([Inverse(Rotation(GOLDEN)), Inverse(SinePerturbed(0.0, -0.5))], 500),
        ([Rotation(GOLDEN), Composition([Rotation(0.3), SinePerturbed(0.1, 0.4)]),
          Power(SinePerturbed(0.0, -0.5, harmonics=2), 2)], 300),
    ], ids=["inverse-golden-sine", "composition-power"])
    def test_sync_walk_matches_all_rows_walk_on_other_map_kinds(self, gens, n, walked):
        # The sync walk steps these letters by their generator's own lift;
        # at horizon n some pairs have merged and some have not.
        ifs = IFS(gens)
        model = BernoulliModel([1.0 / len(gens)] * len(gens))
        for n_pairs in (64, 65, 200):
            ref, ref_dist = reference_sync_fraction(ifs, model, n, n_pairs, 1e-3, 7)
            got = sync_fraction(ifs, model, n, n_pairs, 1e-3, 7)
            assert walked.pop().tobytes() == ref_dist.tobytes()
            assert got == ref
            assert 0 < np.count_nonzero(ref_dist) < n_pairs

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 1000, 2000])
    @pytest.mark.parametrize("model", sorted(LIVE_ROW_MODELS))
    @pytest.mark.parametrize("label", sorted(EQUIVALENCE_IFS))
    def test_hit_times_match_letter_zero_walk(self, label, model, n):
        gens = EQUIVALENCE_IFS[label]
        chain = LIVE_ROW_MODELS[model]
        for seed in (0, 5, 7):
            for n_trials in (1, 500):
                letters = chain.sample_matrix(n_trials, n, seed)
                got = synchronization._hit_times(gens, letters, 0.1, Arc(0.9, 0.01))
                ref = reference_hit_times(gens, letters, 0.1, Arc(0.9, 0.01))
                assert got.tobytes() == ref.tobytes()

    def test_pair_that_starts_equal_ends_at_distance_zero(self, golden_sine, rotations):
        letters = LIVE_ROW_MODELS["markov"].sample_matrix(3, 100, 4)
        pairs = np.array([[0.25, 0.25], [0.1, 0.6], [0.7, 0.7]])
        for ifs in (golden_sine, rotations):
            dist = synchronization._final_distances(ifs, pairs.copy(), letters)
            ref = pairs.copy()
            for col in letters.T:
                reference_walk_step(ifs.generators, ref, col)
            ref_dist = synchronization.circle_distance_array(ref[:, 0], ref[:, 1])
            assert dist.tobytes() == ref_dist.tobytes()
            assert dist[0] == dist[2] == 0.0 < dist[1]

    def test_merged_pairs_stop_walking(self, golden_sine, fair_coin, monkeypatch):
        sizes = []
        step = synchronization._walk_step

        def counting(gens, pos, col):
            sizes.append(len(pos))
            step(gens, pos, col)

        monkeypatch.setattr(synchronization, "_walk_step", counting)
        rep = sync_fraction(golden_sine, fair_coin, 2000, 500, 1e-3, seed=7)
        assert rep.sync_fraction == 1.0
        assert sizes[0] == 500
        assert sizes == sorted(sizes, reverse=True)
        assert len(sizes) < 2000  # every pair merged before the last letter
        assert sizes[-1] >= 1  # the walk stops once no pair is live
        # merged pairs are dropped only before a SYNC_CHECK-th letter
        changes = [i for i in range(1, len(sizes)) if sizes[i] != sizes[i - 1]]
        assert all(i % ifs_core.SYNC_CHECK == 0 for i in changes)

    def test_hit_trials_stop_walking(self, golden_sine, monkeypatch):
        sizes = []
        step = synchronization._walk_step

        def counting(gens, pos, col):
            sizes.append(len(pos))
            step(gens, pos, col)

        monkeypatch.setattr(synchronization, "_walk_step", counting)
        letters = LIVE_ROW_MODELS["bernoulli"].sample_matrix(500, 2000, 7)
        hit_time = synchronization._hit_times(
            golden_sine.generators, letters, 0.1, Arc(0.3, 0.05)
        )
        assert sizes[0] == 500
        assert sizes == sorted(sizes, reverse=True)
        assert len(sizes) == hit_time.max()

