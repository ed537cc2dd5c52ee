import numpy as np
import pytest

from circle_ifs import symbolic
from circle_ifs.symbolic import (
    BernoulliModel,
    InvalidModel,
    MarkovMinorizedModel,
    Word,
    _letter_dtype,
    model_from_json,
)
from word_helpers import (
    all_words_concatenated,
    cylinder_measure,
    is_prefix_dense,
    reversed_word,
    word_from_json,
)


def reference_markov_letters(model, u):
    """Letters of the chains driven by the rows of u, one table lookup per
    letter: the sampler's former per-letter loop."""
    n_rows, length = u.shape
    last = model.k - 1
    row_cum = [np.cumsum(r) for r in model.rows]
    init_cum = np.cumsum(model.initial)
    out = np.empty((n_rows, length), dtype=_letter_dtype(model.k))
    for r in range(n_rows if length else 0):
        table = [
            np.minimum(np.searchsorted(cum, u[r], side="right"), last).tolist()
            for cum in row_cum
        ]
        state = min(int(np.searchsorted(init_cum, u[r, 0], side="right")), last)
        states = [state]
        for i in range(1, length):
            state = table[state][i]
            states.append(state)
        out[r] = states
    return out + 1


def reference_bernoulli_letters(model, u):
    """Letters of the uniforms u by the sampler's former rule: searchsorted
    over the cumulative weights, capped at the last letter."""
    cum = np.cumsum(model.weights)
    idx = np.minimum(np.searchsorted(cum, u.ravel(), side="right"), model.k - 1)
    return (idx.reshape(u.shape) + 1).astype(_letter_dtype(model.k))


def reference_markov_sample_matrix(model, n_rows, length, seed, stream=0):
    """Row r from a fresh Philox keyed [seed, stream] and advanced by
    r * 2**64, which puts r in the second word of its counter."""
    u = np.empty((n_rows, length))
    key = np.array([seed, stream], dtype=np.uint64)
    for r in range(n_rows):
        bitgen = np.random.Philox(key=key)
        bitgen.advance(r * 2**64)
        u[r] = np.random.Generator(bitgen).random(length)
    return reference_markov_letters(model, u)


def markov_models(st):
    """Markov models on 1..5 letters with entries >= 1/(10k); initial is
    uniform or may hold zeros."""

    @st.composite
    def build(draw):
        k = draw(st.integers(1, 5))
        weights = st.lists(st.floats(1.0, 10.0), min_size=k, max_size=k)
        rows = [[x / sum(w) for x in w] for w in draw(st.lists(weights, min_size=k, max_size=k))]
        w = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=k, max_size=k))
        initial = None if sum(w) == 0.0 else [x / sum(w) for x in w]
        return MarkovMinorizedModel(rows, initial)

    return build()


class TestWord:
    def test_letter_bounds_enforced(self):
        with pytest.raises(ValueError):
            Word((0, 1), 2)
        with pytest.raises(ValueError):
            Word((3,), 2)

    def test_reversed(self):
        assert reversed_word(Word((1, 2, 2), 2)).letters == (2, 2, 1)


class TestSampling:
    def test_same_seed_same_word(self):
        m = BernoulliModel([0.5, 0.5])
        a = m.sample(1000, seed=42)
        b = m.sample(1000, seed=42)
        assert a == b

    def test_streams_differ(self):
        m = BernoulliModel([0.5, 0.5])
        a = m.sample(1000, seed=42, stream=0)
        b = m.sample(1000, seed=42, stream=1)
        assert a != b

    def test_frequencies_converge(self):
        # Binomial concentration: at n = 1e5 each frequency is within 0.01.
        m = BernoulliModel([0.5, 0.5])
        w = m.sample(100_000, seed=7)
        freq1 = w.letters.count(1) / len(w)
        assert 0.49 <= freq1 <= 0.51

    def test_degenerate_weights_rejected(self):
        with pytest.raises(InvalidModel):
            BernoulliModel([1.0, 0.0])
        with pytest.raises(InvalidModel):
            BernoulliModel([0.7, 0.7])

    def test_markov_rows_validated(self):
        with pytest.raises(InvalidModel):
            MarkovMinorizedModel([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(InvalidModel):
            MarkovMinorizedModel([[0.5, 0.5]])
        # initial has one entry per state
        for initial in ([0.2, 0.3, 0.5], [1.0], []):
            with pytest.raises(InvalidModel, match="2 entries"):
                MarkovMinorizedModel([[0.7, 0.3], [0.4, 0.6]], initial)

    def test_markov_transition_frequencies(self):
        rows = [[0.8, 0.2], [0.3, 0.7]]
        m = MarkovMinorizedModel(rows)
        w = m.sample(1_000_000, seed=5)
        letters = np.array(w.letters)
        for i in range(2):
            mask = letters[:-1] == i + 1
            total = int(mask.sum())
            for j in range(2):
                freq = int(((letters[1:] == j + 1) & mask).sum()) / total
                assert freq == pytest.approx(rows[i][j], abs=0.01)

    @pytest.mark.parametrize("model", [
        BernoulliModel([0.3, 0.7]),
        MarkovMinorizedModel([[0.7, 0.3], [0.4, 0.6]], [0.2, 0.8]),
    ])
    def test_sample_is_first_matrix_row(self, model):
        for stream in (0, 5):
            row = model.sample_matrix(1, 300, 9, stream)[0]
            assert model.sample(300, 9, stream).letters == tuple(row.tolist())

    def test_markov_matrix_rows_are_counter_rows(self):
        rows = [[0.5, 0.3, 0.2], [0.2, 0.2, 0.6], [0.1, 0.1, 0.8]]
        initial = [0.2, 0.3, 0.5]
        m = MarkovMinorizedModel(rows, initial)
        mat = m.sample_matrix(6, 200, seed=4)
        assert mat.shape == (6, 200)
        assert tuple(mat[0].tolist()) == m.sample(200, seed=4).letters
        for n_rows in (1, 4):
            assert np.array_equal(m.sample_matrix(n_rows, 200, seed=4), mat[:n_rows])
        assert np.array_equal(mat, reference_markov_sample_matrix(m, 6, 200, 4))

    def test_markov_rows_share_no_stream(self):
        # Row r lives in the counter, so the letter rows of stream 0 are
        # neither the detection words of streams 100 + s nor the sync-pair
        # points drawn from stream 1.
        m = MarkovMinorizedModel([[0.7, 0.3], [0.4, 0.6]])
        mat = m.sample_matrix(500, 2000, 7)
        assert tuple(mat[100].tolist()) != m.sample(5000, 7, stream=100).letters[:2000]
        row_1 = symbolic._stream_uniforms(1, 2000, 7, 0, 1)[0]
        assert not np.array_equal(symbolic._rng(7, 1).random(500), row_1[:500])

    @pytest.mark.parametrize("model", [
        BernoulliModel([0.3, 0.7]),
        MarkovMinorizedModel([[0.7, 0.3], [0.4, 0.6]]),
    ])
    @pytest.mark.parametrize("shape", [(3, 0), (0, 5), (0, 0)])
    def test_empty_shapes(self, model, shape):
        mat = model.sample_matrix(*shape, seed=1)
        assert mat.shape == shape
        assert mat.dtype == np.int8

    def test_markov_wide_alphabet_letters(self):
        # k = 130 letters outgrow int8.
        k = 130
        m = MarkovMinorizedModel([[1.0 / k] * k] * k)
        mat = m.sample_matrix(3, 50, seed=2, stream=9)
        ref = reference_markov_sample_matrix(m, 3, 50, 2, 9)
        assert mat.dtype == ref.dtype == np.int64
        assert np.array_equal(mat, ref)

    def test_markov_matrix_property(self, monkeypatch):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        edges = st.integers(1, 24).flatmap(lambda c: st.sampled_from([c * c - 1, c * c, c * c + 1]))
        near_top = st.integers(2**64 - 10, 2**64 - 1)
        keys = st.one_of(st.integers(0, 2**64 - 1), near_top)

        @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @hyp.given(
            markov_models(st),
            st.integers(0, 8),
            st.one_of(st.integers(0, 600), edges),
            keys,
            keys,
            st.sampled_from([1, 50, 700, symbolic._BLOCK_LETTERS]),
        )
        def check(model, n_rows, length, seed, stream, block_letters):
            # Small blocks split the rows into several walks.
            monkeypatch.setattr(symbolic, "_BLOCK_LETTERS", block_letters)
            mat = model.sample_matrix(n_rows, length, seed, stream)
            ref = reference_markov_sample_matrix(model, n_rows, length, seed, stream)
            assert mat.dtype == ref.dtype
            assert np.array_equal(mat, ref)

        check()

    def test_markov_chain_on_boundary_uniforms(self):
        # Uniforms that sit exactly on (or next to) a cumulative sum, which
        # random draws almost never hit, pick the letter the inverse CDF
        # with side="right" picks.
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @st.composite
        def cases(draw):
            model = draw(markov_models(st))
            cums = np.concatenate([np.cumsum(model.initial), np.cumsum(model.rows, axis=1).ravel()])
            near = np.concatenate([cums, np.nextafter(cums, 0.0), np.nextafter(cums, 1.0)])
            values = st.one_of(st.sampled_from([0.0, *near.tolist()]), st.floats(0.0, 1.0))
            n_rows = draw(st.integers(0, 4))
            length = draw(st.integers(0, 60))
            u = draw(st.lists(values, min_size=n_rows * length, max_size=n_rows * length))
            return model, np.array(u, dtype=float).reshape(n_rows, length)

        @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @hyp.given(cases())
        def check(case):
            model, u = case
            assert np.array_equal(model._chain_letters(u), reference_markov_letters(model, u))

        check()

    @pytest.mark.parametrize("weights", [
        [1.0],
        [1.0 - 1e-10],
        [0.5, 0.5],
        [0.3, 0.7 - 1e-10],
        [0.2, 0.3, 0.5],
        [0.2, 0.3, 0.5 - 2e-10],
    ])
    def test_bernoulli_matches_searchsorted_rule(self, weights, monkeypatch):
        model = BernoulliModel(weights)
        for seed, stream in ((0, 0), (7, 3), (2**64 - 1, 100)):
            key = np.array([seed, stream], dtype=np.uint64)
            u = np.random.Generator(np.random.Philox(key=key)).random((40, 257))
            mat = model.sample_matrix(40, 257, seed, stream)
            ref = reference_bernoulli_letters(model, u)
            assert mat.dtype == ref.dtype
            assert np.array_equal(mat, ref)
        # Uniforms on, and next to, each cumulative sum; those at or above
        # a last sum below 1.0 are capped at letter k.
        cum = np.cumsum(weights)
        near = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)])
        u = np.array([0.0, np.nextafter(1.0, 0.0), *near])
        u = u[u < 1.0]
        assert (cum[-1] == 1.0) or np.any(u >= cum[-1])

        class Uniforms:
            def random(self, shape):
                return u.reshape(shape)

        monkeypatch.setattr(symbolic, "_rng", lambda seed, stream: Uniforms())
        mat = model.sample_matrix(1, len(u), 0)
        assert np.array_equal(mat, reference_bernoulli_letters(model, u.reshape(1, -1)))

    @pytest.mark.parametrize("seed, stream", [
        (-1, 0), (2**64, 0), (0, -1), (0, 2**64), (True, 0), (1.0, 0), (0, 1.0),
    ])
    def test_keys_outside_64_bits_rejected(self, seed, stream):
        # Keyed mod 2**64, seed -1 would replay seed 2**64 - 1, and 2**64 seed 0.
        with pytest.raises(ValueError, match="stream"):
            symbolic._rng(seed, stream)
        for model in (BernoulliModel([0.5, 0.5]), MarkovMinorizedModel([[0.5, 0.5]] * 2)):
            with pytest.raises(ValueError):
                model.sample_matrix(1, 8, seed, stream)

    @pytest.mark.parametrize("model", [
        BernoulliModel([0.3, 0.7]), MarkovMinorizedModel([[0.7, 0.3], [0.4, 0.6]]),
    ], ids=["bernoulli", "markov"])
    @pytest.mark.parametrize("n1, n2", [
        (1, 2), (80, 81), (99, 10_000), (100, 10_000), (101, 10_000), (5000, 10_000),
    ])
    def test_samples_are_prefix_consistent(self, model, n1, n2):
        # Markov walks chunks of isqrt(length) letters: 9 at 80 letters, 9 at
        # 81, 100 at 10,000, so prefixes end on both sides of a chunk edge.
        for seed, stream in [(0, 0), (7, 1), (42, 5), (2**40, 118)]:
            assert model.sample(n2, seed, stream).letters[:n1] == model.sample(n1, seed, stream).letters

    def test_shift_compatibility(self):
        # Dropping the first letter leaves the Bernoulli distribution intact.
        m = BernoulliModel([0.3, 0.7])
        w = m.sample(100_000, seed=11)
        shifted = w.letters[1:]
        freq2 = shifted.count(2) / len(shifted)
        assert freq2 == pytest.approx(0.7, abs=0.01)


class TestCylinders:
    def test_fair_coin_measure(self):
        m = BernoulliModel([0.5, 0.5])
        assert cylinder_measure(m, Word((1, 2, 1), 2)) == 0.125

    def test_biased_product(self):
        m = BernoulliModel([0.3, 0.7])
        assert cylinder_measure(m, Word((2, 2), 2)) == pytest.approx(0.49)

    def test_floor_bound(self):
        m = BernoulliModel([0.2, 0.3, 0.5])
        for letters in [(1,), (1, 1), (1, 2, 1), (3, 1, 1, 1)]:
            assert cylinder_measure(m, Word(letters, 3)) >= m.p ** len(letters) - 1e-15

    def test_kolmogorov_consistency(self):
        m = MarkovMinorizedModel([[0.8, 0.2], [0.3, 0.7]])
        for letters in [(1,), (2, 1), (1, 1, 2)]:
            base = cylinder_measure(m, Word(letters, 2))
            split = sum(cylinder_measure(m, Word(letters + (i,), 2)) for i in (1, 2))
            assert split == pytest.approx(base, abs=1e-12)


class TestPrefixDensity:
    def test_concatenation_of_all_words_is_dense(self):
        w = all_words_concatenated(2, 3)
        assert is_prefix_dense(w, 3)

    def test_constant_word_is_not_dense(self):
        w = Word((1,) * 100, 2)
        assert not is_prefix_dense(w, 1)

    def test_random_words_dense_with_high_probability(self):
        # Monte Carlo: 2^16-letter fair-coin words contain every depth-8
        # factor in >= 99 of 100 seeds.
        m = BernoulliModel([0.5, 0.5])
        hits = sum(
            is_prefix_dense(m.sample(2**16, seed=s), 8) for s in range(100)
        )
        assert hits >= 99


class TestSerialization:
    def test_model_round_trip(self):
        for m in (
            BernoulliModel([0.25, 0.75]),
            MarkovMinorizedModel([[0.9, 0.1], [0.2, 0.8]], [0.5, 0.5]),
        ):
            m2 = model_from_json(m.to_json())
            assert m2.sample(50, seed=3) == m.sample(50, seed=3)

    def test_word_json_is_integer_array(self):
        w = Word((1, 2, 2), 2)
        assert w.to_json() == [1, 2, 2]
        assert word_from_json([1, 2, 2], 2) == w
