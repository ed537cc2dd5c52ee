import json
import math
import random
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from circle_ifs import certifier
from circle_ifs.certifier import (
    ContractionFails,
    LengthExceeded,
    NoAttractingSide,
    RationalRotation,
    SearchExhausted,
    certify_robust_minimality,
    check_certificate,
    find_universal_word,
    locate_basin,
    nested_limit,
    perturb_map,
    reverify_certificate,
    search_cover_words,
    verify_global_cover,
)
from circle_ifs.circle_maps import Arc, Composition, Inverse, Power, Rotation, SinePerturbed
from circle_ifs.ifs_core import IFS, branch_apply
from word_helpers import all_words_concatenated, capture_time, concat, contains_arc

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
TWO_PI = 2.0 * math.pi
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def c1_distance(f, g):
    """sup |F - G| + sup |DF - DG| read on a 2^16-point grid."""
    xs = np.arange(2**16) / 2**16
    d0 = np.max(np.abs(f.lift(xs) - g.lift(xs)))
    return float(d0 + np.max(np.abs(f.deriv(xs) - g.deriv(xs))))


def c2_draws(golden_rotation, sine_map, size):
    """The acceptance-C2 perturbations: Philox keys [2024, i], i < 20."""
    for i in range(20):
        rng = np.random.Generator(np.random.Philox(key=np.array([2024, i], dtype=np.uint64)))
        yield perturb_map(golden_rotation, size, rng), perturb_map(sine_map, size, rng)


def walked(monkeypatch, cert, f1, f2):
    """`reverify_certificate(cert, f1, f2)` and how its chains walked: the
    point count of each `_power_chain` call (the f1 chain to the cover
    exponents, then the 2-point f1 and f1^-1 chains of condition (4)'s
    forward and inverse families), and per point that
    walked on Python floats (`_float_chain`) its factor table and its
    number of steps, in walk order."""
    walks = SimpleNamespace(sizes=[], tables=[], steps=[])
    power_chain, float_chain = certifier._power_chain, certifier._float_chain

    def spy_power_chain(f, pos, deriv, exponents):
        walks.sizes.append(len(pos))
        return power_chain(f, pos, deriv, exponents)

    def spy_float_chain(table, x, deriv, order):
        walks.tables.append(table)
        walks.steps.append(max(order))
        return float_chain(table, x, deriv, order)

    with monkeypatch.context() as patch:
        patch.setattr(certifier, "_power_chain", spy_power_chain)
        patch.setattr(certifier, "_float_chain", spy_float_chain)
        rev = reverify_certificate(cert, f1, f2)
    return rev, walks


def evaluated(cert):
    """The numbers `reference_reverify` pins: lambda, the margins, validity."""
    return cert.lam, cert.margins, cert.valid


def reference_reverify(cert, f1, f2):
    """The full-grid evaluator: every contraction-grid point walks the f1
    chain.  `reverify_certificate` walks only the points that can hold the
    grid maximum and must return the same bits.  Condition (3) keeps the
    largest of one fold per cover exponent, which the evaluator's single
    fold at the largest exponent must equal."""
    basin = cert.basin
    p, eps, delta = basin.p, basin.eps, basin.delta
    d_len = basin.arc_D.length
    rb0 = (basin.arc_B.start - p) % 1.0
    rb1 = rb0 + basin.arc_B.length
    b_ends = np.array([basin.arc_B.start, basin.arc_B.start + basin.arc_B.length])
    b_img = np.asarray(f2.lift(np.array([p + rb0, p + rb1])), dtype=float)
    xs = p + np.linspace(delta, eps, certifier.CONTRACTION_GRID + 1)
    grid_pos, grid_deriv = f2.lift_deriv(xs)
    pos = np.concatenate([b_img, [p, p + d_len], b_ends, np.asarray(grid_pos, dtype=float)])
    deriv = np.concatenate([np.ones(6), np.asarray(grid_deriv, dtype=float)])
    chain = certifier._power_chain(
        f1, pos, deriv, [*cert.cover_exponents, *cert.global_forward_exponents]
    )
    worst = max(float(np.max(chain[n][1][6:])) for n in cert.cover_exponents)
    spans = []
    for n in cert.cover_exponents:
        lo, hi = chain[n][0][:2]
        start = (lo - p) % 1.0
        spans.append((start, start + (hi - lo)))
    m1 = min([rb0 - spans[0][0], *certifier._overlaps(spans), spans[-1][1] - rb1])
    m2 = math.inf
    for n in cert.cover_exponents:
        lo, hi = chain[n][0][2:4]
        start = (lo - p) % 1.0
        m2 = min(m2, start - delta, eps - (start + (hi - lo)))
    c_bound = max(
        Composition([Power(f1, n), f2]).second_deriv_bound() for n in cert.cover_exponents
    )
    lam = worst + 0.5 * c_bound * (eps - delta) / certifier.CONTRACTION_GRID
    m3 = 1.0 - lam
    backward = certifier._power_chain(
        f1.inverse(), b_ends, np.ones(2), cert.global_backward_exponents
    )
    m4 = math.inf
    for ends in (
        [chain[m][0][4:6] for m in cert.global_forward_exponents],
        [backward[m][0] for m in cert.global_backward_exponents],
    ):
        spans = []
        for lo, hi in ends:
            start = (lo - ends[0][0]) % 1.0
            spans.append((start, start + (hi - lo)))
        m4 = min(m4, min([*certifier._overlaps(spans), spans[-1][1] - 1.0]))
    margins = {
        "cover_overlap": float(m1),
        "return_window": float(m2),
        "contraction": float(m3),
        "circle_cover": float(m4),
    }
    return float(lam), margins, all(v > 0.0 for v in margins.values())


class TestLocateBasin:
    def test_sine_map_geometry_matches_closed_form(self, sine_map):
        basin = locate_basin(sine_map)
        g2 = lambda x: x - 0.5 / TWO_PI * math.sin(TWO_PI * x)
        assert basin.p == pytest.approx(0.0, abs=1e-9)
        # Derivative stays below 1 - margin up to ~arccos(margin)/2pi ~ 0.2468.
        assert 0.24 <= basin.eps <= 0.247
        d1 = g2(basin.eps)
        assert basin.arc_D.length == pytest.approx(d1, abs=1e-12)
        assert basin.arc_B.start == pytest.approx(g2(d1), abs=1e-12)
        assert basin.arc_B.length == pytest.approx(d1 - g2(d1), abs=1e-12)
        # delta is the midpoint of the admissible interval (0, eps - |D|).
        assert basin.delta == pytest.approx(0.5 * (basin.eps - d1), abs=1e-12)

    def test_rotation_has_no_attracting_side(self):
        with pytest.raises(NoAttractingSide):
            locate_basin(Rotation(0.3))

    def test_positive_bump_attracts_at_one_half(self):
        basin = locate_basin(SinePerturbed(0.0, 0.5))
        assert basin.p == pytest.approx(0.5, abs=1e-9)

    def test_basin_inclusion_invariant(self, sine_map):
        basin = locate_basin(sine_map)
        window = Arc(basin.p + basin.delta, basin.eps - basin.delta)
        assert contains_arc(window, basin.arc_B)
        assert contains_arc(basin.arc_A, basin.arc_B)


class TestSearchCoverWords:
    def test_regression_fixture(self, golden_rotation, sine_map, certificate_pair):
        # Frozen output of the documented greedy search on the canonical pair.
        basin = locate_basin(sine_map)
        assert search_cover_words(golden_rotation, sine_map, basin) == (568, 26, 115)
        cert = certificate_pair.forward
        assert cert.cover_exponents == (568, 26, 115)
        assert cert.margins["cover_overlap"] > 0.0
        assert cert.margins["return_window"] > 0.0

    def test_rational_rotation_rejected(self, sine_map):
        basin = locate_basin(sine_map)
        with pytest.raises(RationalRotation):
            search_cover_words(Rotation(0.5), sine_map, basin)

    def test_images_stay_in_return_window(self, certificate_pair):
        cert = certificate_pair.forward
        basin = cert.basin
        window = Arc(basin.p + basin.delta, basin.eps - basin.delta)
        for h in cert.h_maps():
            lo = float(h.lift(basin.arc_B.start))
            hi = float(h.lift(basin.arc_B.start + basin.arc_B.length))
            assert contains_arc(window, Arc(lo % 1.0, hi - lo))


def reference_interval_cover(ns, starts, ends, b0, b1, overlap_demand, bucket, min_margin):
    """The greedy loop `search_cover_words` ran before `_greedy_cover`."""
    picks = []
    cur = b0
    while True:
        adm = np.flatnonzero((starts <= cur - overlap_demand) & (ends > cur))
        if len(adm) == 0:
            raise SearchExhausted("cover_words", f"cover stalls at {cur:.6f}")
        best_end = float(np.max(ends[adm]))
        top = adm[ends[adm] >= best_end - bucket]
        best = top[np.argmin(ns[top])]
        picks.append(int(best))
        cur = float(ends[best])
        if cur >= b1 + min_margin:
            break
    return tuple(picks)


def reference_circle_cover(offsets, length, min_margin):
    """The greedy loop `verify_global_cover` ran before `_greedy_cover`."""
    if length >= 1.0:
        return (0,)
    rel = np.mod(offsets - offsets[0], 1.0)
    bucket = 0.25 * length
    overlap_demand = max(min_margin, 0.1 * length)
    close_by = max(min_margin, 0.5 * bucket)
    picks = [0]
    cur = length
    while cur < 1.0 + close_by:
        adm = np.flatnonzero((rel <= cur - overlap_demand) & (rel + length > cur))
        if len(adm) == 0:
            raise SearchExhausted("global_cover", f"circle cover stalls at {cur:.6f}")
        reach = rel[adm] + length
        best_reach = float(np.max(reach))
        top = adm[reach >= best_reach - bucket]
        best = top[np.argmin(top)]
        if int(best) in picks:
            raise SearchExhausted("global_cover", f"circle cover loops at {cur:.6f}")
        picks.append(int(best))
        cur = float(rel[best] + length)
    return tuple(picks)


def _outcome(search, *args):
    """The picks of a cover search, or the stage at which it stalled."""
    try:
        return tuple(search(*args))
    except SearchExhausted as exc:
        return exc.stage


class TestGreedyCover:
    """`_greedy_cover` picks what the two greedy loops it replaced picked."""

    def test_interval_covers_match_reference(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hyp.given(
            st.floats(0.001, 0.999),  # alpha
            st.integers(1, 2000),  # n_max
            st.floats(0.0, 0.01),  # window start
            st.floats(0.0, 0.6),  # window width
            st.floats(0.01, 0.5),  # b0
            st.floats(0.1, 1.5),  # length of g2(B) = (c0, b0), over that of B
            st.floats(0.02, 0.3),  # length of B = (b0, b1)
            st.sampled_from([0.0, 1e-4, 1e-2]),  # min_margin
        )
        def check(alpha, n_max, w_lo, w_len, b0, c_frac, b_len, min_margin):
            c_len = c_frac * b_len
            ns = np.arange(1, n_max + 1)
            betas = np.mod(ns * alpha, 1.0)
            ok = (betas >= w_lo) & (betas <= w_lo + w_len)
            ns, betas = ns[ok], betas[ok]
            c0, b1 = b0 - c_len, b0 + b_len
            starts, ends = c0 + betas, b0 + betas
            demand = max(min_margin, 0.05 * c_len)
            bucket = 0.25 * c_len
            expected = _outcome(
                reference_interval_cover, ns, starts, ends, b0, b1, demand, bucket, min_margin
            )
            got = _outcome(
                certifier._greedy_cover,
                starts, ends, b0, b1 + min_margin, demand, bucket, "cover_words",
            )
            assert got == expected

        check()

    def test_circle_covers_match_reference(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hyp.given(
            st.floats(0.001, 0.999),  # alpha
            st.sampled_from([1.0, -1.0]),  # forward or inverse images
            st.integers(0, 400),  # n_max
            st.floats(0.0, 1.0, exclude_max=True),  # B start
            st.one_of(st.floats(1e-3, 1.0), st.floats(0.01, 0.2)),  # B length
            st.sampled_from([0.0, 1e-4, 1e-2]),  # min_margin
        )
        def check(alpha, sign, n_max, start, length, min_margin):
            ms = np.arange(0, n_max + 1)
            offsets = np.mod(start + sign * ms * alpha, 1.0)
            expected = _outcome(reference_circle_cover, offsets, length, min_margin)
            got = _outcome(certifier._circle_cover, offsets, length, min_margin)
            assert got == expected

        check()


class TestContraction:
    def test_lambda_below_one(self, certificate_pair):
        for cert in (certificate_pair.forward, certificate_pair.backward):
            assert cert.lam < 1.0
            assert cert.margins["contraction"] == 1.0 - cert.lam

    def test_lambda_at_least_one_raises(self, golden_rotation, sine_map):
        # A negative derivative margin admits a basin where Dg2 exceeds 1.
        with pytest.raises(ContractionFails, match="inflated derivative bound"):
            certify_robust_minimality(golden_rotation, sine_map, deriv_margin=-0.01)


class TestGlobalCover:
    def test_five_percent_arc(self, golden_rotation):
        forward, _ = verify_global_cover(golden_rotation, Arc(0.1, 0.2))
        assert 6 <= len(forward) <= 9

    def test_certificate_circle_cover(self, golden_rotation, certificate_pair):
        cert = certificate_pair.forward
        covers = verify_global_cover(golden_rotation, cert.basin.arc_B)
        assert covers == (cert.global_forward_exponents, cert.global_backward_exponents)
        for side in (certificate_pair.forward, certificate_pair.backward):
            assert side.margins["circle_cover"] > 0.0

    def test_full_circle_trivial(self, golden_rotation):
        forward, _ = verify_global_cover(golden_rotation, Arc(0.0, 1.0))
        assert forward == (0,)

    def test_small_budget_exhausts(self, golden_rotation):
        with pytest.raises(SearchExhausted):
            verify_global_cover(golden_rotation, Arc(0.1, 0.2), n_max=2)


class TestCertifyEndToEnd:
    def test_both_directions_with_positive_margins(self, certificate_pair):
        for cert in (certificate_pair.forward, certificate_pair.backward):
            assert all(v > 0.0 for v in cert.margins.values())
            assert cert.lam < 1.0
            assert cert.radius > 0.0
        assert certificate_pair.radius > 0.0

    def test_two_rotations_fail_at_basin(self, golden_rotation):
        with pytest.raises(NoAttractingSide):
            certify_robust_minimality(golden_rotation, Rotation(0.3))

    def test_json_round_trip_and_self_check(self, certificate_pair):
        from circle_ifs.certifier import CertificatePair

        blob = certificate_pair.to_json()
        back = CertificatePair.from_json(blob)
        ok_f, _ = check_certificate(back.forward)
        ok_b, _ = check_certificate(back.backward)
        assert ok_f and ok_b

    def test_corrupted_lambda_fails_check(self, certificate_pair):
        from circle_ifs.certifier import Certificate

        blob = certificate_pair.forward.to_json()
        blob["lambda"] = 1.01
        ok, _ = check_certificate(Certificate.from_json(blob))
        assert not ok

    def test_radius_above_the_recomputed_one_fails_check(self, certificate_pair):
        # The radius is re-derived from the re-verified margins; a larger
        # stored radius claims more than the margins carry, a smaller one
        # is conservative.
        for cert in (certificate_pair.forward, certificate_pair.backward):
            assert check_certificate(cert)[0]
            assert not check_certificate(replace(cert, radius=0.5))[0]
            assert not check_certificate(replace(cert, radius=cert.radius * (1.0 + 1e-9)))[0]
            assert check_certificate(replace(cert, radius=cert.radius * (1.0 + 1e-13)))[0]
            assert check_certificate(replace(cert, radius=0.5 * cert.radius))[0]

    def test_margins_reproduce_to_1e12(self, certificate_pair):
        rev = reverify_certificate(certificate_pair.forward)
        for k, v in certificate_pair.forward.margins.items():
            assert rev.margins[k] == pytest.approx(v, abs=1e-12)

    @pytest.mark.parametrize("g2", [SinePerturbed(0.0, -0.5), SinePerturbed(0.0, 0.5)])
    def test_stored_margins_are_the_reverified_ones(self, golden_rotation, g2):
        # One evaluator: certify stores exactly what --check recomputes.
        pair = certify_robust_minimality(golden_rotation, g2)
        for cert in (pair.forward, pair.backward):
            rev = reverify_certificate(cert)
            assert cert.margins == rev.margins
            assert cert.lam == rev.lam

    @pytest.mark.parametrize("b", [-0.5, 0.5])
    def test_a_fresh_certificate_reverifies_to_itself(self, sine_pairs, b):
        # certify returns the evaluator's output, so re-evaluating either
        # side on its stored generators gives every number back by bits,
        # the radius included (b = -0.5 is golden-sine).
        for cert in (sine_pairs[b].forward, sine_pairs[b].backward):
            assert reverify_certificate(cert) == cert

    def test_negative_min_margin_raises(self, golden_rotation, sine_map):
        with pytest.raises(SearchExhausted) as info:
            certify_robust_minimality(golden_rotation, sine_map, min_margin=-1e-3)
        assert info.value.stage == "cover_overlap"

    def test_survives_half_radius_perturbations(
        self, certificate_pair, golden_rotation, sine_map
    ):
        size = certificate_pair.radius / 2.0
        for i in range(20):
            rng = np.random.Generator(np.random.Philox(key=np.array([9, i], dtype=np.uint64)))
            f1 = perturb_map(golden_rotation, size, rng)
            f2 = perturb_map(sine_map, size, rng)
            assert reverify_certificate(certificate_pair.forward, f1, f2).valid
            assert reverify_certificate(
                certificate_pair.backward, f1.inverse(), f2.inverse()
            ).valid

    def test_perturbed_reverification_matches_golden_bits(
        self, certificate_pair, golden_rotation, sine_map
    ):
        # The reference reprs come from separate power chains for (1) and
        # (2) and a deriv-then-lift loop for (3); the shared lift_deriv
        # chain must reproduce them exactly.
        golden = json.loads((GOLDEN_DIR / "reverify_seed7.json").read_text())
        draws = c2_draws(golden_rotation, sine_map, certificate_pair.radius / 2.0)
        for expected, (f1, f2) in zip(golden, draws, strict=True):
            for side, cert, g1, g2 in (
                ("forward", certificate_pair.forward, f1, f2),
                ("backward", certificate_pair.backward, f1.inverse(), f2.inverse()),
            ):
                rev = reverify_certificate(cert, g1, g2)
                got = {
                    "lam": repr(rev.lam),
                    "margins": {k: repr(v) for k, v in rev.margins.items()},
                    "valid": rev.valid,
                }
                assert got == expected[side]

    def test_one_lift_deriv_per_step_per_walked_point(
        self, certificate_pair, golden_rotation, sine_map, monkeypatch
    ):
        f1, f2 = next(c2_draws(golden_rotation, sine_map, certificate_pair.radius / 2.0))
        cert = certificate_pair.forward
        _, walks = walked(monkeypatch, cert, f1, f2)
        # One f1 chain to the cover exponents serves conditions (1)-(3);
        # condition (4) walks the two ends of B through f1 and f1.inverse().
        # The cover chain's four arc ends and the one grid point that
        # pruning keeps walk on Python floats, one step per exponent and
        # point, as do the B ends, with every rotation and sine factor of f1
        # stepped inline; the f1^-1 steps call the inverse sine factor's own
        # `lift_deriv`.
        n = max(cert.cover_exponents)
        nf = max(cert.global_forward_exponents)
        nb = max(cert.global_backward_exponents)
        assert walks.sizes == [4 + 1, 2, 2]
        assert walks.steps == [n] * (4 + 1) + [nf] * 2 + [nb] * 2
        assert all(other is None for table in walks.tables[:7] for *_, other in table)
        for table in walks.tables[7:]:
            assert [type(other) for *_, other in table if other is not None] == [Inverse]

    def test_golden_sine_draws_walk_at_most_eight_grid_points_on_floats(
        self, certificate_pair, golden_rotation, sine_map, monkeypatch
    ):
        for f1, f2 in c2_draws(golden_rotation, sine_map, certificate_pair.radius / 2.0):
            for cert, h1, h2 in (
                (certificate_pair.forward, f1, f2),
                (certificate_pair.backward, f1.inverse(), f2.inverse()),
            ):
                _, walks = walked(monkeypatch, cert, h1, h2)
                n = max(cert.cover_exponents)
                nf = max(cert.global_forward_exponents)
                nb = max(cert.global_backward_exponents)
                assert walks.sizes[1:] == [2, 2]
                assert 4 + 1 <= walks.sizes[0] <= 4 + 8
                assert walks.steps == [n] * walks.sizes[0] + [nf] * 2 + [nb] * 2

    @pytest.mark.parametrize("side", ["forward", "backward"])
    def test_scalar_chain_equals_array_chain(
        self, certificate_pair, golden_rotation, sine_map, side
    ):
        # Seven points walk on Python floats; the same seven among 17 points
        # walk as one array.  The backward f1 holds an Inverse factor, so
        # its steps are Newton solves.  Both give the positions of a plain
        # `f1.lift` loop, which condition (4)'s inverse family reads.
        f1, _ = next(c2_draws(golden_rotation, sine_map, certificate_pair.radius / 2.0))
        cert = getattr(certificate_pair, side)
        f1 = f1 if side == "forward" else f1.inverse()
        assert certifier.SCALAR_VALUES < 17
        pos = cert.basin.p + np.linspace(0.0, 1.0, 17)
        deriv = np.linspace(0.5, 1.5, 17)
        exps = [*cert.cover_exponents, *cert.global_forward_exponents]
        short = certifier._power_chain(f1, pos[:7], deriv[:7], exps)
        full = certifier._power_chain(f1, pos, deriv, exps)
        assert sorted(short) == sorted(full) == sorted(set(exps))
        lifted, x = {}, pos
        for n in range(max(exps) + 1):
            lifted[n] = x
            x = f1.lift(x)
        for n in exps:
            assert short[n][0].tobytes() == full[n][0][:7].tobytes() == lifted[n][:7].tobytes()
            assert short[n][1].tobytes() == full[n][1][:7].tobytes()

    def test_ten_radius_perturbation_reattempted(
        self, certificate_pair, golden_rotation, sine_map
    ):
        # The radius is a lower bound, not sharp: at 10x the re-check must
        # complete and report a verdict either way.
        rng = np.random.Generator(np.random.Philox(key=np.array([77, 0], dtype=np.uint64)))
        f1 = perturb_map(golden_rotation, 10.0 * certificate_pair.radius, rng)
        f2 = perturb_map(sine_map, 10.0 * certificate_pair.radius, rng)
        rev = reverify_certificate(certificate_pair.forward, f1, f2)
        assert isinstance(rev.valid, bool)


@pytest.fixture(scope="module")
def sine_pairs(golden_rotation):
    return {b: certify_robust_minimality(golden_rotation, SinePerturbed(0.0, b)) for b in (-0.5, 0.5)}


class TestPrunedGrid:
    """The contraction grid walks only the points that can hold the maximum."""

    @pytest.mark.parametrize("b", [-0.5, 0.5])
    # At 3e-4, key [31, 6] gives backward inverse solves whose points
    # converge at different Newton rounds within one array.
    @pytest.mark.parametrize("size", ["radius/2", "10*radius", 1e-6, 1e-5, 1e-4, 3e-4])
    def test_equals_full_grid_bit_for_bit(self, sine_pairs, golden_rotation, b, size):
        pair = sine_pairs[b]
        if isinstance(size, str):
            size = {"radius/2": 0.5, "10*radius": 10.0}[size] * pair.radius
        g2 = SinePerturbed(0.0, b)
        outcomes = []
        for i in range(10):
            rng = np.random.Generator(np.random.Philox(key=np.array([31, i], dtype=np.uint64)))
            f1, f2 = perturb_map(golden_rotation, size, rng), perturb_map(g2, size, rng)
            for cert, h1, h2 in (
                (pair.forward, f1, f2),
                (pair.backward, f1.inverse(), f2.inverse()),
            ):
                rev = reverify_certificate(cert, h1, h2)
                lam, margins, valid = reference_reverify(cert, h1, h2)
                assert rev.lam == lam
                assert rev.margins == margins
                assert rev.valid == valid
                outcomes.append(rev.valid)
        if size >= 1e-5:
            assert not all(outcomes)  # invalid draws are compared too

    @pytest.mark.parametrize("b1", [1e-4, 1e-5])
    def test_kept_points_hold_a_moved_maximum(self, certificate_pair, b1, monkeypatch):
        # Df2 peaks mid-grid where Df1 has its steepest slope, so the maximum
        # of Dh_n sits off the argmax of Df2; at b1 = 1e-5 the rule also drops
        # about half of the grid.
        cert = certificate_pair.forward
        basin = cert.basin
        mid = basin.p + 0.5 * (basin.delta + basin.eps)
        f2 = Composition([Rotation(mid), SinePerturbed(0.0, 0.3), Rotation(-mid)])
        f1 = Composition([Rotation(mid - 0.25), SinePerturbed(0.0, b1), Rotation(0.25 - mid)])
        xs = basin.p + np.linspace(basin.delta, basin.eps, certifier.CONTRACTION_GRID + 1)
        grid_pos, grid_deriv = f2.lift_deriv(xs)
        n = max(cert.cover_exponents)
        chain = certifier._power_chain(f1, grid_pos, grid_deriv, [n])
        assert np.argmax(chain[n][1]) != np.argmax(grid_deriv)
        rev, walks = walked(monkeypatch, cert, f1, f2)
        assert evaluated(rev) == reference_reverify(cert, f1, f2)
        if b1 == 1e-5:
            assert max(walks.sizes) < 6 + certifier.CONTRACTION_GRID // 2

    def test_golden_sine_walks_at_most_eight_grid_points(
        self, certificate_pair, golden_rotation, sine_map, monkeypatch
    ):
        for f1, f2 in c2_draws(golden_rotation, sine_map, certificate_pair.radius / 2.0):
            for cert, h1, h2 in (
                (certificate_pair.forward, f1, f2),
                (certificate_pair.backward, f1.inverse(), f2.inverse()),
            ):
                rev, walks = walked(monkeypatch, cert, h1, h2)
                assert evaluated(rev) == reference_reverify(cert, h1, h2)
                assert len(walks.sizes) == 3
                assert 0 < walks.sizes[0] <= 4 + 8
                assert walks.sizes[1:] == [2, 2]
                assert len(walks.steps) == sum(walks.sizes)

    def test_wide_bound_f1_keeps_full_grid(self, certificate_pair, sine_map, monkeypatch):
        f1 = SinePerturbed(0.3, 0.5)
        for cert, h1, h2 in (
            (certificate_pair.forward, f1, sine_map),
            (certificate_pair.backward, f1.inverse(), sine_map.inverse()),
        ):
            rev, walks = walked(monkeypatch, cert, h1, h2)
            # The cover chain walks the full grid as arrays; only the two B
            # ends of the forward and inverse families walk on Python floats.
            nf, nb = max(cert.global_forward_exponents), max(cert.global_backward_exponents)
            assert walks.sizes == [4 + certifier.CONTRACTION_GRID + 1, 2, 2]
            assert walks.steps == [nf] * 2 + [nb] * 2
            assert evaluated(rev) == reference_reverify(cert, h1, h2)


class TestClaimInvariants:
    def test_random_h_words_stay_in_window(self, certificate_pair):
        # Arbitrary compositions of the h_i keep B inside (p+delta, p+eps).
        cert = certificate_pair.forward
        basin = cert.basin
        h_maps = cert.h_maps()
        window = Arc(basin.p + basin.delta, basin.eps - basin.delta)
        rng = random.Random(31)
        b_lo = basin.arc_B.start
        b_hi = b_lo + basin.arc_B.length
        for _ in range(200):
            length = rng.randint(1, 50)
            lo, hi = b_lo, b_hi
            for _ in range(length):
                h = h_maps[rng.randrange(len(h_maps))]
                lo, hi = float(h.lift(lo)), float(h.lift(hi))
            assert contains_arc(window, Arc(lo % 1.0, hi - lo))

    def test_nested_diameter_decay(self, certificate_pair):
        cert = certificate_pair.forward
        h_maps = cert.h_maps()
        rng = random.Random(32)
        b = cert.basin.arc_B
        for _ in range(100):
            length = rng.randint(1, 50)
            lo, hi = b.start, b.start + b.length
            for _ in range(length):
                h = h_maps[rng.randrange(len(h_maps))]
                lo, hi = float(h.lift(lo)), float(h.lift(hi))
            assert hi - lo <= cert.lam**length * b.length + 1e-12


class TestNestedLimit:
    def test_zero_levels(self, certificate_pair):
        cert = certificate_pair.forward
        x = float(cert.basin.arc_B.midpoint)
        res = nested_limit(cert, x, 0)
        assert len(res.word) == 0
        assert res.bound == pytest.approx(cert.basin.arc_B.length)

    def test_midpoint_twenty_levels(self, certificate_pair):
        cert = certificate_pair.forward
        x = float(cert.basin.arc_B.midpoint)
        res = nested_limit(cert, x, 20)
        assert res.error <= cert.lam**20 * cert.basin.arc_B.length

    def test_hundred_random_points(self, certificate_pair):
        cert = certificate_pair.forward
        b = cert.basin.arc_B
        rng = random.Random(33)
        y = b.start + 0.25 * b.length
        bound = cert.lam**20 * b.length
        for _ in range(100):
            x = b.start + rng.random() * b.length
            res = nested_limit(cert, x, 20, y=y)
            assert res.error <= bound

    def test_outside_point_rejected(self, certificate_pair):
        cert = certificate_pair.forward
        with pytest.raises(ValueError):
            nested_limit(cert, 0.9, 5)


class TestUniversalWord:
    def test_full_circle_gives_empty_word(self, golden_sine_ifs):
        res = find_universal_word(golden_sine_ifs, Arc(0.2, 1.0))
        assert len(res.word) == 0

    def test_single_rotation_repeats_one_letter(self, golden_rotation):
        ifs = IFS([golden_rotation])
        res = find_universal_word(ifs, Arc(0.3, 0.1), z_grid=200, max_len=100)
        assert set(res.word.letters) <= {1}
        assert 5 <= len(res.word) <= 40
        assert res.fine_verified

    def test_certified_instance(self, golden_sine_ifs):
        res = find_universal_word(golden_sine_ifs, Arc(0.3, 0.05), z_grid=1000, max_len=500)
        assert len(res.word) <= 500
        assert res.fine_verified
        assert all(t >= 0 for t in res.capture_times)

    def test_prefix_dense_sequence_enters_at_predicted_offset(self, golden_sine_ifs, fair_coin):
        # Graft the universal word into a sequence that is prefix-dense by
        # construction; the orbit must enter the target at offset + t(z).
        target = Arc(0.3, 0.05)
        res = find_universal_word(golden_sine_ifs, target, z_grid=500, max_len=500)
        prefix = fair_coin.sample(37, seed=5)
        tail = all_words_concatenated(2, 8)
        omega = concat(prefix, res.word, tail)
        x = 0.123
        z = branch_apply(golden_sine_ifs, prefix, x)
        t = capture_time(res, golden_sine_ifs, float(z))
        assert t is not None and t <= len(res.word)
        hit = branch_apply(golden_sine_ifs, omega[: len(prefix) + t], x)
        assert target.contains(float(hit))


def enters_everywhere(ifs, word, target, grid_n):
    """Every point of the grid_n-point grid enters the target along the word."""
    pos = np.arange(grid_n) / grid_n
    entered = target.contains_array(pos)
    for a in word.letters:
        pos = ifs.generators[a - 1].lift(pos) % 1.0
        entered |= target.contains_array(pos)
    return bool(entered.all())


class TestUniversalWordFallbacks:
    """The suffix and fine-grid fallbacks of `find_universal_word` on the
    golden-sine target (0.3, 0.05)."""

    def test_single_straggler_suffixes(self, golden_sine_ifs, monkeypatch):
        # No cluster suffix: every suffix steers the first survivor alone.
        bfs, spans = certifier._bfs_arc_to_target, []

        def points_only(ifs, lo, span, goal):
            spans.append(span)
            return None if span > 0.0 else bfs(ifs, lo, span, goal)

        monkeypatch.setattr(certifier, "_bfs_arc_to_target", points_only)
        target = Arc(0.3, 0.05)
        res = find_universal_word(golden_sine_ifs, target, z_grid=50)
        assert 0.0 in spans and any(span > 0.0 for span in spans)
        assert res.fine_verified and min(res.capture_times) >= 0
        assert enters_everywhere(golden_sine_ifs, res.word, res.shrunk_target, 50)
        assert enters_everywhere(golden_sine_ifs, res.word, target, 500)

    def test_suffix_search_exhausted(self, golden_sine_ifs, monkeypatch):
        monkeypatch.setattr(certifier, "UNIVERSAL_BFS_NODES", 0)
        with pytest.raises(LengthExceeded, match="^suffix search exhausted$"):
            find_universal_word(golden_sine_ifs, Arc(0.3, 0.05), z_grid=50)

    def test_fine_grid_retry_resumes_the_greedy_loop(self, golden_sine_ifs):
        # A 3-point grid leaves fine points out; the retry appends letters
        # after the last grid capture and then verifies.
        target = Arc(0.3, 0.05)
        res = find_universal_word(golden_sine_ifs, target, z_grid=3)
        assert res.fine_verified
        assert len(res.word) > max(res.capture_times)
        assert not enters_everywhere(
            golden_sine_ifs, res.word[: max(res.capture_times)], target, 30)
        assert enters_everywhere(golden_sine_ifs, res.word, target, 30)

    def test_fine_grid_verification_kept_failing(self, golden_sine_ifs, monkeypatch):
        monkeypatch.setattr(certifier, "UNIVERSAL_RETRIES", 1)
        with pytest.raises(LengthExceeded, match="^fine-grid verification kept failing$"):
            find_universal_word(golden_sine_ifs, Arc(0.3, 0.05), z_grid=3)


class TestPerturbations:
    def test_requested_c1_size_achieved(self, golden_rotation, sine_map):
        # `size` bounds sup |F - G| + sup |DF - DG| and is exact for a rotation.
        rng = np.random.Generator(np.random.Philox(key=np.array([3, 4], dtype=np.uint64)))
        bases = (
            Composition([golden_rotation, sine_map]),
            sine_map.inverse(),
            Power(sine_map, 3),
        )
        for size in (1e-3, 1e-6, 1e-9):
            f = perturb_map(golden_rotation, size, rng)
            assert c1_distance(f, golden_rotation) == pytest.approx(size, rel=1e-6)
            for g in (sine_map, *bases):
                assert c1_distance(perturb_map(g, size, rng), g) <= size * (1.0 + 1e-6)

    def test_infinite_derivative_bound_gets_a_shift(self, sine_map):
        g = Inverse(Power(sine_map, 1200))
        assert g.deriv_bounds()[1] == math.inf
        rng = np.random.Generator(np.random.Philox(key=np.array([3, 6], dtype=np.uint64)))
        bump = perturb_map(g, 1e-3, rng).maps[1]
        assert bump.b == 0.0
        assert abs(bump.a) == pytest.approx(1e-3, rel=1e-12)

    def test_zero_size_is_identity(self, sine_map):
        rng = np.random.Generator(np.random.Philox(key=np.array([3, 5], dtype=np.uint64)))
        assert perturb_map(sine_map, 0.0, rng) is sine_map
