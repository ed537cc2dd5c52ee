"""Property tests for the lift invariants over random nested maps, for the
scalar sine path against numpy's, for the float-in, float-out scalar paths
of every map kind, for a composition's step table against the per-factor
loop, for the scalar word walks of an IFS against per-letter method loops,
for the float walk of a certificate power chain against the array chain and
a per-step method loop,
for certificate JSON round trips, for the column-wise CSV writer
against the per-row writer it replaced, for `Arc.contains_span`
against the arc-in-arc test of the tests, for `_frac` against np.mod, and
for `CirclePoint` and `Arc` starts and orbit rows landing in [0, 1).

Maps are trees of depth <= 2 over rotations and sine maps, whose inner
nodes compose two maps, raise one to a power |n| <= 2 or invert it.  A
tree applies at most 4 sine maps with |b| <= 0.5, so every derivative lies
in [0.5^4, 1.5^4] and the errors of the 1e-12 inverse solves stay well
inside every tolerance used here.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from circle_ifs.certifier import (  # noqa: E402
    MARGIN_KEYS,
    SCALAR_VALUES,
    BasinData,
    Certificate,
    CertificatePair,
    _power_chain,
)
from circle_ifs.circle_maps import (  # noqa: E402
    Arc,
    CirclePoint,
    Composition,
    Inverse,
    MAX_POWER,
    Power,
    Rotation,
    SinePerturbed,
    _frac,
)
from circle_ifs.cli import canonical_json, csv_text  # noqa: E402
from circle_ifs.ifs_core import IFS, _word_lift, branch_deriv, orbit_to_csv_rows  # noqa: E402
from word_helpers import contains_arc  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

rotations = st.builds(Rotation, st.floats(-1.0, 1.0))
sines = st.builds(SinePerturbed, st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.integers(1, 2))
leaves = st.one_of(rotations, sines)


def trees(depth):
    if depth == 0:
        return leaves
    children = trees(depth - 1)
    return st.one_of(
        leaves,
        st.lists(children, min_size=1, max_size=2).map(Composition),
        st.builds(Power, children, st.integers(-2, 2)),
        st.builds(Inverse, children),
    )


maps = trees(2)
points = st.floats(-2.0, 2.0)


@PROPERTY
@given(maps, points)
def test_lift_has_degree_one(f, x):
    assert abs(f.lift(x + 1.0) - (f.lift(x) + 1.0)) <= 1e-9


@PROPERTY
@given(maps, points, st.floats(1e-4, 1.0))
def test_lift_is_strictly_increasing(f, x, gap):
    assert f.lift(x) < f.lift(x + gap)


@PROPERTY
@given(maps, points)
def test_inverse_round_trip(f, x):
    assert abs(f.inverse_lift(f.lift(x)) - x) <= 1e-9
    assert abs(f.lift(f.inverse().lift(x)) - x) <= 1e-9


@PROPERTY
@given(maps, points)
def test_lift_deriv_against_central_difference(f, x):
    h = 1e-4
    value, d = f.lift_deriv(x)
    assert value == f.lift(x)
    central = (f.lift(x + h) - f.lift(x - h)) / (2.0 * h)
    assert d == pytest.approx(central, rel=1e-3)
    xs = np.array([x, x + 0.25])
    values, ds = f.lift_deriv(xs)
    assert ds.shape == xs.shape
    assert np.array_equal(values, f.lift(xs))


@PROPERTY
@given(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.01, 0.99),
       st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_min=True),
       st.integers(-3, 3))
def test_contains_span_matches_contains_arc(start, length, lo, span, turns):
    # Any lift of the inner arc's start gives the same answer.  Near the
    # boundary, or where the offset wraps, the two roundings may differ.
    outer, inner = Arc(start, length), Arc(lo, span)
    offset = (inner.start - outer.start) % 1.0
    assume(min(offset, 1.0 - offset, abs(offset + span - length)) > 1e-12)
    assert outer.contains_span(inner.start + turns, span) == contains_arc(outer, inner)


def _bits(v):
    return float(v).hex()


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    st.builds(SinePerturbed, st.floats(-1.0, 1.0), st.floats(-0.99, 0.99), st.integers(1, 3)),
    st.floats(-1e4, 1e4),
)
def test_scalar_sine_matches_one_element_array(f, x):
    # A Python float takes math.sin/math.cos: equal bits need numpy's
    # float64 sin and cos to agree with the platform libm.
    xs = np.array([x])
    value, d = f.lift_deriv(x)
    values, ds = f.lift_deriv(xs)
    assert type(f.lift(x)) is type(f.deriv(x)) is type(value) is type(d) is float
    assert _bits(f.lift(x)) == _bits(f.lift(xs)[0]) == _bits(value) == _bits(values[0])
    assert _bits(f.deriv(x)) == _bits(f.deriv(xs)[0]) == _bits(d) == _bits(ds[0])


# Each map kind with a scalar path, translation and sine bases for Power.
scalar_maps = st.one_of(
    rotations,
    sines,
    st.lists(maps, min_size=1, max_size=2).map(Composition),
    st.builds(Power, rotations, st.integers(-2, 2)),
    st.builds(Power, sines, st.integers(-2, 2)),
    st.builds(Inverse, maps),
)
translations = st.one_of(
    rotations,
    st.lists(rotations, min_size=1, max_size=3).map(Composition),
    st.builds(Power, rotations, st.integers(-2, 2)),
    st.builds(Inverse, rotations),
)


@PROPERTY
@given(scalar_maps, points)
def test_python_float_stays_a_python_float(f, x):
    # A Python float takes the scalar path and comes back as one; numpy
    # scalars and 0-d arrays reach the same bits by their own path.
    y = f.inverse_lift(x)
    assert type(f.deriv(x)) is type(f.lift_deriv(x)[1]) is type(y) is float
    assert _bits(y) == _bits(f.inverse_lift(np.float64(x))) == _bits(f.inverse_lift(np.array(x)))


def reference_composition_lift_deriv(f, x):
    """`Composition.lift_deriv` as a loop over its factors, last first,
    asking each factor at every call whether it is a translation."""
    total = None
    for m in reversed(f.maps):
        if m.as_translation() is not None:
            x = m.lift(x)
            continue
        x, d = m.lift_deriv(x)
        total = d if total is None else total * d
    return x, (1.0 if np.ndim(x) == 0 else np.ones(np.shape(x))) if total is None else total


@PROPERTY
@given(st.lists(st.one_of(maps, translations), min_size=1, max_size=5).map(Composition),
       points, st.lists(points, min_size=1, max_size=6))
def test_composition_step_table_equals_factor_loop(f, x, xs):
    # `translations` mixes rotations, Power(Rotation, n) and
    # Inverse(Rotation) in among the sine and nested factors.
    for v in (x, np.array(xs)):
        value, d = f.lift_deriv(v)
        ref_value, ref_d = reference_composition_lift_deriv(f, v)
        assert type(value) is type(ref_value) and type(d) is type(ref_d)
        assert np.asarray(value).tobytes() == np.asarray(ref_value).tobytes()
        assert np.asarray(d).tobytes() == np.asarray(ref_d).tobytes()
        assert np.asarray(f.lift(v)).tobytes() == np.asarray(ref_value).tobytes()


@PROPERTY
@given(translations, points, st.lists(points, min_size=1, max_size=6))
def test_translation_deriv_is_exactly_one(f, x, xs):
    for v in (x, np.float64(x), np.array(x)):
        d = f.deriv(v)
        assert type(d) is float and d == 1.0
    for arr in (np.array(xs), np.array(xs).reshape(-1, 1)):
        d = f.deriv(arr)
        assert d.shape == arr.shape and np.array_equal(d, np.ones(arr.shape))


def reference_walks(gens, letters, x):
    """`_word_lift`, `orbit_to_csv_rows` and `branch_deriv` as loops that
    call each letter's `lift` and `lift_deriv`."""
    lifted, pos, dpos, total = float(x), float(x) % 1.0, float(x) % 1.0, 1.0
    rows = []
    for a in letters:
        g = gens[a - 1]
        lifted = g.lift(lifted)
        pos = float(CirclePoint(g.lift(pos)))
        rows.append(pos)
        value, d = g.lift_deriv(dpos)
        total *= float(d)
        dpos = value % 1.0
    return lifted, rows, total


# Every map kind, sine maps with b = 0 and two harmonics, and compositions
# of rotations, which the walks must not fold into one shift.
step_generators = st.one_of(
    rotations,
    sines,
    st.builds(SinePerturbed, st.floats(-0.5, 0.5), st.just(0.0), st.just(2)),
    st.lists(rotations, min_size=2, max_size=3).map(Composition),
    maps,
)


@PROPERTY
@given(st.lists(step_generators, min_size=1, max_size=4),
       st.lists(st.integers(0, 99), max_size=24), points)
# (0.7 + 0.2) + 0.1 is 0.9999999999999999, 0.7 + (0.1 + 0.2) is 1.0, and
# (b / w) * w is not b at b = 0.4.
@example([Composition([Rotation(0.1), Rotation(0.2)]), SinePerturbed(0.1, 0.0, 2),
          SinePerturbed(0.05, 0.4)], [0, 1, 0, 1, 2, 2, 0, 2], 0.7)
def test_scalar_walks_equal_per_letter_loops(gens, picks, x):
    ifs = IFS(gens)
    letters = [p % len(gens) + 1 for p in picks]
    lifted, rows, total = reference_walks(gens, letters, x)
    assert _bits(_word_lift(ifs, letters, x)) == _bits(lifted)
    assert [_bits(v) for v in orbit_to_csv_rows(ifs, letters, x)] == [_bits(v) for v in rows]
    assert _bits(branch_deriv(ifs, letters, x)) == _bits(total)


def reference_chain(f, x, deriv, exponents):
    """`_power_chain` of one point as a loop of `f.lift_deriv`, one per
    step, with the position of a plain `f.lift` loop as a third entry."""
    out = {}
    y = x
    for n in range(max(exponents) + 1):
        if n in exponents:
            out[n] = (x, deriv, y)
        x, d = f.lift_deriv(x)
        deriv = deriv * d
        y = f.lift(y)
    return out


# Rotations, sine maps (b = 0 and two harmonics too), Inverse(sine), Power
# and rotation-only factors, alone or composed, so two sine factors meet.
chain_factors = st.one_of(
    rotations,
    sines,
    st.builds(SinePerturbed, st.floats(-0.5, 0.5), st.just(0.0), st.integers(1, 2)),
    st.builds(Inverse, sines),
    st.builds(Power, sines, st.integers(-2, 2)),
    translations,
)
chain_maps = st.one_of(
    chain_factors, st.lists(chain_factors, min_size=1, max_size=4).map(Composition)
)


@PROPERTY
@given(chain_maps, st.lists(points, min_size=1, max_size=SCALAR_VALUES),
       st.lists(st.floats(0.5, 1.5), min_size=SCALAR_VALUES, max_size=SCALAR_VALUES),
       st.lists(st.integers(0, 6), min_size=1, max_size=4))
# Two sine factors: deriv * (d1 * d2), the grouping of Composition.lift_deriv,
# is not (deriv * d1) * d2 here.
@example(Composition([SinePerturbed(0.1, 0.3), SinePerturbed(0.2, -0.4)]),
         [0.3], [0.7] * SCALAR_VALUES, [1, 3])
def test_float_chain_equals_array_chain_and_step_loop(f, xs, derivs, exponents):
    # The positions are also those of a plain `f.lift` loop: condition
    # (4)'s inverse family reads only them.
    assume(f.as_translation() is None)
    k = len(xs)
    pos = np.array(xs + [0.5] * (SCALAR_VALUES + 1 - k))  # past SCALAR_VALUES: the array chain
    deriv = np.array(derivs + [1.0])
    short = _power_chain(f, pos[:k], deriv[:k], exponents)
    full = _power_chain(f, pos, deriv, exponents)
    for i, x in enumerate(xs):
        ref = reference_chain(f, x, derivs[i], exponents)
        for n in exponents:
            assert (_bits(short[n][0][i]) == _bits(full[n][0][i]) == _bits(ref[n][0])
                    == _bits(ref[n][2]))
            assert _bits(short[n][1][i]) == _bits(full[n][1][i]) == _bits(ref[n][1])


@pytest.mark.parametrize("k", [0, 3, SCALAR_VALUES + 1])  # no points, floats, arrays
@pytest.mark.parametrize("f", [SinePerturbed(0.1, 0.3), Inverse(SinePerturbed(0.2, -0.4))])
def test_power_chain_of_no_points_or_no_steps(f, k):
    pos, deriv = np.linspace(0.1, 0.9, k), np.linspace(0.5, 1.5, k)
    assert _power_chain(f, pos, deriv, []) == {}
    chain = _power_chain(f, pos, deriv, [0, 0])
    assert list(chain) == [0]
    assert chain[0][0].tobytes() == pos.tobytes()
    assert chain[0][1].tobytes() == deriv.tobytes()
    chain = _power_chain(f, pos, deriv, [3, 0, 1])
    assert sorted(chain) == [0, 1, 3]
    assert all(x.shape == d.shape == (k,) for x, d in chain.values())


reals = st.floats(allow_nan=False, allow_infinity=False)
exponents = st.lists(st.integers(0, MAX_POWER), min_size=1, max_size=20).map(tuple)
arcs = st.builds(
    Arc,
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, 1.0, exclude_min=True),
)
certificates = st.builds(
    Certificate,
    direction=st.sampled_from(["forward", "backward"]),
    label=st.text(max_size=12),
    generators=st.tuples(maps, maps),
    basin=st.builds(
        BasinData,
        p=reals, eps=reals, delta=reals, arc_A=arcs, arc_B=arcs, arc_D=arcs, deriv_margin=reals,
    ),
    cover_exponents=exponents,
    lam=reals,
    global_forward_exponents=exponents,
    global_backward_exponents=exponents,
    margins=st.fixed_dictionaries({k: reals for k in MARGIN_KEYS}),
    radius=reals,
)


@PROPERTY
@given(certificates)
def test_certificate_json_round_trip(cert):
    text = canonical_json(cert.to_json())
    back = Certificate.from_json(json.loads(text))
    assert back == cert
    # Field equality compares floats with ==; the text also pins the bits.
    assert canonical_json(back.to_json()) == text


@PROPERTY
@given(certificates, certificates)
def test_certificate_pair_json_round_trip(forward, backward):
    # A pair certifies one system: the backward side carries the inverses
    # of the forward generators and the forward label.
    inverses = tuple(g.inverse() for g in forward.generators)
    pair = CertificatePair(
        replace(forward, direction="forward"),
        replace(backward, direction="backward", generators=inverses, label=forward.label),
    )
    text = canonical_json(pair.to_json())
    back = CertificatePair.from_json(json.loads(text))
    assert back == pair
    assert canonical_json(back.to_json()) == text
    # Each side's direction must be its key, so swapped sides are rejected.
    swapped = json.loads(text)
    swapped["forward"], swapped["backward"] = swapped["backward"], swapped["forward"]
    with pytest.raises(ValueError, match=r"^forward\.direction: "):
        CertificatePair.from_json(swapped)


def reference_csv_text(header, rows):
    """The per-row, per-cell CSV writer that the column-wise one replaced."""

    def cell(v):
        if isinstance(v, bool):
            return "1" if v else "0"
        if isinstance(v, float):
            return repr(float(v))
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


floats = st.one_of(st.floats(), st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]))
cell_kinds = [
    st.integers(-(10**20), 10**20),
    st.booleans(),
    floats,
    floats.map(np.float64),
    st.sampled_from(["attracting", "repelling"]),
]
cell_kinds.append(st.one_of(*cell_kinds))


@st.composite
def tables(draw):
    """Equally long columns, each of one cell kind or of mixed kinds."""
    n_rows = draw(st.integers(0, 6))
    return [
        draw(st.lists(draw(st.sampled_from(cell_kinds)), min_size=n_rows, max_size=n_rows))
        for _ in range(draw(st.integers(1, 5)))
    ]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tables())
def test_csv_text_matches_per_row_writer(columns):
    header = [f"c{i}" for i in range(len(columns))]
    assert csv_text(header, columns) == reference_csv_text(header, list(zip(*columns)))


@PROPERTY
@given(maps, st.lists(points, min_size=1, max_size=40))
# Newton does not converge at the two y near -1.4 and 2.6 in 12 steps (b
# near 1), so the bisection runs there, next to points that Newton solves.
@example(SinePerturbed(0.1, 0.999), [-1.400148964057951, 0.3, -0.7, 2.5998366533223374])
def test_array_inverse_equals_scalar_solves(f, ys):
    # Each entry is solved on its own, whatever else shares the array.
    assert f.inverse_lift(np.array(ys)).tolist() == [f.inverse_lift(y) for y in ys]


# Negative values, signed zeros, subnormals, values next to an integer and
# large magnitudes: every case where x mod 1 rounds or is exact.
near_integers = st.builds(
    lambda n, up: float(np.nextafter(float(n), np.inf if up else -np.inf)),
    st.integers(-10**6, 10**6), st.booleans(),
)
frac_inputs = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.floats(-1e6, 1e6), st.floats(-1e-300, 1e-300), near_integers,
)


@PROPERTY
@given(st.lists(frac_inputs, min_size=1, max_size=50))
@example([0.0, -0.0, 5e-324, -5e-324, -1e-17, -1.0, 1.0 - 2**-53, -(2.0**52) - 0.5, 1e308])
def test_frac_equals_np_mod_bit_for_bit(xs):
    x = np.array(xs)
    assert _frac(x).tobytes() == np.mod(x, 1.0).tobytes()


@PROPERTY
@given(frac_inputs, st.floats(-2.0**-52, 0.0))
@example(-(2.0**-54), -5e-324)
def test_circle_point_and_arc_start_lie_in_unit_interval(x, tiny):
    # Python's % rounds values in [-2^-54, 0) up to 1.0, the point 0.0.
    for value in (x, tiny):
        assert 0.0 <= CirclePoint(value) < 1.0
        assert 0.0 <= Arc(value, 0.5).start < 1.0


@PROPERTY
@given(st.floats(-(2.0**-50), 0.0, exclude_max=True), frac_inputs, st.integers(1, 8))
@example(-5e-324, 0.0, 1)
@example(-(2.0**-54), 1.0, 3)
def test_orbit_rows_lie_in_unit_interval(alpha, x, n):
    # A rotation by a tiny negative angle takes points just above an
    # integer to lifts just below it, which Python's % rounds up to 1.0.
    rows = orbit_to_csv_rows(IFS([Rotation(alpha)]), [1] * n, x)
    assert len(rows) == n and all(0.0 <= v < 1.0 for v in rows)
