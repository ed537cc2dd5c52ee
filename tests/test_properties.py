"""Property tests for the lift invariants over random nested maps.

Maps are trees of depth <= 2 over rotations and sine maps, whose inner
nodes compose two maps, raise one to a power |n| <= 2 or invert it.  A
tree applies at most 4 sine maps with |b| <= 0.5, so every derivative lies
in [0.5^4, 1.5^4] and the errors of the 1e-12 inverse solves stay well
inside every tolerance used here.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from circle_ifs.circle_maps import (  # noqa: E402
    Composition,
    Inverse,
    Power,
    Rotation,
    SinePerturbed,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

leaves = st.one_of(
    st.builds(Rotation, st.floats(-1.0, 1.0)),
    st.builds(
        SinePerturbed,
        st.floats(-0.5, 0.5),
        st.floats(-0.5, 0.5),
        st.integers(1, 2),
    ),
)


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
