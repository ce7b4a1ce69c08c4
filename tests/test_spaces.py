"""Unit tests for action-space descriptors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.spaces import Box, Discrete


class TestDiscrete:
    def test_sample_in_range(self):
        space = Discrete(5)
        rng = np.random.default_rng(0)
        samples = [space.sample(rng) for _ in range(100)]
        assert all(0 <= s < 5 for s in samples)
        assert len(set(samples)) > 1

    def test_contains(self):
        space = Discrete(3)
        assert space.contains(0)
        assert space.contains(np.int64(2))
        assert not space.contains(3)
        assert not space.contains(-1)
        assert not space.contains(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Discrete(0)


class TestBox:
    def test_sample_within_bounds(self):
        space = Box(dim=3, low=-2.0, high=2.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            sample = space.sample(rng)
            assert space.contains(sample)

    def test_contains_checks_shape_and_bounds(self):
        space = Box(dim=2)
        assert space.contains(np.zeros(2))
        assert not space.contains(np.zeros(3))
        assert not space.contains(np.array([0.0, 2.0]))

    def test_clip(self):
        space = Box(dim=2, low=-1.0, high=1.0)
        clipped = space.clip(np.array([5.0, -5.0]))
        np.testing.assert_array_equal(clipped, [1.0, -1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            Box(dim=0)
        with pytest.raises(ValueError):
            Box(dim=1, low=1.0, high=-1.0)
        with pytest.raises(ValueError, match="NaN"):
            Box(dim=1, low=float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            Box(dim=1, high=float("nan"))


_BOUNDS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([-1.0, 1.0, 0.0, -0.0, -np.inf, np.inf]),
)


def _clip_inputs(low: float, high: float):
    """Floats that stress a clip to [low, high]: specials, the bounds
    themselves and their neighbours just outside."""
    with np.errstate(over="ignore"):  # nextafter(±max float) is ±inf
        outside = [np.nextafter(low, -np.inf), np.nextafter(high, np.inf)]
    edges = [low, high, *outside]
    specials = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324]
    return st.one_of(st.floats(), st.sampled_from(edges + specials))


def _assert_same_as_np_clip(space: Box, value) -> None:
    expected = np.clip(np.asarray(value, dtype=np.float64), space.low, space.high)
    got = space.clip(value)
    assert type(got) is type(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


class TestBoxClipMatchesNpClip:
    """``Box.clip`` is ``np.clip`` byte for byte (NaN payloads, ``±inf``,
    ``-0.0``, out-of-range values and the bounds themselves), on arrays
    and on scalars."""

    @settings(max_examples=300, deadline=None)
    @given(bounds=st.tuples(_BOUNDS, _BOUNDS), data=st.data())
    def test_arrays(self, bounds, data):
        low, high = sorted(bounds)
        if not low < high:
            low, high = -1.0, 1.0
        space = Box(dim=1, low=low, high=high)
        values = data.draw(st.lists(_clip_inputs(low, high), max_size=40))
        array = np.array(values, dtype=np.float64)
        _assert_same_as_np_clip(space, array)
        if len(values) % 2 == 0:
            _assert_same_as_np_clip(space, array.reshape(2, -1))

    @settings(max_examples=300, deadline=None)
    @given(bounds=st.tuples(_BOUNDS, _BOUNDS), data=st.data())
    def test_scalars(self, bounds, data):
        low, high = sorted(bounds)
        if not low < high:
            low, high = -1.0, 1.0
        space = Box(dim=1, low=low, high=high)
        value = data.draw(_clip_inputs(low, high))
        _assert_same_as_np_clip(space, value)
        _assert_same_as_np_clip(space, np.float64(value))
        _assert_same_as_np_clip(space, np.array(value))
