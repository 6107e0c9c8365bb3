"""The numpy stand-ins in rtpc.numerics against their scipy originals, and
its block-wise order statistics against np.sort.

Every stand-in comparison is exact (np.array_equal): the stand-ins replace
scipy on the analysis path, and the reports must stay bit for bit what scipy
gave. The upsampling spline of rtpc.cycles is checked against scipy's within
a tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.interpolate import CubicSpline
from scipy.signal import find_peaks as scipy_find_peaks
from scipy.signal import welch as scipy_welch

from helpers import run_fresh, signals

from rtpc import numerics
from rtpc.cycles import resample
from rtpc.io import SampledSignal
from rtpc.report import UPSAMPLE_FACTOR

FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


@st.composite
def plateau_signals(draw, min_size=0, max_size=60):
    """Small-integer levels, each repeated 1-4 times: plateaus of odd and
    even length, tied heights and peaks at the edges are all common."""
    levels = draw(st.lists(st.integers(-4, 4), min_size=min_size, max_size=max_size))
    repeats = draw(st.lists(st.integers(1, 4), min_size=len(levels), max_size=len(levels)))
    scale = draw(st.sampled_from([1.0, 0.1, 1e3]))
    return np.repeat(np.asarray(levels, dtype=np.float64), repeats) * scale


class TestLocalMaxima:
    @settings(max_examples=400, deadline=None)
    @given(x=plateau_signals())
    def test_matches_find_peaks(self, x):
        for signal in (x, -x):
            expected, _ = scipy_find_peaks(signal)
            assert np.array_equal(numerics.local_maxima(signal), expected)

    @settings(max_examples=400, deadline=None)
    @given(x=st.lists(st.floats(-1e3, 1e3, allow_nan=False), max_size=60).map(np.asarray))
    def test_matches_find_peaks_without_plateaus(self, x):
        x = x.astype(np.float64)
        for signal in (x, -x):
            expected, _ = scipy_find_peaks(signal)
            got = numerics.local_maxima(signal)
            assert got.dtype == np.intp
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("x", [
        [0, 1, 1, 0],            # even plateau: the left middle
        [0, 1, 1, 1, 0],         # odd plateau
        [1, 0, 1],               # edge samples are never peaks
        [0, 1, 1],               # plateau running into the last sample
        [2, 2, 2],
        [0, 2, 1, 2, 0, 2, 2, 0],
    ])
    def test_examples(self, x):
        x = np.asarray(x, dtype=np.float64)
        assert np.array_equal(numerics.local_maxima(x), scipy_find_peaks(x)[0])


class TestFindPeaks:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_find_peaks(self, data):
        x = data.draw(plateau_signals(min_size=1))
        distance = data.draw(st.integers(1, max(1, x.size)))
        prominence = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]) | st.floats(0.0, 10.0))
        expected, _ = scipy_find_peaks(x, distance=distance, prominence=prominence)
        assert np.array_equal(numerics.find_peaks(x, distance, prominence), expected)

    def test_tied_heights_resolve_as_scipy(self):
        x = np.array([0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0], dtype=np.float64)
        for distance in range(1, x.size + 1):
            expected, _ = scipy_find_peaks(x, distance=distance, prominence=1.0)
            assert np.array_equal(numerics.find_peaks(x, distance, 1.0), expected)


class TestNaturalCubicSpline:
    """cycles.resample against scipy's natural CubicSpline on the same grid:
    within 1e-10 * max|y|, since resample solves the uniform-grid system in
    units of the sample spacing rather than replaying scipy's steps."""

    @staticmethod
    def assert_close(flow):
        factor = UPSAMPLE_FACTOR
        t = flow.times
        tt = np.minimum(flow.t0_s + np.arange((len(flow) - 1) * factor + 1) * (flow.dt_s / factor),
                        t[-1])
        expected = CubicSpline(t, flow.values, bc_type="natural")(tt)
        got = resample(flow).values
        assert np.abs(got - expected).max() <= 1e-10 * np.abs(flow.values).max()

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=4, max_size=80),
        t0=st.floats(-100.0, 100.0),
        dt=st.sampled_from([0.075, 0.01, 0.5, 1.0, 0.004, 1 / 3]),
    )
    def test_matches_cubic_spline(self, values, t0, dt):
        self.assert_close(SampledSignal(t0_s=t0, dt_s=dt, values=np.asarray(values), kind="flow"))

    def test_full_size_artery(self):
        flow, _, _ = signals(duration_s=600.0, artifacts={"noise_sd": 20.0}, seed=1)
        assert len(flow) == 8000
        self.assert_close(flow)


class TestWelch:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_welch(self, data):
        n = data.draw(st.integers(64, 600))
        nperseg = data.draw(st.sampled_from([min(256, n), n]) | st.integers(8, n))
        fs = data.draw(st.sampled_from([1 / 0.075, 20.0, 25.0, 17.3, 1000.0]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.normal(size=n).cumsum() * data.draw(st.sampled_from([1.0, 1e-3, 700.0]))
        freqs, power = numerics.welch(x, fs, nperseg)
        expected_freqs, expected_power = scipy_welch(x, fs=fs, nperseg=nperseg, detrend="constant")
        assert np.array_equal(freqs, expected_freqs)
        assert np.array_equal(power, expected_power)


def label_component(frame_above: np.ndarray, row: int, col: int) -> np.ndarray:
    if not frame_above[row, col]:
        return np.zeros_like(frame_above)
    labels, _ = ndimage.label(frame_above, structure=FOUR_CONNECTED)
    return labels == labels[row, col]


class TestSeedComponent:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_label(self, data):
        n = data.draw(st.integers(1, 6))
        height, width = data.draw(st.integers(1, 90)), data.draw(st.integers(1, 90))
        # Densities around the percolation threshold give components that
        # reach the seed window's edge and the image edge.
        density = data.draw(st.floats(0.2, 0.8))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        frames = np.where(rng.random((n, height, width)) < density, 2.0, 0.5).astype(np.float32)
        frames *= rng.choice([-1.0, 1.0], size=frames.shape).astype(np.float32)
        row, col = data.draw(st.integers(0, height - 1)), data.draw(st.integers(0, width - 1))
        got = numerics.seed_component(frames, 1.0, row, col)
        expected = np.zeros((height, width), dtype=bool)
        for frame in frames:
            expected |= label_component(np.abs(frame) >= 1.0, row, col)
        assert got.shape == (height, width) and np.array_equal(got, expected)

    def test_long_component_and_chunk_boundary(self):
        # A ring wider than any starting window, in more frames than a chunk,
        # interleaved with frames whose fill stops growing at other steps.
        height = width = 120
        yy, xx = np.mgrid[0:height, 0:width]
        radius = np.hypot(yy - 60, xx - 60)
        frames = np.where((radius > 40) & (radius < 44), 3.0, 0.0)
        frames = np.repeat(frames[None], 300, axis=0).astype(np.float32)
        frames[::7, 60, 17:23] = 0.0  # cut the ring in some frames
        frames[3::11, 17:23, 60] = 0.0  # and elsewhere in others: arcs of two lengths
        row, col = 60, 102
        frames[1::5, row, col] = 0.0  # seed below threshold: never grows
        isolated = frames[2::5]
        isolated[:, row - 1 : row + 2, col] = 0.0
        isolated[:, row, col - 1 : col + 2] = 0.0
        isolated[:, row, col] = 3.0  # a one-pixel component
        components = [label_component(frame >= 1.0, row, col) for frame in frames]
        sizes = {int(c.sum()) for c in components}
        assert {0, 1} <= sizes and len(sizes) >= 5
        # The union is the OR of the frames' components: of one cut ring, of a
        # frame below threshold and a one-pixel one, of a ring cut elsewhere,
        # and of all frames, over two chunks.
        for part in (slice(0, 1), slice(1, 3), slice(3, 4), slice(0, 300)):
            expected = np.logical_or.reduce(components[part])
            assert np.array_equal(numerics.seed_component(frames[part], 1.0, row, col), expected), part


class TestDistanceBand:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_distance_transform(self, data):
        height, width = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        mask = rng.random((height, width)) < data.draw(st.floats(0.0, 0.4))
        for edge in data.draw(st.lists(st.sampled_from(["top", "bottom", "left", "right"]))):
            line = {"top": mask[0], "bottom": mask[-1], "left": mask[:, 0], "right": mask[:, -1]}[edge]
            line[rng.integers(0, line.size)] = True
        mask[rng.integers(0, height), rng.integers(0, width)] = True
        # sqrt of an integer hits the band limits exactly.
        limit = st.sampled_from([1.0, 2.0, np.sqrt(5.0), 3.0, 6.0, np.sqrt(40.0)]) | st.floats(0.1, 12.0)
        inner, outer = sorted((data.draw(limit), data.draw(limit)))
        distance = ndimage.distance_transform_edt(~mask)
        expected = (distance >= inner) & (distance <= outer)
        assert np.array_equal(numerics.distance_band(mask, inner, outer), expected)

    def test_full_mask_has_no_band(self):
        assert not numerics.distance_band(np.ones((5, 7), dtype=bool), 1.0, 6.0).any()


def float32_values():
    """float32 values where ties, zeros of both signs, subnormals and the
    ends of the float32 range are common."""
    special = st.sampled_from([0.0, -0.0, 1e-45, -1e-45, 1.1e-38, -3e-39, 3.4e38, -3.4e38, 1.5, -1.5])
    return special | st.floats(-20.0, 20.0, width=32) | st.floats(width=32, allow_nan=False)


def same_bits(got, expected) -> bool:
    """Equal value, dtype and bits, so -0.0 differs from +0.0 and NaN equals NaN."""
    got, expected = np.asarray(got), np.asarray(expected)
    return got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


@st.composite
def order_samples(draw, dtype):
    """1-D arrays of odd and even sizes from 1 up, where ties, zeros of both
    signs and, now and then, a NaN are common."""
    width = 32 if dtype == np.float32 else 64
    special = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5])
    value = special | st.floats(-1e3, 1e3, width=width) | st.floats(width=width, allow_nan=False)
    values = draw(st.lists(value, min_size=1, max_size=40))
    if draw(st.integers(0, 9)) == 0:
        values[draw(st.integers(0, len(values) - 1))] = math.nan
    return np.array(values, dtype=dtype)


class TestOrderStatistics:
    """median, quantile and distinct against np.median, np.quantile,
    np.percentile and np.unique, bit for bit, and none loads numpy.ma."""

    @settings(max_examples=600, deadline=None)
    @given(values=order_samples(np.float64), overwrite=st.booleans())
    def test_median(self, values, overwrite):
        given_values = values.copy()
        with np.errstate(all="ignore"):  # inf - inf and the like, on both sides
            expected = np.median(values)
            got = numerics.median(given_values, overwrite_input=overwrite)
        assert same_bits(got, expected)
        if not overwrite:
            assert same_bits(given_values, values)

    @settings(max_examples=400, deadline=None)
    @given(values=st.lists(float32_values(), min_size=1, max_size=60), overwrite=st.booleans())
    def test_median_of_float32(self, values, overwrite):
        """A float32 median is np.median of the float64 values, bit for bit,
        but for the sign of a zero median, which follows the float32 partition."""
        values = np.array(values, dtype=np.float32)
        given_values = values.copy()
        with np.errstate(all="ignore"):  # inf - inf, on both sides
            expected = np.median(values.astype(np.float64))
            got = numerics.median(given_values, overwrite_input=overwrite)
        assert got.dtype == np.float64
        if expected == 0.0:
            assert got == expected
        else:
            assert same_bits(got, expected)
        if not overwrite:
            assert same_bits(given_values, values)

    @settings(max_examples=600, deadline=None)
    @given(data=st.data())
    def test_quantile(self, data):
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        values = data.draw(order_samples(dtype))
        q = data.draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.99, 1.0]) | st.floats(0.0, 1.0))
        with np.errstate(all="ignore"):
            expected = np.quantile(values, q)
            assert same_bits(numerics.quantile(values.copy(), q), expected)
            assert same_bits(numerics.quantile(values.copy(), q, overwrite_input=True), expected)

    @settings(max_examples=300, deadline=None)
    @given(values=order_samples(np.float32), p=st.sampled_from([99.0, 25.0, 50.0, 100.0, 0.0]))
    def test_percentile_is_quantile_over_100(self, values, p):
        with np.errstate(all="ignore"):
            expected = np.percentile(values.copy(), p, overwrite_input=True)
            got = numerics.quantile(values.copy(), p / 100, overwrite_input=True)
        assert same_bits(got, expected)
        assert 99.0 / 100 == 0.99  # the form segment_roi writes

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.integers(-3, 3), max_size=40) | st.lists(
        st.sampled_from([0.5, 1.5, 2.0, -0.0, 0.0, 7.25]), max_size=40))
    def test_distinct(self, values):
        values = np.array(values, dtype=np.float64 if any(isinstance(v, float) for v in values)
                          else np.intp)
        got_values, got_counts = numerics.distinct(values)
        expected_values, expected_counts = np.unique(values, return_counts=True)
        assert np.array_equal(got_values, expected_values)
        assert same_bits(got_counts, expected_counts)

    def test_no_numpy_ma(self):
        script = """
import json, sys
import numpy as np
from rtpc import numerics
x = np.array([3.0, -0.0, 1.0, 2.0])
numerics.median(x), numerics.quantile(x, 0.25), numerics.distinct(x)
print(json.dumps("numpy.ma" in sys.modules))
"""
        loaded, _ = run_fresh(script)
        assert loaded is False
