import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import estimate_background, images, run_fresh, signals

from rtpc import extraction

from rtpc.errors import (
    EmptySegmentation,
    GridMismatch,
    InsufficientStationaryTissue,
    NonFiniteVelocity,
    SeedOutsideVessel,
    TooShort,
)
from rtpc.extraction import (
    BAND_OUTER_PX,
    background_ring,
    compute_flow,
    correct_background,
    quality_score,
    roi_values,
    roi_window,
    segment_roi,
    subtract_offset,
    sum_flows,
    unalias,
)
from rtpc.io import SampledSignal, VelocityMapSeries
from rtpc.numerics import distance_band, seed_component


#: Zeros of each sign pattern on the rows either side of the band median.
SIGNED_ZEROS = [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 0.0]]
SIGNED_ZERO_ROI = np.zeros((12, 12), dtype=bool)
SIGNED_ZERO_ROI[6, 6] = True


def signed_zero_series(zeros, n_frames) -> VelocityMapSeries:
    """A 12x12 series whose band median is a zero, with zeros of both signs
    tied at the middle: rows 5 and 6 hold zeros, those above -1, those below 1."""
    frames = np.full((n_frames, 12, 12), -1.0)
    frames[:, 6:, :] = 1.0
    frames[:, 5:7, :] = np.resize(zeros, (n_frames, 2, 12))
    return VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=800.0, pixel_area_mm2=0.25)


def disk_mask(h, w, cx, cy, radius):
    yy, xx = np.mgrid[0:h, 0:w]
    return (xx - cx) ** 2 + (yy - cy) ** 2 <= radius**2


def disk_series(radii, h=24, w=24, speed=300.0, dt_ms=75.0, venc=800.0):
    frames = np.zeros((len(radii), h, w))
    for t, r in enumerate(radii):
        frames[t][disk_mask(h, w, w // 2, h // 2, r)] = speed
    return VelocityMapSeries(frames=frames, dt_ms=dt_ms, venc_mm_s=venc, pixel_area_mm2=0.25)


def shifted(series, offset):
    return VelocityMapSeries(
        frames=series.frames.astype(np.float64) + offset,
        dt_ms=series.dt_ms,
        venc_mm_s=series.venc_mm_s,
        pixel_area_mm2=series.pixel_area_mm2,
    )


def flow_of(series, values):
    """compute_flow of a ROI matrix taken from series."""
    return compute_flow(values, series.pixel_area_mm2, series.dt_s)


def corrected_values(series, roi):
    """The ROI's values with its background offset subtracted, and the estimate."""
    estimate = estimate_background(series, roi)
    values = roi_values(series, roi)
    subtract_offset(values, estimate.offset_mm_s)
    return values, estimate


def corrected_flow(series, roi):
    """The flow of the ROI's background-corrected values."""
    return flow_of(series, corrected_values(series, roi)[0])


def roi_flow(series, roi):
    """The flow of the ROI's values as stored."""
    return flow_of(series, roi_values(series, roi))


def unaliased(series, roi):
    """The ROI matrix of series, unaliased, and unalias's count."""
    values = roi_values(series, roi)
    return values, unalias(values, series.venc_mm_s)


class TestRoiSeries:
    """The ROI background_ring and roi_values take: one (height, width) mask
    for every frame, read as membership. A per-frame (n_frames, height,
    width) stack is refused."""

    def test_static_mask_matches_its_stack(self):
        """A mask, its 0/255 uint8 form and a strided view of it give the same
        offset, band, unaliased ROI values, changed count and flow, bit for
        bit; its explicit per-frame stack is refused."""
        series, mask, truth = images(duration_s=60.0, seed=5, artifacts={
            "aliased_pixel_fraction": 0.3, "eddy_offset_mm_s": 3.0, "noise_sd": 4.0})
        assert truth.wrapped_pixels
        stack = np.broadcast_to(mask, series.frames.shape).copy()
        padded = np.zeros((series.height + 4, series.width + 4), dtype=bool)
        padded[2:-2, 2:-2] = mask
        forms = [mask.astype(np.uint8) * 255, padded[2:-2, 2:-2]]

        def chain(roi):
            values, estimate = corrected_values(series, roi)
            n_changed = unalias(values, series.venc_mm_s)
            return estimate, n_changed, values, flow_of(series, values).values

        estimate, n_changed, values, flow = chain(mask)
        assert n_changed > 0
        for roi in forms:
            got = chain(roi)
            assert np.float64(got[0].offset_mm_s).view(np.uint64) == np.float64(
                estimate.offset_mm_s).view(np.uint64)
            assert np.array_equal(got[0].band, estimate.band)
            assert got[0].n_band_pixels == estimate.n_band_pixels
            assert got[1] == n_changed
            assert np.array_equal(got[2].view(np.uint32), values.view(np.uint32))
            assert np.array_equal(got[3].view(np.uint64), flow.view(np.uint64))
        for roi in (stack, stack.astype(np.uint8) * 255):
            for step in (estimate_background, roi_values):
                with pytest.raises(ValueError, match=rf"^ROI of shape {re.escape(str(stack.shape))} "):
                    step(series, roi)

    def test_from_static_shares_the_mask(self):
        """A (height, width) mask is one mask for all frames, however many:
        the ROI is read as that one bool mask, never as one per frame."""
        series = disk_series([5] * 4000, h=9, w=7)
        member = disk_mask(9, 7, 3, 4, 2)
        mask = extraction._check_roi(series, member)
        assert mask.shape == (9, 7) and mask.dtype == bool
        assert np.array_equal(mask, member)

    def test_from_static_of_a_slice_flattens_as_a_view(self):
        """A mask cut from a larger one, not C-contiguous, gives the flow and
        unaliased ROI values of its contiguous copy, bit for bit."""
        series = disk_series([4, 5, 6] * 20, h=18, w=18, speed=900.0, venc=400.0)
        series.frames[::7, 9, 9] -= 800.0  # wrapped in some frames
        member = disk_mask(24, 24, 12, 12, 5)[3:21, 3:21]
        assert not member.flags.c_contiguous
        results = []
        for roi in (member, member.copy()):
            values, n_changed = unaliased(series, roi)
            results.append((n_changed, values, flow_of(series, values).values))
        (n_slice, values_slice, flow_slice), (n_copy, values_copy, flow_copy) = results
        assert n_slice == n_copy > 0
        assert np.array_equal(values_slice.view(np.uint32), values_copy.view(np.uint32))
        assert np.array_equal(flow_slice.view(np.uint64), flow_copy.view(np.uint64))

    @pytest.mark.parametrize("shape", [(4, 5), (0, 4, 5), (3, 0, 5), (2, 3, 4, 5), (5,), (2, 3, 4),
                                       (0, 4), (3, 0), (), (2, 4, 6), (3, 4, 5), (4, 4, 6)])
    def test_shape_rejected(self, shape):
        """A ROI of the wrong rank, frame count or frame shape, or with an
        empty dimension, is refused naming both shapes."""
        rng = np.random.default_rng(2)
        series = VelocityMapSeries(frames=rng.normal(0.0, 500.0, (3, 4, 6)), dt_ms=75.0,
                                   venc_mm_s=100.0, pixel_area_mm2=0.25)
        for step in (estimate_background, roi_values):
            with pytest.raises(ValueError, match=r"^ROI of shape .*\(3, 4, 6\)") as exc:
                step(series, np.ones(shape, dtype=bool))
            assert f"ROI of shape {shape} " in str(exc.value)


class TestSegmentRoi:
    def test_disk_recovered_every_frame(self):
        series = disk_series([5, 5, 5])
        truth = disk_mask(24, 24, 12, 12, 5)
        roi = segment_roi(series, seed=(12, 12))
        assert roi.shape == truth.shape and np.array_equal(roi, truth)

    def test_seed_in_background(self):
        series = disk_series([5, 5, 5])
        with pytest.raises(SeedOutsideVessel):
            segment_roi(series, seed=(1, 1))

    def test_all_zero_series(self):
        series = VelocityMapSeries(frames=np.zeros((3, 16, 16)), dt_ms=75.0,
                                   venc_mm_s=800.0, pixel_area_mm2=0.25)
        with pytest.raises(EmptySegmentation):
            segment_roi(series, seed=(8, 8))

    def test_seed_outside_image(self):
        series = disk_series([5])
        with pytest.raises(ValueError):
            segment_roi(series, seed=(100, 2))

    @pytest.mark.parametrize("radius", [-1.0, -0.5, math.nan, math.inf])
    def test_radius_not_finite_or_negative(self, radius):
        with pytest.raises(ValueError, match="max_radius_px"):
            segment_roi(disk_series([5]), seed=(12, 12), max_radius_px=radius)

    def test_oscillating_radius_tracks_truth(self):
        """A vessel whose lumen changes from frame to frame gives one ROI, the
        union of its frames' lumens: the widest one."""
        radii = [4, 5, 6, 5, 4, 5, 6]
        series = disk_series(radii)
        roi = segment_roi(series, seed=(12, 12))
        assert np.array_equal(roi, disk_mask(24, 24, 12, 12, max(radii)))

    def test_empty_frames_add_nothing(self):
        """Frames where the seed is below threshold, leading or not, leave the
        ROI as the other frames give it."""
        series = disk_series([5, 4, 5, 6])
        for empty in ([1], [0], [0, 3]):
            frames = series.frames.copy()
            frames[empty] = 0.0
            gappy = VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=800.0, pixel_area_mm2=0.25)
            kept = [r for t, r in enumerate([5, 4, 5, 6]) if t not in empty]
            assert np.array_equal(segment_roi(gappy, seed=(12, 12)), disk_mask(24, 24, 12, 12, max(kept)))

    def test_deterministic(self):
        series = disk_series([4, 5, 6])
        a = segment_roi(series, seed=(12, 12))
        b = segment_roi(series, seed=(12, 12))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("fraction, radius", [(0.5, 12.0), (0.3, 3.0), (1.0, 0.0)])
    def test_masks_match_former_reference_line(self, fraction, radius):
        """The reference speed from the contiguous in-place gather is the one
        the former boolean-mask gather gave, so the masks are too."""
        aliased, _, _ = images(duration_s=60.0, seed=5, artifacts={"aliased_pixel_fraction": 0.3})
        rng = np.random.default_rng(8)
        tied = disk_series([4, 5, 6, 5] * 5, h=20, w=20)
        tied = VelocityMapSeries(  # few distinct values: ties, and negative speeds
            frames=tied.frames + rng.choice([-40.0, 0.0, 25.0, 250.0], tied.frames.shape),
            dt_ms=75.0, venc_mm_s=800.0, pixel_area_mm2=0.25,
        )
        for series in (aliased, tied):
            seed = (series.width // 2, series.height // 2)
            roi = segment_roi(series, seed=seed, velocity_threshold_fraction=fraction,
                              max_radius_px=radius)
            expected = former_segment_roi(series, seed, fraction, radius)
            assert np.array_equal(roi, expected)


def former_segment_roi(series, seed, fraction, radius) -> np.ndarray:
    """segment_roi's ROI with its former reference line, which gathered the
    neighbourhood by boolean mask and copied it in np.abs and np.percentile."""
    sx, sy = seed
    yy, xx = np.mgrid[0 : series.height, 0 : series.width]
    neighborhood = (xx - sx) ** 2 + (yy - sy) ** 2 <= radius**2
    reference = float(np.percentile(np.abs(series.frames[:, neighborhood]), 99.0))
    return seed_component(series.frames, fraction * reference, sy, sx)


@st.composite
def band_cases(draw):
    """Small (frames, pixels) values from a pool that makes ties, negative
    values and zeros of both signs common, and any non-empty subset of the
    pixels as the band; frame and band counts of both parities."""
    n_frames, n_pixels = draw(st.integers(1, 5)), draw(st.integers(1, 40))
    pool = st.sampled_from([0.0, -0.0, 1.5, -1.5, 3.0, -7.25])
    values = draw(st.lists(pool | st.floats(-20.0, 20.0, width=32),
                           min_size=n_frames * n_pixels, max_size=n_frames * n_pixels))
    flat = np.array(values, dtype=np.float32).reshape(n_frames, n_pixels)
    pixels = draw(st.lists(st.integers(0, n_pixels - 1), min_size=1, max_size=n_pixels, unique=True))
    return flat, np.array(pixels)


class TestCorrectBackground:
    def test_constant_offset_invariance_spec_example(self):
        series, mask, _ = images(duration_s=60.0, seed=5)
        roi = mask
        base_flow = corrected_flow(series, roi)
        plus_flow = corrected_flow(shifted(series, 5.0), roi)
        # float32 storage granularity bounds the drift at 1e-6 ml/min per ROI pixel
        drift = np.abs(plus_flow.values - base_flow.values).max()
        assert drift <= 1e-6 * mask.sum()

    def test_constant_offset_invariance_general(self):
        series, mask, _ = images(duration_s=60.0, seed=5)
        roi = mask
        base_flow = corrected_flow(series, roi)
        rng = np.random.default_rng(7)
        for c in rng.uniform(-20.0, 20.0, 3):
            flow_c = corrected_flow(shifted(series, float(c)), roi)
            drift = np.abs(flow_c.values - base_flow.values).max()
            assert drift <= 1e-6 * mask.sum()

    def test_zero_background_unbiased(self):
        series, mask, _ = images(duration_s=60.0, seed=5)
        roi = mask
        estimate = estimate_background(series, roi)
        assert estimate.offset_mm_s == 0.0

    def test_synthetic_eddy_recovered(self):
        series, mask, _ = images(duration_s=60.0, seed=5,
                                 artifacts={"eddy_offset_mm_s": 3.0})
        roi = mask
        estimate = estimate_background(series, roi)
        assert estimate.offset_mm_s == pytest.approx(3.0, abs=0.1)

    def test_eddy_recovered_under_pixel_noise(self):
        series, mask, _ = images(duration_s=60.0, seed=5,
                                 artifacts={"eddy_offset_mm_s": 3.0})
        rng = np.random.default_rng(11)
        noisy = VelocityMapSeries(
            frames=series.frames + rng.normal(0.0, 2.0, series.frames.shape),
            dt_ms=series.dt_ms, venc_mm_s=series.venc_mm_s,
            pixel_area_mm2=series.pixel_area_mm2,
        )
        roi = mask
        estimate = estimate_background(noisy, roi)
        assert estimate.offset_mm_s == pytest.approx(3.0, abs=0.1)

    def test_band_disjoint_from_roi(self):
        series, mask, _ = images(duration_s=60.0, seed=5)
        roi = mask
        estimate = estimate_background(series, roi)
        assert not (estimate.band & mask).any()
        assert estimate.n_band_pixels >= 8

    @pytest.mark.parametrize("radius", [3.0, 6.0])
    def test_blockwise_std_matches_whole_ring(self, radius):
        # Std blocks of 24 ring pixels or a few more: the ring holds several.
        rng = np.random.default_rng(4)
        frames = rng.normal(2.0, 5.0, (300, 40, 40)) * rng.uniform(0.2, 3.0, (40, 40))
        series = VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=800.0, pixel_area_mm2=0.25)
        roi = disk_mask(40, 40, 20, 20, radius)
        original = series.frames.copy()
        with mock.patch.object(extraction, "BLOCK_VALUES", 300 * 24):
            estimate = estimate_background(series, roi)
        # The whole-ring computation the function used to run.
        ring = distance_band(roi, 2.0, BAND_OUTER_PX)
        assert ring.sum() >= 4 * 24
        ring_values = original[:, ring].astype(np.float64)
        stds = ring_values.std(axis=0)
        keep = stds <= np.quantile(stds, 0.25)
        band = np.zeros_like(ring)
        band[tuple(idx[keep] for idx in np.nonzero(ring))] = True
        offset = float(np.median(ring_values[:, keep]))
        assert estimate.offset_mm_s == offset
        assert np.array_equal(estimate.band, band)
        assert estimate.n_band_pixels == int(keep.sum())
        assert np.array_equal(series.frames, original)

    def test_ring_pixel_stds_are_the_whole_rings(self):
        """A 65-pixel ring at 4000 frames: each pixel's std is the whole-ring
        float64 std bit for bit, whatever block it falls in (blocks of 32
        pixels left the last one a block of its own). numpy sums a
        C-contiguous (frames, k >= 2) block row by row, unlike one column on
        its own, so this holds only while each pixel's frames are contiguous."""
        rng = np.random.default_rng(12)
        frames = rng.normal(2.0, 5.0, (4000, 8, 13)).astype(np.float32)
        series = VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=800.0, pixel_area_mm2=0.25)
        member = np.zeros((8, 13), dtype=bool)
        member[1, 6] = True
        ring = distance_band(member, 2.0, BAND_OUTER_PX)
        assert ring.sum() == 2 * 32 + 1
        expected = frames[:, ring].astype(np.float64).std(axis=0)
        with mock.patch.object(extraction, "quantile", wraps=extraction.quantile) as quantile:
            estimate_background(series, member)
        stds = quantile.call_args.args[0]
        assert np.array_equal(stds.view(np.uint64), expected.view(np.uint64))

    def test_insufficient_band(self):
        # ROI fills almost the whole image; nothing left for the band
        full = np.ones((8, 8), dtype=bool)
        series = VelocityMapSeries(frames=np.ones((3, 8, 8)), dt_ms=75.0,
                                   venc_mm_s=800.0, pixel_area_mm2=0.25)
        with pytest.raises(InsufficientStationaryTissue):
            estimate_background(series, full)

    def test_estimate_writes_nothing_and_roi_values_subtract(self):
        """correct_background only estimates, from the ring matrix it is given
        (and may overwrite); roi_values takes the ROI's members in row-major
        order, and subtract_offset subtracts the offset from them in float64
        and rounds once to float32."""
        series, mask, _ = images(duration_s=60.0, seed=5,
                                 artifacts={"eddy_offset_mm_s": 3.0, "noise_sd": 4.0})
        original = series.frames.copy()
        ring = background_ring(mask)
        ring_values = roi_values(series, ring)
        assert np.array_equal(ring_values.view(np.uint32), original[:, ring].view(np.uint32))
        estimate = correct_background(ring_values, ring)
        assert np.array_equal(series.frames.view(np.uint32), original.view(np.uint32))
        offset = float(np.median(original[:, estimate.band].astype(np.float64)))
        assert estimate.offset_mm_s == offset != 0.0
        assert estimate.n_band_pixels == int(estimate.band.sum())
        assert not (estimate.band & ~ring).any()
        plain = roi_values(series, mask)
        assert plain.dtype == np.float32 and plain.flags.c_contiguous
        assert np.array_equal(plain.view(np.uint32), original[:, mask].view(np.uint32))
        values = plain.copy()
        assert subtract_offset(values, estimate.offset_mm_s) is None
        expected = (original[:, mask].astype(np.float64) - offset).astype(np.float32)
        assert np.array_equal(values.view(np.uint32), expected.view(np.uint32))
        assert np.array_equal(series.frames.view(np.uint32), original.view(np.uint32))

    def test_ring_matrix_must_match_its_mask(self):
        """correct_background refuses, naming both shapes, a ring that is not
        one (height, width) mask, and a matrix that is not float32 or whose
        columns are not the ring's members."""
        series, mask, _ = images(duration_s=60.0, seed=5)
        ring = background_ring(mask)
        good = roi_values(series, ring)
        n_ring = int(ring.sum())
        for values, given in ((good[:, 1:], ring), (good.astype(np.float64), ring),
                              (good[0], ring), (good, np.broadcast_to(ring, (2, *ring.shape)))):
            with pytest.raises(ValueError, match=rf"^a {values.dtype} matrix of shape "
                                                 rf"{re.escape(str(values.shape))} is not the float32"):
                correct_background(values, given)
        assert correct_background(good, ring.astype(np.uint8) * 255).n_band_pixels <= n_ring

    def test_ring_is_the_whole_images_distance_band(self):
        """background_ring computes the band on the ROI's window only; it is
        the band of the whole image, at image edges too, and empty for an
        empty ROI."""
        rng = np.random.default_rng(21)
        for _ in range(40):
            h, w = (int(v) for v in rng.integers(1, 40, 2))
            roi = np.zeros((h, w), dtype=bool)
            cy, cx, r = int(rng.integers(0, h)), int(rng.integers(0, w)), float(rng.uniform(0, 8))
            roi |= disk_mask(h, w, cx, cy, r)
            roi &= rng.random((h, w)) < 0.9
            expected = distance_band(roi, 2.0, BAND_OUTER_PX) if roi.any() else np.zeros_like(roi)
            assert np.array_equal(background_ring(roi), expected)
        with pytest.raises(ValueError, match=r"^ROI of shape \(2, 4, 4\) is not one"):
            background_ring(np.ones((2, 4, 4), dtype=bool))

    @settings(max_examples=300, deadline=None)
    @given(case=band_cases(), block_values=st.integers(1, 200))
    def test_offset_is_float64_median_of_band(self, case, block_values):
        """The median taken in the matrix's own memory, its band moved to the
        front a block of rows at a time (blocks down to one row), is the
        float64 median of a gather, sign of zero included."""
        flat, pixels = case
        keep = np.zeros(flat.shape[1], dtype=bool)
        keep[pixels] = True
        expected = float(np.median(flat[:, keep].astype(np.float64)))
        with mock.patch.object(extraction, "BLOCK_VALUES", block_values):
            median = extraction._band_median(flat.copy(), keep)
        assert np.float64(median).view(np.uint64) == np.float64(expected).view(np.uint64)

    @pytest.mark.parametrize("zeros", SIGNED_ZEROS)
    @pytest.mark.parametrize("n_frames", [3, 4])
    def test_offset_sign_of_zero_median(self, zeros, n_frames):
        """A zero median takes np.median's sign, with zeros of both signs tied."""
        series = signed_zero_series(zeros, n_frames)
        original = series.frames.copy()
        estimate = estimate_background(series, SIGNED_ZERO_ROI)
        offset = float(np.median(original[:, estimate.band].astype(np.float64)))
        assert offset == 0.0
        assert math.copysign(1.0, estimate.offset_mm_s) == math.copysign(1.0, offset)

    def test_signed_zero_median_loads_no_numpy_ma(self):
        """The signed-zero cases above, in a fresh interpreter that refuses
        numpy.ma: each offset is np.median's zero, sign included."""
        cases = [(zeros, n_frames) for zeros in SIGNED_ZEROS for n_frames in (3, 4)]
        script = """
import json, sys

class RefuseNumpyMa:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[:2] == ["numpy", "ma"]:
            raise ModuleNotFoundError(f"{name} is refused")
        return None

sys.meta_path.insert(0, RefuseNumpyMa())
import numpy as np
from rtpc.extraction import background_ring, correct_background
roi = np.zeros((12, 12), dtype=bool)
roi[6, 6] = True
ring = background_ring(roi)
offsets = []
for frames in json.loads(sys.argv[1]):
    values = np.array(frames, dtype=np.float32)[:, ring]
    offsets.append(correct_background(values, ring).offset_mm_s)
print(json.dumps(offsets))
"""
        frames = [signed_zero_series(zeros, n).frames.tolist() for zeros, n in cases]
        offsets, _ = run_fresh(script, json.dumps(frames))
        for (zeros, n_frames), offset in zip(cases, offsets, strict=True):
            series = signed_zero_series(zeros, n_frames)
            band = estimate_background(series, SIGNED_ZERO_ROI).band
            expected = float(np.median(series.frames[:, band].astype(np.float64)))
            assert offset == expected == 0.0
            assert math.copysign(1.0, offset) == math.copysign(1.0, expected), (zeros, n_frames)

    def test_error_leaves_out_untouched(self):
        rng = np.random.default_rng(3)
        frames = rng.normal(0.0, 5.0, (6, 16, 16)).astype(np.float32)
        series = VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=800.0, pixel_area_mm2=0.25)
        before = frames.copy()
        small = disk_mask(16, 16, 8, 8, 2)
        everything = np.ones((16, 16), dtype=bool)
        # A 2-column strip beside the ROI: a 16-pixel ring, of which 4 are quiet.
        strip = np.ones((16, 16), dtype=bool)
        strip[:, 14:] = False
        with pytest.raises(InsufficientStationaryTissue, match="no pixels"):
            estimate_background(series, everything)
        with pytest.raises(InsufficientStationaryTissue, match="4 quiet band pixels, need 8"):
            estimate_background(series, strip)
        with pytest.raises(ValueError, match=r"^ROI of shape \(5, 16, 16\) "):
            estimate_background(series, np.broadcast_to(small, (5, 16, 16)))
        assert np.array_equal(series.frames.view(np.uint32), before.view(np.uint32))

    def test_traced_peak_does_not_grow_with_the_band(self):
        """The ring stds are taken a bounded block at a time, and the band
        median in the ring matrix's own memory. Traced beyond what is in use
        when it is called, the ring matrix included, correct_background's
        peak on the ring of a radius-10 ROI grows from 2000 to 8000 frames by
        at most 64 KiB. Measured: 1.09 and 1.03 MB; a float32 gather
        of the band grows by 2.3 MB (96 band pixels, 4 bytes, 6000 frames)."""

        def traced_peak(n_frames):
            rng = np.random.default_rng(6)
            frames = rng.standard_normal((n_frames, 33, 33), dtype=np.float32)
            frames += 15.0
            series = VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=400.0, pixel_area_mm2=0.25)
            ring = background_ring(disk_mask(33, 33, 16, 16, 10))
            ring_values = roi_values(series, ring)
            tracemalloc.start()
            try:
                in_use = tracemalloc.get_traced_memory()[0]
                estimate = correct_background(ring_values, ring)
                peak = tracemalloc.get_traced_memory()[1] - in_use
            finally:
                tracemalloc.stop()
            assert estimate.n_band_pixels == 96
            return peak

        small, large = traced_peak(2000), traced_peak(8000)
        assert large <= small + (64 << 10), (small, large)


class TestChainReadsOnly:
    """No step writes a series' frames: roi_values takes the ring's and the
    ROI's values into new matrices, correct_background estimates from the
    ring's, and subtract_offset, unalias and compute_flow work on the
    ROI's."""

    def test_read_only_frames_give_the_writable_flow(self):
        base = disk_series([5, 5, 5] * 10, speed=900.0, venc=400.0).frames
        base[:, 12, 12] = -700.0  # one wrapped pixel per frame
        base += 3.0  # a background offset
        before = base.copy()
        view = base.view()
        view.flags.writeable = False
        read_only = VelocityMapSeries(frames=view, dt_ms=75.0, venc_mm_s=400.0, pixel_area_mm2=0.25)
        assert read_only.frames.base is base and not read_only.frames.flags.writeable
        writable = VelocityMapSeries(frames=base.copy(), dt_ms=75.0, venc_mm_s=400.0,
                                     pixel_area_mm2=0.25)
        roi = disk_mask(24, 24, 12, 12, 5)

        def chain(series):
            values, estimate = corrected_values(series, roi)
            n_changed = unalias(values, series.venc_mm_s)
            return estimate.offset_mm_s, n_changed, flow_of(series, values).values

        offset, n_changed, flow = chain(read_only)
        assert (offset, n_changed) == chain(writable)[:2] == (3.0, 30)
        assert np.array_equal(flow.view(np.uint64), chain(writable)[2].view(np.uint64))
        assert np.array_equal(base.view(np.uint32), before.view(np.uint32))

    def test_offset_taken_as_given_signed_zero_included(self):
        """subtract_offset subtracts the offset it is given, as the whole-window
        subtraction did: -0.0 - -0.0 is +0.0, so a -0.0 offset turns a -0.0
        velocity into +0.0, where a +0.0 offset, or none, keeps it -0.0."""
        series = signed_zero_series([-0.0, -0.0], 4)
        roi = np.zeros((12, 12), dtype=bool)
        roi[6, 5:8] = True
        for offset, sign in ((-0.0, 1.0), (0.0, -1.0), (None, -1.0)):
            values = roi_values(series, roi)
            if offset is not None:
                subtract_offset(values, offset)
            window = series.frames if offset is None else (
                series.frames.astype(np.float64) - offset).astype(np.float32)
            assert np.array_equal(values.view(np.uint32), window[:, roi].view(np.uint32))
            assert values.size == 12 and all(math.copysign(1.0, v) == sign for v in values.flat)

    def test_overflow_names_background_correction(self):
        """A ROI value the subtraction takes beyond float32 raises naming the
        step; a value outside the ROI is never subtracted."""
        frames = np.zeros((3, 12, 12), dtype=np.float32)
        frames[1, 0, 0] = np.finfo(np.float32).max
        series = VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=800.0, pixel_area_mm2=0.25)
        roi = np.zeros((12, 12), dtype=bool)
        roi[6, 6] = True
        values = roi_values(series, roi)
        subtract_offset(values, -1e33)
        assert np.array_equal(values, np.full((3, 1), np.float32(1e33)))
        roi[0, 0] = True
        message = r"^background correction: subtracting the offset -1e\+33 mm/s takes a velocity beyond"
        with pytest.raises(NonFiniteVelocity, match=message):
            subtract_offset(roi_values(series, roi), -1e33)


def oracle_leave_one_out_medians(values: np.ndarray) -> np.ndarray:
    """Median of the other elements, for each element, from one stable argsort."""
    n = values.size
    order = np.argsort(values, kind="stable")
    s = values[order]
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    c = n - 1
    if c % 2 == 1:
        mi = c // 2
        return np.where(rank <= mi, s[mi + 1], s[mi])
    lo, hi = c // 2 - 1, c // 2
    lo_v = np.where(rank <= lo, s[lo + 1], s[lo])
    hi_v = np.where(rank <= hi, s[hi + 1], s[hi])
    return 0.5 * (lo_v + hi_v)


def oracle_unalias(values: np.ndarray, venc: float) -> np.ndarray:
    """unalias as one loop over frames, one argsort per frame: the ROI matrix it gives."""
    two_venc = 2.0 * venc
    out = values.copy()
    if out.shape[1] < 2:
        return out
    for t in range(len(out)):
        vals = out[t].astype(np.float64)
        deltas = oracle_leave_one_out_medians(vals) - vals
        wrapped = np.abs(deltas) > venc
        if wrapped.any():
            vals[wrapped] += two_venc * np.round(deltas[wrapped] / two_venc)
            out[t] = vals
    return out


class TestLeaveOneOutMedians:
    def test_matches_brute_force(self):
        from rtpc.extraction import _leave_one_out_medians

        rng = np.random.default_rng(19)
        for n in (2, 3, 4, 5, 8, 13, 50):
            for _ in range(5):
                values = np.round(rng.normal(0, 10, n), 1)  # duplicates likely
                fast = _leave_one_out_medians(values)
                brute = np.array([np.median(np.delete(values, i)) for i in range(n)])
                assert np.array_equal(fast, brute)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 50])
    def test_rows_match_brute_force(self, n):
        from rtpc.extraction import _leave_one_out_medians

        rng = np.random.default_rng(n)
        rows = np.round(rng.normal(0, 10, (7, n)), 1)  # duplicates likely
        rows[0] = rows[0, 0]  # one row of equal values
        fast = _leave_one_out_medians(rows)
        assert fast.shape == rows.shape
        for row, got in zip(rows, fast):
            brute = np.array([np.median(np.delete(row, i)) for i in range(n)])
            assert np.array_equal(got, brute)


@st.composite
def unalias_cases(draw):
    """A small series and ROI whose values sit on and around the unwrap limits.

    Values come from a pool that holds 0, +-venc, +-2 venc and the float32
    neighbours of +-venc, so leave-one-out deltas fall exactly on +-venc and
    one ulp either side, and ties are common. The ROI is one mask for all
    frames, with any member count (0, 1, 2 and 3 are the usual draws).
    """
    venc = draw(st.sampled_from([0.75, 100.0, 400.0]))
    v = np.float32(venc)
    near = [np.nextafter(v, np.float32(np.inf)), np.nextafter(v, np.float32(0))]
    pool = [0.0, float(v), 2.0 * float(v), 3.0 * float(v), *map(float, near),
            0.5 * float(v), 1.25 * float(v)]
    pool += [-x for x in pool]
    n_frames = draw(st.integers(1, 9))
    height, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pixels = height * width
    values = draw(st.lists(st.sampled_from(pool) | st.floats(-5 * venc, 5 * venc, width=32),
                           min_size=n_frames * pixels, max_size=n_frames * pixels))
    frames = np.array(values, dtype=np.float32).reshape(n_frames, height, width)
    member = np.zeros(pixels, dtype=bool)
    member[list(draw(st.sets(st.integers(0, pixels - 1), max_size=pixels)))] = True
    roi = member.reshape(height, width)
    series = VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=venc, pixel_area_mm2=0.25)
    # unalias blocks hold BLOCK_VALUES // 8 members: 1, 2 and 5 here, or all.
    block_values = draw(st.sampled_from([8, 16, 40, extraction.BLOCK_VALUES]))
    return series, roi, block_values


class TestUnaliasMatchesPerFrameOracle:
    """The blockwise unalias gives the per-frame loop's ROI matrix bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(case=unalias_cases())
    def test_bit_identical(self, case):
        series, roi, block_values = case
        values = roi_values(series, roi)
        expected = oracle_unalias(values, series.venc_mm_s)
        with mock.patch.object(extraction, "BLOCK_VALUES", block_values):
            unalias(values, series.venc_mm_s)
        assert np.array_equal(values.view(np.uint32), expected.view(np.uint32))

    def test_synthgen_series_across_chunks(self):
        aliased, mask, truth = images(duration_s=60.0, seed=5,
                                      artifacts={"aliased_pixel_fraction": 0.3})
        assert len(truth.wrapped_pixels) > 100
        seeded = segment_roi(aliased, seed=(aliased.width // 2, aliased.height // 2))
        assert 1 < seeded.sum() < mask.sum()
        for roi in (mask, seeded):
            values = roi_values(aliased, roi)
            expected = oracle_unalias(values, aliased.venc_mm_s)
            # Blocks of about 3 frames, of BLOCK_VALUES // 8 members each.
            with mock.patch.object(extraction, "BLOCK_VALUES", 8 * 3 * int(mask.sum())):
                unalias(values, aliased.venc_mm_s)
            assert np.array_equal(values.view(np.uint32), expected.view(np.uint32))

    @settings(max_examples=200, deadline=None)
    @given(case=unalias_cases())
    def test_in_place_and_count(self, case):
        """The ROI matrix is overwritten with the oracle's bits, and the count
        is the number of pixel-frames whose float32 value changed."""
        series, roi, block_values = case
        values = roi_values(series, roi)
        original = values.copy()
        expected = oracle_unalias(values, series.venc_mm_s)
        with mock.patch.object(extraction, "BLOCK_VALUES", block_values):
            n_changed = unalias(values, series.venc_mm_s)
        assert np.array_equal(values.view(np.uint32), expected.view(np.uint32))
        assert n_changed == int(np.count_nonzero(expected != original))


class TestUnalias:
    def test_wrap_arithmetic_example(self):
        # one wrapped pixel at -700 among neighbors around 850, venc 800
        values = np.float32([[830.0, 840.0, 850.0, 860.0, 870.0, -700.0]])
        before = values.copy()
        assert unalias(values, 800.0) == 1
        assert values[0, 5] == 900.0
        assert np.array_equal(values[0, :5], before[0, :5])

    def test_within_venc_untouched(self):
        values = np.float32([[700.0, 750.0, 800.0, 820.0]])
        before = values.copy()
        assert unalias(values, 800.0) == 0
        assert np.array_equal(values, before)

    def test_synthgen_wrapped_pixels_all_restored(self):
        clean, mask, _ = images(duration_s=60.0, seed=5)
        aliased, _, truth = images(duration_s=60.0, seed=5,
                                   artifacts={"aliased_pixel_fraction": 0.1})
        assert len(truth.wrapped_pixels) > 100
        values, n_changed = unaliased(aliased, mask)
        assert n_changed == len(truth.wrapped_pixels)
        assert np.array_equal(values, clean.frames[:, mask])
        flow_truth = signals(duration_s=60.0, seed=5).flow
        flow_fixed = flow_of(aliased, values)
        rel = np.abs(flow_fixed.values - flow_truth.values) / np.abs(flow_truth.values)
        assert rel.max() < 0.005

    def test_wrap_unwrap_round_trip_random_sets(self):
        # random subsets of the above-limit pixels (the set the scanner would
        # wrap) folded down by 2*venc; one unalias pass restores them exactly
        series, mask, _ = images(duration_s=60.0, seed=5)
        rng = np.random.default_rng(13)
        frames = series.frames.copy()
        two_venc = np.float32(2.0 * series.venc_mm_s)
        n_wrapped = 0
        for t in range(series.n_frames):
            over_y, over_x = np.nonzero(mask & (frames[t] > series.venc_mm_s))
            if over_y.size == 0:
                continue
            k = max(1, int(rng.integers(1, over_y.size + 1)))
            pick = rng.choice(over_y.size, size=k, replace=False)
            frames[t, over_y[pick], over_x[pick]] -= two_venc
            n_wrapped += k
        assert n_wrapped > 500
        wrapped = VelocityMapSeries(frames=frames, dt_ms=series.dt_ms,
                                    venc_mm_s=series.venc_mm_s,
                                    pixel_area_mm2=series.pixel_area_mm2)
        values, _ = unaliased(wrapped, mask)
        assert np.array_equal(values, series.frames[:, mask])

    def test_empty_and_single_pixel_frames_noop(self):
        frames = np.full((2, 2, 2), 500.0)
        frames[1, 0, 0] = -500.0
        series = VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=100.0,
                                   pixel_area_mm2=0.25)
        empty = np.zeros((2, 2), dtype=bool)
        single = np.array([[True, False], [False, False]])
        for roi in (empty, single):
            values, n_changed = unaliased(series, roi)
            assert n_changed == 0
            assert np.array_equal(values, frames[:, roi])

    def test_shift_beyond_float32_names_the_step(self):
        """A shifted value beyond the float32 range raises NonFiniteVelocity
        naming the step, with no RuntimeWarning, and its block is not written."""
        frames = np.full((1, 1, 6), 3.4e38, dtype=np.float32)
        frames[0, 0, 2] = 3.28e38
        series = VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=1e37, pixel_area_mm2=0.25)
        values = roi_values(series, np.ones((1, 6), dtype=bool))
        before = values.copy()
        with pytest.raises(NonFiniteVelocity, match=r"^unaliasing: .* beyond the float32 range$"):
            unalias(values, series.venc_mm_s)
        assert np.array_equal(values.view(np.uint32), before.view(np.uint32))

    def test_error_leaves_out_untouched(self):
        series = disk_series([5, 5, 5], speed=900.0, venc=400.0)
        frames = series.frames
        before = frames.copy()
        member = disk_mask(24, 24, 12, 12, 5)
        for roi in (np.broadcast_to(member, (2, 24, 24)),
                    member[:, :20]):
            with pytest.raises(ValueError, match="ROI"):
                roi_values(series, roi)
        assert np.array_equal(frames.view(np.uint32), before.view(np.uint32))

    def test_traced_peak_does_not_grow_with_the_frames(self):
        """The ROI matrix is unwrapped a bounded block at a time, and each
        block's working set is bounded too. Traced beyond what is in use when
        it is called, unalias's peak on the ROI matrix of a disk of radius 10
        does not grow from 2000 to 8000 frames, and stays below 1 MiB.
        Measured: 0.48 and 0.48 MiB."""

        def traced_peak(n_frames):
            rng = np.random.default_rng(6)
            frames = rng.standard_normal((n_frames, 33, 33), dtype=np.float32)
            frames += 300.0
            roi = disk_mask(33, 33, 16, 16, 10)
            wrapped = roi & (rng.random(frames.shape, dtype=np.float32) < 0.05)
            frames[wrapped] -= 800.0  # wrapped at venc 400
            series = VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=400.0, pixel_area_mm2=0.25)
            values = roi_values(series, roi)
            tracemalloc.start()
            try:
                in_use = tracemalloc.get_traced_memory()[0]
                n_changed = unalias(values, series.venc_mm_s)
                peak = tracemalloc.get_traced_memory()[1] - in_use
            finally:
                tracemalloc.stop()
            assert n_changed == np.count_nonzero(wrapped)
            return peak

        traced_peak(50)  # a first call, so one-time costs fall outside the peaks
        small, large = traced_peak(2000), traced_peak(8000)
        assert large <= small + (128 << 10), (small, large)
        assert large < 1 << 20, large


class TestComputeFlow:
    def test_unit_arithmetic(self):
        values = np.float32([[100.0, 200.0]])
        with pytest.raises(TooShort):
            compute_flow(values, 0.25, 0.075)  # one frame cannot form a signal
        flow = compute_flow(np.tile(values, (2, 1)), 0.25, 0.075)
        assert flow.values == pytest.approx([4.5, 4.5])
        assert flow.dt_s == 0.075
        assert flow.kind == "flow"

    def test_all_zero(self):
        series = VelocityMapSeries(frames=np.zeros((4, 3, 3)), dt_ms=75.0, venc_mm_s=800.0,
                                   pixel_area_mm2=0.25)
        roi = np.ones((3, 3), dtype=bool)
        assert np.all(roi_flow(series, roi).values == 0.0)

    def test_synthgen_mean_flow_anchor(self):
        series, mask, _ = images(duration_s=60.0, seed=5)
        flow = roi_flow(series, mask)
        assert flow.values.mean() == pytest.approx(740.0, rel=0.01)

    def test_empty_roi_frame_yields_zero(self):
        frames = np.full((3, 2, 2), 100.0)
        series = VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=800.0, pixel_area_mm2=0.25)
        values = roi_values(series, np.zeros((2, 2), dtype=bool))
        assert values.shape == (3, 0)
        assert np.array_equal(flow_of(series, values).values, np.zeros(3))

    def test_crop_exact_for_wide_value_range(self):
        # ROI values spanning ~2**40, so the float64 frame sums are inexact
        rng = np.random.default_rng(4)
        frames = rng.normal(0.0, 300.0, size=(6, 24, 20))
        member = np.zeros((24, 20), dtype=bool)
        member[10:14, 2:7] = True
        frames[:, member] = rng.choice([700.0, -650.0, 3e-9, -7e-10], size=(6, int(member.sum())))
        series = VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=800.0, pixel_area_mm2=0.25)
        vals = series.frames[:, member].astype(np.float64)
        assert any(v.sum() != math.fsum(v) for v in vals)
        window = roi_window(member)
        cropped = VelocityMapSeries(frames=frames[(slice(None),) + window], dt_ms=75.0,
                                    venc_mm_s=800.0, pixel_area_mm2=0.25)
        assert cropped.frames.shape[1:] == (16, 13)
        full = roi_flow(series, member).values
        assert np.array_equal(roi_flow(cropped, member[window]).values, full)
        assert np.array_equal(full, 0.06 * 0.25 * np.array([v.sum() for v in vals]))

    def test_linearity(self):
        series, mask, _ = images(duration_s=60.0, seed=5)
        base = roi_flow(series, mask)
        scaled = VelocityMapSeries(frames=series.frames * 2.0, dt_ms=series.dt_ms,
                                   venc_mm_s=series.venc_mm_s, pixel_area_mm2=series.pixel_area_mm2)
        assert roi_flow(scaled, mask).values == pytest.approx(2.0 * base.values, rel=1e-6)

    def test_dimension_mismatch_rejected(self):
        series = VelocityMapSeries(frames=np.zeros((3, 4, 4)), dt_ms=75.0,
                                   venc_mm_s=800.0, pixel_area_mm2=0.25)
        wrong_count = np.ones((2, 4, 4), dtype=bool)
        with pytest.raises(ValueError):
            roi_values(series, wrong_count)
        wrong_shape = np.ones((5, 5), dtype=bool)
        with pytest.raises(ValueError):
            roi_values(series, wrong_shape)


class TestSumFlows:
    def test_artery_sum(self):
        def const(v):
            return SampledSignal(t0_s=0.0, dt_s=0.075, values=np.full(10, float(v)), kind="flow")

        total = sum_flows([const(300), const(300), const(70), const(70)])
        assert np.all(total.values == 740.0)

    def test_identity(self):
        s = SampledSignal(t0_s=0.0, dt_s=0.075, values=np.arange(2.0), kind="flow")
        assert sum_flows([s]) is s

    def test_mismatched_lengths(self):
        a = SampledSignal(t0_s=0.0, dt_s=0.075, values=np.zeros(10), kind="flow")
        b = SampledSignal(t0_s=0.0, dt_s=0.075, values=np.zeros(11), kind="flow")
        with pytest.raises(GridMismatch):
            sum_flows([a, b])

    def test_mismatched_dt(self):
        a = SampledSignal(t0_s=0.0, dt_s=0.075, values=np.zeros(10), kind="flow")
        b = SampledSignal(t0_s=0.0, dt_s=0.080, values=np.zeros(10), kind="flow")
        with pytest.raises(GridMismatch):
            sum_flows([a, b])

    def test_wrong_kind(self):
        a = SampledSignal(t0_s=0.0, dt_s=0.075, values=np.zeros(10), kind="flow")
        b = SampledSignal(t0_s=0.0, dt_s=0.075, values=np.zeros(10), kind="respiration")
        with pytest.raises(GridMismatch):
            sum_flows([a, b])

    def test_commutative_associative(self):
        rng = np.random.default_rng(17)
        sigs = [SampledSignal(t0_s=0.0, dt_s=0.075, values=rng.normal(0, 100, 50), kind="flow")
                for _ in range(3)]
        forward = sum_flows(sigs).values
        backward = sum_flows(sigs[::-1]).values
        assert forward == pytest.approx(backward, abs=1e-9)


class TestQualityScore:
    def test_clean_pulsatile_signal(self):
        flow = signals(duration_s=120.0, seed=5).flow
        qc = quality_score(flow)
        assert qc.cardiac_snr > 100.0
        assert not qc.excluded

    def test_white_noise_excluded_monte_carlo(self):
        excluded = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            sig = SampledSignal(t0_s=0.0, dt_s=0.075, values=rng.normal(0.0, 1.0, 1600), kind="flow")
            if quality_score(sig).excluded:
                excluded += 1
        assert excluded >= 95

    def test_too_short(self):
        sig = SampledSignal(t0_s=0.0, dt_s=0.075, values=np.zeros(10), kind="flow")
        with pytest.raises(TooShort):
            quality_score(sig)

    def test_constant_signal_excluded(self):
        sig = SampledSignal(t0_s=0.0, dt_s=0.075, values=np.full(128, 5.0), kind="flow")
        qc = quality_score(sig)
        assert qc.excluded
