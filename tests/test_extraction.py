import math

import numpy as np
import pytest

from helpers import images, signals

from rtpc.errors import (
    EmptySegmentation,
    GridMismatch,
    InsufficientStationaryTissue,
    SeedOutsideVessel,
    TooShort,
)
from rtpc.extraction import (
    BAND_OUTER_PX,
    STD_BLOCK_PIXELS,
    RoiSeries,
    compute_flow,
    correct_background,
    quality_score,
    roi_window,
    segment_roi,
    sum_flows,
    unalias,
)
from rtpc.io import RoiMask, SampledSignal, VelocityMapSeries
from rtpc.numerics import distance_band


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


class TestRoiSeries:
    def test_from_static_shares_the_mask(self):
        member = disk_mask(9, 7, 3, 4, 2)
        roi = RoiSeries.from_static(RoiMask(member), 4000)
        assert roi.masks.shape == (4000, 9, 7) and len(roi) == 4000
        assert roi.masks.strides[0] == 0  # one mask, not one per frame
        assert np.array_equal(roi.union(), member)
        assert roi.n_empty_frames() == 0

    def test_read_only_and_counts(self):
        masks = np.zeros((3, 4, 5), dtype=bool)
        masks[0, 1, 1] = masks[2, 3, 4] = True
        roi = RoiSeries(masks=masks)
        with pytest.raises(ValueError):
            roi.masks[1, 0, 0] = True
        assert masks.flags.writeable  # the caller's array is left as it was
        assert roi.n_empty_frames() == 1
        assert np.array_equal(np.argwhere(roi.union()), [[1, 1], [3, 4]])

    @pytest.mark.parametrize("shape", [(4, 5), (0, 4, 5), (3, 0, 5), (2, 3, 4, 5)])
    def test_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="RoiSeries"):
            RoiSeries(masks=np.ones(shape, dtype=bool))


class TestSegmentRoi:
    def test_disk_recovered_every_frame(self):
        series = disk_series([5, 5, 5])
        truth = disk_mask(24, 24, 12, 12, 5)
        roi = segment_roi(series, seed=(12, 12))
        assert all(np.array_equal(m, truth) for m in roi.masks)

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
        radii = [4, 5, 6, 5, 4, 5, 6]
        series = disk_series(radii)
        roi = segment_roi(series, seed=(12, 12))
        for mask, r in zip(roi.masks, radii):
            truth_count = int(disk_mask(24, 24, 12, 12, r).sum())
            ring = int(disk_mask(24, 24, 12, 12, r + 1).sum()) - int(disk_mask(24, 24, 12, 12, r - 1).sum())
            assert abs(int(mask.sum()) - truth_count) <= ring

    def test_empty_frame_falls_back_to_previous(self):
        series = disk_series([5, 5, 5])
        frames = series.frames.copy()
        frames[1] = 0.0
        gappy = VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=800.0, pixel_area_mm2=0.25)
        roi = segment_roi(gappy, seed=(12, 12))
        assert np.array_equal(roi.masks[1], roi.masks[0])

    def test_leading_empty_frames_fall_forward(self):
        series = disk_series([5, 5, 5])
        frames = series.frames.copy()
        frames[0] = 0.0
        gappy = VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=800.0, pixel_area_mm2=0.25)
        roi = segment_roi(gappy, seed=(12, 12))
        assert np.array_equal(roi.masks[0], roi.masks[1])

    def test_deterministic(self):
        series = disk_series([4, 5, 6])
        a = segment_roi(series, seed=(12, 12))
        b = segment_roi(series, seed=(12, 12))
        assert np.array_equal(a.masks, b.masks)


class TestCorrectBackground:
    def test_constant_offset_invariance_spec_example(self):
        series, mask, _ = images(duration_s=60.0, seed=5)
        roi = RoiSeries.from_static(mask, series.n_frames)
        base_flow = compute_flow(correct_background(series, roi)[0], roi)
        plus_flow = compute_flow(correct_background(shifted(series, 5.0), roi)[0], roi)
        # float32 storage granularity bounds the drift at 1e-6 ml/min per ROI pixel
        drift = np.abs(plus_flow.values - base_flow.values).max()
        assert drift <= 1e-6 * mask.n_members

    def test_constant_offset_invariance_general(self):
        series, mask, _ = images(duration_s=60.0, seed=5)
        roi = RoiSeries.from_static(mask, series.n_frames)
        base_flow = compute_flow(correct_background(series, roi)[0], roi)
        rng = np.random.default_rng(7)
        for c in rng.uniform(-20.0, 20.0, 3):
            flow_c = compute_flow(correct_background(shifted(series, float(c)), roi)[0], roi)
            drift = np.abs(flow_c.values - base_flow.values).max()
            assert drift <= 1e-6 * mask.n_members

    def test_zero_background_unbiased(self):
        series, mask, _ = images(duration_s=60.0, seed=5)
        roi = RoiSeries.from_static(mask, series.n_frames)
        _, estimate = correct_background(series, roi)
        assert estimate.offset_mm_s == 0.0

    def test_synthetic_eddy_recovered(self):
        series, mask, _ = images(duration_s=60.0, seed=5,
                                 artifacts={"eddy_offset_mm_s": 3.0})
        roi = RoiSeries.from_static(mask, series.n_frames)
        _, estimate = correct_background(series, roi)
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
        roi = RoiSeries.from_static(mask, noisy.n_frames)
        _, estimate = correct_background(noisy, roi)
        assert estimate.offset_mm_s == pytest.approx(3.0, abs=0.1)

    def test_band_disjoint_from_roi(self):
        series, mask, _ = images(duration_s=60.0, seed=5)
        roi = RoiSeries.from_static(mask, series.n_frames)
        _, estimate = correct_background(series, roi)
        assert not (estimate.band & roi.union()).any()
        assert estimate.n_band_pixels >= 8

    @pytest.mark.parametrize("radius", [3.0, 6.0])
    def test_blockwise_std_matches_whole_ring(self, radius):
        # The ring of a radius-6 disk holds more pixels than one std block,
        # and not a whole number of blocks.
        rng = np.random.default_rng(4)
        frames = rng.normal(2.0, 5.0, (300, 40, 40)) * rng.uniform(0.2, 3.0, (40, 40))
        series = VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=800.0, pixel_area_mm2=0.25)
        roi = RoiSeries.from_static(RoiMask(disk_mask(40, 40, 20, 20, radius)), series.n_frames)
        corrected, estimate = correct_background(series, roi)
        # The whole-ring computation the function used to run.
        ring = distance_band(roi.union(), 2.0, BAND_OUTER_PX)
        assert ring.sum() > STD_BLOCK_PIXELS and ring.sum() % STD_BLOCK_PIXELS
        ring_values = series.frames[:, ring].astype(np.float64)
        stds = ring_values.std(axis=0)
        keep = stds <= np.quantile(stds, 0.25)
        band = np.zeros_like(ring)
        band[tuple(idx[keep] for idx in np.nonzero(ring))] = True
        offset = float(np.median(ring_values[:, keep]))
        assert estimate.offset_mm_s == offset
        assert np.array_equal(estimate.band, band)
        assert estimate.n_band_pixels == int(keep.sum())
        assert np.array_equal(corrected.frames, (series.frames.astype(np.float64) - offset).astype(np.float32))

    def test_insufficient_band(self):
        # ROI fills almost the whole image; nothing left for the band
        full = RoiMask(membership=np.ones((8, 8), dtype=bool))
        series = VelocityMapSeries(frames=np.ones((3, 8, 8)), dt_ms=75.0,
                                   venc_mm_s=800.0, pixel_area_mm2=0.25)
        with pytest.raises(InsufficientStationaryTissue):
            correct_background(series, RoiSeries.from_static(full, 3))


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


class TestUnalias:
    def test_wrap_arithmetic_example(self):
        # one wrapped pixel at -700 among neighbors around 850, venc 800
        values = np.array([830.0, 840.0, 850.0, 860.0, 870.0, -700.0])
        frames = values.reshape(1, 1, 6)
        series = VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=800.0, pixel_area_mm2=0.25)
        roi = RoiSeries.from_static(RoiMask(membership=np.ones((1, 6), dtype=bool)), 1)
        fixed = unalias(series, roi)
        assert fixed.frames[0, 0, 5] == 900.0
        assert np.array_equal(fixed.frames[0, 0, :5], frames[0, 0, :5])

    def test_within_venc_untouched(self):
        values = np.array([[700.0, 750.0, 800.0, 820.0]])
        series = VelocityMapSeries(frames=values[None], dt_ms=75.0, venc_mm_s=800.0,
                                   pixel_area_mm2=0.25)
        roi = RoiSeries.from_static(RoiMask(membership=np.ones((1, 4), dtype=bool)), 1)
        fixed = unalias(series, roi)
        assert np.array_equal(fixed.frames, series.frames)

    def test_synthgen_wrapped_pixels_all_restored(self):
        clean, mask, _ = images(duration_s=60.0, seed=5)
        aliased, _, truth = images(duration_s=60.0, seed=5,
                                   artifacts={"aliased_pixel_fraction": 0.1})
        assert len(truth.wrapped_pixels) > 100
        roi = RoiSeries.from_static(mask, aliased.n_frames)
        fixed = unalias(aliased, roi)
        assert np.array_equal(fixed.frames, clean.frames)
        flow_truth = signals(duration_s=60.0, seed=5).flow
        flow_fixed = compute_flow(fixed, roi)
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
            over_y, over_x = np.nonzero(mask.membership & (frames[t] > series.venc_mm_s))
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
        roi = RoiSeries.from_static(mask, series.n_frames)
        fixed = unalias(wrapped, roi)
        assert np.array_equal(fixed.frames, series.frames)

    def test_empty_and_single_pixel_frames_noop(self):
        frames = np.full((2, 2, 2), 500.0)
        series = VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=100.0, pixel_area_mm2=0.25)
        empty = np.zeros((2, 2), dtype=bool)
        single = np.array([[True, False], [False, False]])
        roi = RoiSeries(masks=np.stack([empty, single]))
        fixed = unalias(series, roi)
        assert np.array_equal(fixed.frames, series.frames)


class TestComputeFlow:
    def test_unit_arithmetic(self):
        frames = np.array([[[100.0, 200.0]]])
        series = VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=800.0, pixel_area_mm2=0.25)
        roi = RoiSeries.from_static(RoiMask(membership=np.ones((1, 2), dtype=bool)), 1)
        with pytest.raises(TooShort):
            compute_flow(series, roi)  # one frame cannot form a signal
        frames = np.tile(frames, (2, 1, 1))
        series = VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=800.0, pixel_area_mm2=0.25)
        roi = RoiSeries.from_static(RoiMask(membership=np.ones((1, 2), dtype=bool)), 2)
        flow = compute_flow(series, roi)
        assert flow.values == pytest.approx([4.5, 4.5])
        assert flow.dt_s == pytest.approx(0.075)
        assert flow.kind == "flow"

    def test_all_zero(self):
        series = VelocityMapSeries(frames=np.zeros((4, 3, 3)), dt_ms=75.0, venc_mm_s=800.0,
                                   pixel_area_mm2=0.25)
        roi = RoiSeries.from_static(RoiMask(membership=np.ones((3, 3), dtype=bool)), 4)
        assert np.all(compute_flow(series, roi).values == 0.0)

    def test_synthgen_mean_flow_anchor(self):
        series, mask, _ = images(duration_s=60.0, seed=5)
        flow = compute_flow(series, RoiSeries.from_static(mask, series.n_frames))
        assert flow.values.mean() == pytest.approx(740.0, rel=0.01)

    def test_empty_roi_frame_yields_zero(self):
        frames = np.full((3, 2, 2), 100.0)
        series = VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=800.0, pixel_area_mm2=0.25)
        member = np.ones((2, 2), dtype=bool)
        empty = np.zeros((2, 2), dtype=bool)
        roi = RoiSeries(masks=np.stack([member, empty, member]))
        flow = compute_flow(series, roi)
        assert flow.values[1] == 0.0
        assert roi.n_empty_frames() == 1

    def test_crop_exact_for_wide_value_range(self):
        # ROI values spanning ~2**40, so the float64 frame sums are inexact
        rng = np.random.default_rng(4)
        frames = rng.normal(0.0, 300.0, size=(6, 24, 20))
        member = np.zeros((24, 20), dtype=bool)
        member[10:14, 2:7] = True
        frames[:, member] = rng.choice([700.0, -650.0, 3e-9, -7e-10], size=(6, int(member.sum())))
        series = VelocityMapSeries(frames=frames, dt_ms=75.0, venc_mm_s=800.0, pixel_area_mm2=0.25)
        roi = RoiSeries.from_static(RoiMask(membership=member), 6)
        vals = series.frames[:, member].astype(np.float64)
        assert any(v.sum() != math.fsum(v) for v in vals)
        window = roi_window(member)
        cropped = VelocityMapSeries(frames=frames[(slice(None),) + window], dt_ms=75.0,
                                    venc_mm_s=800.0, pixel_area_mm2=0.25)
        assert cropped.frames.shape[1:] == (16, 13)
        cropped_roi = RoiSeries.from_static(RoiMask(membership=member[window]), 6)
        full = compute_flow(series, roi).values
        assert np.array_equal(compute_flow(cropped, cropped_roi).values, full)

    def test_linearity(self):
        series, mask, _ = images(duration_s=60.0, seed=5)
        roi = RoiSeries.from_static(mask, series.n_frames)
        base = compute_flow(series, roi)
        scaled = VelocityMapSeries(frames=series.frames * 2.0, dt_ms=series.dt_ms,
                                   venc_mm_s=series.venc_mm_s, pixel_area_mm2=series.pixel_area_mm2)
        assert compute_flow(scaled, roi).values == pytest.approx(2.0 * base.values, rel=1e-6)

    def test_dimension_mismatch_rejected(self):
        series = VelocityMapSeries(frames=np.zeros((3, 4, 4)), dt_ms=75.0,
                                   venc_mm_s=800.0, pixel_area_mm2=0.25)
        wrong_count = RoiSeries.from_static(RoiMask(membership=np.ones((4, 4), dtype=bool)), 2)
        with pytest.raises(ValueError):
            compute_flow(series, wrong_count)
        wrong_shape = RoiSeries.from_static(RoiMask(membership=np.ones((5, 5), dtype=bool)), 3)
        with pytest.raises(ValueError):
            compute_flow(series, wrong_shape)


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
