"""Velocity-map series to calibrated flow signal.

The chain is: grow a ROI from a seed (or take an externally edited mask),
estimate the stationary-tissue velocity offset, take the ROI's velocities
with that offset subtracted, unwrap those that exceeded the encoding limit,
integrate them to ml/min, and sum arteries. A spectral quality gate flags
signals without a usable cardiac component.

A ROI is one bool (height, width) mask, applied to every frame, as read_mask
and segment_roi give it. The chain after segmentation takes only two sets of
pixels, the ROI and its background ring (background_ring), each as a float32
(frames, members) matrix in row-major member order: io.read_pixels reads
both from a file in one pass, and roi_values takes one from a series in
memory. correct_background takes the ring's matrix; subtract_offset, unalias
and compute_flow work on the ROI's. No step writes to a series' frames.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    EmptySegmentation,
    GridMismatch,
    InsufficientStationaryTissue,
    NonFiniteVelocity,
    SeedOutsideVessel,
    TooShort,
)
from .io import Frozen, SampledSignal, VelocityMapSeries
from .numerics import distance_band, median, quantile, quantile_of_blocks, seed_component, welch
from .report import (
    CARDIAC_BAND_HZ,
    MAX_RADIUS_PX,
    MIN_QC_SAMPLES,
    NOISE_BAND_HZ,
    SNR_THRESHOLD,
    THRESHOLD_FRACTION,
    WELCH_SEGMENT,
    QcFlags,
)

#: 1 mm^3/s = 0.06 ml/min
ML_MIN_PER_MM3_S = 0.06

#: The settings of correct_background's stationary-tissue band (see there);
#: roi_window grows the ROI box by ceil(BAND_OUTER_PX), so the band lies in it.
BAND_INNER_PX = 2.0
BAND_OUTER_PX = 6.0
BAND_QUANTILE = 0.25
MIN_BAND_PIXELS = 8

#: Least half-width of the first window `extract --seed` reads around the seed.
COMPONENT_START_HALF_PX = 16

#: Values a bounded gather over frames takes at once: about the ring values of
#: one float64 std block of correct_background, or one block of segment_roi's
#: reference speeds or of the band median's compaction. unalias and
#: compute_flow take the ROI matrix in row blocks of at most BLOCK_VALUES // 8
#: values, since each of unalias's (frames, k) blocks costs about eight
#: float64 arrays of its size (512 KiB in all).
BLOCK_VALUES = 1 << 16


class BackgroundEstimate(Frozen):
    """Static velocity offset estimated from quiet tissue around the ROI;
    band is a bool (height, width) mask, disjoint from the ROI."""

    __slots__ = ("offset_mm_s", "band", "n_band_pixels")

    def __init__(self, offset_mm_s: float, band: np.ndarray, n_band_pixels: int):
        self._fill(locals())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BackgroundEstimate):
            return NotImplemented
        return (self.offset_mm_s == other.offset_mm_s and self.n_band_pixels == other.n_band_pixels
                and bool(np.array_equal(self.band, other.band)))


def segment_roi(
    series: VelocityMapSeries,
    seed: tuple,
    velocity_threshold_fraction: float = THRESHOLD_FRACTION,
    max_radius_px: float = MAX_RADIUS_PX,
) -> np.ndarray:
    """Grow a static ROI from a seed pixel by velocity thresholding.

    The threshold is velocity_threshold_fraction times the 99th percentile of
    |velocity| within max_radius_px of the seed, pooled over all frames. The
    ROI is the union over frames of each frame's 4-connected component of
    above-threshold pixels that contains the seed; a frame where the seed
    falls below threshold adds nothing. Returns one bool (height, width)
    mask, so every frame's flow sums the same pixels and the flow gain does
    not change from frame to frame.

    Parameters
    ----------
    series : VelocityMapSeries
    seed : (x, y) pixel coordinate
    velocity_threshold_fraction : float
        Fraction of the pooled 99th-percentile reference speed.
    max_radius_px : float
        Radius of the reference neighborhood around the seed; finite and >= 0.
    """
    sx, sy = int(seed[0]), int(seed[1])
    if not (0 <= sx < series.width and 0 <= sy < series.height):
        raise ValueError(f"seed {seed} outside {series.width}x{series.height} image")
    if not (0.0 < velocity_threshold_fraction <= 1.0):
        raise ValueError("velocity_threshold_fraction must be in (0, 1]")
    if not (math.isfinite(max_radius_px) and max_radius_px >= 0.0):
        raise ValueError(f"max_radius_px must be finite and >= 0, got {max_radius_px!r}")
    yy, xx = np.mgrid[0 : series.height, 0 : series.width]
    near = np.flatnonzero((xx - sx) ** 2 + (yy - sy) ** 2 <= max_radius_px**2)
    # The neighbourhood's speeds a block of frames at a time: a percentile
    # depends only on the multiset of values, and quantile_of_blocks keeps
    # only the largest 1 % of them. np.percentile(speeds, 99.0) is their
    # quantile at 99.0 / 100 == 0.99.
    flat = series.frames.reshape(series.n_frames, -1)
    step = max(1, BLOCK_VALUES // near.size)
    speeds = (np.abs(np.take(flat[lo : lo + step], near, axis=1)).reshape(-1)
              for lo in range(0, series.n_frames, step))
    reference = float(quantile_of_blocks(speeds, series.n_frames * near.size, 0.99))
    if reference <= 0.0:
        raise EmptySegmentation(f"no velocity signal within {max_radius_px} px of seed {seed}")
    threshold = velocity_threshold_fraction * reference

    roi = seed_component(series.frames, threshold, sy, sx)
    if not roi[sy, sx]:
        raise SeedOutsideVessel(f"seed {seed} below threshold {threshold:.3g} mm/s in every frame")
    return roi


def roi_window(roi: np.ndarray) -> tuple[slice, slice]:
    """The (rows, cols) window the chain reads around a ROI.

    It is the ROI's bounding box grown by ceil(BAND_OUTER_PX) and clipped to
    the image; an empty ROI gives the whole image.
    """
    height, width = roi.shape
    if not roi.any():
        return slice(0, height), slice(0, width)
    margin_px = math.ceil(BAND_OUTER_PX)
    rows = np.flatnonzero(roi.any(axis=1))
    cols = np.flatnonzero(roi.any(axis=0))
    return (
        slice(max(int(rows[0]) - margin_px, 0), min(int(rows[-1]) + margin_px + 1, height)),
        slice(max(int(cols[0]) - margin_px, 0), min(int(cols[-1]) + margin_px + 1, width)),
    )


def seed_window(seed_row: int, seed_col: int, half: int, height: int, width: int) -> tuple:
    """(rows, cols) slices of the square of half-width half around the seed,
    clipped to the image."""
    return (
        slice(max(seed_row - half, 0), min(seed_row + half + 1, height)),
        slice(max(seed_col - half, 0), min(seed_col + half + 1, width)),
    )


def background_ring(roi: np.ndarray) -> np.ndarray:
    """The pixels BAND_INNER_PX to BAND_OUTER_PX (2 to 6 px) from a ROI, as a
    bool (height, width) mask: correct_background's candidates for the band.

    roi is one (height, width) mask, read as membership (nonzero is True);
    an empty ROI has an empty ring.
    """
    mask = np.asarray(roi, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"ROI of shape {np.shape(roi)} is not one (height, width) mask")
    window = roi_window(mask)  # it holds the ring, and every ROI pixel
    ring = np.zeros_like(mask)
    ring[window] = distance_band(mask[window], BAND_INNER_PX, BAND_OUTER_PX)
    return ring


def correct_background(ring_values: np.ndarray, ring: np.ndarray) -> BackgroundEstimate:
    """Estimate the stationary-tissue velocity offset (eddy-current bias).

    ring is background_ring's mask around the ROI, and ring_values its
    float32 (frames, ring pixels) matrix, as read_pixels or roi_values take
    it. The ring pixels whose temporal standard deviation is at most its
    BAND_QUANTILE quantile over the ring form the band, which needs
    MIN_BAND_PIXELS. The offset is the median velocity over band pixels and
    frames, treated as static; subtract_offset subtracts it. The band median
    is taken in ring_values' own memory, so ring_values is overwritten.
    """
    ring = np.asarray(ring, dtype=bool)
    n_ring = int(np.count_nonzero(ring))
    if ring.ndim != 2 or ring_values.dtype != np.float32 or ring_values.shape[1:] != (n_ring,):
        raise ValueError(f"a {ring_values.dtype} matrix of shape {ring_values.shape} is not the "
                         f"float32 (frames, {n_ring}) matrix of a ring mask of shape {ring.shape}")
    if not n_ring:
        raise InsufficientStationaryTissue("no pixels in the distance band around the ROI")
    step = max(1, BLOCK_VALUES // len(ring_values))
    # Blocks of about BLOCK_VALUES values. Each pixel's frames are one
    # contiguous float64 column, which numpy reduces on its own: a pixel's
    # std does not depend on its block.
    stds = np.concatenate([
        ring_values[:, lo : lo + step].astype(np.float64, order="F").std(axis=0)
        for lo in range(0, n_ring, step)
    ])
    keep = stds <= quantile(stds, BAND_QUANTILE)
    n_band = int(keep.sum())
    if n_band < MIN_BAND_PIXELS:
        raise InsufficientStationaryTissue(f"{n_band} quiet band pixels, need {MIN_BAND_PIXELS}")
    band = np.zeros_like(ring)
    band[ring] = keep
    offset = _band_median(ring_values, keep)
    return BackgroundEstimate(offset_mm_s=offset, band=band, n_band_pixels=n_band)


def roi_values(series: VelocityMapSeries, roi: np.ndarray) -> np.ndarray:
    """The velocities of a mask's members as a new float32 (frames, members)
    matrix, each row one frame's members in row-major order: what
    read_pixels reads from a file, from a series in memory. roi is one
    (height, width) mask (a ROI or its ring), read as membership."""
    members = np.flatnonzero(_check_roi(series, roi))
    return np.take(series.frames.reshape(series.n_frames, -1), members, axis=1)


def subtract_offset(values: np.ndarray, offset_mm_s: float) -> None:
    """Subtract a background offset from a float32 ROI matrix, in place.

    The offset is subtracted in float64 and rounded once to float32; a value
    it takes beyond the float32 range raises NonFiniteVelocity. The offset
    is used as given, so a -0.0 offset turns a -0.0 velocity into +0.0, as
    IEEE subtraction does.
    """
    try:
        with np.errstate(over="raise"):
            np.subtract(values, offset_mm_s, out=values, dtype=np.float64, casting="same_kind")
    except FloatingPointError:
        raise NonFiniteVelocity(
            f"background correction: subtracting the offset {offset_mm_s!r} mm/s takes a velocity "
            "beyond the float32 range"
        ) from None


def _band_median(values: np.ndarray, keep: np.ndarray) -> float:
    """float(np.median(values[:, keep].astype(np.float64))), bit for bit,
    taken in values' own memory, which it overwrites.

    values is a float32 (frames, ring) matrix and keep a bool mask of its
    columns. A block of rows at a time, the kept columns are gathered and
    written to the front of the matrix's flat memory, in (frames, band)
    order: a row's band values land no later than its own start, so no row
    is overwritten before it is gathered. numerics.median of that float32
    prefix, its middle averaged in float64, is np.median's value; only the
    sign of a zero median can differ, and only where the band holds a -0.0,
    because which zero np.median picks follows its float64 partition. So a
    band holding a -0.0 takes that partition, on a float64 copy.
    """
    columns = np.flatnonzero(keep)
    flat = values.reshape(-1)
    n_band = columns.size
    step = max(1, BLOCK_VALUES // values.shape[1])
    negative_zero = False
    for lo in range(0, len(values), step):
        block = np.take(values[lo : lo + step], columns, axis=1)
        # 0x80000000 is the bit pattern of -0.0.
        negative_zero = negative_zero or bool((block.view(np.uint32) == 0x80000000).any())
        flat[lo * n_band : lo * n_band + block.size] = block.reshape(-1)
    band = flat[: len(values) * n_band]
    if negative_zero:
        band = band.astype(np.float64)
    return float(median(band, overwrite_input=True))


def _check_roi(series: VelocityMapSeries, roi: np.ndarray) -> np.ndarray:
    """The ROI as one bool (height, width) mask, or ValueError naming both shapes.

    roi is read as membership (nonzero is True), so a 0/255 mask is never an
    index array.
    """
    mask = np.asarray(roi, dtype=bool)
    if mask.shape != (series.height, series.width):
        raise ValueError(f"ROI of shape {np.shape(roi)} is not the frames' (height, width) "
                         f"(series shape {series.frames.shape})")
    return mask


def _leave_one_out_medians(values: np.ndarray) -> np.ndarray:
    """Median of the other elements of each row, for each element.

    values is 1-D or (rows, k), with k >= 2. The median of the other k - 1
    elements is s[i] or s[i + 1] of the sorted row, for one or two middle
    positions i, by whether the element's own rank is <= i. np.partition
    gives those order statistics, and the rank test is v <= s[i]: the two
    differ only where v == s[i] == s[i + 1], where both picks are equal.
    """
    c = values.shape[-1] - 1
    mid = c // 2
    if c % 2 == 1:
        s = np.partition(values, (mid, mid + 1), axis=-1)
        return _pick(values, s, mid)
    s = np.partition(values, (mid - 1, mid, mid + 1), axis=-1)
    return 0.5 * (_pick(values, s, mid - 1) + _pick(values, s, mid))


def _pick(values: np.ndarray, s: np.ndarray, i: int) -> np.ndarray:
    """s[i + 1] where an element's rank in its row is <= i, else s[i]."""
    return np.where(values <= s[..., i, None], s[..., i + 1, None], s[..., i, None])


def _row_blocks(values: np.ndarray):
    """(first row, block) of consecutive row blocks of the (frames, k) matrix,
    each of at most BLOCK_VALUES // 8 values, or one row."""
    step = max(1, (BLOCK_VALUES // 8) // max(values.shape[1], 1))
    for lo in range(0, len(values), step):
        yield lo, values[lo : lo + step]


def unalias(values: np.ndarray, venc_mm_s: float) -> int:
    """Unwrap ROI velocities that jumped by multiples of twice the limit.

    values is the ROI's float32 (frames, ROI pixels) matrix, unwrapped in
    place. Per frame, each ROI pixel is compared with the median of the
    other ROI pixels; if it deviates by more than venc it is shifted by the
    multiple of 2*venc that brings it closest to that median. One pass only.
    The shift is added in float64 and rounded once to float32; a shifted
    value beyond the float32 range raises NonFiniteVelocity. Pixels wrapped
    so far that they land within venc of the median (true speed beyond
    median + venc) cannot be recovered this way. Returns the number of
    pixel-frames whose float32 value the shift changed.

    Rows are taken as float64 blocks of at most BLOCK_VALUES // 8 values,
    whose rows give the medians at once.

    Valid while venc stays above about 0.6 x the systolic peak velocity.
    Below that, pixels that never wrapped are shifted too: a radius-6 px
    vessel at venc 600 mm/s had 13,519 pixels changed against 13,394
    wrapped. Nothing flags this.
    """
    if values.shape[1] < 2:
        return 0
    two_venc = 2.0 * venc_mm_s
    n_changed = 0
    for lo, block in _row_blocks(values):
        vals = block.astype(np.float64)
        deltas = _leave_one_out_medians(vals)
        deltas -= vals
        r, c = np.nonzero(np.abs(deltas) > venc_mm_s)
        if r.size:
            before = vals[r, c]
            try:
                with np.errstate(over="raise"):
                    shifted = (before + two_venc * np.round(deltas[r, c] / two_venc)).astype(np.float32)
            except FloatingPointError:
                raise NonFiniteVelocity(
                    "unaliasing: a shift by a multiple of 2 x venc takes a velocity beyond the float32 range"
                ) from None
            values[lo + r, c] = shifted
            n_changed += int(np.count_nonzero(shifted != before))
    return n_changed


def compute_flow(values: np.ndarray, pixel_area_mm2: float, dt_s: float) -> SampledSignal:
    """Integrate ROI velocities to a flow-rate signal in ml/min.

    values is the ROI's (frames, ROI pixels) matrix, in mm/s. Q(t) = 0.06 *
    pixel_area_mm2 * the sum of row t; an empty ROI yields Q = 0. Rows are
    summed as C-contiguous float64 blocks of at most BLOCK_VALUES // 8
    values, which numpy sums row by row as it sums the 1-D frame[roi], so
    no row's sum depends on its block or on the pixels around the ROI.
    """
    sums = np.concatenate([block.astype(np.float64).sum(axis=1) for _lo, block in _row_blocks(values)])
    q = ML_MIN_PER_MM3_S * pixel_area_mm2 * sums
    return SampledSignal(t0_s=0.0, dt_s=dt_s, values=q, kind="flow")


def sum_flows(signals: list) -> SampledSignal:
    """Pointwise sum of flow signals sharing one sampling grid."""
    if not signals:
        raise GridMismatch("no signals to sum")
    first = signals[0]
    if len(signals) == 1:
        if first.kind != "flow":
            raise GridMismatch(f"expected flow signals, got kind {first.kind!r}")
        return first
    total = np.zeros_like(first.values)
    for s in signals:
        if s.kind != "flow":
            raise GridMismatch(f"expected flow signals, got kind {s.kind!r}")
        if len(s) != len(first):
            raise GridMismatch(f"signal lengths differ: {len(s)} vs {len(first)}")
        if abs(s.dt_s - first.dt_s) > 1e-9:
            raise GridMismatch(f"sampling intervals differ: {s.dt_s} vs {first.dt_s}")
        if abs(s.t0_s - first.t0_s) > 1e-9:
            raise GridMismatch(f"start times differ: {s.t0_s} vs {first.t0_s}")
        total += s.values
    return SampledSignal(t0_s=first.t0_s, dt_s=first.dt_s, values=total, kind="flow")


def quality_score(flow: SampledSignal, snr_threshold: float = SNR_THRESHOLD) -> QcFlags:
    """Spectral cardiac SNR gate.

    cardiac_snr is the peak Welch-periodogram power in CARDIAC_BAND_HZ
    (0.7-2.0 Hz) over the median power in NOISE_BAND_HZ (2.5-6.0 Hz);
    signals below snr_threshold are flagged for exclusion. The ratio is
    capped at 1e15 so it stays JSON-representable. The settings live in
    rtpc.report.
    """
    if len(flow) < MIN_QC_SAMPLES:
        raise TooShort(f"quality gate needs >= {MIN_QC_SAMPLES} samples, got {len(flow)}")
    fs = 1.0 / flow.dt_s
    freqs, power = welch(flow.values, fs, min(WELCH_SEGMENT, len(flow)))
    cardiac = (freqs >= CARDIAC_BAND_HZ[0]) & (freqs <= CARDIAC_BAND_HZ[1])
    noise = (freqs >= NOISE_BAND_HZ[0]) & (freqs <= NOISE_BAND_HZ[1])
    if not cardiac.any() or not noise.any():
        raise TooShort(f"sampling rate {fs:.3g} Hz cannot resolve the scoring bands")
    peak = float(power[cardiac].max())
    noise_floor = float(median(power[noise], overwrite_input=True))
    if peak <= 0.0:
        snr = 0.0
    elif noise_floor <= peak * 1e-15:
        snr = 1e15
    else:
        snr = peak / noise_floor
    return QcFlags(cardiac_snr=snr, excluded=snr < snr_threshold)
