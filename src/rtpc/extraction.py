"""Velocity-map series to calibrated flow signal.

The chain is: grow a per-frame ROI from a seed (or take externally edited
masks), estimate and subtract the stationary-tissue velocity offset, unwrap
velocities that exceeded the encoding limit, integrate to ml/min, and sum
arteries. A spectral quality gate flags signals without a usable cardiac
component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptySegmentation,
    GridMismatch,
    InsufficientStationaryTissue,
    SeedOutsideVessel,
    TooShort,
)
from .io import RoiMask, SampledSignal, VelocityMapSeries, frame_chunks
from .numerics import distance_band, gather_blocks, ranked_values, seed_component, welch
from .report import QcFlags

#: 1 mm^3/s = 0.06 ml/min
ML_MIN_PER_MM3_S = 0.06

#: Default outer edge (pixels) of correct_background's stationary-tissue band;
#: roi_window grows the ROI box by its ceiling, so the band lies in the window.
BAND_OUTER_PX = 6.0

#: Ring pixels whose temporal std correct_background takes at once; a block
#: holds n_frames x STD_BLOCK_PIXELS float64 values.
STD_BLOCK_PIXELS = 32

#: Values a bounded gather over frames takes at once: the ROI values of one
#: unalias float64 matrix (512 KiB), and the band values of one float32 block
#: of the background median.
UNALIAS_BLOCK_VALUES = 1 << 16


@dataclass(frozen=True, eq=False)
class RoiSeries:
    """One ROI mask per frame: a read-only bool array (n_frames, height, width)."""

    masks: np.ndarray

    def __post_init__(self):
        masks = np.asarray(self.masks, dtype=bool)
        if masks.ndim != 3 or min(masks.shape) < 1:
            raise ValueError(
                f"RoiSeries needs a non-empty (frames, height, width) array, got {masks.shape}"
            )
        masks = masks.view()
        masks.flags.writeable = False
        object.__setattr__(self, "masks", masks)

    def __len__(self) -> int:
        return len(self.masks)

    @classmethod
    def from_static(cls, mask: RoiMask, n_frames: int) -> "RoiSeries":
        return cls(masks=np.broadcast_to(mask.membership, (n_frames, *mask.membership.shape)))

    def union(self) -> np.ndarray:
        return self.masks.any(axis=0)

    def n_empty_frames(self) -> int:
        return int(np.count_nonzero(~self.masks.any(axis=(1, 2))))


@dataclass(frozen=True)
class BackgroundEstimate:
    """Static velocity offset estimated from quiet tissue around the ROI."""

    offset_mm_s: float
    band: np.ndarray  # bool (height, width), disjoint from the union ROI
    n_band_pixels: int


def segment_roi(
    series: VelocityMapSeries,
    seed: tuple,
    velocity_threshold_fraction: float = 0.5,
    max_radius_px: float = 12.0,
) -> RoiSeries:
    """Grow a per-frame ROI from a seed pixel by velocity thresholding.

    The threshold is velocity_threshold_fraction times the 99th percentile of
    |velocity| within max_radius_px of the seed, pooled over all frames. Per
    frame the ROI is the 4-connected component of above-threshold pixels that
    contains the seed. Frames where the seed falls below threshold inherit
    the previous frame's mask (leading empty frames inherit the first
    non-empty one).

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
    neighborhood = (xx - sx) ** 2 + (yy - sy) ** 2 <= max_radius_px**2
    # One contiguous gather, made absolute and partitioned in place (a
    # percentile depends only on the multiset of values), and freed before
    # the masks are grown.
    near = np.take(series.frames.reshape(series.n_frames, -1), np.flatnonzero(neighborhood), axis=1)
    reference = float(np.percentile(np.abs(near, out=near), 99.0, overwrite_input=True))
    del near
    if reference <= 0.0:
        raise EmptySegmentation(f"no velocity signal within {max_radius_px} px of seed {seed}")
    threshold = velocity_threshold_fraction * reference

    masks = seed_component(series.frames, threshold, sy, sx)
    seeded = masks[:, sy, sx]
    if not seeded.any():
        raise SeedOutsideVessel(f"seed {seed} below threshold {threshold:.3g} mm/s in every frame")

    # Empty frames fall back to the previous seeded frame's mask, leading
    # ones to the first seeded frame's.
    frame_idx = np.arange(seeded.size)
    source = np.maximum.accumulate(np.where(seeded, frame_idx, int(np.argmax(seeded))))
    empty = ~seeded
    masks[empty] = masks[source[empty]]
    return RoiSeries(masks=masks)


def roi_window(union: np.ndarray) -> tuple[slice, slice]:
    """The (rows, cols) window the chain reads around a union ROI.

    It is the ROI's bounding box grown by ceil(BAND_OUTER_PX) and clipped to
    the image; an empty ROI gives the whole image.
    """
    height, width = union.shape
    if not union.any():
        return slice(0, height), slice(0, width)
    margin_px = math.ceil(BAND_OUTER_PX)
    rows = np.flatnonzero(union.any(axis=1))
    cols = np.flatnonzero(union.any(axis=0))
    return (
        slice(max(int(rows[0]) - margin_px, 0), min(int(rows[-1]) + margin_px + 1, height)),
        slice(max(int(cols[0]) - margin_px, 0), min(int(cols[-1]) + margin_px + 1, width)),
    )


def correct_background(
    series: VelocityMapSeries,
    roi: RoiSeries,
    band_inner_px: float = 2.0,
    band_outer_px: float = BAND_OUTER_PX,
    variance_quantile: float = 0.25,
    min_band_pixels: int = 8,
    out: np.ndarray | None = None,
) -> tuple[VelocityMapSeries, BackgroundEstimate]:
    """Subtract the stationary-tissue velocity offset (eddy-current bias).

    Candidate pixels lie at distance [band_inner_px, band_outer_px] from the
    union ROI; of those, the quietest variance_quantile by temporal standard
    deviation form the band. The offset is the median velocity over band
    pixels and frames, treated as static, and is subtracted from every pixel
    of every frame, in float64 and rounded once to float32.

    The corrected frames go to out, a writable C-contiguous float32 array of
    the series' shape, which may be series.frames itself; None writes them
    to a new array. Every check runs before the first write, so an error
    leaves out as it was.
    """
    if not (0 < band_inner_px <= band_outer_px):
        raise ValueError("need 0 < band_inner_px <= band_outer_px")
    _check_roi(series, roi)
    _check_out(series, out)
    union = roi.union()
    if not union.any():
        raise ValueError("ROI is empty in every frame")
    ring = distance_band(union, band_inner_px, band_outer_px)
    if not ring.any():
        raise InsufficientStationaryTissue("no pixels in the distance band around the ROI")
    rows, cols = np.nonzero(ring)
    # The gather lays each pixel's frames out as one contiguous column, which
    # numpy reduces on its own: a pixel's std does not depend on its block.
    stds = np.concatenate([
        series.frames[:, rows[b : b + STD_BLOCK_PIXELS], cols[b : b + STD_BLOCK_PIXELS]]
        .astype(np.float64)
        .std(axis=0)
        for b in range(0, rows.size, STD_BLOCK_PIXELS)
    ])
    keep = stds <= np.quantile(stds, variance_quantile)
    n_band = int(keep.sum())
    if n_band < min_band_pixels:
        raise InsufficientStationaryTissue(f"{n_band} quiet band pixels, need {min_band_pixels}")
    band = np.zeros_like(ring)
    band[rows[keep], cols[keep]] = True
    flat = series.frames.reshape(series.n_frames, -1)
    offset = _band_median(flat, rows[keep] * series.width + cols[keep])
    frames = np.empty_like(series.frames) if out is None else out
    # Buffered by numpy: float64 arithmetic with no full-size temporary.
    np.subtract(series.frames, offset, out=frames, dtype=np.float64, casting="same_kind")
    corrected = VelocityMapSeries(
        frames=frames,
        dt_ms=series.dt_ms,
        venc_mm_s=series.venc_mm_s,
        pixel_area_mm2=series.pixel_area_mm2,
    )
    return corrected, BackgroundEstimate(offset_mm_s=offset, band=band, n_band_pixels=n_band)


def _band_median(flat: np.ndarray, pixels: np.ndarray) -> float:
    """float(np.median(flat[:, pixels].astype(np.float64))), bit for bit.

    flat is (frames, pixels). numerics.ranked_values selects the middle
    value, or the middle two, a block of at most UNALIAS_BLOCK_VALUES values
    at a time, with no gather of the whole band; that value, or the float64
    mean of the two, is np.median's. Only the sign of a zero can tell them apart: where the
    middle is zero and the band holds a -0.0, which zero np.median picks
    follows its float64 partition, so the median is taken that way.
    """
    n_values = len(flat) * pixels.size
    half = n_values // 2
    kth = (half,) if n_values % 2 else (half - 1, half)
    middle = [float(v) for v in ranked_values(flat, pixels, kth, UNALIAS_BLOCK_VALUES)]
    blocks = gather_blocks(flat, pixels, UNALIAS_BLOCK_VALUES)
    if 0.0 in middle and any(np.signbit(b[b == 0.0]).any() for b in blocks):
        values = np.take(flat, pixels, axis=1).astype(np.float64)
        return float(np.median(values, overwrite_input=True))
    return middle[0] if len(middle) == 1 else (middle[0] + middle[1]) / 2.0


def _check_roi(series: VelocityMapSeries, roi: RoiSeries) -> None:
    if len(roi) != series.n_frames:
        raise ValueError(f"ROI has {len(roi)} masks for {series.n_frames} frames")
    if roi.masks.shape[1:] != (series.height, series.width):
        raise ValueError("ROI dimensions do not match the series")


def _check_out(series: VelocityMapSeries, out: np.ndarray | None) -> None:
    """out, when given, must take the series' frames as they are stored."""
    if out is None:
        return
    if not (
        isinstance(out, np.ndarray)
        and out.shape == series.frames.shape
        and out.dtype == np.float32
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise ValueError(
            f"out must be a writable C-contiguous float32 array of shape {series.frames.shape}"
        )


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


def _member_groups(masks: np.ndarray, frames: slice):
    """Blocks of frames of a chunk that have the same ROI member count k >= 2.

    masks is (n_frames, pixels). Each block is (frame indices, member
    indices), the latter (frames, k) with each frame's members in row-major
    order, and holds at most UNALIAS_BLOCK_VALUES members, or one frame. A
    static ROI (a stride-0 broadcast) has one member vector for all frames.
    """
    if masks.strides[0] == 0:
        members = np.flatnonzero(masks[0])
        if members.size < 2:
            return
        step = max(1, UNALIAS_BLOCK_VALUES // members.size)
        for lo in range(frames.start, frames.stop, step):
            t = np.arange(lo, min(lo + step, frames.stop))
            yield t, np.broadcast_to(members, (t.size, members.size))
        return
    chunk = masks[frames]
    counts = np.count_nonzero(chunk, axis=1)
    for k in np.unique(counts[counts >= 2]).tolist():
        sel = np.flatnonzero(counts == k)
        step = max(1, UNALIAS_BLOCK_VALUES // k)
        for lo in range(0, sel.size, step):
            rows = sel[lo : lo + step]
            yield frames.start + rows, np.nonzero(chunk[rows])[1].reshape(rows.size, k)


def unalias(
    series: VelocityMapSeries, roi: RoiSeries, out: np.ndarray | None = None
) -> tuple[VelocityMapSeries, int]:
    """Unwrap ROI velocities that jumped by multiples of twice the limit.

    Per frame, each ROI pixel is compared with the median of the other ROI
    pixels; if it deviates by more than venc it is shifted by the multiple of
    2*venc that brings it closest to that median. One pass only, non-ROI
    pixels untouched. The shift is added in float64 and rounded once to
    float32. Pixels wrapped so far that they land within venc of the
    median (true speed beyond median + venc) cannot be recovered this way.

    Returns the unwrapped series and the number of ROI pixel-frames whose
    float32 value the shift changed. The frames go to out, a writable
    C-contiguous float32 array of the series' shape, which may be
    series.frames itself; None writes them to a new array. Every check runs
    before the first write, so an error leaves out as it was.

    Frames are taken one frame_chunks chunk at a time. A chunk's frames are
    grouped by ROI member count k, and each group's members are gathered,
    at most UNALIAS_BLOCK_VALUES at once, as (frames, k) float64 matrices,
    whose rows give the medians at once.

    Valid while venc stays above about 0.6 x the systolic peak velocity.
    Below that, pixels that never wrapped are shifted too: a radius-6 px
    vessel at venc 600 mm/s had 13,519 pixels changed against 13,394
    wrapped. Nothing flags this.
    """
    _check_roi(series, roi)
    _check_out(series, out)
    venc = series.venc_mm_s
    two_venc = 2.0 * venc
    frames = np.empty_like(series.frames) if out is None else out
    if frames is not series.frames:
        np.copyto(frames, series.frames)
    flat = frames.reshape(series.n_frames, -1)
    masks = roi.masks.reshape(len(roi), -1)
    n_changed = 0
    for chunk in frame_chunks(series.n_frames, series.height, series.width):
        for t, members in _member_groups(masks, chunk):
            vals = flat[t[:, None], members].astype(np.float64)
            deltas = _leave_one_out_medians(vals)
            deltas -= vals
            r, c = np.nonzero(np.abs(deltas) > venc)
            if r.size:
                before = vals[r, c]
                shifted = (before + two_venc * np.round(deltas[r, c] / two_venc)).astype(np.float32)
                flat[t[r], members[r, c]] = shifted
                n_changed += int(np.count_nonzero(shifted != before))
    unwrapped = VelocityMapSeries(
        frames=frames,
        dt_ms=series.dt_ms,
        venc_mm_s=series.venc_mm_s,
        pixel_area_mm2=series.pixel_area_mm2,
    )
    return unwrapped, n_changed


def compute_flow(series: VelocityMapSeries, roi: RoiSeries) -> SampledSignal:
    """Integrate ROI velocities to a flow-rate signal in ml/min.

    Q(t) = 0.06 * pixel_area_mm2 * sum of ROI velocities (mm/s). Frames with
    an empty ROI yield Q = 0 (count them via RoiSeries.n_empty_frames for QC).
    Each frame sums only its ROI pixels, in row-major order, so the pixels
    around the ROI, and cropping them away, cannot change a flow value.
    Earlier code summed whole frames with zeros outside the ROI; where the
    float64 sum of the ROI values is not exact (values spanning more than
    about 2**20), flow can differ from its output in the last bit.
    """
    _check_roi(series, roi)
    sums = np.array([
        frame[member].astype(np.float64).sum()
        for frame, member in zip(series.frames, roi.masks)
    ])
    q = ML_MIN_PER_MM3_S * series.pixel_area_mm2 * sums
    return SampledSignal(t0_s=0.0, dt_s=series.dt_s, values=q, kind="flow")


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


def quality_score(flow: SampledSignal, snr_threshold: float = 5.0) -> QcFlags:
    """Spectral cardiac SNR gate.

    cardiac_snr is the peak Welch-periodogram power in 0.7-2.0 Hz over the
    median power in 2.5-6.0 Hz; signals below snr_threshold are flagged for
    exclusion. The ratio is capped at 1e15 so it stays JSON-representable.
    """
    if len(flow) < 64:
        raise TooShort(f"quality gate needs >= 64 samples, got {len(flow)}")
    fs = 1.0 / flow.dt_s
    freqs, power = welch(flow.values, fs, min(256, len(flow)))
    cardiac = (freqs >= 0.7) & (freqs <= 2.0)
    noise = (freqs >= 2.5) & (freqs <= 6.0)
    if not cardiac.any() or not noise.any():
        raise TooShort(f"sampling rate {fs:.3g} Hz cannot resolve the scoring bands")
    peak = float(power[cardiac].max())
    noise_floor = float(np.median(power[noise]))
    if peak <= 0.0:
        snr = 0.0
    elif noise_floor <= peak * 1e-15:
        snr = 1e15
    else:
        snr = peak / noise_floor
    return QcFlags(cardiac_snr=snr, excluded=snr < snr_threshold)
