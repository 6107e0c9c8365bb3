"""Cardiac cycle segmentation of a continuous flow signal.

Boundaries are placed at diastolic minima (min-to-min) on a cubic-spline
upsampled grid; the dominant period from the autocorrelation steers minimum
separation and the validity band. Each cycle carries the parameter triple
(mean flow, stroke volume, cardiac period), with mean flow defined as
60 * SV / period so the identity between the three is exact by construction.
detect_cycles returns the cycles as a CycleTable of arrays.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

import numpy as np

from .errors import DegenerateCycle, NoCyclesFound, TooShort
from .io import SampledSignal
from .numerics import local_maxima, spline_grid, spline_values
from .report import MIN_SEPARATION_FRACTION, PERIOD_BAND_S, UPSAMPLE_FACTOR, VALIDITY_BAND


class CycleTable:
    """The cycles between consecutive boundaries of one signal, as arrays.

    Cycle i spans samples bounds[i]..bounds[i + 1] of signal (both ends
    included) and is valid when its period lies in valid_period_s
    (inclusive). Arrays, one entry per cycle in time order:

        start_s, end_s, midpoint_s   boundary times and midpoint
        params                       3 x n rows: mean flow (ml/min), stroke
                                     volume (ml), cardiac period (s)
        valid                        period inside valid_period_s

    A stroke volume is one sum over the trapezoid terms of the whole signal,
    which are the terms np.trapezoid forms for the cycle alone, so it equals
    np.trapezoid over the cycle's samples bit for bit. The arrays are
    read-only.
    """

    def __init__(self, signal: SampledSignal, bounds: np.ndarray, valid_period_s: tuple):
        bounds = np.array(bounds, dtype=np.intp)  # a copy: it is made read-only below
        if bounds.ndim != 1 or bounds.size < 2:
            raise ValueError(f"need at least 2 boundaries, got shape {bounds.shape}")
        if bounds[0] < 0 or bounds[-1] >= len(signal):
            raise ValueError(f"boundaries {bounds[0]}..{bounds[-1]} outside the signal span")
        if (np.diff(bounds) < 2).any():
            raise DegenerateCycle("a cycle spans fewer than 2 samples")
        self.bounds = bounds
        times = signal.t0_s + bounds * signal.dt_s
        self.start_s, self.end_s = times[:-1], times[1:]
        period = self.end_s - self.start_s
        self.midpoint_s = self.start_s + 0.5 * period
        y = signal.values
        terms = signal.dt_s * (y[1:] + y[:-1]) / 2.0
        sums = [terms[i0:i1].sum() for i0, i1 in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
        stroke_volume = np.array(sums, dtype=np.float64) / 60.0
        self.params = np.stack([60.0 * stroke_volume / period, stroke_volume, period])
        lo, hi = valid_period_s
        self.valid = (lo <= period) & (period <= hi)
        for array in (bounds, self.start_s, self.end_s, self.midpoint_s, self.params, self.valid):
            array.flags.writeable = False

    def __len__(self) -> int:
        return self.valid.size


@lru_cache(maxsize=1)
def _spline_grid(t0_s: float, dt_s: float, n: int):
    """numerics.spline_grid from the samples of (t0_s, dt_s, n) to the
    dt_s / UPSAMPLE_FACTOR grid that resample evaluates.

    The records of one analyze share a sampling grid, and so do the subjects
    of a cohort, so the last grid is kept and each is factorised once. Its
    arrays are read-only, so every caller in the process may share it.
    """
    t = t0_s + np.arange(n) * dt_s
    step = dt_s / UPSAMPLE_FACTOR
    tt = np.minimum(t0_s + np.arange((n - 1) * UPSAMPLE_FACTOR + 1) * step, t[-1])
    return spline_grid(t, tt)


def resample(flow: SampledSignal) -> SampledSignal:
    """Natural cubic-spline upsampling onto a dt / UPSAMPLE_FACTOR grid.

    Original sample instants reproduce the original values (interpolation).
    The values are scipy's CubicSpline(bc_type="natural") values, bit for
    bit (numerics.spline_values on a numerics.spline_grid); the grid part is
    kept for the next signal on the same grid.
    """
    if len(flow) < 4:
        raise TooShort(f"resampling needs >= 4 samples, got {len(flow)}")
    values = spline_values(_spline_grid(flow.t0_s, flow.dt_s, len(flow)), flow.values)
    return SampledSignal(t0_s=flow.t0_s, dt_s=flow.dt_s / UPSAMPLE_FACTOR, values=values,
                         kind=flow.kind)


def _dominant_period(values: np.ndarray, dt_s: float, band: tuple) -> float:
    """Lag of the highest autocorrelation peak within the period band.

    Uses the biased FFT autocorrelation (decays with lag, so the fundamental
    wins over its multiples on equal footing) with parabolic refinement of
    the winning peak. The transform is zero-padded to the power of two at or
    above n + the largest lag read, hi + 1, so no lag read wraps around.
    """
    x = values - values.mean()
    if not (x != 0).any():
        raise NoCyclesFound("constant signal has no cardiac periodicity")
    n = x.size
    lo = max(1, int(np.ceil(band[0] / dt_s)))
    hi = min(n - 2, int(np.floor(band[1] / dt_s)))
    nfft = 1 << (n + hi).bit_length()
    spec = np.fft.rfft(x, nfft)
    acorr = np.fft.irfft(spec * np.conj(spec), nfft)[: hi + 2] / n
    if acorr[0] <= 0:
        raise NoCyclesFound("degenerate autocorrelation")
    acorr = acorr / acorr[0]
    if hi <= lo:
        raise NoCyclesFound(f"period band {band} unreachable at dt {dt_s}")
    segment = acorr[lo : hi + 1]
    local_max = (segment >= acorr[lo - 1 : hi]) & (segment >= acorr[lo + 1 : hi + 2])
    peaks = np.flatnonzero(local_max)
    if peaks.size == 0:
        raise NoCyclesFound(f"no autocorrelation peak within {band} s")
    best = peaks[int(np.argmax(segment[peaks]))] + lo  # argmax keeps the earliest tie
    # Parabolic refinement around the winning lag.
    y0, y1, y2 = acorr[best - 1], acorr[best], acorr[best + 1]
    denom = y0 - 2 * y1 + y2
    shift = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
    shift = float(np.clip(shift, -0.5, 0.5))
    return float(np.clip((best + shift) * dt_s, band[0], band[1]))


def _select_minima(values: np.ndarray, min_separation: int) -> np.ndarray:
    """Greedy deepest-first minima selection with a separation constraint.

    Ties on depth go to the earliest index, which makes the selection
    deterministic. The accepted indices stay sorted, so each candidate is
    checked against its two nearest accepted neighbours only.
    """
    candidates = local_maxima(-values)
    order = candidates[np.lexsort((candidates, values[candidates]))]
    accepted: list = []
    for idx in order.tolist():
        pos = bisect_left(accepted, idx)
        if pos > 0 and idx - accepted[pos - 1] < min_separation:
            continue
        if pos < len(accepted) and accepted[pos] - idx < min_separation:
            continue
        accepted.insert(pos, idx)
    return np.asarray(accepted, dtype=np.intp)


def detect_cycles(flow: SampledSignal) -> CycleTable:
    """Segment a flow signal into cardiac-cycle flow curves.

    Steps: (1) estimate the dominant period T from the autocorrelation within
    PERIOD_BAND_S, on the signal upsampled UPSAMPLE_FACTOR times; (2) on
    that signal, keep the deepest local minima at least
    MIN_SEPARATION_FRACTION * T apart as boundaries; (3) flag cycles whose
    period falls outside VALIDITY_BAND * T. Leading and trailing
    partial cycles are discarded. The settings live in rtpc.report.

    Raises NoCyclesFound when the recording is shorter than three times the
    period band upper bound, shows no periodicity, or yields fewer than three
    boundaries.
    """
    if flow.kind != "flow":
        raise ValueError(f"expected a flow signal, got kind {flow.kind!r}")
    if flow.duration_s < 3.0 * PERIOD_BAND_S[1]:
        raise NoCyclesFound(
            f"recording of {flow.duration_s:.3g} s is shorter than 3 x {PERIOD_BAND_S[1]} s"
        )
    up = resample(flow)
    # Period estimation runs on the upsampled grid too: at ~12 raw samples per
    # cycle, a half-integer true period aligns worse with itself than with its
    # double, and the raw-grid autocorrelation peaks at the wrong multiple.
    period = _dominant_period(up.values, up.dt_s, PERIOD_BAND_S)
    min_sep = max(1, int(np.ceil(MIN_SEPARATION_FRACTION * period / up.dt_s)))
    boundaries = _select_minima(up.values, min_sep)
    if boundaries.size < 3:
        raise NoCyclesFound(f"only {boundaries.size} cycle boundaries found")
    return CycleTable(up, boundaries, (VALIDITY_BAND[0] * period, VALIDITY_BAND[1] * period))
