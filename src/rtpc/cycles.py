"""Cardiac cycle segmentation of a continuous flow signal.

The dominant period T comes from the autocorrelation of the flow's own
samples. Where the highest peak in the period band lies at a multiple of a
shorter peak (a sub-multiple of its lag that correlates well enough), the
shorter lag is T, and a T below the band is refused. Boundaries are placed
at diastolic minima (min-to-min) on a cubic-spline upsampled grid; T steers
their minimum separation and the validity band. Each cycle carries the
parameter triple (mean flow, stroke volume, cardiac period), with mean flow
defined as 60 * SV / period so the identity between the three is exact by
construction. detect_cycles returns the cycles as a CycleTable of arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateCycle, NoCyclesFound, TooShort
from .io import SampledSignal
from .numerics import distinct, local_maxima, spaced
from .report import (MIN_SEPARATION_FRACTION, PERIOD_BAND_S, SUBMULTIPLE_THRESHOLD,
                     UPSAMPLE_FACTOR, VALIDITY_BAND)


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
    np.trapezoid over the cycle's samples bit for bit. The cycles of one
    length are summed together, as the rows of one C-ordered matrix: numpy
    reduces each row in the same pairwise blocks as a slice of that length.
    The arrays are read-only.
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
        lengths = np.diff(bounds)
        sums = np.empty(lengths.size)
        for length in distinct(lengths)[0].tolist():
            group = np.flatnonzero(lengths == length)
            # One C-ordered (cycles x length) gather, summed along its rows:
            # each row reduces pairwise as terms[i0:i1].sum() does.
            sums[group] = terms[bounds[group, None] + np.arange(length)].sum(axis=1)
        stroke_volume = sums / 60.0
        self.params = np.stack([60.0 * stroke_volume / period, stroke_volume, period])
        lo, hi = valid_period_s
        self.valid = (lo <= period) & (period <= hi)
        for array in (bounds, self.start_s, self.end_s, self.midpoint_s, self.params, self.valid):
            array.flags.writeable = False

    def __len__(self) -> int:
        return self.valid.size


#: The root of z^2 + 4 z + 1 inside the unit circle. The inverse of the
#: infinite (1, 4, 1) Toeplitz matrix is z^|k| / (2 sqrt 3) (Unser, Aldroubi
#: & Eden, "B-spline signal processing", IEEE TSP 1993).
_SPLINE_POLE = math.sqrt(3.0) - 2.0
#: Terms kept on each side of that inverse in resample. The ones dropped
#: weigh 2 sqrt 3 |z|^(K+1) / (1 - |z|) < 8.8e-18 in all, on second
#: differences of at most 4 max|y|, so they move a second derivative by less
#: than 3.6e-17 max|y|: under the rounding of the sum itself.
SPLINE_TERMS = 30


def resample(flow: SampledSignal) -> SampledSignal:
    """Natural cubic-spline upsampling onto a dt / UPSAMPLE_FACTOR grid.

    In units of the sample spacing the second derivatives m solve
    m[i-1] + 4 m[i] + m[i+1] = 6 d[i], d[i] = y[i-1] - 2 y[i] + y[i+1], with
    m = 0 at both ends. Mirroring d antisymmetrically about both ends (d is
    then periodic in 2 (n - 1)) turns that into the infinite system, whose
    inverse is closed-form: m[i] = sqrt(3) * sum over |k| <= K of
    z^|k| d[i-k], with z = sqrt(3) - 2 and K = SPLINE_TERMS. The sum runs as
    2K + 1 elementwise multiply-adds, nearest terms last. At
    f = k / UPSAMPLE_FACTOR into interval i the value is y[i] (1-f) +
    y[i+1] f + m[i] ((1-f)^3 - (1-f)) / 6 + m[i+1] (f^3 - f) / 6, formed
    elementwise, not by BLAS, so it is the same on every machine. Original
    samples come back exactly; the values depend on the samples alone, lie
    within 1e-15 * max|y| of the tridiagonal solve by Thomas elimination and
    within 1e-10 * max|y| of scipy's CubicSpline(bc_type="natural").
    """
    if len(flow) < 4:
        raise TooShort(f"resampling needs >= 4 samples, got {len(flow)}")
    y = flow.values
    n, k_max = y.size, SPLINE_TERMS
    d = y[:-2] - 2.0 * y[1:-1] + y[2:]
    period = np.concatenate(([0.0], d, [0.0], -d[::-1]))
    # d[1 - K] .. d[n - 2 + K]; d[1] sits at k_max.
    ext = period.take(np.arange(1 - k_max, n - 1 + k_max), mode="wrap")
    acc = np.zeros(n - 2)
    for k in range(k_max, 0, -1):  # Horner in z over the pairs d[i-k] + d[i+k]
        acc *= _SPLINE_POLE
        acc += ext[k_max - k : k_max - k + n - 2]
        acc += ext[k_max + k : k_max + k + n - 2]
    acc *= _SPLINE_POLE
    acc += ext[k_max : k_max + n - 2]
    m = np.zeros(n)
    m[1:-1] = math.sqrt(3.0) * acc
    f = np.arange(UPSAMPLE_FACTOR) / UPSAMPLE_FACTOR
    g = 1.0 - f
    rows = (y[:-1, None] * g + y[1:, None] * f
            + m[:-1, None] * ((g * g * g - g) / 6.0) + m[1:, None] * ((f * f * f - f) / 6.0))
    return SampledSignal(t0_s=flow.t0_s, dt_s=flow.dt_s / UPSAMPLE_FACTOR,
                         values=np.append(rows.ravel(), y[-1]), kind=flow.kind)


def _vertex(acorr: np.ndarray, lag: int) -> tuple:
    """The parabola through acorr at lag - 1, lag and lag + 1: the lag of its
    vertex (within half a lag of lag) and its height there."""
    y0, y1, y2 = acorr[lag - 1], acorr[lag], acorr[lag + 1]
    denom = y0 - 2 * y1 + y2
    shift = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
    shift = float(np.clip(shift, -0.5, 0.5))
    return lag + shift, float(y1 - 0.25 * (y0 - y2) * shift)


def _cardiac_period(values: np.ndarray, dt_s: float, band: tuple) -> float:
    """The dominant period of values sampled every dt_s, within band.

    Uses the biased FFT autocorrelation, zero-padded to the power of two at
    or above n + the largest lag read, hi + 1, so no lag read wraps around.
    Its highest local peak in the band, refined to the vertex of a parabola,
    gives a lag L. On a coarse grid that peak can sit at a multiple of the
    period, which the grid samples better than the period itself. So the
    peaks below L are tried in turn, shortest lag first: the first that lies
    within one sample of L / k for an integer k >= 2, and whose vertex height
    reaches SUBMULTIPLE_THRESHOLD times L's, is the period instead (YIN's
    rule: de Cheveigne & Kawahara, JASA 2002). Such a period below the band
    raises NoCyclesFound naming its rate; L itself is clipped to the band.
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
    segment = acorr[1 : hi + 1]
    peaks = np.flatnonzero((segment >= acorr[:hi]) & (segment >= acorr[2 : hi + 2])) + 1
    in_band = peaks[peaks >= lo]
    if in_band.size == 0:
        raise NoCyclesFound(f"no autocorrelation peak within {band} s")
    top = in_band[int(np.argmax(acorr[in_band]))]  # argmax keeps the earliest tie
    lag, height = _vertex(acorr, top)
    for peak in peaks[peaks < top].tolist():
        sub, sub_height = _vertex(acorr, peak)
        k = round(lag / sub)
        if k >= 2 and abs(lag / k - sub) < 1.0 and sub_height >= SUBMULTIPLE_THRESHOLD * height:
            period = sub * dt_s
            if period < band[0]:
                raise NoCyclesFound(f"cardiac period {period:.3g} s ({60.0 / period:.0f} beats/min) "
                                    f"lies below the period band {band} s")
            return period
    return float(np.clip(lag * dt_s, band[0], band[1]))


def _select_minima(values: np.ndarray, min_separation: int) -> np.ndarray:
    """The local minima of values that numerics.spaced keeps at least
    min_separation apart, taken deepest first and the earliest on ties."""
    candidates = local_maxima(-values)
    return candidates[spaced(candidates, np.argsort(values[candidates], kind="stable"),
                             min_separation)]


def detect_cycles(flow: SampledSignal) -> CycleTable:
    """Segment a flow signal into cardiac-cycle flow curves.

    Steps: (1) estimate the dominant period T within PERIOD_BAND_S from the
    autocorrelation of the flow's own samples, taking a sub-multiple of the
    highest peak's lag where one correlates well enough (_cardiac_period);
    (2) on the signal upsampled UPSAMPLE_FACTOR times, keep the deepest local
    minima at least MIN_SEPARATION_FRACTION * T apart as boundaries; (3) flag
    cycles whose period falls outside VALIDITY_BAND * T. Leading and trailing
    partial cycles are discarded. The settings live in rtpc.report.

    Raises NoCyclesFound when the recording is shorter than three times the
    period band upper bound, shows no periodicity, beats faster than the
    period band allows, or yields fewer than three boundaries.
    """
    if flow.kind != "flow":
        raise ValueError(f"expected a flow signal, got kind {flow.kind!r}")
    if flow.duration_s < 3.0 * PERIOD_BAND_S[1]:
        raise NoCyclesFound(
            f"recording of {flow.duration_s:.3g} s is shorter than 3 x {PERIOD_BAND_S[1]} s"
        )
    # The raw-grid autocorrelation can peak at a multiple of T, which the
    # 75 ms grid samples better than T itself; the sub-multiple check in
    # _cardiac_period finds T below it, so T needs no upsampling.
    period = _cardiac_period(flow.values, flow.dt_s, PERIOD_BAND_S)
    up = resample(flow)
    min_sep = max(1, int(np.ceil(MIN_SEPARATION_FRACTION * period / up.dt_s)))
    boundaries = _select_minima(up.values, min_sep)
    if boundaries.size < 3:
        raise NoCyclesFound(f"only {boundaries.size} cycle boundaries found")
    return CycleTable(up, boundaries, (VALIDITY_BAND[0] * period, VALIDITY_BAND[1] * period))
