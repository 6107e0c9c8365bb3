"""Per-cycle reference forms of the cycle, labelling and Diff arithmetic.

rtpc keeps cycles as the arrays of a CycleTable and sweeps every delay at
once. The objects and functions here compute the same numbers one cycle and
one delay at a time, the plain way; the tests hold the package to them bit
for bit. `as_table` turns a list of oracle cycles into the five arrays
sweep_diffs and label_cycles read.

More plain forms: `cardiac_period_2n` takes the autocorrelation from an
FFT zero-padded to twice the signal, `simulated_flow` evaluates the
simulator's breathing modulation with the array forms `is_expiratory` and
`modulation_waveform`, `wrapped_member_values` draws the simulator's
wrapped pixels one frame at a time, `thomas_resample` solves the upsampling
spline's tridiagonal system by elimination, `read_signal_csv_rows`
reads a signal CSV one row at a time, `spaced_positions` applies the
greedy spacing rule by checking each position against every accepted one,
and `resp_intervals_by_events` collapses the belt's extrema one event at a
time.

`window_extract` is `rtpc extract`'s chain as it ran on a window of the
series: it reads the ROI's window with read_velocity_series, estimates the
background from whole-ring gathers of that window with np.quantile and
np.median, subtracts the offset from a copy of the ROI's values, then
unaliases and sums them. `seeded_roi` segments whole frames with one
np.percentile of the reference neighbourhood's speeds.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from rtpc.errors import (DegenerateCycle, InsufficientCycles, InsufficientStationaryTissue,
                         NoBreathsDetected, NoCyclesFound, NonMonotoneTime, NonUniformSampling,
                         ParseError, TooShort, ZeroInspiratoryValue)
from rtpc.extraction import (BAND_INNER_PX, BAND_OUTER_PX, BAND_QUANTILE, MIN_BAND_PIXELS,
                             compute_flow, quality_score, roi_window, unalias)
from rtpc.io import CSV_HEADER, SIGNAL_KINDS, SampledSignal, read_velocity_series
from rtpc.numerics import distance_band, find_peaks, median, seed_component
from rtpc.report import (MAX_RADIUS_PX, MIN_SEPARATION_S, PROMINENCE_FRACTION, SMOOTH_WINDOW_S,
                         SUBMULTIPLE_THRESHOLD, THRESHOLD_FRACTION, UPSAMPLE_FACTOR)
from rtpc.respiration import EX, IN, RespIntervals, _moving_average
from rtpc.synthgen import pulse_waveform

#: Report parameter name -> CycleParams field, in the order of a CycleTable's params rows.
_PARAM_ATTR = {
    "mean_flow": "mean_flow_ml_min",
    "stroke_volume": "stroke_volume_ml",
    "cardiac_period": "cardiac_period_s",
}


@dataclass(frozen=True)
class CycleBoundary:
    start_s: float
    end_s: float

    def __post_init__(self):
        if not self.end_s > self.start_s:
            raise DegenerateCycle(f"cycle boundary [{self.start_s}, {self.end_s}] has no extent")

    @property
    def period_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def midpoint_s(self) -> float:
        return self.start_s + 0.5 * self.period_s


@dataclass(frozen=True)
class CycleParams:
    mean_flow_ml_min: float
    stroke_volume_ml: float
    cardiac_period_s: float


@dataclass(frozen=True, eq=False)
class CCFC:
    """One cardiac cycle: its boundary, parameters and validity."""

    boundary: CycleBoundary
    params: CycleParams
    valid: bool

    @property
    def midpoint_s(self) -> float:
        return self.boundary.midpoint_s


def cycle_params(flow: SampledSignal, boundary: CycleBoundary) -> CycleParams:
    """Parameter triple of one cycle on the given (upsampled) signal grid.

    stroke volume is the trapezoidal integral of Q/60 over the cycle (ml);
    mean flow is 60 * SV / period, which makes mean * period == 60 * SV hold
    exactly.
    """
    i0 = int(round((boundary.start_s - flow.t0_s) / flow.dt_s))
    i1 = int(round((boundary.end_s - flow.t0_s) / flow.dt_s))
    for i, t in ((i0, boundary.start_s), (i1, boundary.end_s)):
        if abs(flow.t0_s + i * flow.dt_s - t) > 1e-6 * flow.dt_s:
            raise ValueError(f"boundary time {t} is not on the signal grid (dt {flow.dt_s})")
    if not (0 <= i0 and i1 < len(flow)):
        raise ValueError(f"boundary [{boundary.start_s}, {boundary.end_s}] outside the signal span")
    if i1 - i0 < 2:
        raise DegenerateCycle(f"cycle spans {i1 - i0} samples, need >= 2")
    period = boundary.period_s
    stroke_volume = float(np.trapezoid(flow.values[i0 : i1 + 1], dx=flow.dt_s)) / 60.0
    return CycleParams(
        mean_flow_ml_min=60.0 * stroke_volume / period,
        stroke_volume_ml=stroke_volume,
        cardiac_period_s=period,
    )


def cycles_of(table, signal) -> list:
    """Each cycle of a CycleTable as a CCFC, its parameters from cycle_params
    on signal, the upsampled signal the table was built on."""
    cycles = []
    for i in range(len(table)):
        boundary = CycleBoundary(start_s=float(table.start_s[i]), end_s=float(table.end_s[i]))
        cycles.append(CCFC(boundary=boundary, params=cycle_params(signal, boundary),
                           valid=bool(table.valid[i])))
    return cycles


def make_cycle(start_s: float, end_s: float, mean_flow: float = 740.0, valid: bool = True) -> CCFC:
    period = end_s - start_s
    return CCFC(
        boundary=CycleBoundary(start_s=start_s, end_s=end_s),
        params=CycleParams(
            mean_flow_ml_min=mean_flow,
            stroke_volume_ml=mean_flow * period / 60.0,
            cardiac_period_s=period,
        ),
        valid=valid,
    )


def as_table(cycles) -> SimpleNamespace:
    """The start_s, end_s, midpoint_s, params (3 x n) and valid arrays of
    oracle cycles, laid out as a CycleTable holds them."""
    start = np.array([c.boundary.start_s for c in cycles], dtype=np.float64)
    end = np.array([c.boundary.end_s for c in cycles], dtype=np.float64)
    params = np.array([[getattr(c.params, attr) for c in cycles] for attr in _PARAM_ATTR.values()],
                      dtype=np.float64)
    valid = np.array([c.valid for c in cycles], dtype=bool)
    return SimpleNamespace(start_s=start, end_s=end, midpoint_s=start + 0.5 * (end - start),
                           params=params, valid=valid)


def periodic_intervals(period_s: float, n_breaths: int, start_s: float = 0.0) -> RespIntervals:
    """Strictly periodic IN/EX train: IN then EX, each period_s/2 long."""
    half = period_s / 2.0
    bounds = tuple(start_s + half * i for i in range(2 * n_breaths + 1))
    phases = tuple("IN" if i % 2 == 0 else "EX" for i in range(2 * n_breaths))
    return RespIntervals(phases=phases, base_bounds=bounds, mean_period_s=period_s)


def shift_intervals(intervals: RespIntervals, delay_s: float) -> RespIntervals:
    """Move every boundary later by delay_s; phases and mean period unchanged.

    Each shifted boundary is base_bound + delay_s, the float operation the
    delay scan performs at that delay.
    """
    if delay_s < 0:
        raise ValueError(f"delay must be >= 0, got {delay_s}")
    return RespIntervals(phases=intervals.phases,
                         base_bounds=tuple(b + delay_s for b in intervals.base_bounds),
                         mean_period_s=intervals.mean_period_s)


def average_params(cycles: list, labels: list, phase: str, min_cycles: int = 3) -> CycleParams:
    """Arithmetic mean of each parameter over valid cycles with the phase label."""
    if phase not in (IN, EX):
        raise ValueError(f"phase must be {IN!r} or {EX!r}, got {phase!r}")
    if len(cycles) != len(labels):
        raise ValueError(f"{len(cycles)} cycles vs {len(labels)} labels")
    selected = [c.params for c, lab in zip(cycles, labels) if c.valid and lab == phase]
    if len(selected) < min_cycles:
        raise InsufficientCycles(
            f"{len(selected)} valid {phase} cycles, need {min_cycles}"
        )
    return CycleParams(**{attr: float(np.mean([getattr(p, attr) for p in selected]))
                          for attr in _PARAM_ATTR.values()})


def diff_ex_in(p_ex: CycleParams, p_in: CycleParams) -> dict:
    """Percentage difference 100 * (EX - IN) / IN for each parameter."""
    diffs = {}
    for param, attr in _PARAM_ATTR.items():
        ex_value, in_value = getattr(p_ex, attr), getattr(p_in, attr)
        if in_value == 0:
            raise ZeroInspiratoryValue(f"inspiratory {param} is zero")
        diffs[param] = 100.0 * (ex_value - in_value) / in_value
    return diffs


def cardiac_period_2n(values: np.ndarray, dt_s: float, band: tuple) -> float:
    """cycles._cardiac_period with the FFT zero-padded to the power of two
    at or above 2n, so no lag of the whole signal wraps around, and its
    peak search and sub-multiple rule written as loops over the lags."""
    x = values - values.mean()
    if not (x != 0).any():
        raise NoCyclesFound("constant signal has no cardiac periodicity")
    n = x.size
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(x, nfft)
    acorr = np.fft.irfft(spec * np.conj(spec), nfft)[:n] / n
    if acorr[0] <= 0:
        raise NoCyclesFound("degenerate autocorrelation")
    acorr = acorr / acorr[0]
    lo = max(1, int(np.ceil(band[0] / dt_s)))
    hi = min(n - 2, int(np.floor(band[1] / dt_s)))
    if hi <= lo:
        raise NoCyclesFound(f"period band {band} unreachable at dt {dt_s}")

    def vertex(lag):
        y0, y1, y2 = acorr[lag - 1], acorr[lag], acorr[lag + 1]
        denom = y0 - 2 * y1 + y2
        shift = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
        shift = float(np.clip(shift, -0.5, 0.5))
        return lag + shift, float(y1 - 0.25 * (y0 - y2) * shift)

    peaks = [lag for lag in range(1, hi + 1)
             if acorr[lag] >= acorr[lag - 1] and acorr[lag] >= acorr[lag + 1]]
    in_band = [lag for lag in peaks if lag >= lo]
    if not in_band:
        raise NoCyclesFound(f"no autocorrelation peak within {band} s")
    top = min(in_band, key=lambda lag: (-acorr[lag], lag))
    lag, height = vertex(top)
    for peak in peaks:
        if peak >= top:
            break
        sub, sub_height = vertex(peak)
        k = round(lag / sub)
        if k < 2 or abs(lag / k - sub) >= 1.0 or sub_height < SUBMULTIPLE_THRESHOLD * height:
            continue
        if sub * dt_s < band[0]:
            period = sub * dt_s
            raise NoCyclesFound(f"cardiac period {period:.3g} s ({60.0 / period:.0f} beats/min) "
                                f"lies below the period band {band} s")
        lag = sub
        break
    return float(np.clip(lag * dt_s, band[0], band[1]))


def is_expiratory(t, period_s: float):
    """True while the belt falls (peak-to-trough half of the breath)."""
    frac = np.mod(np.asarray(t, dtype=np.float64) / period_s, 1.0)
    return (frac > 0.25) & (frac < 0.75)


def modulation_waveform(t, period_s: float, shape: str):
    """One-sided modulation in [0, 1]: 1 at mid-expiration, 0 at mid-inspiration."""
    if shape == "square":
        return is_expiratory(t, period_s).astype(np.float64)
    frac = np.mod(np.asarray(t, dtype=np.float64) / period_s, 1.0)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * frac))


def simulated_flow(config) -> tuple:
    """generate_signals' noise-free flow values and its cycles as (start,
    end, phase, scale, period) tuples, the lead-in and the unfinished last
    cycle included, with each cycle's modulation taken from
    modulation_waveform and is_expiratory on a 0-d array."""
    dt = config.dt_ms / 1000.0
    n = int(round(config.duration_s / dt))
    t_last = (n - 1) * dt
    mod, cardiac = config.modulation, config.cardiac
    resp_period, base_period = config.respiration.period_s, cardiac.base_period_s
    starts, periods, scales, phases = [-0.5 * base_period], [], [], []
    while True:
        t = starts[-1] + 0.5 * base_period - mod.sensor_delay_s
        m = float(modulation_waveform(t, resp_period, mod.shape))
        periods.append(base_period * (1.0 + mod.period_pct / 100.0 * m))
        scales.append(cardiac.base_mean_flow_ml_min * (1.0 + mod.mean_flow_pct / 100.0 * m))
        phases.append("EX" if bool(is_expiratory(t, resp_period)) else "IN")
        if starts[-1] + periods[-1] > t_last:
            break
        starts.append(starts[-1] + periods[-1])
    bounds = np.asarray(starts + [starts[-1] + periods[-1]])
    t_samples = np.arange(n) * dt
    cell = np.clip(np.searchsorted(bounds, t_samples, side="right") - 1, 0, len(periods) - 1)
    u = (t_samples - bounds[cell]) / np.asarray(periods)[cell]
    values = np.asarray(scales)[cell] * pulse_waveform(u, cardiac.waveform)
    return values, list(zip(bounds[:-1].tolist(), bounds[1:].tolist(), phases, scales, periods))


def wrapped_member_values(member_values, member, venc_mm_s: float, fraction: float, seed: int) -> tuple:
    """The simulator's wrap draw, frame by frame: the wrapped copy of a
    series' float32 (frames, members) values, and its (frame, y, x) wrapped
    pixels. Every frame rounds fraction x its count of members above venc to
    the number it wraps, and draws them from default_rng([seed, 2, frame])."""
    values = member_values.copy()
    member_ys, member_xs = np.nonzero(member)
    wrapped = []
    if fraction > 0:
        two_venc = np.float32(2.0 * venc_mm_s)
        for t in range(values.shape[0]):
            candidates = np.flatnonzero(values[t] > venc_mm_s)
            n_wrap = int(round(fraction * candidates.size))
            if n_wrap == 0:
                continue
            rng = np.random.default_rng([seed, 2, t])
            chosen = rng.choice(candidates, size=n_wrap, replace=False)
            chosen.sort()
            values[t, chosen] -= two_venc
            wrapped += [(t, int(member_ys[c]), int(member_xs[c])) for c in chosen]
    return values, tuple(wrapped)


def thomas_resample(flow: SampledSignal) -> SampledSignal:
    """cycles.resample with the second derivatives from one Thomas
    elimination and back substitution of m[i-1] + 4 m[i] + m[i+1] =
    6 (y[i-1] - 2 y[i] + y[i+1]), m = 0 at both ends (de Boor, ch. IV),
    written as Python loops; the evaluation is resample's."""
    if len(flow) < 4:
        raise TooShort(f"resampling needs >= 4 samples, got {len(flow)}")
    y = flow.values
    ratios, solved = [], []
    ratio = carry = 0.0
    for r in (6.0 * (y[:-2] - 2.0 * y[1:-1] + y[2:])).tolist():
        pivot = 4.0 - ratio
        ratio, carry = 1.0 / pivot, (r - carry) / pivot
        ratios.append(ratio)
        solved.append(carry)
    m = [0.0]  # the last m; the back substitution appends the others down to m[1]
    for ratio, carry in zip(reversed(ratios), reversed(solved)):
        m.append(carry - ratio * m[-1])
    m = np.array([0.0] + m[::-1])
    f = np.arange(UPSAMPLE_FACTOR) / UPSAMPLE_FACTOR
    g = 1.0 - f
    rows = (y[:-1, None] * g + y[1:, None] * f
            + m[:-1, None] * ((g * g * g - g) / 6.0) + m[1:, None] * ((f * f * f - f) / 6.0))
    return SampledSignal(t0_s=flow.t0_s, dt_s=flow.dt_s / UPSAMPLE_FACTOR,
                         values=np.append(rows.ravel(), y[-1]), kind=flow.kind)


def read_signal_csv_rows(path, kind: str) -> SampledSignal:
    """io.read_signal_csv as it read a file one row at a time: each line
    stripped, split at ',' and converted by float(), so a field may carry
    surrounding whitespace and a leading '+'. Its messages and the order of
    its checks are the package's."""
    if kind not in SIGNAL_KINDS:
        raise ValueError(f"kind must be one of {SIGNAL_KINDS}, got {kind!r}")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    lines = [ln.strip() for ln in text.split("\n")]
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise TooShort(f"{path}: empty file")
    if lines[0] != CSV_HEADER:
        raise ParseError(f"{path}: expected header {CSV_HEADER!r}, got {lines[0]!r}")
    body = text.partition("\n")[2]
    foreign = None if body.isascii() and "_" not in body else next(
        lineno for lineno, raw in enumerate(body.split("\n"), start=2)
        if not raw.isascii() or "_" in raw)
    times = []
    values = []
    rows = lines[1:] if foreign is None else lines[1 : foreign - 1]
    for lineno, line in enumerate(rows, start=2):
        if line == "":
            raise ParseError(f"{path}:{lineno}: blank line inside data")
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 2 fields, got {len(parts)}")
        try:
            t, v = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if not (math.isfinite(t) and math.isfinite(v)):
            raise ParseError(f"{path}:{lineno}: non-finite sample")
        times.append(t)
        values.append(v)
    if foreign is not None:
        raise ParseError(f"{path}:{foreign}: a field holds '_' or a non-ASCII character")
    if len(values) < 2:
        raise TooShort(f"{path}: need at least 2 samples, got {len(values)}")
    times = np.asarray(times)
    with np.errstate(over="ignore"):
        diffs = np.diff(times)
    if not (diffs > 0).all():
        raise NonMonotoneTime(f"{path}: time column is not strictly increasing")
    if not np.isfinite(diffs).all():
        raise NonUniformSampling(f"{path}: a time step exceeds the float range")
    dt = float(median(diffs))
    if np.abs(diffs - dt).max() > 1e-6 * dt:
        raise NonUniformSampling(
            f"{path}: spacing varies by {np.abs(diffs - dt).max():.3g} s around median {dt:.9g} s"
        )
    return SampledSignal(t0_s=float(times[0]), dt_s=dt, values=np.asarray(values), kind=kind)


def spaced_positions(positions, distance: int) -> np.ndarray:
    """The greedy spacing rule, quadratic: each of positions, taken in the
    order given, is accepted unless an accepted one lies closer than
    distance. Returns the accepted positions, sorted."""
    accepted: list = []
    for position in positions:
        if all(abs(position - a) >= distance for a in accepted):
            accepted.append(position)
    return np.asarray(sorted(accepted), dtype=np.intp)


def resp_intervals_by_events(resp: SampledSignal) -> RespIntervals:
    """detect_resp_intervals with the extrema as (index, type) events, each
    run of same-type events collapsed one event at a time."""
    if resp.duration_s < 2.0 * MIN_SEPARATION_S:
        raise NoBreathsDetected(
            f"recording of {resp.duration_s:.3g} s is shorter than 2 x {MIN_SEPARATION_S} s"
        )
    window = max(1, int(round(SMOOTH_WINDOW_S / resp.dt_s)))
    if window % 2 == 0:
        window += 1
    smoothed = _moving_average(resp.values, window)
    signal_range = float(smoothed.max() - smoothed.min())
    if signal_range <= 0:
        raise NoBreathsDetected("belt signal is constant")
    prominence = PROMINENCE_FRACTION * signal_range
    distance = max(1, int(np.ceil(MIN_SEPARATION_S / resp.dt_s)))
    peak_idx = find_peaks(smoothed, distance, prominence)
    trough_idx = find_peaks(-smoothed, distance, prominence)

    events = sorted(
        [(int(i), "peak") for i in peak_idx] + [(int(i), "trough") for i in trough_idx]
    )
    # Collapse runs of same-type events, keeping the most extreme (earliest on ties).
    collapsed: list = []
    for idx, etype in events:
        if collapsed and collapsed[-1][1] == etype:
            prev_idx = collapsed[-1][0]
            better = (
                smoothed[idx] > smoothed[prev_idx]
                if etype == "peak"
                else smoothed[idx] < smoothed[prev_idx]
            )
            if better:
                collapsed[-1] = (idx, etype)
        else:
            collapsed.append((idx, etype))

    n_troughs = sum(1 for _, e in collapsed if e == "trough")
    n_peaks = sum(1 for _, e in collapsed if e == "peak")
    if n_troughs < 2 or n_peaks < 1:
        raise NoBreathsDetected(
            f"found {n_troughs} troughs and {n_peaks} peaks; need a full breath"
        )
    trough_times = [resp.t0_s + i * resp.dt_s for i, e in collapsed if e == "trough"]
    mean_period = float(np.mean(np.diff(trough_times)))
    bounds = tuple(resp.t0_s + i * resp.dt_s for i, _ in collapsed)
    phases = tuple(IN if e == "trough" else EX for i, e in collapsed[:-1])
    return RespIntervals(phases=phases, base_bounds=bounds, mean_period_s=mean_period)


def seeded_roi(series_path, seed, threshold_fraction=THRESHOLD_FRACTION,
               max_radius_px=MAX_RADIUS_PX, venc_mm_s=None) -> np.ndarray:
    """segment_roi's mask on whole frames: threshold_fraction x the 99th
    percentile of |velocity| within max_radius_px of the seed, over one
    gather of every frame, then the union of the seed's components."""
    series = read_velocity_series(series_path, venc_mm_s=venc_mm_s)
    sx, sy = seed
    yy, xx = np.mgrid[0 : series.height, 0 : series.width]
    near = series.frames[:, (xx - sx) ** 2 + (yy - sy) ** 2 <= max_radius_px**2]
    threshold = threshold_fraction * float(np.percentile(np.abs(near), 99.0))
    return seed_component(series.frames, threshold, sy, sx)


def window_extract(series_path, roi, background=True, unwrap=True, venc_mm_s=None) -> tuple:
    """The flow and the QC sidecar bytes of `rtpc extract` on an image mask
    roi, by the chain it ran on the ROI's window."""
    window = roi_window(roi)
    series = read_velocity_series(series_path, venc_mm_s=venc_mm_s, window=window)
    roi = roi[window]
    values = series.frames[:, roi]
    offset = n_band = n_unaliased = None
    if background:
        ring = distance_band(roi, BAND_INNER_PX, BAND_OUTER_PX)
        if not ring.any():
            raise InsufficientStationaryTissue("no pixels in the distance band around the ROI")
        ring_values = series.frames[:, ring]  # each pixel's frames one contiguous column
        stds = ring_values.astype(np.float64).std(axis=0)
        keep = stds <= np.quantile(stds, BAND_QUANTILE)
        n_band = int(keep.sum())
        if n_band < MIN_BAND_PIXELS:
            raise InsufficientStationaryTissue(f"{n_band} quiet band pixels, need {MIN_BAND_PIXELS}")
        offset = float(np.median(ring_values[:, keep].astype(np.float64)))
        values = (values.astype(np.float64) - offset).astype(np.float32)
    if unwrap:
        n_unaliased = unalias(values, series.venc_mm_s)
    flow = compute_flow(values, series.pixel_area_mm2, series.dt_s)
    try:
        qc = quality_score(flow)
        snr, excluded = qc.cardiac_snr, qc.excluded
    except TooShort:
        snr, excluded = None, None
    payload = {
        "cardiac_snr": snr,
        "excluded": excluded,
        "empty_roi_frames": 0,
        "n_roi_pixels": int(np.count_nonzero(roi)),
        "background_offset_mm_s": offset,
        "n_band_pixels": n_band,
        "n_unaliased_pixels": n_unaliased,
    }
    return flow, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
