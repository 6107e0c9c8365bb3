"""Synthetic pulsatile flow, belt signals, and miniature velocity-map series
with known ground truth.

The cardiac waveform is a gamma pulse (fast systolic upstroke, slow decay)
on a diastolic floor, normalized to unit mean, so each cycle's true mean
flow equals its scale factor by construction. Cardiac phase advances with an
instantaneous period modulated by the breathing phase; the per-cycle flow
scale is modulated the same way, evaluated at the cycle midpoint. Modulation
is one-sided: the parameter is elevated during expiration and at baseline
during inspiration, so a +10% setting yields a true EX/IN ratio of exactly
1.10. The belt records the breathing waveform without delay; a positive
sensor delay shifts only the modulation, i.e. the flow response lags the
belt.

Image series realize the (possibly noisy) flow signal through a parabolic
disk-vessel profile scaled per frame so the discrete velocity integral
reproduces the flow exactly, then add an eddy-current offset everywhere and
wrap a random subset of above-limit pixels by -2*venc. Wrapping happens
after float32 quantization, so unwrapping restores the stored frames
bit for bit. A series is kept as its vessel pixels plus the one background
value every other pixel holds, and rendered to whole frames a chunk at a time.

Everything is deterministic given the config (including its seed).
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple

import numpy as np

from .errors import InvalidConfig
from .io import Frozen, SampledSignal, VelocityMapSeries, frame_chunks

BELT_WAVEFORMS = ("sine", "rounded-square")
MODULATION_SHAPES = ("square", "sine")

#: Clearance (pixels) required between the vessel edge and the image border,
#: enough for the default background band plus one pixel.
VESSEL_MARGIN_PX = 7


# -- configuration ---------------------------------------------------------------

def _config(name: str, **defaults):
    """A config record: a named tuple of these fields, each defaulting to its
    value, whose type is the one the field takes."""
    return namedtuple(name, defaults, defaults=tuple(defaults.values()))


WaveformConfig = _config("WaveformConfig", shape=3.0, scale=0.18, floor=0.3)
CardiacConfig = _config("CardiacConfig", base_period_s=0.94, base_mean_flow_ml_min=740.0,
                        waveform=WaveformConfig())
RespirationConfig = _config("RespirationConfig", period_s=4.3, belt_waveform="sine")
ModulationConfig = _config("ModulationConfig", mean_flow_pct=0.0, period_pct=0.0, shape="square",
                           sensor_delay_s=0.0)
ArtifactConfig = _config("ArtifactConfig", eddy_offset_mm_s=0.0, aliased_pixel_fraction=0.0,
                         noise_sd=0.0)
GridConfig = _config("GridConfig", width=32, height=32)
VesselConfig = _config("VesselConfig", radius_px=6.0, grid=GridConfig(), venc_mm_s=1000.0,
                       pixel_area_mm2=0.25)


class SimConfig(_config("SimConfig", duration_s=60.0, dt_ms=75.0, cardiac=CardiacConfig(),
                        respiration=RespirationConfig(), modulation=ModulationConfig(),
                        artifacts=ArtifactConfig(), vessel=VesselConfig(), seed=0)):
    __slots__ = ()

    def validate(self):
        """Refuse a config that cannot be simulated. However it was built, its
        fields first go through the loader from_dict uses, which checks types."""
        _load_fields(type(self), self.to_dict(), prefix="")
        if self.dt_ms <= 0:
            raise InvalidConfig(f"dt_ms must be positive, got {self.dt_ms}")
        if self.cardiac.base_period_s <= 0 or self.respiration.period_s <= 0:
            raise InvalidConfig("cardiac and respiratory periods must be positive")
        minimum = max(6.0, 2.0 * self.respiration.period_s)
        if self.duration_s < minimum:
            raise InvalidConfig(
                f"duration {self.duration_s} s too short for analysis minimums ({minimum} s)"
            )
        if self.cardiac.base_mean_flow_ml_min <= 0:
            raise InvalidConfig("base_mean_flow_ml_min must be positive")
        wf = self.cardiac.waveform
        if wf.shape <= 1 or wf.scale <= 0 or wf.floor < 0:
            raise InvalidConfig(f"bad pulse waveform parameters {wf}")
        for name, pct in (("mean_flow_pct", self.modulation.mean_flow_pct),
                          ("period_pct", self.modulation.period_pct)):
            if not -50.0 < pct < 50.0:
                raise InvalidConfig(f"{name} must lie in (-50, 50), got {pct}")
        if self.modulation.shape not in MODULATION_SHAPES:
            raise InvalidConfig(f"modulation shape must be one of {MODULATION_SHAPES}")
        if self.modulation.sensor_delay_s < 0:
            raise InvalidConfig("sensor_delay_s must be >= 0")
        if self.respiration.belt_waveform not in BELT_WAVEFORMS:
            raise InvalidConfig(f"belt_waveform must be one of {BELT_WAVEFORMS}")
        if self.artifacts.noise_sd < 0:
            raise InvalidConfig("noise_sd must be >= 0")
        if not 0.0 <= self.artifacts.aliased_pixel_fraction <= 1.0:
            raise InvalidConfig("aliased_pixel_fraction must lie in [0, 1]")
        if self.vessel.venc_mm_s <= 0 or self.vessel.pixel_area_mm2 <= 0:
            raise InvalidConfig("vessel venc_mm_s and pixel_area_mm2 must be positive")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be a nonnegative integer, got {self.seed!r}")

    def to_dict(self) -> dict:
        return _as_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        """Build a config from a (possibly partial) dict merged over defaults."""
        cfg = _load_fields(cls, d, prefix="")
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path) -> "SimConfig":
        try:
            with open(path, encoding="utf-8") as f:
                d = json.load(f)
        except (OSError, ValueError) as exc:  # ValueError covers bad UTF-8 and bad JSON
            raise InvalidConfig(f"cannot load config {path}: {exc}") from exc
        if not isinstance(d, dict):
            raise InvalidConfig(f"{path}: config must be a JSON object")
        return cls.from_dict(d)


#: Per scalar field type: how errors name it, and the JSON values it takes
#: (never a bool, although Python counts bool as an int).
_SCALARS = {
    float: ("a finite number", (int, float)),
    int: ("an integer", (int,)),
    str: ("a string", (str,)),
}


def _as_dict(config) -> dict:
    """A config's fields as a dict, nested configs as dicts in turn."""
    return {key: _as_dict(value) if hasattr(value, "_asdict") else value
            for key, value in config._asdict().items()}


def _load_fields(cls, d: dict, prefix: str):
    """cls's defaults with the keys of d laid over them, type-checked by field."""
    values = {}
    for key, value in d.items():
        here = prefix + key
        if key not in cls._fields:
            raise InvalidConfig(f"unknown config key {here!r}")
        default = cls._field_defaults[key]
        if isinstance(default, tuple):  # a nested config
            if not isinstance(value, dict):
                raise InvalidConfig(f"config key {here!r} must be an object")
            values[key] = _load_fields(type(default), value, here + ".")
            continue
        kind = type(default)
        what, accepted = _SCALARS[kind]
        if (isinstance(value, bool) or not isinstance(value, accepted)
                or kind is float and not abs(value) <= sys.float_info.max):
            raise InvalidConfig(f"config key {here!r} must be {what}, got {value!r}")
        values[key] = kind(value)
    return cls()._replace(**values)


# -- ground truth -----------------------------------------------------------------

#: A truth manifest cycle's keys, in the order of GroundTruth.to_dict's columns.
_CYCLE_KEYS = ("start_s", "end_s", "phase", "mean_flow_ml_min", "stroke_volume_ml",
               "cardiac_period_s")


class GroundTruth(Frozen):
    """Per-cycle truth, consistent with the emitted signals by construction.

    The fully recorded cycles as read-only arrays in CycleTable's layout, in
    time order: start_s, end_s, phase ("EX" or "IN", the breathing phase of
    the cycle's modulation) and a 3 x n params of true mean flow (ml/min),
    stroke volume (ml) and cardiac period (s). wrapped_pixels stays a tuple
    of (frame, y, x) triples: the manifest needs each as a list, and turning
    an (n, 3) array back into lists would make to_dict twenty times slower.
    """

    __slots__ = ("start_s", "end_s", "phase", "params", "sensor_delay_s", "resp_period_s",
                 "eddy_offset_mm_s", "wrapped_pixels", "nominal_peak_velocity_mm_s")

    def __init__(self, start_s: np.ndarray, end_s: np.ndarray, phase: np.ndarray,
                 params: np.ndarray, sensor_delay_s: float, resp_period_s: float,
                 eddy_offset_mm_s: float = 0.0, wrapped_pixels: tuple = (),
                 nominal_peak_velocity_mm_s: float | None = None):
        for array in (start_s, end_s, phase, params):
            array.flags.writeable = False
        self._fill(locals())

    def to_dict(self) -> dict:
        """The truth manifest: one JSON object per cycle, then the scalar fields."""
        rows = zip(self.start_s.tolist(), self.end_s.tolist(), self.phase.tolist(),
                   *self.params.tolist())
        scalars = {name: getattr(self, name) for name in self.__slots__[4:]}  # after the arrays
        return {"cycles": [dict(zip(_CYCLE_KEYS, row)) for row in rows], **scalars}


#: generate_signals' result: two SampledSignals and their GroundTruth.
SignalBundle = namedtuple("SignalBundle", "flow resp truth")


class VesselSeries(Frozen):
    """A simulated velocity series held as its vessel pixels.

    Every pixel outside the vessel holds `background` in every frame, so the
    series is stored as that float32 value plus, per frame, the float32
    velocities of the vessel pixels in row-major order: member is the bool
    (height, width) vessel, member_values the float32 (n_frames,
    member.sum()) velocities. chunks() renders whole frames a chunk at a
    time (what write_velocity_series consumes); to_series() renders the
    same chunks into one array of all frames.
    """

    __slots__ = ("member", "member_values", "background", "dt_ms", "venc_mm_s", "pixel_area_mm2")

    def __init__(self, member: np.ndarray, member_values: np.ndarray, background: np.float32,
                 dt_ms: float, venc_mm_s: float, pixel_area_mm2: float):
        self._fill(locals())

    @property
    def n_frames(self) -> int:
        return self.member_values.shape[0]

    @property
    def height(self) -> int:
        return self.member.shape[0]

    @property
    def width(self) -> int:
        return self.member.shape[1]

    def _render(self, frames: np.ndarray | None):
        """Render the frames a frame_chunks chunk at a time and yield each chunk.

        A chunk is rendered into its frames of `frames`, a (n_frames, height,
        width) array that holds the background outside the vessel, or, when
        frames is None, into one buffer the size of the first chunk, the
        largest: the background is the same in every frame, so only the
        vessel pixels are written again. They are written through one flat
        index of the first chunk's vessel pixels, frame by frame; a shorter
        chunk takes its prefix.
        """
        index = None
        for chunk in frame_chunks(self.n_frames, self.height, self.width):
            values = self.member_values[chunk]
            if index is None:
                starts = np.arange(len(values))[:, None] * (self.height * self.width)
                index = (starts + np.flatnonzero(self.member)).reshape(-1)
                if frames is None:
                    buffer = np.full((len(values), self.height, self.width), self.background)
            out = buffer[: len(values)] if frames is None else frames[chunk]
            out.reshape(-1)[index[: values.size]] = values.reshape(-1)
            yield out

    def chunks(self):
        """Whole float32 frames, about SERIES_CHUNK_BYTES at a time, each
        valid until the next one is requested."""
        return self._render(None)

    def to_series(self) -> VelocityMapSeries:
        frames = np.full((self.n_frames, self.height, self.width), self.background)
        for _chunk in self._render(frames):
            pass
        return VelocityMapSeries(
            frames=frames,
            dt_ms=self.dt_ms,
            venc_mm_s=self.venc_mm_s,
            pixel_area_mm2=self.pixel_area_mm2,
        )


#: generate_velocity_series' result: a VesselSeries, its vessel as a bool
#: (height, width) mask, and the GroundTruth.
ImageBundle = namedtuple("ImageBundle", "series mask truth")


# -- waveforms --------------------------------------------------------------------

_TAPER = 4  # tail taper exponent; closes the pulse to the floor at u = 1

#: Iteration cap of the incomplete gamma series and continued fraction. Both
#: converge in under 130 terms wherever math.gamma(a) is finite (a < 171.6).
_GAMMA_MAX_TERMS = 1000
_GAMMA_EPS = 2.0**-53
_GAMMA_TINY = 1e-300  # modified Lentz: stands in for a zero denominator


def _regularized_lower_gamma(a: float, x: float) -> float:
    """P(a, x) = gamma(a, x) / Gamma(a), the regularized lower incomplete gamma.

    The power series for x < a + 1 and the continued fraction for Gamma(a, x)
    (modified Lentz) above it, as in DLMF sections 8.7 and 8.9 and Numerical
    Recipes section 6.2. Raises OverflowError where x**a or Gamma(a) leaves
    the float range.
    """
    if x < a + 1.0:
        term = total = 1.0 / a
        ap = a
        for _ in range(_GAMMA_MAX_TERMS):
            ap += 1.0
            term *= x / ap
            total += term
            if term < total * _GAMMA_EPS:
                break
        return total * x**a * math.exp(-x) / math.gamma(a)
    b = x + 1.0 - a
    c = 1.0 / _GAMMA_TINY
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _GAMMA_TINY:
            d = _GAMMA_TINY
        c = b + an / c
        if abs(c) < _GAMMA_TINY:
            c = _GAMMA_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return 1.0 - h * x**a * math.exp(-x) / math.gamma(a)


def _pulse_norm(shape: float, scale: float) -> float:
    """Integral of u^(shape-1) exp(-u/scale) (1 - u^taper) over [0, 1].

    Each term is scale^a Gamma(a) P(a, 1/scale). InvalidConfig when the
    result is not a finite positive float, overflow included.
    """
    x = 1.0 / scale
    try:
        norm = scale**shape * math.gamma(shape) * _regularized_lower_gamma(shape, x)
        norm -= (scale ** (shape + _TAPER) * math.gamma(shape + _TAPER)
                 * _regularized_lower_gamma(shape + _TAPER, x))
    except OverflowError:
        norm = math.inf
    if not (math.isfinite(norm) and norm > 0.0):
        raise InvalidConfig(
            f"cardiac.waveform shape {shape!r} and scale {scale!r}: the pulse's "
            "normalising integral under- or overflows the float range"
        )
    return norm


def pulse_waveform(u, waveform: WaveformConfig):
    """Unit-mean cardiac pulse over cycle phase u in [0, 1), shaped by waveform.

    A gamma pulse (fast upstroke, slow decay), tapered by (1 - u^4) so it
    returns exactly to the diastolic floor at the end of the cycle, riding on
    that floor. The result integrates to 1 over the cycle, so a cycle scaled
    by S has true mean flow S, and the minimum sits at u = 0 (the boundary).
    The normalising integral is a difference of two lower incomplete gamma
    functions, each evaluated with math only: a power series below a + 1
    and a continued fraction above it. Shapes and scales for which that
    integral is not a finite positive float raise InvalidConfig.
    """
    shape, scale, floor = waveform.shape, waveform.scale, waveform.floor
    norm = _pulse_norm(float(shape), float(scale))
    u = np.asarray(u, dtype=np.float64)
    g = np.power(u, shape - 1.0, where=u > 0, out=np.zeros_like(u)) * np.exp(-u / scale)
    g = g * (1.0 - u**_TAPER)
    return (g / norm + floor) / (1.0 + floor)


def _resp_fraction(t, period_s: float):
    return np.mod(np.asarray(t, dtype=np.float64) / period_s, 1.0)


def belt_waveform(t, period_s: float, kind: str):
    """Belt amplitude: rising during inhalation, trough at frac 0.75, peak at 0.25."""
    phase = 2.0 * np.pi * _resp_fraction(t, period_s)
    if kind == "sine":
        return np.sin(phase)
    if kind == "rounded-square":
        return np.tanh(4.0 * np.sin(phase)) / math.tanh(4.0)
    raise InvalidConfig(f"belt_waveform must be one of {BELT_WAVEFORMS}, got {kind!r}")


# -- generators -------------------------------------------------------------------

def generate_signals(config: SimConfig) -> SignalBundle:
    """Synthesize flow and belt signals plus per-cycle ground truth.

    Cycles are generated by the recurrence b[k+1] = b[k] + T[k] with both the
    period and the flow scale modulated per cycle,

        T[k]     = base_period * (1 + period_pct/100    * m(t_eval - delay))
        scale[k] = base_mean   * (1 + mean_flow_pct/100 * m(t_eval - delay))

    where t_eval = b[k] + base_period/2 is the projected cycle midpoint (it
    equals the actual midpoint whenever the period is unmodulated). Applying
    the modulation per cycle keeps the per-cycle ground truth exact: a
    breathing-phase average recovers exactly the configured percentage. The
    recording starts half a base period into a cycle, so the first boundary
    is an interior minimum. Gaussian noise of noise_sd (ml/min) is added to
    the flow samples only.

    The truth is sliced from the recurrence's own arrays, with the true mean
    flow the scale and the stroke volume scale * period / 60 per element.
    """
    config.validate()
    dt = config.dt_ms / 1000.0
    n = int(round(config.duration_s / dt))
    if n < 2:
        raise InvalidConfig(f"duration {config.duration_s} s yields {n} samples")
    t_last = (n - 1) * dt

    mod = config.modulation
    resp_period = config.respiration.period_s
    base_period = config.cardiac.base_period_s
    base_mean = config.cardiac.base_mean_flow_ml_min

    def cycle_of(start: float) -> tuple:
        """(period, scale, is_ex) for the cycle starting at start.

        The breath fraction at t_eval - delay decides: the cycle is
        expiratory while the belt falls, fraction in (0.25, 0.75), and the
        modulation m in [0, 1] is 1 at mid-expiration, 0 at mid-inspiration:
        square, 1 while expiratory, or 0.5 (1 - cos(2 pi fraction)). One
        Python float per cycle, as numpy gives it on an array: % is np.mod's
        floor-mod for floats, signed zero included, and the sine takes
        numpy's cos.
        """
        t_eval = start + 0.5 * base_period
        frac = (t_eval - mod.sensor_delay_s) / resp_period % 1.0
        ex = 0.25 < frac < 0.75
        if mod.shape == "square":
            m = float(ex)
        else:
            m = float(0.5 * (1.0 - np.cos(2.0 * np.pi * frac)))
        period = base_period * (1.0 + mod.period_pct / 100.0 * m)
        scale = base_mean * (1.0 + mod.mean_flow_pct / 100.0 * m)
        return period, scale, ex

    starts = [-0.5 * base_period]  # recording starts mid-cycle
    periods = []
    scales = []
    phases = []
    while True:
        period, scale, ex = cycle_of(starts[-1])
        periods.append(period)
        scales.append(scale)
        phases.append("EX" if ex else "IN")
        nxt = starts[-1] + period
        if nxt > t_last:
            break
        starts.append(nxt)
    bounds = np.asarray(starts + [starts[-1] + periods[-1]])

    periods, scales = np.asarray(periods), np.asarray(scales)
    t_samples = np.arange(n) * dt
    cell = np.clip(np.searchsorted(bounds, t_samples, side="right") - 1, 0, len(periods) - 1)
    u = (t_samples - bounds[cell]) / periods[cell]
    flow_values = scales[cell] * pulse_waveform(u, config.cardiac.waveform)
    if config.artifacts.noise_sd > 0:
        rng = np.random.default_rng([config.seed, 0])
        flow_values = flow_values + rng.normal(0.0, config.artifacts.noise_sd, n)

    belt = belt_waveform(t_samples, resp_period, config.respiration.belt_waveform)

    # Fully recorded cycles only: not the lead-in, nor the last, which ends after t_last.
    kept_scales, kept_periods = scales[1:-1], periods[1:-1]
    truth = GroundTruth(
        start_s=bounds[1:-2],
        end_s=bounds[2:-1],
        phase=np.asarray(phases[1:-1], dtype="<U2"),
        params=np.stack([kept_scales, kept_scales * kept_periods / 60.0, kept_periods]),
        sensor_delay_s=mod.sensor_delay_s,
        resp_period_s=resp_period,
    )
    return SignalBundle(
        flow=SampledSignal(t0_s=0.0, dt_s=dt, values=flow_values, kind="flow"),
        resp=SampledSignal(t0_s=0.0, dt_s=dt, values=belt, kind="respiration"),
        truth=truth,
    )


def generate_velocity_series(config: SimConfig) -> ImageBundle:
    """Render the flow signal as a parabolic disk-vessel velocity series.

    Per frame the profile is scaled so the discrete velocity integral equals
    the flow sample exactly; the eddy offset is added everywhere; a random
    aliased_pixel_fraction of the pixels exceeding venc is wrapped by
    -2*venc after float32 quantization (so unwrapping is bit-exact). The
    truth manifest gains the vessel mask side effects: eddy offset, wrapped
    pixel set, and the derived nominal peak velocity at base mean flow.

    The series comes back as a VesselSeries, which holds the vessel pixels
    only; whole frames are rendered by its chunks() or to_series().
    """
    config.validate()
    vessel = config.vessel
    if vessel.radius_px < 2:
        raise InvalidConfig(f"vessel radius must be >= 2 px, got {vessel.radius_px}")
    width, height = vessel.grid.width, vessel.grid.height
    cx, cy = width // 2, height // 2
    reach = vessel.radius_px + VESSEL_MARGIN_PX
    if cx - reach < 0 or cy - reach < 0 or cx + reach > width - 1 or cy + reach > height - 1:
        raise InvalidConfig(
            f"grid {width}x{height} too small for radius {vessel.radius_px} px "
            f"plus {VESSEL_MARGIN_PX} px margin"
        )
    flow, _resp, truth = generate_signals(config)

    yy, xx = np.mgrid[0:height, 0:width]
    dist = np.sqrt((xx - cx) ** 2 + (yy - cy) ** 2)
    member = dist <= vessel.radius_px
    profile = np.zeros((height, width))
    profile[member] = 1.0 - (dist[member] / (vessel.radius_px + 0.5)) ** 2
    profile_sum = float(profile[member].sum())

    # ml/min -> mm^3/s -> required velocity sum (mm/s) over member pixels.
    target_sums = flow.values / (0.06 * vessel.pixel_area_mm2)
    scales, weights = target_sums / profile_sum, profile[member]
    nominal_peak = (
        config.cardiac.base_mean_flow_ml_min / (0.06 * vessel.pixel_area_mm2) / profile_sum
    )
    # The float64 profile product a chunk of frames at a time; the offset is
    # added in float64, then one rounding to float32 per pixel.
    offset = config.artifacts.eddy_offset_mm_s
    background = np.float32(offset) if offset != 0.0 else np.float32(0.0)
    fraction = config.artifacts.aliased_pixel_fraction
    member32 = np.empty((len(scales), weights.size), dtype=np.float32)
    n_above = np.zeros(len(scales), dtype=np.intp)  # each frame's members above venc
    for frames in frame_chunks(len(scales), height, width):
        block = np.outer(scales[frames], weights)
        if offset != 0.0:
            block += offset
        member32[frames] = block
        if fraction > 0:
            n_above[frames] = np.count_nonzero(member32[frames] > vessel.venc_mm_s, axis=1)
    # Wrapped pixels as a frame index and a member index each, the member
    # indices sorted per frame. Members are in row-major order, so frame by
    # frame this is (t, y, x) order. Only frames that wrap draw.
    n_wraps = np.rint(fraction * n_above).astype(np.intp)
    wrapped_frames = []
    chosen_members = []
    two_venc = np.float32(2.0 * vessel.venc_mm_s)
    for t in np.flatnonzero(n_wraps).tolist():
        candidates = np.flatnonzero(member32[t] > vessel.venc_mm_s)
        rng = np.random.default_rng([config.seed, 2, t])
        chosen = rng.choice(candidates, size=int(n_wraps[t]), replace=False)
        chosen.sort()
        member32[t, chosen] -= two_venc
        wrapped_frames += [t] * chosen.size
        chosen_members.append(chosen)
    wrapped = ()
    if chosen_members:
        chosen = np.concatenate(chosen_members)
        member_ys, member_xs = np.nonzero(member)
        wrapped = tuple(zip(wrapped_frames, member_ys[chosen].tolist(), member_xs[chosen].tolist()))

    series = VesselSeries(
        member=member,
        member_values=member32,
        background=background,
        dt_ms=config.dt_ms,
        venc_mm_s=vessel.venc_mm_s,
        pixel_area_mm2=vessel.pixel_area_mm2,
    )
    truth = GroundTruth(
        truth.start_s, truth.end_s, truth.phase, truth.params, truth.sensor_delay_s,
        truth.resp_period_s,
        eddy_offset_mm_s=config.artifacts.eddy_offset_mm_s,
        wrapped_pixels=wrapped,
        nominal_peak_velocity_mm_s=float(nominal_peak),
    )
    return ImageBundle(series=series, mask=member, truth=truth)
