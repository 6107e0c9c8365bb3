"""Report records and the report JSON: what `analyze` writes and `report` reads.

This module imports no numpy, so `rtpc report` runs without it. Readers are
strict: a missing or mistyped field raises ParseError naming it, and so do a
scan that breaks scan_peak's rule and a summary that disagrees with its scan. It also states each fixed analysis
setting once: the detectors, the command line's defaults and help texts, and
analysis_config, which builds the report's `config` block, read them here.
Every writer of an output file calls unlink_if_regular first.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import stat
import sys
from collections import namedtuple
from pathlib import Path

from .errors import IoFailure, ParseError

#: Canonical cycle parameter names, in report order.
REPORT_PARAMETERS = ("mean_flow", "stroke_volume", "cardiac_period")


# -- analysis settings ------------------------------------------------------------

#: detect_cycles: spline upsampling factor; search band (s) of the dominant period
#: T; the least autocorrelation, as a fraction of the highest in-band peak's,
#: at which a peak at a sub-multiple of that peak's lag is taken as T; least
#: boundary spacing and valid cycle periods, as fractions of T. The threshold
#: is the middle, rounded, of -0.10 to 0.33: the thresholds that got the most
#: periods right over simulated periods of 0.3-1.5 s with noise, modulation
#: and varied pulse shapes. Any threshold up to 0.89 passes the narrower sweep
#: that gates cycle counts (CHANGES.md has both).
UPSAMPLE_FACTOR = 8
PERIOD_BAND_S = (0.4, 2.0)
SUBMULTIPLE_THRESHOLD = 0.1
MIN_SEPARATION_FRACTION = 0.6
VALIDITY_BAND = (0.6, 1.5)

#: detect_resp_intervals: box-smoothing window (s); least spacing of belt
#: extrema (s); prominence floor, as a fraction of the smoothed belt's range.
SMOOTH_WINDOW_S = 0.5
MIN_SEPARATION_S = 1.5
PROMINENCE_FRACTION = 0.2

#: RespIntervals: each breathing interval lasts strictly inside this band, as
#: multiples of the mean breathing period.
INTERVAL_DURATION_BAND = (0.3, 3.0)

#: The delay scan's grid step, and the fewest valid cycles each phase needs at a delay.
DELAY_STEP_MS = 75.0
DELAY_STEP_S = DELAY_STEP_MS / 1000.0
MIN_CYCLES = 3

#: The largest share of the scan grid's delays that may be skipped for lack of cycles.
MAX_MISSING_FRACTION = 0.2

#: A cardiac SNR below this flags a flow signal for exclusion.
SNR_THRESHOLD = 5.0

#: quality_score: the cardiac SNR is the peak Welch power in the cardiac band
#: (Hz) over the median power in the noise band (Hz), with Welch segments of at
#: most WELCH_SEGMENT samples, on a flow of at least MIN_QC_SAMPLES samples.
CARDIAC_BAND_HZ = (0.7, 2.0)
NOISE_BAND_HZ = (2.5, 6.0)
WELCH_SEGMENT = 256
MIN_QC_SAMPLES = 64

#: Seeded segmentation: threshold as a fraction of the reference speed, and
#: the radius (px) around the seed the reference speed is taken in.
THRESHOLD_FRACTION = 0.5
MAX_RADIUS_PX = 12.0


def analysis_config(invert_belt: bool, delay_step_s: float, min_cycles: int,
                    snr_threshold: float) -> dict:
    """The report's `config` block: analyze's settings, and every constant
    above that decides its numbers."""
    return {
        "diff_definition": "ex-in-over-in",
        "invert_belt": bool(invert_belt),
        "delay_step_s": delay_step_s,
        "min_cycles_per_phase": min_cycles,
        "max_missing_fraction": MAX_MISSING_FRACTION,
        "cycles": {
            "upsample_factor": UPSAMPLE_FACTOR,
            "period_band_s": list(PERIOD_BAND_S),
            "submultiple_threshold": SUBMULTIPLE_THRESHOLD,
            "min_separation_fraction": MIN_SEPARATION_FRACTION,
            "validity_band": list(VALIDITY_BAND),
        },
        "respiration": {
            "smooth_window_s": SMOOTH_WINDOW_S,
            "min_separation_s": MIN_SEPARATION_S,
            "prominence_fraction": PROMINENCE_FRACTION,
            "interval_duration_band": list(INTERVAL_DURATION_BAND),
        },
        "quality": {
            "snr_threshold": snr_threshold,
            "cardiac_band_hz": list(CARDIAC_BAND_HZ),
            "noise_band_hz": list(NOISE_BAND_HZ),
            "welch_segment": WELCH_SEGMENT,
            "min_qc_samples": MIN_QC_SAMPLES,
        },
    }


# -- report structures ------------------------------------------------------------

_JSON_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string", bool: "true or false",
                    int: "an integer"}


def _field(value, kind: type, name: str):
    """A report field's JSON value, checked to be of kind (bool is no int)."""
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise ParseError(f"report field {name} must be {_JSON_TYPE_NAMES[kind]}, got {reprlib.repr(value)}")


def _number(value, name: str, optional: bool = False) -> float | None:
    """A report field's JSON number as a finite float; null passes if optional."""
    if value is None and optional:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:  # False for inf and nan
            return float(value)
    kind = "a finite number or null" if optional else "a finite number"
    raise ParseError(f"report field {name} must be {kind}, got {reprlib.repr(value)}")


class QcFlags(namedtuple("QcFlags", "cardiac_snr excluded")):
    """A flow's quality verdict: its cardiac SNR (None for a flow too short to
    score) and whether that SNR excludes it."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {"cardiac_snr": self.cardiac_snr, "excluded": self.excluded}

    @classmethod
    def from_dict(cls, d: dict) -> "QcFlags":
        d = _field(d, dict, "qc")
        return cls(cardiac_snr=_number(d["cardiac_snr"], "qc.cardiac_snr", optional=True),
                   excluded=_field(d["excluded"], bool, "qc.excluded"))


class DiffRecord(namedtuple(
        "DiffRecord", "diff_at_zero_pct max_diff_pct argmax_delay_s delay_pct delays_s diff_pct")):
    """Diff Ex-In of one parameter at its best delay, with the scan it came from.

    delays_s / diff_pct keep the whole delay scan as tuples of floats, so a
    report file alone can redraw the Diff-vs-delay plot; a skipped delay's
    Diff, like diff_at_zero_pct, may be None. The scan follows scan_peak's
    rule, and Report.validate refuses a record whose scan breaks it or whose
    other fields are not what its scan gives.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "at_zero_pct": self.diff_at_zero_pct,
            "max_pct": self.max_diff_pct,
            "delay_s": self.argmax_delay_s,
            "delay_pct": self.delay_pct,
            "scan": {"delays_s": list(self.delays_s), "diff_pct": list(self.diff_pct)},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DiffRecord":
        d = _field(d, dict, "diff")
        scan = _field(d["scan"], dict, "scan")
        return cls(
            diff_at_zero_pct=_number(d["at_zero_pct"], "at_zero_pct", optional=True),
            max_diff_pct=_number(d["max_pct"], "max_pct"),
            argmax_delay_s=_number(d["delay_s"], "delay_s"),
            delay_pct=_number(d["delay_pct"], "delay_pct"),
            delays_s=tuple(_number(v, "scan.delays_s")
                           for v in _field(scan["delays_s"], list, "scan.delays_s")),
            diff_pct=tuple(_number(v, "scan.diff_pct", optional=True)
                           for v in _field(scan["diff_pct"], list, "scan.diff_pct")),
        )


class ArteryRecord(namedtuple("ArteryRecord", "name mean_flow_ml_min stroke_volume_ml "
                                             "cardiac_period_s n_cycles qc diff")):
    """One artery's cycle summary, its QcFlags, and diff: parameter name -> DiffRecord."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "mean_flow_ml_min": self.mean_flow_ml_min,
            "stroke_volume_ml": self.stroke_volume_ml,
            "cardiac_period_s": self.cardiac_period_s,
            "n_cycles": self.n_cycles,
            "qc": self.qc.to_dict(),
            "diff": {p: self.diff[p].to_dict() for p in REPORT_PARAMETERS},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ArteryRecord":
        d = _field(d, dict, "arteries[]")
        diff = _field(d["diff"], dict, "diff")
        return cls(
            name=_field(d["name"], str, "name"),
            mean_flow_ml_min=_number(d["mean_flow_ml_min"], "mean_flow_ml_min"),
            stroke_volume_ml=_number(d["stroke_volume_ml"], "stroke_volume_ml"),
            cardiac_period_s=_number(d["cardiac_period_s"], "cardiac_period_s"),
            n_cycles=_field(d["n_cycles"], int, "n_cycles"),
            qc=QcFlags.from_dict(d["qc"]),
            diff={p: DiffRecord.from_dict(diff[p]) for p in diff},
        )


def scan_peak(delays_s, diff_pct, period_s: float, where: str, error: type = ParseError) -> tuple:
    """The first maximum of a delay scan's Diffs (None where skipped) and its delay.

    The scan rule rtpc.diff builds each DiffRecord by and Report.validate
    checks: one Diff per delay, at least one not None, and delays that start
    at 0, strictly increase and stay below the breathing period period_s. A
    scan that breaks it raises error, naming where and the field.
    """
    if len(delays_s) != len(diff_pct):
        raise error(f"scan arrays of {where} differ in length")
    if not delays_s or delays_s[0] != 0.0:
        raise error(f"scan.delays_s of {where} must start at 0, got {reprlib.repr(list(delays_s))}")
    for delay, after in zip(delays_s, (*delays_s[1:], period_s)):
        if not delay < after:
            raise error(f"scan.delays_s of {where} must increase strictly up to the {period_s!r} s "
                        f"breathing period, but {delay!r} is not below {after!r}")
    scanned = [(v, d) for d, v in zip(delays_s, diff_pct) if v is not None]
    if not scanned:
        raise error(f"scan.diff_pct of {where} holds no Diff")
    return max(scanned, key=lambda pair: pair[0])  # the first of equal maxima


def _check_scan(record: DiffRecord, period_s: float, where: str) -> None:
    """Raise ParseError, naming where and the field, unless record's scan
    follows scan_peak's rule and its summary fields are what the scan gives."""
    best, at = scan_peak(record.delays_s, record.diff_pct, period_s, where)
    if record.diff_at_zero_pct != record.diff_pct[0]:
        raise ParseError(f"at_zero_pct of {where} is {record.diff_at_zero_pct!r}, but its scan "
                         f"gives {record.diff_pct[0]!r} at delay 0")
    if record.max_diff_pct != best:
        raise ParseError(f"max_pct of {where} is {record.max_diff_pct!r}, but its scan's "
                         f"largest Diff is {best!r}")
    if record.argmax_delay_s != at:
        raise ParseError(f"delay_s of {where} is {record.argmax_delay_s!r}, but its scan's "
                         f"largest Diff is at {at!r} s")


class Report(namedtuple("Report", "version config resp_period_s arteries generated_at",
                        defaults=(None,))):
    """Per-artery cycle summaries plus the three Diff-vs-delay records each:
    arteries is a tuple of ArteryRecord, generated_at a string or None."""

    __slots__ = ()

    def validate(self):
        if not (math.isfinite(self.resp_period_s) and self.resp_period_s > 0):
            raise ParseError(f"resp_period_s must be positive, got {self.resp_period_s!r}")
        for artery in self.arteries:
            if artery.n_cycles < 1:
                raise ParseError(f"n_cycles of {artery.name!r} must be at least 1, "
                                 f"got {artery.n_cycles!r}")
            if set(artery.diff) != set(REPORT_PARAMETERS):
                raise ParseError(
                    f"artery {artery.name!r} must carry exactly one diff record per parameter "
                    f"{REPORT_PARAMETERS}, got {sorted(artery.diff)}"
                )
            for param in REPORT_PARAMETERS:
                rec = artery.diff[param]
                expected_pct = 100.0 * rec.argmax_delay_s / self.resp_period_s
                if abs(rec.delay_pct - expected_pct) > 1e-6 * max(1.0, abs(expected_pct)):
                    raise ParseError(
                        f"delay_pct inconsistent for {artery.name!r}/{param}: "
                        f"{rec.delay_pct} vs 100*{rec.argmax_delay_s}/{self.resp_period_s}"
                    )
                _check_scan(rec, self.resp_period_s, f"{artery.name!r}/{param}")

    def to_dict(self) -> dict:
        d = {
            "version": self.version,
            "config": self.config,
            "resp_period_s": self.resp_period_s,
            "arteries": [a.to_dict() for a in self.arteries],
        }
        if self.generated_at is not None:
            d["generated_at"] = self.generated_at
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Report":
        """Read a report's JSON tree; ParseError names a missing or mistyped field."""
        d = _field(d, dict, "(the whole report)")
        try:
            generated_at = d.get("generated_at")
            return cls(
                version=_field(d["version"], str, "version"),
                config=dict(_field(d["config"], dict, "config")),
                resp_period_s=_number(d["resp_period_s"], "resp_period_s"),
                arteries=tuple(ArteryRecord.from_dict(a)
                               for a in _field(d["arteries"], list, "arteries")),
                generated_at=None if generated_at is None else _field(generated_at, str, "generated_at"),
            )
        except KeyError as exc:
            raise ParseError(f"malformed report: missing field {exc}") from exc


# -- output files -----------------------------------------------------------------

def unlink_if_regular(path) -> None:
    """Remove path if it is a regular file, so that the writer which opens it
    next writes a new file. Truncating a file whose last contents are still
    being written back can block for hundreds of ms; unlinking it does not.
    A symlink, FIFO or device is left alone and written through, and a path
    that cannot be removed is left for the writer to report on."""
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except (OSError, ValueError):  # ValueError: a path with a NUL byte
        pass


# -- report JSON ------------------------------------------------------------------

def write_report(report: Report, path) -> None:
    """Validate and emit the report JSON (sorted keys, stable formatting)."""
    report.validate()
    try:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ParseError(f"report contains non-finite values: {exc}") from exc
    unlink_if_regular(path)
    try:
        Path(path).write_text(text, encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a path with a NUL byte
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_report(path) -> Report:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        d = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON, or an int of > 4300 digits
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    report = Report.from_dict(d)
    report.validate()
    return report
