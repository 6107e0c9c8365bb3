"""Report records and the report JSON: what `analyze` writes and `report` reads.

This module imports no numpy, so `rtpc report` runs without it. Readers are
strict: a missing or mistyped field raises ParseError naming it.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import IoFailure, ParseError

#: Canonical cycle parameter names, in report order.
REPORT_PARAMETERS = ("mean_flow", "stroke_volume", "cardiac_period")


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


@dataclass(frozen=True)
class QcFlags:
    cardiac_snr: float | None
    excluded: bool

    def to_dict(self) -> dict:
        return {"cardiac_snr": self.cardiac_snr, "excluded": self.excluded}

    @classmethod
    def from_dict(cls, d: dict) -> "QcFlags":
        d = _field(d, dict, "qc")
        return cls(cardiac_snr=_number(d["cardiac_snr"], "qc.cardiac_snr", optional=True),
                   excluded=_field(d["excluded"], bool, "qc.excluded"))


@dataclass(frozen=True)
class DiffRecord:
    """Expiration-vs-inspiration difference summary for one parameter.

    scan_delays_s / scan_diff_pct optionally keep the full delay sweep so a
    report file alone can regenerate the Diff-vs-delay plot. Skipped delays
    are stored as None.
    """

    at_zero_pct: float | None
    max_pct: float
    delay_s: float
    delay_pct: float
    scan_delays_s: tuple[float, ...] | None = None
    scan_diff_pct: tuple[float | None, ...] | None = None

    def to_dict(self) -> dict:
        d = {
            "at_zero_pct": self.at_zero_pct,
            "max_pct": self.max_pct,
            "delay_s": self.delay_s,
            "delay_pct": self.delay_pct,
        }
        if self.scan_delays_s is not None:
            d["scan"] = {
                "delays_s": list(self.scan_delays_s),
                "diff_pct": list(self.scan_diff_pct),
            }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "DiffRecord":
        d = _field(d, dict, "diff")
        delays = diffs = None
        if d.get("scan") is not None:
            scan = _field(d["scan"], dict, "scan")
            delays = tuple(_number(v, "scan.delays_s")
                           for v in _field(scan["delays_s"], list, "scan.delays_s"))
            diffs = tuple(_number(v, "scan.diff_pct", optional=True)
                          for v in _field(scan["diff_pct"], list, "scan.diff_pct"))
        return cls(
            at_zero_pct=_number(d["at_zero_pct"], "at_zero_pct", optional=True),
            max_pct=_number(d["max_pct"], "max_pct"),
            delay_s=_number(d["delay_s"], "delay_s"),
            delay_pct=_number(d["delay_pct"], "delay_pct"),
            scan_delays_s=delays,
            scan_diff_pct=diffs,
        )


@dataclass(frozen=True)
class ArteryRecord:
    name: str
    mean_flow_ml_min: float
    stroke_volume_ml: float
    cardiac_period_s: float
    n_cycles: int
    qc: QcFlags
    diff: dict = field(default_factory=dict)  # parameter name -> DiffRecord

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


@dataclass(frozen=True)
class Report:
    """Per-artery cycle summaries plus the three Diff-vs-delay records each."""

    version: str
    config: dict
    resp_period_s: float
    arteries: tuple[ArteryRecord, ...]
    generated_at: str | None = None

    def validate(self):
        if not (math.isfinite(self.resp_period_s) and self.resp_period_s > 0):
            raise ParseError(f"resp_period_s must be positive, got {self.resp_period_s!r}")
        for artery in self.arteries:
            if set(artery.diff) != set(REPORT_PARAMETERS):
                raise ParseError(
                    f"artery {artery.name!r} must carry exactly one diff record per parameter "
                    f"{REPORT_PARAMETERS}, got {sorted(artery.diff)}"
                )
            for param in REPORT_PARAMETERS:
                rec = artery.diff[param]
                expected_pct = 100.0 * rec.delay_s / self.resp_period_s
                if abs(rec.delay_pct - expected_pct) > 1e-6 * max(1.0, abs(expected_pct)):
                    raise ParseError(
                        f"delay_pct inconsistent for {artery.name!r}/{param}: "
                        f"{rec.delay_pct} vs 100*{rec.delay_s}/{self.resp_period_s}"
                    )
                if rec.scan_delays_s is not None and len(rec.scan_delays_s) != len(rec.scan_diff_pct):
                    raise ParseError(f"scan arrays of {artery.name!r}/{param} differ in length")

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


# -- report JSON ------------------------------------------------------------------

def write_report(report: Report, path) -> None:
    """Validate and emit the report JSON (sorted keys, stable formatting)."""
    report.validate()
    try:
        Path(path).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n",
            encoding="utf-8",
        )
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"report contains non-finite values: {exc}") from exc


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
