"""The contract of rtpc's record types: keyword construction with their
defaults, read-only attributes, repr, equality and hashing.

Value records and configs compare and hash by value. SampledSignal and
VelocityMapSeries compare by their own __eq__ and are unhashable.
VesselSeries and GroundTruth compare and hash by identity.
"""

import copy
import json
import pickle

import numpy as np
import pytest

from rtpc.extraction import BackgroundEstimate
from rtpc.io import SampledSignal, VelocityMapSeries
from rtpc.report import REPORT_PARAMETERS, ArteryRecord, DiffRecord, QcFlags, Report
from rtpc.respiration import EX, IN, RespIntervals
from rtpc.stats import CorrelationResult, SignedRankResult
from rtpc.synthgen import (
    ArtifactConfig,
    CardiacConfig,
    GridConfig,
    GroundTruth,
    ModulationConfig,
    RespirationConfig,
    SimConfig,
    VesselConfig,
    VesselSeries,
    WaveformConfig,
)

BAND = np.zeros((4, 4), dtype=bool)
DIFF_FIELDS = {"diff_at_zero_pct": 1.0, "max_diff_pct": 2.0, "argmax_delay_s": 0.5,
               "delay_pct": 12.5, "delays_s": (0.0, 0.5), "diff_pct": (1.0, 2.0)}
ARTERY_FIELDS = {"name": "a", "mean_flow_ml_min": 700.0, "stroke_volume_ml": 11.0,
                 "cardiac_period_s": 0.94, "n_cycles": 60,
                 "qc": QcFlags(cardiac_snr=None, excluded=False),
                 "diff": dict.fromkeys(REPORT_PARAMETERS, DiffRecord(**DIFF_FIELDS))}
ARTERY = ArteryRecord(**ARTERY_FIELDS)


def truth_arrays() -> dict:
    return {"start_s": np.array([0.0, 1.0]), "end_s": np.array([1.0, 2.0]),
            "phase": np.array(["EX", "IN"]), "params": np.ones((3, 2))}


#: (type, keyword arguments, hashable): records that compare by value.
VALUE_RECORDS = [
    (QcFlags, {"cardiac_snr": 12.5, "excluded": False}, True),
    (DiffRecord, DIFF_FIELDS, True),
    (ArteryRecord, ARTERY_FIELDS, False),  # holds its diff dict
    (Report, {"version": "0.1.0", "config": {}, "resp_period_s": 4.0, "arteries": (ARTERY,),
              "generated_at": None}, False),  # holds its config dict
    (BackgroundEstimate, {"offset_mm_s": 3.0, "band": BAND, "n_band_pixels": 0}, False),
    (RespIntervals, {"phases": (IN, EX), "base_bounds": (0.0, 2.0, 4.0), "mean_period_s": 4.0},
     True),
    (CorrelationResult, {"rho": 0.5, "p_value": 0.1, "n": 8, "method": "exact-permutation"},
     True),
    (SignedRankResult, {"w_statistic": 3.0, "p_value": 0.2, "n_nonzero": 9, "method": "exact"},
     True),
    (WaveformConfig, {"shape": 3.0, "scale": 0.18, "floor": 0.3}, True),
    (CardiacConfig, {"base_period_s": 0.94, "base_mean_flow_ml_min": 740.0,
                     "waveform": WaveformConfig()}, True),
    (RespirationConfig, {"period_s": 4.3, "belt_waveform": "sine"}, True),
    (ModulationConfig, {"mean_flow_pct": 0.0, "period_pct": 0.0, "shape": "square",
                        "sensor_delay_s": 0.0}, True),
    (ArtifactConfig, {"eddy_offset_mm_s": 0.0, "aliased_pixel_fraction": 0.0, "noise_sd": 0.0},
     True),
    (GridConfig, {"width": 32, "height": 32}, True),
    (VesselConfig, {"radius_px": 6.0, "grid": GridConfig(), "venc_mm_s": 1000.0,
                    "pixel_area_mm2": 0.25}, True),
    (SimConfig, {"duration_s": 60.0, "dt_ms": 75.0, "cardiac": CardiacConfig(),
                 "respiration": RespirationConfig(), "modulation": ModulationConfig(),
                 "artifacts": ArtifactConfig(), "vessel": VesselConfig(), "seed": 0}, True),
]

#: (type, keyword arguments): types whose instances hold arrays.
ARRAY_TYPES = [
    (SampledSignal, {"t0_s": 0.0, "dt_s": 0.075, "values": np.arange(4.0), "kind": "flow"}),
    (VelocityMapSeries, {"frames": np.ones((2, 3, 3), dtype=np.float32), "dt_ms": 75.0,
                         "venc_mm_s": 1000.0, "pixel_area_mm2": 0.25}),
    (VesselSeries, {"member": np.ones((3, 3), dtype=bool),
                    "member_values": np.ones((2, 9), dtype=np.float32),
                    "background": np.float32(0.0), "dt_ms": 75.0, "venc_mm_s": 1000.0,
                    "pixel_area_mm2": 0.25}),
    (GroundTruth, {**truth_arrays(), "sensor_delay_s": 0.0, "resp_period_s": 4.3}),
]

ALL = [(cls, kwargs) for cls, kwargs, _ in VALUE_RECORDS] + ARRAY_TYPES


def ids(cases):
    return [case[0].__name__ for case in cases]


@pytest.mark.parametrize("cls, kwargs", ALL, ids=ids(ALL))
def test_attributes_are_read_only(cls, kwargs):
    record = cls(**kwargs)
    name = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls, kwargs", ALL, ids=ids(ALL))
def test_copy_and_pickle(cls, kwargs):
    record = cls(**kwargs)
    for again in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(again) is cls
        assert repr(again) == repr(record)


@pytest.mark.parametrize("cls, kwargs, hashable", VALUE_RECORDS, ids=ids(VALUE_RECORDS))
def test_value_records(cls, kwargs, hashable):
    """Keyword construction, repr with every field, equality by value, and
    hashing by value where every field hashes."""
    record = cls(**kwargs)
    for name, value in kwargs.items():
        assert getattr(record, name) is value or getattr(record, name) == value, name
    fields = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
    assert repr(record) == f"{cls.__name__}({fields})"
    again = cls(**kwargs)
    assert record == again and not record != again
    first = next(iter(kwargs))
    changed = {**kwargs, first: "other"} if first != "phases" else {**kwargs, first: (EX, IN)}
    assert record != cls(**changed)
    if hashable:
        assert hash(record) == hash(again)
    else:
        with pytest.raises(TypeError):
            hash(record)


def test_defaults():
    """The fields that may be left out, and their defaults."""
    assert SimConfig().to_dict() == {
        "duration_s": 60.0, "dt_ms": 75.0,
        "cardiac": {"base_period_s": 0.94, "base_mean_flow_ml_min": 740.0,
                    "waveform": {"shape": 3.0, "scale": 0.18, "floor": 0.3}},
        "respiration": {"period_s": 4.3, "belt_waveform": "sine"},
        "modulation": {"mean_flow_pct": 0.0, "period_pct": 0.0, "shape": "square",
                       "sensor_delay_s": 0.0},
        "artifacts": {"eddy_offset_mm_s": 0.0, "aliased_pixel_fraction": 0.0, "noise_sd": 0.0},
        "vessel": {"radius_px": 6.0, "grid": {"width": 32, "height": 32}, "venc_mm_s": 1000.0,
                   "pixel_area_mm2": 0.25},
        "seed": 0,
    }
    report = Report(version="0.1.0", config={}, resp_period_s=4.0, arteries=())
    assert report.generated_at is None
    truth = GroundTruth(**truth_arrays(), sensor_delay_s=0.0, resp_period_s=4.3)
    assert (truth.eddy_offset_mm_s, truth.wrapped_pixels, truth.nominal_peak_velocity_mm_s) == (
        0.0, (), None)
    assert not truth.start_s.flags.writeable and not truth.params.flags.writeable


def test_array_types_equality():
    """SampledSignal and VelocityMapSeries compare by value and do not hash;
    VesselSeries and GroundTruth compare and hash by identity."""
    for cls, kwargs in ARRAY_TYPES:
        record, again = cls(**kwargs), cls(**kwargs)
        assert record == record
        if cls in (SampledSignal, VelocityMapSeries):
            assert record == again
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert record != again
            assert hash(record) == hash(record) and hash(record) != hash(again)
        assert repr(record).startswith(f"{cls.__name__}({next(iter(kwargs))}=")


def test_background_estimate_compares_its_band_by_value():
    estimate = BackgroundEstimate(offset_mm_s=3.0, band=BAND, n_band_pixels=0)
    assert estimate == BackgroundEstimate(offset_mm_s=3.0, band=BAND.copy(), n_band_pixels=0)
    assert estimate != BackgroundEstimate(offset_mm_s=3.0, band=~BAND, n_band_pixels=0)


def test_sampled_signal_len_is_its_sample_count():
    signal = SampledSignal(t0_s=0.0, dt_s=0.075, values=np.arange(7.0), kind="flow")
    assert len(signal) == 7


def test_sim_config_round_trip():
    config = SimConfig.from_dict({"duration_s": 120.0, "seed": 4,
                                  "cardiac": {"waveform": {"shape": 4.0}},
                                  "vessel": {"grid": {"width": 40, "height": 36}}})
    assert config.cardiac.waveform == WaveformConfig(shape=4.0)
    assert config.vessel.grid == GridConfig(width=40, height=36)
    assert SimConfig.from_dict(config.to_dict()) == config
    assert SimConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
    assert isinstance(config.to_dict()["vessel"]["grid"], dict)


def test_report_round_trip():
    report = Report(version="0.1.0", config={"invert_belt": False}, resp_period_s=4.0,
                    arteries=(ARTERY,), generated_at="2026-01-01T00:00:00Z")
    report.validate()
    assert Report.from_dict(report.to_dict()) == report
    assert Report.from_dict(json.loads(json.dumps(report.to_dict()))) == report
