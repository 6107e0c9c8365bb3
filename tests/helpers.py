"""Shared test utilities: cached synthetic bundles and small constructors."""

import json
from functools import lru_cache

import numpy as np

from rtpc.cycles import CCFC, CycleBoundary, CycleParams
from rtpc.respiration import RespIntervals
from rtpc.synthgen import SimConfig, generate_signals, generate_velocity_series


def make_config(**overrides) -> SimConfig:
    return SimConfig.from_dict(overrides)


@lru_cache(maxsize=32)
def _signals_cached(key: str):
    return generate_signals(SimConfig.from_dict(json.loads(key)))


@lru_cache(maxsize=8)
def _images_cached(key: str):
    bundle = generate_velocity_series(SimConfig.from_dict(json.loads(key)))
    return bundle._replace(series=bundle.series.to_series())


def signals(**overrides):
    """generate_signals with caching across tests (configs as kwargs dict)."""
    return _signals_cached(json.dumps(overrides, sort_keys=True))


def images(**overrides):
    return _images_cached(json.dumps(overrides, sort_keys=True))


def make_cycle(start_s: float, end_s: float, mean_flow: float = 740.0, valid: bool = True) -> CCFC:
    period = end_s - start_s
    return CCFC(
        boundary=CycleBoundary(start_s=start_s, end_s=end_s),
        samples=np.full(3, mean_flow),
        params=CycleParams(
            mean_flow_ml_min=mean_flow,
            stroke_volume_ml=mean_flow * period / 60.0,
            cardiac_period_s=period,
        ),
        valid=valid,
    )


def periodic_intervals(period_s: float, n_breaths: int, start_s: float = 0.0) -> RespIntervals:
    """Strictly periodic IN/EX train: IN then EX, each period_s/2 long."""
    half = period_s / 2.0
    bounds = tuple(start_s + half * i for i in range(2 * n_breaths + 1))
    phases = tuple("IN" if i % 2 == 0 else "EX" for i in range(2 * n_breaths))
    return RespIntervals(phases=phases, base_bounds=bounds, mean_period_s=period_s)


def match_boundaries(detected: np.ndarray, truth: np.ndarray, tol_s: float):
    """Map each truth boundary to its nearest detected one; return abs errors."""
    errors = []
    for tb in truth:
        errors.append(float(np.min(np.abs(detected - tb))))
    return np.asarray(errors)
