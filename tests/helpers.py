"""Shared test utilities: cached synthetic bundles, boundary matching and fresh interpreters."""

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

import rtpc
from rtpc.synthgen import SimConfig, generate_signals, generate_velocity_series


def make_config(**overrides) -> SimConfig:
    return SimConfig.from_dict(overrides)


@lru_cache(maxsize=32)
def _signals_cached(key: str):
    return generate_signals(SimConfig.from_dict(json.loads(key)))


@lru_cache(maxsize=8)
def _images_cached(key: str):
    bundle = generate_velocity_series(SimConfig.from_dict(json.loads(key)))
    series = bundle.series.to_series()
    series.frames.flags.writeable = False
    return bundle._replace(series=series)


def signals(**overrides):
    """generate_signals with caching across tests (configs as kwargs dict)."""
    return _signals_cached(json.dumps(overrides, sort_keys=True))


def images(**overrides):
    """generate_velocity_series with caching across tests. Every call shares
    one series, whose frames are read-only: no extraction step writes them."""
    return _images_cached(json.dumps(overrides, sort_keys=True))


def match_boundaries(detected: np.ndarray, truth: np.ndarray, tol_s: float):
    """Map each truth boundary to its nearest detected one; return abs errors."""
    errors = []
    for tb in truth:
        errors.append(float(np.min(np.abs(detected - tb))))
    return np.asarray(errors)


def run_fresh(script: str, *argv) -> tuple:
    """Run `python -c script argv...` in a new interpreter that imports this
    rtpc; return the JSON of its stdout's last line, and the whole stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(rtpc.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout
