"""Seeded inputs for the workloads: images, signals and the cohort step.

Everything here is a pure function of the workload seed: the same seed gives
the same simulation configs and so the same files. Sizes never depend on the
seed (frame count, grid, durations, subject counts), so the amount of work is
the same on every seed; only noise, modulation depths and the sensor delay
vary. Sensor delays sit on the 75 ms scan grid.
"""

from __future__ import annotations

import numpy as np

RESP_PERIOD_S = 4.3
DELAY_STEP_S = 0.075


def _rng(seed: int, stream: int, *more: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, *more])


def _delay(rng) -> float:
    return round(DELAY_STEP_S * int(rng.integers(8, 25)), 3)  # 0.6 .. 1.8 s


def images_config(seed: int, small: bool = False) -> dict:
    """One acquisition: 300 s at 75 ms, 4000 frames of 128 x 128.

    venc 400 mm/s lies inside the band where pixels really wrap (systolic
    peak about 530 mm/s) and the one-pass unwrap is exact; the default venc
    of 1000 mm/s would wrap no pixel at radius 10, and 200 mm/s is below half
    the systolic spread, where the unwrap corrects pixels that never wrapped.
    `small` is the self-check size: 60 s of 48 x 48 frames, radius 6, where
    the systolic peak is about 1400 mm/s and venc 1000 mm/s wraps pixels.
    """
    rng = _rng(seed, 1)
    return {
        "duration_s": 60.0 if small else 300.0,
        "dt_ms": 75.0,
        "respiration": {"period_s": RESP_PERIOD_S},
        "modulation": {
            "mean_flow_pct": round(8.0 + 4.0 * float(rng.random()), 3),
            "period_pct": round(4.0 + 3.0 * float(rng.random()), 3),
            "shape": "square",
            "sensor_delay_s": _delay(rng),
        },
        "artifacts": {"eddy_offset_mm_s": 15.0, "aliased_pixel_fraction": 0.5, "noise_sd": 5.0},
        "vessel": {
            "radius_px": 6.0 if small else 10.0,
            "grid": {"width": 48, "height": 48} if small else {"width": 128, "height": 128},
            "venc_mm_s": 1000.0 if small else 400.0,
        },
        "seed": int(rng.integers(0, 2**31)),
    }


#: signals arteries: (file stem, base mean flow ml/min, noise sd, modulation sign)
ARTERIES = (("ica_left", 330.0, 4.0, 1.0), ("ica_right", 300.0, 6.0, 1.0), ("basilar", 160.0, 3.0, -1.0))
SUM_NAME = "CABF_extra"


def signals_subjects(seed: int, n_subjects: int = 3, duration_s: float = 600.0) -> list:
    """Per subject: the shared timing and one SimConfig dict per artery.

    The arteries share cardiac period, breathing period, period modulation
    and sensor delay, so their cycle boundaries coincide and one belt serves
    them all. They differ in mean flow, noise and mean-flow modulation; the
    basilar modulation is negative.
    """
    subjects = []
    for s in range(n_subjects):
        rng = _rng(seed, 2, s)
        period_pct = round(4.0 + 3.0 * float(rng.random()), 3)
        delay = _delay(rng)
        arteries = []
        for name, mean, noise, sign in ARTERIES:
            arteries.append((name, {
                "duration_s": duration_s,
                "dt_ms": 75.0,
                "cardiac": {"base_mean_flow_ml_min": mean},
                "respiration": {"period_s": RESP_PERIOD_S},
                "modulation": {
                    "mean_flow_pct": round(sign * (7.0 + 4.0 * float(rng.random())), 3),
                    "period_pct": period_pct,
                    "shape": "square",
                    "sensor_delay_s": delay,
                },
                "artifacts": {"noise_sd": noise},
                "seed": int(rng.integers(0, 2**31)),
            }))
        subjects.append(arteries)
    return subjects


def cohort_subjects(seed: int, n_subjects: int = 20, duration_s: float = 300.0) -> list:
    """Cohort step: twenty subjects with graded mean-flow modulation, 1 % to
    about 15 %, so the injected values are distinct and rank-correlate with
    the measured ones."""
    subjects = []
    for k in range(n_subjects):
        rng = _rng(seed, 3, k)
        subjects.append({
            "duration_s": duration_s,
            "dt_ms": 75.0,
            "respiration": {"period_s": RESP_PERIOD_S},
            "modulation": {
                "mean_flow_pct": round(1.0 + 0.7 * k + 0.5 * float(rng.random()), 3),
                "period_pct": 4.0,
                "shape": "square",
                "sensor_delay_s": _delay(rng),
            },
            "artifacts": {"noise_sd": 5.0},
            "seed": int(rng.integers(0, 2**31)),
        })
    return subjects


def write_csv(signal, path) -> None:
    """Signal CSV in the documented `time_s,value` format."""
    rows = ["time_s,value"]
    rows.extend(
        f"{float(signal.t0_s + i * signal.dt_s)!r},{v:.10g}" for i, v in enumerate(signal.values)
    )
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
