"""Command line surface: extract, analyze, simulate, report.

Exit codes are stable per error family (see errors module): 0 success,
2 usage, 3 file format / I-O, 4 extraction, 5 event detection, 6 phase
analysis, 7 statistics, 8 invalid simulation config. Partially written
outputs are removed when a command fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import (
    EmptySegmentation,
    InsufficientCycles,
    ParseError,
    RtpcError,
    SeedOutsideVessel,
    TooShort,
)
from .report import REPORT_PARAMETERS, ArteryRecord, QcFlags, Report, read_report, write_report
from .svgplot import render_line_chart

#: What the commands call, by module. Each command binds the names of the
#: modules it runs with _load, so it imports nothing else: `report` loads no
#: numpy. perfbench/tracing.py wraps these names as attributes of this module.
_CALLS = {
    ".cycles": ("detect_cycles",),
    ".diff": ("MAX_SCAN_DELAYS", "extract_result", "finalize_scan", "sweep_diffs"),
    ".extraction": ("RoiSeries", "compute_flow", "correct_background", "quality_score",
                    "roi_window", "segment_roi", "sum_flows", "unalias"),
    ".io": ("RoiMask", "SampledSignal", "read_mask", "read_signal_csv", "read_velocity_header",
            "read_velocity_series", "write_mask", "write_signal_csv", "write_velocity_series"),
    ".numerics": ("COMPONENT_START_HALF_PX", "reaches_inner_edge", "seed_window"),
    ".respiration": ("detect_resp_intervals",),
    ".synthgen": ("SimConfig", "generate_signals", "generate_velocity_series"),
    # No command calls it: perfbench/tracing.py replaces cli.ThreadPoolExecutor.
    "concurrent.futures": ("ThreadPoolExecutor",),
}
_MODULE_OF = {name: module for module, names in _CALLS.items() for name in names}


def _load(*modules: str) -> None:
    """Import modules and bind here the names _CALLS lists for them.

    A name that is already bound keeps its value, so a wrapper that a test or
    the benchmark's tracer set before the first command stays in place.
    """
    scope = globals()
    for module in modules:
        loaded = importlib.import_module(module, __package__)
        for name in _CALLS[module]:
            scope.setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    """cli.<name> of a callee resolves before any command has bound it."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(module)
    return globals()[name]


USAGE_ERROR = 2


def _seed_type(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"seed must be X,Y got {text!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def _usage_error(command: str, message: str) -> int:
    print(f"rtpc {command}: {message}", file=sys.stderr)
    return USAGE_ERROR


def analyze_flow_signal(
    name: str,
    flow: SampledSignal,
    intervals,
    step_s: float = 0.075,
    min_cycles: int = 3,
    snr_threshold: float = 5.0,
) -> ArteryRecord:
    """Full single-artery analysis: QC, cycles, and the three delay scans."""
    import numpy as np

    _load(".extraction", ".cycles", ".diff")
    try:
        qc = quality_score(flow, snr_threshold=snr_threshold)
    except TooShort:
        qc = QcFlags(cardiac_snr=None, excluded=False)
    cycles = detect_cycles(flow)
    n_valid = int(np.count_nonzero(cycles.valid))
    if not n_valid:
        raise InsufficientCycles(f"{name}: no valid cardiac cycles")
    delays, diffs = sweep_diffs(cycles, intervals, step_s=step_s, min_cycles=min_cycles)
    diff_records = {
        param: extract_result(finalize_scan(param, delays, diffs[param], intervals.mean_period_s))
        for param in REPORT_PARAMETERS
    }
    mean_flow, stroke_volume, period = (float(np.mean(row[cycles.valid])) for row in cycles.params)
    return ArteryRecord(
        name=name,
        mean_flow_ml_min=mean_flow,
        stroke_volume_ml=stroke_volume,
        cardiac_period_s=period,
        n_cycles=n_valid,
        qc=qc,
        diff=diff_records,
    )


def _render_diff_svg(artery_name: str, parameter: str, record, out_path) -> None:
    render_line_chart(
        x=record.scan_delays_s,
        y=record.scan_diff_pct,
        path=out_path,
        title=f"{artery_name}: {parameter} Diff vs delay",
        x_label="delay (s)",
        y_label="Diff Ex-In (%)",
        marker=(record.delay_s, record.max_pct),
    )


# -- commands --------------------------------------------------------------------

def _seeded_roi(args, height: int, width: int) -> tuple:
    """The last seed window read of the series, and the seed's ROI in it.

    segment_roi runs on a window around the seed that covers --max-radius-px
    and seed_component's first window. While the union ROI touches a window
    edge that is not an image edge, or its roi_window does not fit inside
    the window, the window is read again twice as wide. So the ROI is the
    one whole frames give, and the window holds it with its background
    band: the series is read once, plus once per doubling, and the chain
    runs on the last read. Errors name the seed in image coordinates.
    """
    import numpy as np

    sx, sy = args.seed
    half = max(COMPONENT_START_HALF_PX, math.floor(args.max_radius_px))
    while True:
        window = seed_window(sy, sx, half, height, width)
        local = (sx - window[1].start, sy - window[0].start)
        series = read_velocity_series(args.series, venc_mm_s=args.venc, window=window)
        try:
            roi = segment_roi(
                series,
                seed=local,
                velocity_threshold_fraction=args.threshold_fraction,
                max_radius_px=args.max_radius_px,
            )
        except (EmptySegmentation, SeedOutsideVessel) as exc:
            raise type(exc)(str(exc).replace(f"seed {local}", f"seed {args.seed}")) from None
        union = roi.union()
        image_union = np.zeros((height, width), dtype=bool)
        image_union[window] = union
        fits = all(cut.start <= into.start and into.stop <= cut.stop
                   for cut, into in zip(window, roi_window(image_union)))
        if fits and not reaches_inner_edge(union, window, (height, width)):
            return series, roi
        half *= 2


def cmd_extract(args, written: list) -> int:
    _load(".io", ".extraction", ".numerics")
    header = read_velocity_header(args.series)
    height, width = header["height"], header["width"]
    if args.venc is not None and not (math.isfinite(args.venc) and args.venc > 0.0):
        return _usage_error("extract", f"--venc must be finite and > 0, got {args.venc!r}")
    if args.snr_threshold is not None and args.qc is None:
        # The threshold only sets the QC sidecar's `excluded`: refuse it without one.
        return _usage_error("extract", "--snr-threshold applies to --qc only")
    if args.snr_threshold is None:
        args.snr_threshold = 5.0
    if not (math.isfinite(args.snr_threshold) and args.snr_threshold >= 0.0):
        return _usage_error(
            "extract", f"--snr-threshold must be finite and >= 0, got {args.snr_threshold!r}"
        )
    if header["venc_mm_s"] == 0.0 and args.venc is None:
        return _usage_error(
            "extract", "series header has venc 0 (unknown); --venc MM_S is required"
        )
    if args.mask is not None:
        # Segmentation options mean nothing for a given mask: refuse them.
        for option, value in (("--threshold-fraction", args.threshold_fraction),
                              ("--max-radius-px", args.max_radius_px)):
            if value is not None:
                return _usage_error("extract", f"{option} applies to --seed only, not to --mask")
    else:
        if args.threshold_fraction is None:
            args.threshold_fraction = 0.5
        if args.max_radius_px is None:
            args.max_radius_px = 12.0
        if not (0.0 < args.threshold_fraction <= 1.0):
            return _usage_error(
                "extract", f"--threshold-fraction must be in (0, 1], got {args.threshold_fraction!r}"
            )
        if not (math.isfinite(args.max_radius_px) and args.max_radius_px >= 0.0):
            return _usage_error(
                "extract", f"--max-radius-px must be finite and >= 0, got {args.max_radius_px!r}"
            )
    if args.mask is not None:
        membership = read_mask(args.mask, width, height).membership
        if not membership.any():
            raise EmptySegmentation(f"mask {args.mask} has no member pixel")
        window = roi_window(membership)
        series = read_velocity_series(args.series, venc_mm_s=args.venc, window=window)
        roi = RoiSeries.from_static(RoiMask(membership[window]), series.n_frames)
    elif not (0 <= args.seed[0] < width and 0 <= args.seed[1] < height):
        return _usage_error(
            "extract", f"--seed {args.seed[0]},{args.seed[1]} lies outside the {width}x{height} image"
        )
    else:
        series, roi = _seeded_roi(args, height, width)

    background_offset = None
    n_band = None
    # Both steps overwrite the one window array that was read.
    if not args.no_background_correction:
        series, estimate = correct_background(series, roi, out=series.frames)
        background_offset = estimate.offset_mm_s
        n_band = estimate.n_band_pixels
    n_unaliased = None
    if not args.no_unalias:
        series, n_unaliased = unalias(series, roi, out=series.frames)

    flow = compute_flow(series, roi)
    out = Path(args.out)
    written.append(out)
    write_signal_csv(flow, out)

    if args.qc is not None:
        try:
            qc = quality_score(flow, snr_threshold=args.snr_threshold)
            snr, excluded = qc.cardiac_snr, qc.excluded
        except TooShort:
            snr, excluded = None, None
        payload = {
            "cardiac_snr": snr,
            "excluded": excluded,
            "empty_roi_frames": roi.n_empty_frames(),
            "background_offset_mm_s": background_offset,
            "n_band_pixels": n_band,
            "n_unaliased_pixels": n_unaliased,
        }
        qc_path = Path(args.qc)
        written.append(qc_path)
        qc_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def cmd_analyze(args, written: list) -> int:
    _load(".io", ".extraction", ".respiration", ".diff")
    flow_paths = [p for chunk in args.flow for p in chunk.split(",") if p]
    if not flow_paths:
        return _usage_error("analyze", "no flow files given")
    if not (math.isfinite(args.delay_step_ms) and args.delay_step_ms > 0.0):
        return _usage_error(
            "analyze", f"--delay-step-ms must be finite and > 0, got {args.delay_step_ms!r}"
        )
    if args.min_cycles < 1:
        return _usage_error("analyze", f"--min-cycles must be >= 1, got {args.min_cycles}")
    if not (math.isfinite(args.snr_threshold) and args.snr_threshold >= 0.0):
        return _usage_error(
            "analyze", f"--snr-threshold must be finite and >= 0, got {args.snr_threshold!r}"
        )
    flows = [read_signal_csv(p, kind="flow") for p in flow_paths]
    resp = read_signal_csv(args.resp, kind="respiration")
    if args.invert_belt:
        resp = SampledSignal(t0_s=resp.t0_s, dt_s=resp.dt_s, values=-resp.values, kind="respiration")

    step_s = args.delay_step_ms / 1000.0
    config = {
        "diff_definition": "ex-in-over-in",
        "invert_belt": bool(args.invert_belt),
        "delay_step_s": step_s,
        "min_cycles_per_phase": args.min_cycles,
        "cycles": {
            "upsample_factor": 8,
            "period_band_s": [0.4, 2.0],
            "min_separation_fraction": 0.6,
            "validity_band": [0.6, 1.5],
        },
        "respiration": {
            "smooth_window_s": 0.5,
            "min_separation_s": 1.5,
            "prominence_fraction": 0.2,
        },
        "quality": {"snr_threshold": args.snr_threshold},
    }
    intervals = detect_resp_intervals(resp)
    if intervals.mean_period_s / step_s > MAX_SCAN_DELAYS:
        return _usage_error(
            "analyze",
            f"--delay-step-ms {args.delay_step_ms!r} gives more than {MAX_SCAN_DELAYS} scan "
            f"delays over the {intervals.mean_period_s:.3g} s mean breathing period",
        )

    jobs = [(Path(p).stem, f) for p, f in zip(flow_paths, flows)]
    if len(flows) > 1:
        jobs.append((args.name, sum_flows(flows)))

    records = [
        analyze_flow_signal(name, flow, intervals, step_s=step_s, min_cycles=args.min_cycles,
                            snr_threshold=args.snr_threshold)
        for name, flow in jobs
    ]

    report = Report(
        version=__version__,
        config=config,
        resp_period_s=intervals.mean_period_s,
        arteries=tuple(records),
        generated_at=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    )
    out = Path(args.out)
    written.append(out)
    write_report(report, out)

    if args.plots is not None:
        plot_dir = Path(args.plots)
        plot_dir.mkdir(parents=True, exist_ok=True)
        for record in report.arteries:
            for param in REPORT_PARAMETERS:
                path = plot_dir / f"{_safe_name(record.name)}_{param}.svg"
                written.append(path)
                _render_diff_svg(record.name, param, record.diff[param], path)
    return 0


def cmd_simulate(args, written: list) -> int:
    _load(".io", ".synthgen")
    config = SimConfig.from_json(args.config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    flow, resp, truth = generate_signals(config)
    flow_path, resp_path = out_dir / "flow.csv", out_dir / "resp.csv"
    written.extend([flow_path, resp_path])
    write_signal_csv(flow, flow_path)
    write_signal_csv(resp, resp_path)

    if args.with_images:
        series, mask, truth = generate_velocity_series(config)
        series_path, mask_path = out_dir / "series.rtpc", out_dir / "mask.pgm"
        written.extend([series_path, mask_path])
        write_velocity_series(series, series_path)
        write_mask(mask, mask_path)

    manifest = {"config": config.to_dict(), **truth.to_dict()}
    truth_path = out_dir / "truth.json"
    written.append(truth_path)
    # No indent: indent makes json use its pure-Python encoder (8x slower on
    # the wrapped-pixel triples).
    truth_path.write_text(json.dumps(manifest, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def cmd_report(args, written: list) -> int:
    report = read_report(args.in_path)
    plot_dir = Path(args.plots)
    plot_dir.mkdir(parents=True, exist_ok=True)
    for record in report.arteries:
        for param in REPORT_PARAMETERS:
            diff_record = record.diff[param]
            if diff_record.scan_delays_s is None:
                raise ParseError(
                    f"report has no scan data for {record.name!r}/{param}; "
                    "regenerate it with `rtpc analyze`"
                )
            path = plot_dir / f"{_safe_name(record.name)}_{param}.svg"
            written.append(path)
            try:
                _render_diff_svg(record.name, param, diff_record, path)
            except ValueError as exc:  # a report read from a file may hold unplottable scans
                raise ParseError(f"cannot plot {record.name!r}/{param}: {exc}") from exc
    return 0


# -- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtpc",
        description="Quantify how breathing modulates pulsatile flow signals.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("extract", help="velocity series + ROI -> flow CSV")
    pe.add_argument("--series", required=True, help="velocity series file (RTPC1)")
    roi = pe.add_mutually_exclusive_group(required=True)
    roi.add_argument("--mask", help="static ROI mask (binary PGM)")
    roi.add_argument("--seed", type=_seed_type, metavar="X,Y", help="segmentation seed pixel")
    pe.add_argument("--venc", type=float, metavar="MM_S",
                    help="encoding limit override (required when the header venc is 0)")
    pe.add_argument("--no-background-correction", action="store_true")
    pe.add_argument("--no-unalias", action="store_true")
    pe.add_argument("--threshold-fraction", type=float,
                    help="segmentation threshold as a fraction of the local p99 speed "
                         "(--seed only; default 0.5)")
    pe.add_argument("--max-radius-px", type=float,
                    help="reference neighborhood radius around the seed (--seed only; default 12)")
    pe.add_argument("--snr-threshold", type=float,
                    help="cardiac SNR below this flags the signal for exclusion "
                         "(--qc only; default 5)")
    pe.add_argument("--out", required=True, help="output flow CSV")
    pe.add_argument("--qc", help="optional QC sidecar JSON")
    pe.set_defaults(func=cmd_extract)

    pa = sub.add_parser("analyze", help="flow + belt CSVs -> report JSON (+ SVG plots)")
    pa.add_argument("--flow", action="append", required=True,
                    help="flow CSV path(s), comma-separated or repeated")
    pa.add_argument("--resp", required=True, help="respiration belt CSV")
    pa.add_argument("--delay-step-ms", type=float, default=75.0)
    pa.add_argument("--invert-belt", action="store_true",
                    help="belt amplitude falls on inhalation")
    pa.add_argument("--min-cycles", type=int, default=3)
    pa.add_argument("--name", default="CABF_extra",
                    help="record name for the summed signal (several --flow inputs)")
    pa.add_argument("--snr-threshold", type=float, default=5.0,
                    help="cardiac SNR below this flags a record for exclusion")
    pa.add_argument("--out", required=True, help="output report JSON")
    pa.add_argument("--plots", help="directory for Diff-vs-delay SVGs")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("simulate", help="synthesize a dataset with ground truth")
    ps.add_argument("--config", required=True, help="SimConfig JSON (partial configs allowed)")
    ps.add_argument("--out-dir", required=True)
    ps.add_argument("--with-images", action="store_true",
                    help="also write a velocity series and vessel mask")
    ps.set_defaults(func=cmd_simulate)

    pr = sub.add_parser("report", help="re-render SVG plots from a report JSON")
    pr.add_argument("--in", dest="in_path", required=True, help="report JSON")
    pr.add_argument("--plots", required=True, help="output directory")
    pr.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    written: list = []
    try:
        return args.func(args, written)
    except (RtpcError, OSError) as exc:
        for path in written:
            Path(path).unlink(missing_ok=True)
        print(f"rtpc {args.command}: error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, RtpcError) else 3


if __name__ == "__main__":
    sys.exit(main())
