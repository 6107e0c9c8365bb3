"""Command line surface: extract, analyze, simulate, report.

Exit codes are stable per error family (see errors module): 0 success,
2 usage, 3 file format / I-O, 4 extraction, 5 event detection, 6 phase
analysis, 7 statistics, 8 invalid simulation config. main returns each
code, usage errors, --help and --version included. Option ranges are checked
as the command line is parsed. Partially written outputs are removed when a
command fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import re
import sys
from pathlib import Path

from . import __version__
from . import report as settings
from .errors import (
    EmptySegmentation,
    InsufficientCycles,
    ParseError,
    RtpcError,
    SeedOutsideVessel,
    TooShort,
)
from .report import REPORT_PARAMETERS, ArteryRecord, QcFlags, Report, read_report, write_report

#: What the commands call, by module. Each command binds the names of the
#: modules it runs with _load, so it imports nothing else: `report` loads no
#: numpy, and only a command that draws loads svgplot. perfbench/tracing.py
#: wraps these names as attributes of this module.
_CALLS = {
    ".cycles": ("detect_cycles",),
    # No command calls sweep_diffs: perfbench/tracing.py wraps cli.sweep_diffs.
    ".diff": ("MAX_SCAN_DELAYS", "scan_artery", "sweep_diffs"),
    ".extraction": ("COMPONENT_START_HALF_PX", "compute_flow", "correct_background", "quality_score",
                    "roi_values", "roi_window", "seed_window", "segment_roi", "sum_flows", "unalias"),
    ".io": ("SampledSignal", "read_mask", "read_signal_csv", "read_velocity_header",
            "read_velocity_series", "write_mask", "write_signal_csv", "write_velocity_series"),
    ".respiration": ("detect_resp_intervals",),
    ".svgplot": ("render_line_chart",),
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


def _in_range(kind: type, rule: str, accept):
    """An argparse type: kind(text), refused unless accept(value). Text that
    kind cannot read gets argparse's own "invalid <kind> value" message."""
    def parse(text: str):
        value = kind(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value!r}")
        return value
    parse.__name__ = kind.__name__
    return parse


_POSITIVE = _in_range(float, "finite and > 0", lambda v: math.isfinite(v) and v > 0.0)
_NON_NEGATIVE = _in_range(float, "finite and >= 0", lambda v: math.isfinite(v) and v >= 0.0)
_FRACTION = _in_range(float, "in (0, 1]", lambda v: 0.0 < v <= 1.0)
_AT_LEAST_ONE = _in_range(int, ">= 1", lambda v: v >= 1)


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


def _name_clash(names) -> str | None:
    """The first two (name, source) pairs whose names _safe_name maps to one
    key, as a message; None if there are none. The report tells records apart
    by name, and each record's SVGs are named after it."""
    source_of = {}
    for name, source in names:
        key = _safe_name(name)
        if key in source_of:
            return f"{source_of[key]} and {source} give the same record name {key!r}"
        source_of[key] = source
    return None


def _path_clash(outputs, inputs) -> str | None:
    """The first output option that names the file of an input option or of
    an earlier output, once resolved, as a message; None if there is none.
    Options are (option, path) pairs; a path of None is left out."""
    named = {Path(path).resolve(): (option, path) for option, path in inputs if path is not None}
    for option, path in outputs:
        if path is None:
            continue
        key = Path(path).resolve()
        if key in named:
            return f"{option} and {named[key][0]} name the same file {named[key][1]}"
        named[key] = (option, path)
    return None


def _usage_error(command: str, message: str) -> int:
    print(f"rtpc {command}: {message}", file=sys.stderr)
    return USAGE_ERROR


def analyze_flow_signal(name: str, flow: SampledSignal, intervals, step_s: float, min_cycles: int,
                        snr_threshold: float) -> ArteryRecord:
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
    diff_records = scan_artery(cycles, intervals, step_s=step_s, min_cycles=min_cycles)
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


def _write_plots(arteries, plots: str, written: list) -> None:
    """One Diff-vs-delay SVG per record and parameter, in the directory plots.

    A scan render_line_chart cannot draw (a report read from a file may hold
    one) raises ParseError.
    """
    _load(".svgplot")
    plot_dir = Path(plots)
    plot_dir.mkdir(parents=True, exist_ok=True)
    for record in arteries:
        for param in REPORT_PARAMETERS:
            diff_record = record.diff[param]
            path = plot_dir / f"{_safe_name(record.name)}_{param}.svg"
            written.append(path)
            try:
                render_line_chart(
                    x=diff_record.delays_s,
                    y=diff_record.diff_pct,
                    path=path,
                    title=f"{record.name}: {param} Diff vs delay",
                    x_label="delay (s)",
                    y_label="Diff Ex-In (%)",
                    marker=(diff_record.argmax_delay_s, diff_record.max_diff_pct),
                )
            except ValueError as exc:
                raise ParseError(f"cannot plot {record.name!r}/{param}: {exc}") from exc


# -- commands --------------------------------------------------------------------

def _seeded_roi(args, height: int, width: int) -> tuple:
    """The last seed window read of the series, and the seed's ROI in it.

    segment_roi runs on a window around the seed that covers --max-radius-px
    and at least COMPONENT_START_HALF_PX on each side. Its ROI is one mask,
    the union of the seed's per-frame components, and the chain runs on it
    as on a --mask. While the ROI's roi_window does not fit inside the
    window, the window is read again twice as wide. roi_window grows the ROI
    by at least one pixel, so a ROI that fits touches no window edge that is
    not an image edge: it is the one whole frames give, and the window holds
    it with its background band. The series is read once, plus once per
    doubling; the chain runs on the last read. Errors name the seed in image
    coordinates.
    """
    import numpy as np

    sx, sy = args.seed
    half = max(COMPONENT_START_HALF_PX, math.floor(args.max_radius_px))
    while True:
        window = seed_window(sy, sx, half, height, width)
        local = (sx - window[1].start, sy - window[0].start)
        series = read_velocity_series(args.series, venc_mm_s=args.venc, window=window)
        try:
            roi = segment_roi(series, seed=local, velocity_threshold_fraction=args.threshold_fraction,
                              max_radius_px=args.max_radius_px)
        except (EmptySegmentation, SeedOutsideVessel) as exc:
            raise type(exc)(str(exc).replace(f"seed {local}", f"seed {args.seed}")) from None
        image_roi = np.zeros((height, width), dtype=bool)
        image_roi[window] = roi
        if all(cut.start <= into.start and into.stop <= cut.stop
               for cut, into in zip(window, roi_window(image_roi))):
            return series, roi
        half *= 2


def cmd_extract(args, written: list) -> int:
    import numpy as np

    _load(".io", ".extraction")
    clash = _path_clash([("--out", args.out), ("--qc", args.qc)],
                        [("--series", args.series), ("--mask", args.mask)])
    if clash is not None:
        return _usage_error("extract", clash)
    header = read_velocity_header(args.series)
    height, width = header["height"], header["width"]
    if args.snr_threshold is not None and args.qc is None:
        # The threshold only sets the QC sidecar's `excluded`: refuse it without one.
        return _usage_error("extract", "--snr-threshold applies to --qc only")
    if args.snr_threshold is None:
        args.snr_threshold = settings.SNR_THRESHOLD
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
        mask = read_mask(args.mask, width, height)
        if not mask.any():
            raise EmptySegmentation(f"mask {args.mask} has no member pixel")
        window = roi_window(mask)
        series = read_velocity_series(args.series, venc_mm_s=args.venc, window=window)
        roi = mask[window]
    else:
        if args.threshold_fraction is None:
            args.threshold_fraction = settings.THRESHOLD_FRACTION
        if args.max_radius_px is None:
            args.max_radius_px = settings.MAX_RADIUS_PX
        if not (0 <= args.seed[0] < width and 0 <= args.seed[1] < height):
            return _usage_error(
                "extract", f"--seed {args.seed[0]},{args.seed[1]} lies outside the {width}x{height} image"
            )
        series, roi = _seeded_roi(args, height, width)

    # The window is only read: the chain after the estimate works on one
    # (frames, ROI pixels) matrix.
    background_offset = n_band = n_unaliased = None
    if not args.no_background_correction:
        estimate = correct_background(series, roi)
        background_offset, n_band = estimate.offset_mm_s, estimate.n_band_pixels
    values = roi_values(series, roi, background_offset)
    if not args.no_unalias:
        n_unaliased = unalias(values, series.venc_mm_s)
    flow = compute_flow(values, series.pixel_area_mm2, series.dt_s)
    out = Path(args.out)
    written.append(out)
    write_signal_csv(flow, out)

    if args.qc is not None:
        try:
            qc = quality_score(flow, snr_threshold=args.snr_threshold)
            snr, excluded = qc.cardiac_snr, qc.excluded
        except TooShort:
            snr, excluded = None, None
        n_roi = int(np.count_nonzero(roi))
        payload = {
            "cardiac_snr": snr,
            "excluded": excluded,
            # An empty --mask exits 4 and a seeded ROI holds its seed, so no frame is empty.
            "empty_roi_frames": 0,
            "n_roi_pixels": n_roi,
            "background_offset_mm_s": background_offset,
            "n_band_pixels": n_band,
            "n_unaliased_pixels": n_unaliased,
        }
        qc_path = Path(args.qc)
        written.append(qc_path)
        qc_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def cmd_analyze(args, written: list) -> int:
    from datetime import datetime, timezone

    _load(".io", ".extraction", ".respiration", ".diff")
    flow_paths = [p for chunk in args.flow for p in chunk.split(",") if p]
    if not flow_paths:
        return _usage_error("analyze", "no flow files given")
    names = [(Path(p).stem, p) for p in flow_paths]
    if len(flow_paths) > 1:
        names.append((args.name, "--name"))
    if (clash := _name_clash(names)) is not None:
        return _usage_error("analyze", clash)
    clash = _path_clash([("--out", args.out)],
                        [*[("--flow", p) for p in flow_paths], ("--resp", args.resp)])
    if clash is not None:
        return _usage_error("analyze", clash)
    flows = [read_signal_csv(p, kind="flow") for p in flow_paths]
    resp = read_signal_csv(args.resp, kind="respiration")
    if args.invert_belt:
        resp = SampledSignal(t0_s=resp.t0_s, dt_s=resp.dt_s, values=-resp.values, kind="respiration")

    step_s = args.delay_step_ms / 1000.0
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
        config=settings.analysis_config(args.invert_belt, step_s, args.min_cycles, args.snr_threshold),
        resp_period_s=intervals.mean_period_s,
        arteries=tuple(records),
        generated_at=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    )
    out = Path(args.out)
    written.append(out)
    write_report(report, out)

    if args.plots is not None:
        _write_plots(report.arteries, args.plots, written)
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
        del series, mask  # the manifest does not need them

    manifest = {"config": config.to_dict(), **truth.to_dict()}
    truth_path = out_dir / "truth.json"
    written.append(truth_path)
    # No indent: indent makes json use its pure-Python encoder (8x slower on
    # the wrapped-pixel triples).
    truth_path.write_text(json.dumps(manifest, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def cmd_report(args, written: list) -> int:
    report = read_report(args.in_path)
    named = [(r.name, f"artery {i} ({r.name!r})") for i, r in enumerate(report.arteries)]
    if (clash := _name_clash(named)) is not None:
        raise ParseError(f"{args.in_path}: {clash}")
    _write_plots(report.arteries, args.plots, written)
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
    pe.add_argument("--venc", type=_POSITIVE, metavar="MM_S",
                    help="encoding limit override (required when the header venc is 0)")
    pe.add_argument("--no-background-correction", action="store_true")
    pe.add_argument("--no-unalias", action="store_true")
    pe.add_argument("--threshold-fraction", type=_FRACTION,
                    help="segmentation threshold as a fraction of the local p99 speed "
                         f"(--seed only; default {settings.THRESHOLD_FRACTION:g})")
    pe.add_argument("--max-radius-px", type=_NON_NEGATIVE,
                    help="reference neighborhood radius around the seed "
                         f"(--seed only; default {settings.MAX_RADIUS_PX:g})")
    pe.add_argument("--snr-threshold", type=_NON_NEGATIVE,
                    help="cardiac SNR below this flags the signal for exclusion "
                         f"(--qc only; default {settings.SNR_THRESHOLD:g})")
    pe.add_argument("--out", required=True, help="output flow CSV")
    pe.add_argument("--qc", help="optional QC sidecar JSON")
    pe.set_defaults(func=cmd_extract)

    pa = sub.add_parser("analyze", help="flow + belt CSVs -> report JSON (+ SVG plots)")
    pa.add_argument("--flow", action="append", required=True,
                    help="flow CSV path(s), comma-separated or repeated")
    pa.add_argument("--resp", required=True, help="respiration belt CSV")
    pa.add_argument("--delay-step-ms", type=_POSITIVE, default=settings.DELAY_STEP_MS,
                    help=f"delay scan grid step in ms (default {settings.DELAY_STEP_MS:g})")
    pa.add_argument("--invert-belt", action="store_true",
                    help="belt amplitude falls on inhalation")
    pa.add_argument("--min-cycles", type=_AT_LEAST_ONE, default=settings.MIN_CYCLES,
                    help="fewest valid cycles each phase needs at a scan delay "
                         f"(default {settings.MIN_CYCLES})")
    pa.add_argument("--name", default="CABF_extra",
                    help="record name for the summed signal (several --flow inputs)")
    pa.add_argument("--snr-threshold", type=_NON_NEGATIVE, default=settings.SNR_THRESHOLD,
                    help="cardiac SNR below this flags a record for exclusion "
                         f"(default {settings.SNR_THRESHOLD:g})")
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error, --help or --version
        return exc.code
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
