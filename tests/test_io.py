import contextlib
import io
import json
import math
import struct
import subprocess
import sys
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rtpc.io as rtpc_io
from rtpc.cli import main
from rtpc.errors import (
    BadMagic,
    DimensionMismatch,
    InvalidHeader,
    IoFailure,
    NonFiniteVelocity,
    NonMonotoneTime,
    NonUniformSampling,
    NotPgm,
    ParseError,
    RtpcError,
    TooShort,
    TruncatedFile,
)
from rtpc.io import (
    HEADER_SIZE,
    MAGIC,
    SampledSignal,
    VelocityMapSeries,
    read_mask,
    read_signal_csv,
    read_velocity_series,
    write_mask,
    write_signal_csv,
    write_velocity_series,
)
from rtpc.report import ArteryRecord, DiffRecord, QcFlags, Report, read_report, write_report

from helpers import fresh_env
from oracles import read_signal_csv_rows


def random_series(rng, n=3, h=4, w=5, dt_ms=75.0, venc=800.0, area=0.25):
    frames = rng.normal(0.0, 300.0, size=(n, h, w))
    return VelocityMapSeries(frames=frames, dt_ms=dt_ms, venc_mm_s=venc, pixel_area_mm2=area)


class TestVelocitySeries:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        for i in range(5):
            s = random_series(rng, n=int(rng.integers(1, 6)), h=int(rng.integers(1, 8)),
                              w=int(rng.integers(1, 8)), dt_ms=float(rng.uniform(10, 200)))
            path = tmp_path / f"s{i}.rtpc"
            write_velocity_series(s, path)
            r = read_velocity_series(path)
            assert r == s
            assert r.frames.tobytes() == s.frames.tobytes()
            assert (r.dt_ms, r.venc_mm_s, r.pixel_area_mm2) == (s.dt_ms, s.venc_mm_s, s.pixel_area_mm2)

    def test_file_size_formula(self, tmp_path):
        s = VelocityMapSeries(frames=np.zeros((3, 2, 2)), dt_ms=75.0, venc_mm_s=800.0,
                              pixel_area_mm2=0.25)
        path = tmp_path / "s.rtpc"
        write_velocity_series(s, path)
        assert path.stat().st_size == HEADER_SIZE + 3 * 2 * 2 * 4

    def test_venc_float32_pattern_preserved(self, tmp_path):
        # 123.456 is not float32-representable; the type quantizes at construction
        s = VelocityMapSeries(frames=np.zeros((1, 1, 1)), dt_ms=75.0, venc_mm_s=123.456,
                              pixel_area_mm2=0.25)
        assert s.venc_mm_s == float(np.float32(123.456))
        path = tmp_path / "s.rtpc"
        write_velocity_series(s, path)
        r = read_velocity_series(path)
        assert struct.pack("<f", r.venc_mm_s) == struct.pack("<f", s.venc_mm_s)
        assert r.venc_mm_s == s.venc_mm_s

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.rtpc"
        path.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(BadMagic):
            read_velocity_series(path)

    def test_truncated_payload(self, tmp_path):
        # header promises 3 frames, only 2 present
        head = MAGIC + struct.pack("<III", 2, 2, 3) + struct.pack("<fff", 75.0, 800.0, 0.25)
        path = tmp_path / "x.rtpc"
        path.write_bytes(head + b"\x00" * (2 * 2 * 2 * 4))
        with pytest.raises(TruncatedFile):
            read_velocity_series(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.rtpc"
        path.write_bytes(MAGIC + b"\x00" * 4)
        with pytest.raises(TruncatedFile):
            read_velocity_series(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        head = MAGIC + struct.pack("<III", 1, 1, 1) + struct.pack("<fff", 75.0, 800.0, 0.25)
        path = tmp_path / "x.rtpc"
        path.write_bytes(head + b"\x00" * 4 + b"junk")
        with pytest.raises(TruncatedFile):
            read_velocity_series(path)

    @pytest.mark.parametrize("dims", [(0, 2, 1), (2, 0, 1), (2, 2, 0)])
    def test_zero_dimension(self, tmp_path, dims):
        w, h, n = dims
        head = MAGIC + struct.pack("<III", w, h, n) + struct.pack("<fff", 75.0, 800.0, 0.25)
        path = tmp_path / "x.rtpc"
        path.write_bytes(head)
        with pytest.raises(InvalidHeader):
            read_velocity_series(path)

    def test_nonpositive_header_floats(self, tmp_path):
        for dt, venc, area in [(0.0, 800.0, 0.25), (75.0, -1.0, 0.25), (75.0, 800.0, 0.0)]:
            head = MAGIC + struct.pack("<III", 1, 1, 1) + struct.pack("<fff", dt, venc, area)
            path = tmp_path / "x.rtpc"
            path.unlink(missing_ok=True)
            path.write_bytes(head + b"\x00" * 4)
            with pytest.raises(InvalidHeader):
                read_velocity_series(path)

    def test_zero_venc_with_override(self, tmp_path):
        head = MAGIC + struct.pack("<III", 1, 1, 1) + struct.pack("<fff", 75.0, 0.0, 0.25)
        path = tmp_path / "x.rtpc"
        path.write_bytes(head + struct.pack("<f", 42.0))
        with pytest.raises(InvalidHeader):
            read_velocity_series(path)
        s = read_velocity_series(path, venc_mm_s=800.0)
        assert s.venc_mm_s == 800.0
        assert s.frames[0, 0, 0] == 42.0

    def test_negative_venc_rejected_even_with_override(self, tmp_path):
        head = MAGIC + struct.pack("<III", 1, 1, 1) + struct.pack("<fff", 75.0, -5.0, 0.25)
        path = tmp_path / "x.rtpc"
        path.write_bytes(head + struct.pack("<f", 42.0))
        with pytest.raises(InvalidHeader):
            read_velocity_series(path, venc_mm_s=800.0)

    def test_nonfinite_velocity(self, tmp_path):
        head = MAGIC + struct.pack("<III", 1, 1, 1) + struct.pack("<fff", 75.0, 800.0, 0.25)
        path = tmp_path / "x.rtpc"
        path.write_bytes(head + struct.pack("<f", float("nan")))
        with pytest.raises(NonFiniteVelocity):
            read_velocity_series(path)
        # one bad value anywhere inside a multi-pixel payload
        head = MAGIC + struct.pack("<III", 6, 5, 4) + struct.pack("<fff", 75.0, 800.0, 0.25)
        for bad in (float("nan"), float("inf"), float("-inf")):
            frames = np.random.default_rng(2).normal(0.0, 300.0, size=(4, 5, 6))
            frames[2, 3, 1] = bad
            path.unlink(missing_ok=True)
            path.write_bytes(head + frames.astype("<f4").tobytes())
            with pytest.raises(NonFiniteVelocity):
                read_velocity_series(path)

    def test_unwritable_path(self, tmp_path):
        s = random_series(np.random.default_rng(0))
        with pytest.raises(IoFailure):
            write_velocity_series(s, tmp_path / "nope" / "s.rtpc")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            read_velocity_series(tmp_path / "absent.rtpc")


def series_bytes(width, height, n_frames, dt_ms=75.0, venc=800.0, area=0.25, seed=0):
    """An RTPC1 file's bytes with a random finite payload of the promised size."""
    frames = np.random.default_rng(seed).normal(0.0, 300.0, size=n_frames * height * width)
    head = MAGIC + struct.pack("<III", width, height, n_frames)
    return head + struct.pack("<fff", dt_ms, venc, area) + frames.astype("<f4").tobytes()


def extract_exit(path, venc=None) -> int:
    """Exit status of `rtpc extract --seed 0,0` on a series file."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["extract", "--series", str(path), "--seed", "0,0", "--out", str(Path(tmp) / "f.csv")]
        return main(argv + (["--venc", str(venc)] if venc is not None else []))


def cli_exit(argv) -> int:
    """rtpc's exit status for argv, run in-process with stderr captured.

    A traceback would surface here as the exception itself."""
    with contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def windows(height, width):
    """(rows, cols) slices with explicit bounds inside a height x width frame."""
    def cut(extent):
        return st.integers(0, extent - 1).flatmap(
            lambda lo: st.integers(lo + 1, extent).map(lambda hi: slice(lo, hi)))
    return st.tuples(cut(height), cut(width))


#: Header floats: the edge cases the reader must reject, and random float32s.
HEADER_FLOATS = st.one_of(
    st.sampled_from([75.0, 0.0, -0.0, -1.0, float("nan"), float("inf")]), st.floats(width=32)
)


class TestVelocitySeriesFuzz:
    """The reader on random files, with chunks of 1 to 3 frames so that most
    files span several chunks and many end in a partial one. Only RtpcError
    subclasses may escape, and `rtpc extract` exits 3 on each file the reader
    rejects; a windowed read is the full read cut to the window; a full read
    writes back bit for bit."""

    @staticmethod
    def chunk_frames(monkeypatch, height, width, frames_per_chunk):
        monkeypatch.setattr(rtpc_io, "SERIES_CHUNK_BYTES", 4 * height * width * frames_per_chunk)

    @settings(max_examples=150, deadline=None)
    @given(
        dims=st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 8)),
        floats=st.tuples(HEADER_FLOATS, HEADER_FLOATS, HEADER_FLOATS),
        extra=st.sampled_from([0, 0, 0, -4, -1, 1, 4]),
        frames_per_chunk=st.integers(1, 3),
        data=st.data(),
    )
    def test_random_headers(self, dims, floats, extra, frames_per_chunk, data):
        width, height, n_frames = dims
        dt_ms, venc, area = floats
        raw = series_bytes(width, height, n_frames, dt_ms, venc, area)
        raw = raw[: len(raw) + extra] if extra < 0 else raw + b"\x01" * extra
        override = 800.0 if venc == 0 else None  # header venc 0 needs --venc
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            self.chunk_frames(mp, max(height, 1), max(width, 1), frames_per_chunk)
            path = Path(tmp) / "s.rtpc"
            path.write_bytes(raw)
            try:
                series = read_velocity_series(path, venc_mm_s=override)
            except RtpcError:
                assert extract_exit(path, override) == 3
                return
            written = Path(tmp) / "w.rtpc"
            write_velocity_series(series, written)
            assert read_velocity_series(written) == series
            if override is None:
                assert written.read_bytes() == raw
            rows, cols = data.draw(windows(height, width))
            cut = read_velocity_series(path, venc_mm_s=override, window=(rows, cols))
            assert cut.frames.tobytes() == series.frames[:, rows, cols].tobytes()
            assert (cut.dt_ms, cut.venc_mm_s, cut.pixel_area_mm2) == (
                series.dt_ms, series.venc_mm_s, series.pixel_area_mm2)

    @pytest.mark.parametrize("window", [
        (slice(None), slice(0, 4)),
        (slice(0, 3), slice(None, 2)),
        (slice(1, None), slice(0, 4)),
        (slice(0, 3), slice(0, 5)),
        (slice(-1, 2), slice(0, 4)),
        (slice(2, 2), slice(0, 4)),
        (slice(0, 3, 1), slice(0, 4)),
        (slice(0.0, 3), slice(0, 4)),
        (slice(0, 2.5), slice(0, 4)),
        (slice(0, 3), slice(np.float64(0), 4)),
    ], ids=["rows_open", "cols_open_start", "rows_open_stop", "cols_past_edge", "rows_negative",
            "rows_empty", "rows_step", "rows_float_start", "rows_float_stop", "cols_numpy_float"])
    def test_window_must_fit(self, tmp_path, window):
        path = tmp_path / "s.rtpc"
        path.write_bytes(series_bytes(4, 3, 2))
        with pytest.raises(ValueError, match="does not fit a 4x3 frame"):
            read_velocity_series(path, window=window)

    def test_numpy_integer_window_reads(self, tmp_path):
        path = tmp_path / "s.rtpc"
        path.write_bytes(series_bytes(4, 3, 2))
        cut = read_velocity_series(path, window=(slice(np.int64(1), np.uint8(3)), slice(np.int32(0), 2)))
        assert cut.frames.tobytes() == read_velocity_series(path).frames[:, 1:3, 0:2].tobytes()

    @settings(max_examples=20, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4)),
        frames_per_chunk=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_truncation_and_trailing_bytes(self, dims, frames_per_chunk, seed):
        width, height, n_frames = dims
        raw = series_bytes(width, height, n_frames, seed=seed)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            self.chunk_frames(mp, height, width, frames_per_chunk)
            path = Path(tmp) / "s.rtpc"
            bad = [raw[:size] for size in range(len(raw))] + [raw + b"\x00" * k for k in (1, 3, 4, 9)]
            for body in bad:
                path.unlink(missing_ok=True)  # a new file: truncating one just written can block
                path.write_bytes(body)
                expected = BadMagic if len(body) < len(MAGIC) else TruncatedFile
                with pytest.raises(expected):
                    read_velocity_series(path)
                with pytest.raises(expected):
                    read_velocity_series(path, window=(slice(0, 1), slice(0, 1)))
                assert extract_exit(path) == 3

    @settings(max_examples=150, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 20), st.integers(1, 20), st.integers(1, 7)),
        bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        frames_per_chunk=st.integers(1, 3),
        data=st.data(),
    )
    def test_one_non_finite_value_anywhere(self, dims, bad, frames_per_chunk, data):
        width, height, n_frames = dims
        t = data.draw(st.integers(0, n_frames - 1), label="frame")
        y = data.draw(st.integers(0, height - 1), label="row")
        x = data.draw(st.integers(0, width - 1), label="col")
        rows, cols = data.draw(windows(height, width), label="window")
        frames = np.ones((n_frames, height, width), dtype="<f4")
        frames[t, y, x] = bad
        raw = series_bytes(width, height, n_frames)[:HEADER_SIZE] + frames.tobytes()
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            self.chunk_frames(mp, height, width, frames_per_chunk)
            path = Path(tmp) / "s.rtpc"
            path.write_bytes(raw)
            with pytest.raises(NonFiniteVelocity):
                read_velocity_series(path)
            with pytest.raises(NonFiniteVelocity):
                read_velocity_series(path, window=(rows, cols))
            mask = np.zeros((height, width), dtype=bool)
            mask[rows.start, cols.start] = True
            write_mask(mask, Path(tmp) / "m.pgm")
            assert main(["extract", "--series", str(path), "--mask", str(Path(tmp) / "m.pgm"),
                         "--out", str(Path(tmp) / "f.csv")]) == 3
            assert extract_exit(path) == 3


class TestSignalCsv:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("time_s,value\n0.000,740.0\n0.075,741.2\n")
        s = read_signal_csv(path, kind="flow")
        assert s.dt_s == pytest.approx(0.075, abs=1e-12)
        assert len(s) == 2
        assert s.kind == "flow"
        assert s.values[1] == pytest.approx(741.2)

    def test_nonuniform(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("time_s,value\n0.0,1\n0.075,2\n0.200,3\n")
        with pytest.raises(NonUniformSampling):
            read_signal_csv(path, kind="flow")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("")
        with pytest.raises(TooShort):
            read_signal_csv(path, kind="flow")

    def test_single_row(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("time_s,value\n0.0,1\n")
        with pytest.raises(TooShort):
            read_signal_csv(path, kind="flow")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("t,v\n0.0,1\n0.1,2\n")
        with pytest.raises(ParseError):
            read_signal_csv(path, kind="flow")

    def test_nonmonotone(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("time_s,value\n0.2,1\n0.1,2\n0.0,3\n")
        with pytest.raises(NonMonotoneTime):
            read_signal_csv(path, kind="flow")

    def test_garbage_row(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("time_s,value\n0.0,1\nfoo,bar\n")
        with pytest.raises(ParseError):
            read_signal_csv(path, kind="flow")

    def test_nan_value(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("time_s,value\n0.0,nan\n0.1,2\n")
        with pytest.raises(ParseError):
            read_signal_csv(path, kind="flow")

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        for i in range(20):
            n = int(rng.integers(2, 300))
            dt = float(rng.choice([0.075, 0.01, 0.5, 0.004]))
            t0 = float(rng.uniform(-10, 10))
            values = rng.normal(0.0, 1000.0, n)
            s = SampledSignal(t0_s=t0, dt_s=dt, values=values, kind="flow")
            path = tmp_path / f"rt{i}.csv"
            write_signal_csv(s, path)
            r = read_signal_csv(path, kind="flow")
            assert len(r) == n
            rel = np.abs(r.values - s.values) / np.maximum(1.0, np.abs(s.values))
            assert rel.max() <= 1e-9
            assert float(f"{r.dt_s:.9g}") == float(f"{s.dt_s:.9g}")

    @pytest.mark.parametrize("text, lineno", [
        ("time_s,value\n0.0,1\n0.075,1_0\n0.15,3\n", 3),
        ("time_s,value\n0.0,1\n0.075,\u0661\u0662\n0.15,3\n", 3),
        ("time_s,value\n0_0,1\n0.075,2\n0.15,3\n", 2),
        ("time_s,value\n0.0,1\n0.075,2\n0.15,3\u00a0\n", 4),
        ("time_s,value\n0.0,1\n0.075,2\n\u3000\n", 4),
    ], ids=["underscore", "arabic-indic", "underscore-time", "nbsp", "ideographic-space-line"])
    def test_number_outside_the_format_rejected(self, tmp_path, text, lineno):
        path = tmp_path / "f.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=f"f.csv:{lineno}: a field holds '_' or a non-ASCII"):
            read_signal_csv(path, kind="flow")
        resp = tmp_path / "resp.csv"
        write_signal_csv(SampledSignal(0.0, 0.075, np.sin(np.arange(400) / 20.0), "respiration"),
                         resp)
        assert cli_exit(["analyze", "--flow", str(path), "--resp", str(resp),
                         "--out", str(tmp_path / "r.json")]) == 3

    @pytest.mark.parametrize("row", ["0.0, 1", "0.075,+2", " 0.15 ,3e0"],
                             ids=["space-after-comma", "plus-sign", "spaces-around-time"])
    def test_signed_or_spaced_field_rejected(self, tmp_path, row):
        path = tmp_path / "f.csv"
        path.write_text(f"time_s,value\n-0.075,0\n{row}\n0.225,4\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"f.csv:3: a field holds whitespace or a '\+' outside"):
            read_signal_csv(path, kind="flow")
        resp = tmp_path / "resp.csv"
        write_signal_csv(SampledSignal(0.0, 0.075, np.sin(np.arange(400) / 20.0), "respiration"),
                         resp)
        assert cli_exit(["analyze", "--flow", str(path), "--resp", str(resp),
                         "--out", str(tmp_path / "r.json")]) == 3

    def test_exponent_sign_reads(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("time_s,value\n0.0,1e+20\n0.075,2.5E+3\n0.15,-1e-3\n")
        assert read_signal_csv(path, kind="flow").values.tolist() == [1e20, 2500.0, -1e-3]

    def test_earlier_row_error_comes_first(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("time_s,value\n0.0,1\n\n0.15,1_0\n")
        with pytest.raises(ParseError, match="f.csv:3: blank line inside data"):
            read_signal_csv(path, kind="flow")

    def test_lf_line_endings(self, tmp_path):
        s = SampledSignal(t0_s=0.0, dt_s=0.075, values=np.array([1.0, 2.0]), kind="flow")
        path = tmp_path / "f.csv"
        write_signal_csv(s, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"time_s,value\n")


    def test_crlf_reads_as_lf(self, tmp_path):
        s = SampledSignal(t0_s=0.5, dt_s=0.075, values=np.array([1.0, -2.5, 3.25]), kind="flow")
        lf = tmp_path / "lf.csv"
        write_signal_csv(s, lf)
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        a, b = read_signal_csv(lf, kind="flow"), read_signal_csv(crlf, kind="flow")
        assert (a.t0_s, a.dt_s, a.kind) == (b.t0_s, b.dt_s, b.kind)
        assert np.array_equal(a.values, b.values)

class TestPgmMask:
    def test_single_member(self, tmp_path):
        raster = bytearray(16)
        raster[5] = 255
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(raster))
        mask = read_mask(path, 4, 4)
        assert mask.sum() == 1
        assert mask[1, 1]

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(16))
        with pytest.raises(DimensionMismatch):
            read_mask(path, 8, 8)

    def test_all_zero_valid(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(16))
        mask = read_mask(path, 4, 4)
        assert mask.sum() == 0

    def test_not_p5(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_text("P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(NotPgm):
            read_mask(path, 2, 2)

    def test_wide_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(NotPgm):
            read_mask(path, 2, 2)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
        with pytest.raises(NotPgm):
            read_mask(path, 4, 4)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(16 + 20))
        with pytest.raises(NotPgm, match="raster has 36 bytes, expected 16"):
            read_mask(path, 4, 4)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 255, 0, 0]))
        mask = read_mask(path, 2, 2)
        assert mask.sum() == 1

    @pytest.mark.parametrize("header", [b"P5\n1_0 1\n2_55\n", b"P5\n10 1\n2_55\n",
                                        b"P5\n1_0 1\n255\n"], ids=["both", "maxval", "width"])
    def test_underscore_in_header_rejected(self, tmp_path, header):
        path = tmp_path / "m.pgm"
        path.write_bytes(header + bytes(10))
        with pytest.raises(NotPgm, match="non-numeric PGM header fields"):
            read_mask(path, 10, 1)
        series = tmp_path / "s.rtpc"
        series.write_bytes(series_bytes(10, 1, 2))
        assert cli_exit(["extract", "--series", str(series), "--mask", str(path),
                         "--out", str(tmp_path / "f.csv")]) == 3

    def test_signed_header_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n+2 +1\n+255\n" + bytes(2))
        with pytest.raises(NotPgm, match=r"non-numeric PGM header fields: '\+2'"):
            read_mask(path, 2, 1)
        series = tmp_path / "s.rtpc"
        series.write_bytes(series_bytes(2, 1, 2))
        assert cli_exit(["extract", "--series", str(series), "--mask", str(path),
                         "--out", str(tmp_path / "f.csv")]) == 3

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        mask = rng.random((6, 9)) > 0.5
        path = tmp_path / "m.pgm"
        write_mask(mask, path)
        assert np.array_equal(read_mask(path, 9, 6), mask)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4), (0, 4), ()])
    def test_write_refuses_a_mask_that_is_not_2d(self, tmp_path, shape):
        path = tmp_path / "m.pgm"
        with pytest.raises(ValueError, match="2-D"):
            write_mask(np.ones(shape, dtype=bool), path)
        assert not path.exists()


def minimal_report(resp_period=4.3, delay_s=0.56):
    diff = {
        param: DiffRecord(
            diff_at_zero_pct=2.7,
            max_diff_pct=4.3,
            argmax_delay_s=delay_s,
            delay_pct=100.0 * delay_s / resp_period,
            delays_s=(0.0, delay_s),
            diff_pct=(2.7, 4.3),
        )
        for param in ("mean_flow", "stroke_volume", "cardiac_period")
    }
    artery = ArteryRecord(
        name="ICA_L",
        mean_flow_ml_min=740.0,
        stroke_volume_ml=11.59,
        cardiac_period_s=0.94,
        n_cycles=126,
        qc=QcFlags(cardiac_snr=250.0, excluded=False),
        diff=diff,
    )
    return Report(
        version="0.1.0",
        config={"diff_definition": "ex-in-over-in"},
        resp_period_s=resp_period,
        arteries=(artery,),
    )


class TestReport:
    def test_round_trip(self, tmp_path):
        report = minimal_report()
        path = tmp_path / "r.json"
        write_report(report, path)
        r = read_report(path)
        assert r == report

    def test_single_artery_schema(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(minimal_report(), path)
        d = json.loads(path.read_text())
        assert set(d) >= {"version", "config", "resp_period_s", "arteries"}
        assert len(d["arteries"]) == 1
        artery = d["arteries"][0]
        assert set(artery["diff"]) == {"mean_flow", "stroke_volume", "cardiac_period"}
        assert set(artery["qc"]) == {"cardiac_snr", "excluded"}
        for rec in artery["diff"].values():
            assert set(rec) >= {"at_zero_pct", "max_pct", "delay_s", "delay_pct"}

    def test_delay_pct_consistency_checked(self, tmp_path):
        report = minimal_report()
        bad_diff = dict(report.arteries[0].diff)
        bad_diff["mean_flow"] = DiffRecord(diff_at_zero_pct=2.7, max_diff_pct=4.3,
                                           argmax_delay_s=0.56, delay_pct=99.0,
                                           delays_s=(0.0, 0.56), diff_pct=(2.7, 4.3))
        bad = Report(
            version=report.version,
            config=report.config,
            resp_period_s=report.resp_period_s,
            arteries=(ArteryRecord(
                name="x", mean_flow_ml_min=1.0, stroke_volume_ml=1.0, cardiac_period_s=1.0,
                n_cycles=1, qc=QcFlags(cardiac_snr=None, excluded=False), diff=bad_diff,
            ),),
        )
        with pytest.raises(ParseError):
            write_report(bad, tmp_path / "bad.json")

    @pytest.mark.parametrize("dropped", ["delays_s", "diff_pct"])
    def test_half_a_scan_rejected(self, tmp_path, dropped):
        tree = report_tree()
        del tree["arteries"][0]["diff"]["stroke_volume"]["scan"][dropped]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(tree))
        with pytest.raises(ParseError, match=f"missing field '{dropped}'"):
            read_report(path)

    @pytest.mark.parametrize("summary, field", [
        ({"max_pct": 99.0, "delay_s": 0.225, "at_zero_pct": -5.0}, "at_zero_pct"),
        ({"at_zero_pct": 4.3}, "at_zero_pct"),
        ({"at_zero_pct": None}, "at_zero_pct"),
        ({"max_pct": 99.0}, "max_pct"),
        ({"max_pct": 2.7}, "max_pct"),
        ({"delay_s": 0.0}, "delay_s"),
    ], ids=["edited-probe", "at-zero-is-max", "at-zero-null", "max-above-scan", "max-below-scan",
            "delay-off-argmax"])
    def test_summary_that_contradicts_its_scan_rejected(self, tmp_path, summary, field):
        """The reader and the writer both refuse a record whose summary
        disagrees with its own scan, naming the artery, parameter and field."""
        tree = set_summary(report_tree(), **summary)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(tree))
        where = f"{field} of 'ICA_L'/mean_flow"
        with pytest.raises(ParseError, match=re.escape(where)):
            read_report(path)
        with pytest.raises(ParseError, match=re.escape(where)):
            write_report(Report.from_dict(tree), tmp_path / "out.json")
        assert not (tmp_path / "out.json").exists()
        assert cli_exit(["report", "--in", str(path), "--plots", str(tmp_path / "p")]) == 3
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("delays", [[0.075, 0.56], [-0.0375, 0.56]], ids=["late", "negative"])
    def test_scan_not_starting_at_zero_rejected(self, tmp_path, delays):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(set_scan(report_tree(), "delays_s", delays)))
        with pytest.raises(ParseError, match=re.escape("scan.delays_s of 'ICA_L'/mean_flow must start at 0")):
            read_report(path)

    def test_missing_parameter_rejected(self, tmp_path):
        report = minimal_report()
        partial = {k: v for k, v in report.arteries[0].diff.items() if k != "cardiac_period"}
        bad = Report(
            version=report.version,
            config=report.config,
            resp_period_s=report.resp_period_s,
            arteries=(ArteryRecord(
                name="x", mean_flow_ml_min=1.0, stroke_volume_ml=1.0, cardiac_period_s=1.0,
                n_cycles=1, qc=QcFlags(cardiac_snr=None, excluded=False), diff=partial,
            ),),
        )
        with pytest.raises(ParseError):
            write_report(bad, tmp_path / "bad.json")

    def test_write_errors_name_their_cause(self, tmp_path):
        """Only a value JSON cannot hold reads as a non-finite value; a path
        the system refuses is an IoFailure (exit 3) that names the refusal."""
        report = minimal_report()
        with pytest.raises(ParseError, match="report contains non-finite values"):
            write_report(report._replace(config={"x": float("nan")}), tmp_path / "nan.json")
        with pytest.raises(IoFailure, match="embedded null byte") as caught:
            write_report(report, str(tmp_path / "a\0b.json"))
        assert "non-finite" not in str(caught.value)
        assert caught.value.exit_code == 3
        with pytest.raises(IoFailure, match="cannot write"):
            write_report(report, tmp_path)  # a directory
        assert sorted(tmp_path.iterdir()) == []

    def test_config_echo_present(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(minimal_report(), path)
        d = json.loads(path.read_text())
        assert d["config"]["diff_definition"] == "ex-in-over-in"

    def test_values_preserved_exactly(self, tmp_path):
        report = minimal_report(resp_period=4.3000000123, delay_s=0.5600000042)
        path = tmp_path / "r.json"
        write_report(report, path)
        r = read_report(path)
        assert r.resp_period_s == report.resp_period_s
        assert r.arteries[0].diff["mean_flow"].argmax_delay_s == 0.5600000042

    def test_malformed_report_files(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            read_report(path)
        path.write_text(json.dumps({"version": "1"}))  # missing required keys
        with pytest.raises(ParseError):
            read_report(path)


def report_tree():
    return json.loads(json.dumps(minimal_report().to_dict()))


def set_scan(tree, key, values):
    tree["arteries"][0]["diff"]["mean_flow"]["scan"][key] = values
    return tree


def set_summary(tree, **fields):
    """tree with the mean_flow record's summary fields set, and its delay_pct
    kept consistent with delay_s."""
    record = tree["arteries"][0]["diff"]["mean_flow"]
    record.update(fields)
    record["delay_pct"] = 100.0 * record["delay_s"] / tree["resp_period_s"]
    return tree


class TestReportReaderEdges:
    """Report files that used to end `rtpc report` in a traceback, a hang or
    a silently truncated field: each exits 3 now, or plots."""

    @pytest.mark.parametrize("text", [
        "1" * 5000,  # json.loads raises ValueError, not JSONDecodeError
        "[" * 100_000 + "]" * 100_000,  # RecursionError
        json.dumps({**report_tree(), "resp_period_s": 10**400}),  # OverflowError in float()
        json.dumps(report_tree()).replace('"n_cycles": 126', '"n_cycles": Infinity'),
        json.dumps(report_tree()).replace('"n_cycles": 126', '"n_cycles": 126.5'),
        json.dumps(set_scan(report_tree(), "delays_s", [None, 0.56])),  # TypeError in render
        json.dumps(set_scan(report_tree(), "diff_pct", ["2.7", 4.3])),
        json.dumps(set_summary(set_scan(report_tree(), "diff_pct", [1e308, -1e308]),
                               at_zero_pct=1e308, max_pct=1e308, delay_s=0.0)),  # span overflows
        json.dumps(set_summary(set_scan(report_tree(), "diff_pct", [None, None]),
                               at_zero_pct=None)),  # nothing to plot
        json.dumps(set_scan(set_scan(report_tree(), "delays_s", []), "diff_pct", [])),
    ], ids=["5000-digit-int", "deep-nesting", "int-beyond-float", "infinite-int-field",
            "fractional-int-field", "null-delay", "string-diff", "span-overflow", "all-null-diffs",
            "empty-scan"])
    def test_exit_3(self, tmp_path, text):
        path = tmp_path / "r.json"
        path.write_text(text)
        assert cli_exit(["report", "--in", str(path), "--plots", str(tmp_path / "p")]) == 3
        assert not list((tmp_path / "p").glob("*"))

    def test_scan_narrower_than_float_spacing_plots(self, tmp_path):
        path = tmp_path / "r.json"
        top = math.nextafter(4.3, 5)
        path.write_text(json.dumps(set_summary(set_scan(report_tree(), "diff_pct", [4.3, top]),
                                               at_zero_pct=4.3, max_pct=top)))
        proc = subprocess.run(  # a subprocess, so that a hang ends at the timeout
            [sys.executable, "-m", "rtpc", "report", "--in", str(path), "--plots", str(tmp_path / "p")],
            env=fresh_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert len(list((tmp_path / "p").glob("*.svg"))) == 3


class TestSignalCsvEdges:
    def test_time_step_beyond_float_range(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("time_s,value\n-1e308,1\n1e308,2\n")
        with pytest.raises(NonUniformSampling, match="float range"):
            read_signal_csv(path, kind="flow")
        path.write_text("time_s,value\n1e308,1\n-1e308,2\n")
        with pytest.raises(NonMonotoneTime):
            read_signal_csv(path, kind="flow")


class TestSampledSignal:
    def test_invariants(self):
        with pytest.raises(TooShort):
            SampledSignal(t0_s=0.0, dt_s=0.075, values=np.array([1.0]), kind="flow")
        with pytest.raises(NonMonotoneTime):
            SampledSignal(t0_s=0.0, dt_s=0.0, values=np.array([1.0, 2.0]), kind="flow")
        with pytest.raises(ParseError):
            SampledSignal(t0_s=0.0, dt_s=0.075, values=np.array([1.0, np.nan]), kind="flow")
        with pytest.raises(ValueError):
            SampledSignal(t0_s=0.0, dt_s=0.075, values=np.array([1.0, 2.0]), kind="belt")

    def test_times(self):
        s = SampledSignal(t0_s=1.0, dt_s=0.5, values=np.array([1.0, 2.0, 3.0]), kind="flow")
        assert np.allclose(s.times, [1.0, 1.5, 2.0])
        assert s.duration_s == pytest.approx(1.0)



#: PGM header fields that are not plain decimals, and other near misses.
ODD_PGM_FIELDS = ["P2", "P6", "p5", "P5P5", "-1", "0", "256", "65535", "1.5", "0x4", "+2",
                  "٣", "1_0", "#", "9" * 5000]


def pgm_field(valid: str):
    return st.one_of(st.just(valid), st.just(valid), st.sampled_from(ODD_PGM_FIELDS),
                     st.integers(-2, 300).map(str), st.text(max_size=3))


PGM_SEPARATORS = st.sampled_from([" ", "\n", "\t", "\r\n", "\x0b", "  ", "\n# c\n", "#x\n", ""])


class TestPgmMaskFuzz:
    """read_mask on random headers and rasters: only RtpcError subclasses
    escape, `rtpc extract --mask` exits with that error's code, and an
    accepted mask has the expected shape and the raster's nonzero pixels."""

    @staticmethod
    def extract_mask_exit(tmp, mask_path, width, height) -> int:
        series = Path(tmp) / "s.rtpc"
        series.write_bytes(series_bytes(width, height, 2))
        return cli_exit(["extract", "--series", str(series), "--mask", str(mask_path),
                         "--out", str(Path(tmp) / "f.csv")])

    def check(self, raw, width, height):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.pgm"
            path.write_bytes(raw)
            try:
                mask = read_mask(path, width, height)
            except RtpcError as exc:
                assert self.extract_mask_exit(tmp, path, width, height) == exc.exit_code == 3
                return None
            assert mask.shape == (height, width)
            assert mask.dtype == bool
            return mask

    @settings(max_examples=300, deadline=None)
    @given(
        dims=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        magic=pgm_field("P5"),
        seps=st.tuples(PGM_SEPARATORS, PGM_SEPARATORS, PGM_SEPARATORS, PGM_SEPARATORS),
        last=st.sampled_from(["\n", " ", "", "\n\n", "#\n"]),
        fields=st.data(),
        extra=st.sampled_from([0, 0, 0, -3, -1, 1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_headers(self, dims, magic, seps, last, fields, extra, seed):
        width, height = dims
        w, h, maxval = (fields.draw(pgm_field(v), label=n) for n, v in
                        (("width", str(width)), ("height", str(height)), ("maxval", "255")))
        head = seps[0] + magic + seps[1] + w + seps[2] + h + seps[3] + maxval + last
        raster = np.random.default_rng(seed).integers(0, 3, max(width * height + extra, 0))
        raw = head.encode("utf-8") + raster.astype(np.uint8).tobytes()
        mask = self.check(raw, width, height)
        canonical = f"P5\n{width} {height}\n255\n"
        if head == canonical:
            assert (mask is None) == (extra != 0)  # short or trailing rasters are refused
            if extra == 0:
                assert np.array_equal(mask, raster.reshape(height, width) > 0)

    @settings(max_examples=150, deadline=None)
    @given(dims=st.tuples(st.integers(1, 4), st.integers(1, 4)), raw=st.binary(max_size=40))
    def test_random_bytes(self, dims, raw):
        self.check(raw, *dims)


#: Signal CSV fields: numbers the reader must take or refuse, and near misses.
CSV_ODD_FIELDS = ["", " ", "nan", "inf", "-inf", "1e400", "-1e400", "1_0", "0x10", "٣",
                  "1,5", "True", "1e-400", "+0", "-0", "1.7976931348623157e308"]


@st.composite
def csv_row_files(draw):
    """A signal CSV's bytes from rows of repr times and values, with odd
    fields, odd times, other headers, line endings and trailers mixed in."""
    t0 = draw(st.floats(allow_nan=False, allow_infinity=False), label="t0")
    dt = draw(st.one_of(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                        st.sampled_from([0.075, 1e-3, -0.075, 0.0])), label="dt")
    values = draw(st.lists(st.one_of(st.floats(), st.sampled_from(CSV_ODD_FIELDS)), max_size=6),
                  label="values")
    header = draw(st.sampled_from(["time_s,value", "time_s,value", "time_s;value", "t,v", ""]),
                  label="header")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r", "\n\n"]), label="newline")
    bad_time = draw(st.one_of(st.none(), st.tuples(st.integers(0, 5),
                                                   st.sampled_from(CSV_ODD_FIELDS))),
                    label="bad_time")
    trailer = draw(st.sampled_from(["", "\n", "\n\n", " \n", "\n0.1,2", ",", "\t"]),
                   label="trailer")
    rows = [header]
    for i, v in enumerate(values):
        t = repr(t0 + i * dt)
        if bad_time is not None and bad_time[0] == i:
            t = bad_time[1]
        rows.append(f"{t},{v if isinstance(v, str) else repr(v)}")
    return (newline.join(rows) + trailer).encode("utf-8")


#: Characters of random CSV text: the format's own, separators and near misses.
CSV_TEXT = st.text(alphabet="0123456789.,e-+\n\r :nai_tmesvlu", max_size=60)


class TestSignalCsvFuzz:
    """read_signal_csv on random text: only RtpcError subclasses escape,
    `rtpc analyze` exits with that error's code, and an accepted file gives
    a signal with one finite value per data row and a finite positive dt."""

    def check(self, raw: bytes):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "flow.csv"
            path.write_bytes(raw)
            try:
                signal = read_signal_csv(path, kind="flow")
            except RtpcError as exc:
                resp = Path(tmp) / "resp.csv"
                write_signal_csv(SampledSignal(0.0, 0.075, np.sin(np.arange(400) / 20.0),
                                               "respiration"), resp)
                argv = ["analyze", "--flow", str(path), "--resp", str(resp),
                        "--out", str(Path(tmp) / "r.json")]
                assert cli_exit(argv) == exc.exit_code == 3
                return None
            assert np.isfinite(signal.values).all()
            assert math.isfinite(signal.t0_s) and math.isfinite(signal.dt_s) and signal.dt_s > 0
            # read_text's universal newlines: \r\n and a lone \r end a line too.
            rows = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")[1:]
            assert len(signal) == sum(1 for row in rows if row.strip())
            assert all(row.isascii() and "_" not in row for row in rows)

    @settings(max_examples=300, deadline=None)
    @given(raw=csv_row_files())
    def test_random_rows(self, raw):
        self.check(raw)

    @settings(max_examples=150, deadline=None)
    @given(text=CSV_TEXT)
    def test_random_text(self, text):
        self.check(("time_s,value\n" + text).encode("utf-8"))

    @settings(max_examples=100, deadline=None)
    @given(raw=st.binary(max_size=60))
    def test_random_bytes(self, raw):
        self.check(b"time_s,value\n" + raw)


#: A '+' that does not follow an exponent mark, or whitespace, inside a data row.
SIGNED_OR_SPACED = re.compile(r"(?<![eE])\+|[^\S\n]")


class TestSignalCsvMatchesRowOracle:
    """read_signal_csv, which parses the body in one pass, against the
    row-by-row reader it replaced (oracles.read_signal_csv_rows): the same
    signal bit for bit, or the same exception class and message. The one
    intended difference: a row whose field holds whitespace or a '+' outside
    an exponent is now refused. Then the refusal names that row, and the old
    reader accepted the file or refused it at that row or a later one."""

    @staticmethod
    def outcome(reader, path):
        try:
            signal = reader(path, kind="flow")
        except RtpcError as exc:
            return type(exc), str(exc)
        return signal.t0_s, signal.dt_s, signal.kind, signal.values.tobytes()

    def check(self, raw: bytes):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "flow.csv"
            path.write_bytes(raw)
            new, old = self.outcome(read_signal_csv, path), self.outcome(read_signal_csv_rows, path)
        if new == old:
            return
        assert new[0] is ParseError, (new, old)
        found = re.fullmatch(r".*flow\.csv:(\d+): a field holds whitespace or a '\+' outside an "
                             r"exponent", new[1])
        assert found, (new, old)
        lineno = int(found.group(1))
        lines = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
        assert SIGNED_OR_SPACED.search(lines[lineno - 1]), (new, lines[lineno - 1])
        if isinstance(old[0], type):
            old_line = re.match(r".*flow\.csv:(\d+): ", old[1])
            assert old_line is None or int(old_line.group(1)) >= lineno, (new, old)

    @settings(max_examples=300, deadline=None)
    @given(raw=csv_row_files())
    def test_random_rows(self, raw):
        self.check(raw)

    @settings(max_examples=300, deadline=None)
    @given(text=CSV_TEXT)
    def test_random_text(self, text):
        self.check(("time_s,value\n" + text).encode("utf-8"))

    @settings(max_examples=150, deadline=None)
    @given(raw=st.binary(max_size=60))
    def test_random_bytes(self, raw):
        self.check(b"time_s,value\n" + raw)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 400),
        t0=st.floats(-1e4, 1e4),
        dt=st.sampled_from([0.075, 0.01, 0.5, 0.004, 1 / 3]),
        scale=st.sampled_from([1e-12, 1.0, 700.0, 1e12, 1e300]),
        seed=st.integers(0, 2**32 - 1),
        ending=st.sampled_from([b"\n", b"\r\n"]),
        trailer=st.sampled_from([b"", b"\n", b"\n \n"]),
    )
    def test_written_files(self, n, t0, dt, scale, seed, ending, trailer):
        values = np.random.default_rng(seed).normal(0.0, scale, n)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "flow.csv"
            write_signal_csv(SampledSignal(t0_s=t0, dt_s=dt, values=values, kind="flow"), path)
            raw = path.read_bytes()
        self.check(raw.replace(b"\n", ending) + trailer)

    @pytest.mark.parametrize("row", ["0.075, 1", "0.075,+2", " 0.075 ,3e0", "0.075,2\t",
                                     "+0.075,2", "0.075,1e++2"])
    def test_the_intended_differences(self, row):
        raw = f"time_s,value\n0.0,1\n{row}\n0.15,3\n".encode("ascii")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "flow.csv"
            path.write_bytes(raw)
            new, old = self.outcome(read_signal_csv, path), self.outcome(read_signal_csv_rows, path)
        assert new != old
        self.check(raw)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**400), 10**400) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def json_paths(tree, prefix=()):
    """Every key path into nested dicts and lists, the root included."""
    yield prefix
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from json_paths(value, prefix + (key,))
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from json_paths(value, prefix + (i,))


class TestReportFuzz:
    """read_report on mutated reports and on random text: only RtpcError
    subclasses escape, and `rtpc report` exits with that error's code; on an
    accepted report it writes its plots or exits 3, never a traceback."""

    def check(self, raw: bytes):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.json"
            path.write_bytes(raw)
            argv = ["report", "--in", str(path), "--plots", str(Path(tmp) / "plots")]
            try:
                read_report(path)
            except RtpcError as exc:
                assert cli_exit(argv) == exc.exit_code == 3
                return
            assert cli_exit(argv) in (0, 3)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), action=st.sampled_from(["replace", "replace", "delete", "append"]))
    def test_mutated_report(self, data, action):
        tree = minimal_report().to_dict()
        paths = list(json_paths(tree))
        if action == "append":
            lists = [p for p in paths if isinstance(self.at(tree, p), list)]
            self.at(tree, data.draw(st.sampled_from(lists), label="list")).append(
                data.draw(JSON_VALUES, label="value"))
            self.check(json.dumps(tree).encode("utf-8"))
            return
        path = data.draw(st.sampled_from(paths), label="path")
        if not path:
            tree = data.draw(JSON_VALUES, label="value")
        elif action == "delete":
            del self.at(tree, path[:-1])[path[-1]]
        else:
            self.at(tree, path[:-1])[path[-1]] = data.draw(JSON_VALUES, label="value")
        self.check(json.dumps(tree).encode("utf-8"))

    @staticmethod
    def at(tree, path):
        for key in path:
            tree = tree[key]
        return tree

    @settings(max_examples=150, deadline=None)
    @given(cut=st.integers(0, 2000), raw=st.binary(max_size=20))
    def test_truncated_and_random_bytes(self, cut, raw):
        text = json.dumps(minimal_report().to_dict()).encode("utf-8")
        self.check(text[:cut] + raw)
