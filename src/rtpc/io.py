"""File formats: velocity-series binary, PGM masks, signal CSVs.

Readers are strict: anything that does not match the documented layout raises
instead of guessing. Velocity frames and scalar header fields are kept at
32-bit float precision from construction on, so a series survives write/read
bit for bit.

Velocity series layout (little-endian throughout):

    bytes 0-4    magic "RTPC1"
    u32 x 3      width, height, n_frames
    f32 x 3      dt_ms, venc_mm_s, pixel_area_mm2
    payload      n_frames frames of height x width f32 velocities in mm/s,
                 row-major within a frame, frame-major overall

Series are read and written a chunk of whole frames at a time, about
SERIES_CHUNK_BYTES each. The reader reads each chunk into one buffer and
keeps only a window of each frame, so reading holds the windowed series
plus one chunk; it still checks every chunk of the file for non-finite
values, inside the window or not. A full read is the same read loop, with
the whole frame as its window.
"""

from __future__ import annotations

import math
import operator
import os
import struct
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    DimensionMismatch,
    InvalidHeader,
    IoFailure,
    NonFiniteVelocity,
    NonMonotoneTime,
    NonUniformSampling,
    NotPgm,
    ParseError,
    TooShort,
    TruncatedFile,
)
from .numerics import median
from .report import unlink_if_regular

MAGIC = b"RTPC1"
HEADER_SIZE = len(MAGIC) + 12 + 12  # magic + three u32 + three f32

#: Target size of one chunk of frames when a series is read or written.
SERIES_CHUNK_BYTES = 1 << 22

SIGNAL_KINDS = ("flow", "respiration")
CSV_HEADER = "time_s,value"


# -- domain types ---------------------------------------------------------------

class Frozen:
    """Base of the read-only classes: __init__ takes the __slots__ in order
    and sets each once, through _fill, and assigning or deleting an attribute
    after raises AttributeError. The repr names every slot as a keyword
    argument; copy and pickle rebuild through __init__. Instances compare by
    identity unless the class defines __eq__."""

    __slots__ = ()

    def _fill(self, values: dict) -> None:
        for name in self.__slots__:
            object.__setattr__(self, name, values[name])

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class VelocityMapSeries(Frozen):
    """Time-ordered per-pixel velocity frames with acquisition metadata.

    frames has shape (n_frames, height, width), float32, mm/s. Scalars are
    quantized through float32 at construction so in-memory values always
    match what the on-disk format can hold.
    """

    __slots__ = ("frames", "dt_ms", "venc_mm_s", "pixel_area_mm2")

    def __init__(self, frames: np.ndarray, dt_ms: float, venc_mm_s: float, pixel_area_mm2: float):
        frames = np.ascontiguousarray(np.asarray(frames, dtype=np.float32))
        if frames.ndim != 3 or min(frames.shape) < 1:
            raise InvalidHeader(
                f"frames must be a non-empty (n_frames, height, width) array, got shape {frames.shape}"
            )
        # min and max propagate NaN and reach +-inf, with no full-size temporary.
        if not (np.isfinite(frames.min()) and np.isfinite(frames.max())):
            raise NonFiniteVelocity("velocity frames contain non-finite values")
        values = {"frames": frames}
        for name, given in (("dt_ms", dt_ms), ("venc_mm_s", venc_mm_s),
                            ("pixel_area_mm2", pixel_area_mm2)):
            value = float(np.float32(given))
            if not math.isfinite(value) or value <= 0.0:
                raise InvalidHeader(f"{name} must be positive and finite, got {given!r}")
            values[name] = value
        self._fill(values)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]

    @property
    def dt_s(self) -> float:
        return self.dt_ms / 1000.0

    def chunks(self):
        """The frames as consecutive views of about SERIES_CHUNK_BYTES each."""
        for frames in frame_chunks(self.n_frames, self.height, self.width):
            yield self.frames[frames]

    def __eq__(self, other) -> bool:
        if not isinstance(other, VelocityMapSeries):
            return NotImplemented
        return (
            self.frames.shape == other.frames.shape
            and self.dt_ms == other.dt_ms
            and self.venc_mm_s == other.venc_mm_s
            and self.pixel_area_mm2 == other.pixel_area_mm2
            and bool(np.array_equal(self.frames, other.frames))
        )


class SampledSignal(Frozen):
    """Uniformly sampled time series (flow in ml/min or belt amplitude)."""

    __slots__ = ("t0_s", "dt_s", "values", "kind")

    def __init__(self, t0_s: float, dt_s: float, values: np.ndarray, kind: str):
        values = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        if values.ndim != 1:
            raise ParseError(f"signal values must be 1-D, got shape {values.shape}")
        if values.size < 2:
            raise TooShort(f"signal needs at least 2 samples, got {values.size}")
        if not np.isfinite(values).all():
            raise ParseError("signal contains non-finite values")
        if not (math.isfinite(dt_s) and dt_s > 0):
            raise NonMonotoneTime(f"dt_s must be positive, got {dt_s!r}")
        if kind not in SIGNAL_KINDS:
            raise ValueError(f"kind must be one of {SIGNAL_KINDS}, got {kind!r}")
        t0_s, dt_s = float(t0_s), float(dt_s)
        self._fill(locals())

    def __len__(self) -> int:
        return self.values.size

    @property
    def times(self) -> np.ndarray:
        return self.t0_s + np.arange(self.values.size) * self.dt_s

    @property
    def duration_s(self) -> float:
        return (self.values.size - 1) * self.dt_s

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampledSignal):
            return NotImplemented
        return (
            self.t0_s == other.t0_s
            and self.dt_s == other.dt_s
            and self.kind == other.kind
            and bool(np.array_equal(self.values, other.values))
        )


# -- velocity series ------------------------------------------------------------

def frame_chunks(n_frames: int, height: int, width: int):
    """Slices of consecutive frames, each of about SERIES_CHUNK_BYTES of float32
    (at least one frame); the last one holds what is left."""
    step = max(1, SERIES_CHUNK_BYTES // (4 * height * width))
    for lo in range(0, n_frames, step):
        yield slice(lo, min(lo + step, n_frames))


def _parse_header(head: bytes, path) -> dict:
    if head[: len(MAGIC)] != MAGIC:
        raise BadMagic(f"{path} does not start with {MAGIC!r}")
    if len(head) < HEADER_SIZE:
        raise TruncatedFile(f"{path}: header truncated at {len(head)} bytes")
    width, height, n_frames = struct.unpack_from("<III", head, len(MAGIC))
    if min(width, height, n_frames) < 1:
        raise InvalidHeader(f"{path}: zero dimension in header ({width}x{height}, {n_frames} frames)")
    dt_ms, venc_mm_s, pixel_area_mm2 = struct.unpack_from("<fff", head, len(MAGIC) + 12)
    if venc_mm_s < 0:
        raise InvalidHeader(f"{path}: negative venc {venc_mm_s} in header")
    return {
        "width": width,
        "height": height,
        "n_frames": n_frames,
        "dt_ms": dt_ms,
        "venc_mm_s": venc_mm_s,
        "pixel_area_mm2": pixel_area_mm2,
    }


def read_velocity_header(path) -> dict:
    """Read and check just the fixed-size header.

    Raises BadMagic, TruncatedFile, or InvalidHeader for a zero dimension or
    a negative venc; the payload is not looked at.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(HEADER_SIZE)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    return _parse_header(head, path)


def read_velocity_series(path, venc_mm_s: float | None = None, window=None) -> VelocityMapSeries:
    """Parse a velocity-series file, bit-exact, keeping the pixels in window.

    window is a (rows, cols) pair of step-less slices with explicit integer
    bounds inside the frame (any other raises ValueError); None keeps whole
    frames. The payload is read one chunk of frames at a time, and every
    chunk is checked for non-finite values, so a bad value anywhere in the
    file is rejected whatever the window.

    venc_mm_s, when given, replaces the header value before validation; this
    is how files recorded with an unknown encoding limit (header venc 0) are
    loaded.
    """
    try:
        with open(path, "rb") as fh:
            header = _parse_header(fh.read(HEADER_SIZE), path)
            width, height, n_frames = header["width"], header["height"], header["n_frames"]
            size = os.fstat(fh.fileno()).st_size
            expected = HEADER_SIZE + 4 * width * height * n_frames
            if size < expected:
                raise TruncatedFile(f"{path}: {size} bytes, header promises {expected}")
            if size > expected:
                raise TruncatedFile(f"{path}: {size} bytes, {size - expected} trailing beyond header promise")
            rows, cols = window or (slice(0, height), slice(0, width))
            for cut, extent in ((rows, height), (cols, width)):
                try:  # operator.index takes numpy integers and refuses None and floats
                    fits = (cut.step is None
                            and 0 <= operator.index(cut.start) < operator.index(cut.stop) <= extent)
                except TypeError:
                    fits = False
                if not fits:
                    raise ValueError(f"window {window} does not fit a {width}x{height} frame")
            frames = np.empty((n_frames, rows.stop - rows.start, cols.stop - cols.start), dtype="<f4")
            first = next(frame_chunks(n_frames, height, width))  # the largest chunk
            buffer = np.empty((first.stop, height, width), dtype="<f4")
            for chunk in frame_chunks(n_frames, height, width):
                block = buffer[: chunk.stop - chunk.start]
                if fh.readinto(memoryview(block).cast("B")) != block.nbytes:
                    raise TruncatedFile(f"{path}: file shrank while being read")
                # min and max propagate NaN and reach +-inf, with no temporary.
                if not (np.isfinite(block.min()) and np.isfinite(block.max())):
                    raise NonFiniteVelocity(
                        f"{path}: non-finite velocity in frames {chunk.start}-{chunk.stop - 1}"
                    )
                frames[chunk] = block[:, rows, cols]
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    venc = header["venc_mm_s"] if venc_mm_s is None else venc_mm_s
    return VelocityMapSeries(
        frames=frames, dt_ms=header["dt_ms"], venc_mm_s=venc, pixel_area_mm2=header["pixel_area_mm2"]
    )


def write_velocity_series(series, path) -> None:
    """Write a series so that read_velocity_series reproduces it exactly.

    series is a VelocityMapSeries, or any object with its header attributes
    and a chunks() method that yields the frames in order, such as the
    simulator's VesselSeries; it is written one chunk at a time.
    """
    header = MAGIC + struct.pack("<III", series.width, series.height, series.n_frames)
    header += struct.pack("<fff", series.dt_ms, series.venc_mm_s, series.pixel_area_mm2)
    unlink_if_regular(path)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            for block in series.chunks():
                fh.write(memoryview(np.ascontiguousarray(block, dtype="<f4")).cast("B"))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


# -- signal CSV -------------------------------------------------------------------

#: The bytes a data row's fields may hold: digits, '.', an exponent mark and signs.
_NUMBER_BYTES = b"0123456789.eE+-"


def _parse_rows(rows: str):
    """The samples of rows as an (n, 2) array, or None if any row breaks the format.

    rows is ASCII without '_', from the first data line to the last line that
    is not blank. The bytes are checked first: with the number bytes taken
    out, one ',' then one '\n' per row must remain, and every '+' must follow
    an exponent mark. One np.array then converts every field, reading each
    as float() does.
    """
    if not rows:
        return np.empty((0, 2))
    raw = rows.encode("ascii")
    n = raw.count(b"\n") + 1
    if (raw.translate(None, _NUMBER_BYTES) != b",\n" * (n - 1) + b","
            or b"+" in raw and raw.count(b"+") != raw.count(b"e+") + raw.count(b"E+")):
        return None
    try:
        samples = np.array(rows.replace("\n", ",").split(","), dtype=np.float64)
    except ValueError:
        return None
    if not np.isfinite(samples).all():
        return None
    return samples.reshape(n, 2)


def _raise_first_bad_row(path, text: str):
    """Raise the ParseError of the first data line of text that breaks the format.

    The lines are read one by one only here, for a file that _parse_rows
    refused, to name the line. Lines after the last one that is not blank
    are not rows, but a '_' or a non-ASCII character there is still refused.
    """
    lines = text.split("\n")
    last = max(i for i, line in enumerate(lines) if line.strip())
    for lineno, line in enumerate(lines[1:], start=2):
        # float() takes '_' and non-ASCII digits too.
        if not line.isascii() or "_" in line:
            raise ParseError(f"{path}:{lineno}: a field holds '_' or a non-ASCII character")
        if lineno > last + 1:
            continue
        if not line.strip():
            raise ParseError(f"{path}:{lineno}: blank line inside data")
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 2 fields, got {len(parts)}")
        # float() also takes surrounding whitespace and a leading '+'.
        if (any(c.isspace() for c in line)
                or line.count("+") != line.count("e+") + line.count("E+")):
            raise ParseError(f"{path}:{lineno}: a field holds whitespace or a '+' "
                             f"outside an exponent")
        try:
            t, v = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if not (math.isfinite(t) and math.isfinite(v)):
            raise ParseError(f"{path}:{lineno}: non-finite sample")
    # Not reached while these checks refuse every row that _parse_rows refuses.
    raise ParseError(f"{path}: the data rows do not parse")


def read_signal_csv(path, kind: str) -> SampledSignal:
    """Parse a "time_s,value" CSV into a uniformly sampled signal.

    The file must be UTF-8; LF and CRLF line endings parse alike, and blank
    lines after the last row are ignored. After the header, the text must be
    ASCII without '_', as write_signal_csv writes it. Each row is two fields
    and one ',', with no whitespace; a field is a number as float() reads
    it, with no '+' but an exponent's. The body is parsed in one pass, and a
    refused file names its first bad line. The time column is then checked
    for strict monotony and uniform spacing (relative tolerance 1e-6); dt_s
    is fixed to the median spacing.
    """
    if kind not in SIGNAL_KINDS:
        raise ValueError(f"kind must be one of {SIGNAL_KINDS}, got {kind!r}")
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    if "\r" in text:  # CRLF and a lone CR end a line, as in read_text
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if not text.strip():
        raise TooShort(f"{path}: empty file")
    header, _, body = text.partition("\n")
    if header.strip() != CSV_HEADER:
        raise ParseError(f"{path}: expected header {CSV_HEADER!r}, got {header.strip()!r}")
    samples = None
    if body.isascii() and "_" not in body:
        # The rows run to the end of the last line that is not blank.
        last = len(body.rstrip())
        end = body.find("\n", last) if last else 0
        samples = _parse_rows(body if end < 0 else body[:end])
    if samples is None:
        _raise_first_bad_row(path, text)
    if samples.shape[0] < 2:
        raise TooShort(f"{path}: need at least 2 samples, got {samples.shape[0]}")
    times = samples[:, 0]
    with np.errstate(over="ignore"):  # a step beyond the float range is refused below
        diffs = np.diff(times)
    if not (diffs > 0).all():
        raise NonMonotoneTime(f"{path}: time column is not strictly increasing")
    if not np.isfinite(diffs).all():
        raise NonUniformSampling(f"{path}: a time step exceeds the float range")
    dt = float(median(diffs))
    if np.abs(diffs - dt).max() > 1e-6 * dt:
        raise NonUniformSampling(
            f"{path}: spacing varies by {np.abs(diffs - dt).max():.3g} s around median {dt:.9g} s"
        )
    return SampledSignal(t0_s=float(times[0]), dt_s=dt, values=samples[:, 1], kind=kind)


def write_signal_csv(signal: SampledSignal, path) -> None:
    """Write a signal CSV, LF line endings.

    Times use shortest round-trip formatting (so the uniform-spacing check
    survives re-reading exactly); values carry 10 significant digits, which
    keeps the round trip within 1e-9 relative.
    """
    rows = [CSV_HEADER]
    for i, v in enumerate(signal.values):
        t = signal.t0_s + i * signal.dt_s
        rows.append(f"{float(t)!r},{v:.10g}")
    unlink_if_regular(path)
    try:
        Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


# -- PGM masks --------------------------------------------------------------------

def _pgm_tokens(data: bytes):
    """Yield whitespace-separated header tokens, honoring '#' comments."""
    pos = 0
    while True:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            return
        yield data[start:pos].decode("ascii", errors="replace"), pos


def read_mask(path, expected_width: int, expected_height: int) -> np.ndarray:
    """Read a binary PGM (P5, maxval <= 255) as a bool array; nonzero pixels are members.

    The raster must fill the rest of the file, with no byte missing or left over."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    tokens = _pgm_tokens(data)
    try:
        (magic, _), (w_tok, _), (h_tok, _), (maxval_tok, end) = (
            next(tokens), next(tokens), next(tokens), next(tokens))
    except StopIteration:
        raise NotPgm(f"{path}: incomplete PGM header") from None
    if magic != "P5":
        raise NotPgm(f"{path}: expected P5, got {magic!r}")
    fields = []
    for token in (w_tok, h_tok, maxval_tok):
        try:  # int() also takes a sign and '_', and refuses 4,300 digits or more
            if not token.isdigit():  # the tokens are ASCII already
                raise ValueError(token)
            fields.append(int(token))
        except ValueError:
            raise NotPgm(f"{path}: non-numeric PGM header fields: {token!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1 or not (0 < maxval <= 255):
        raise NotPgm(f"{path}: unsupported PGM geometry {width}x{height} maxval {maxval}")
    if (width, height) != (expected_width, expected_height):
        raise DimensionMismatch(
            f"{path}: mask is {width}x{height}, expected {expected_width}x{expected_height}"
        )
    raster = data[end + 1 :]
    if len(raster) != width * height:
        raise NotPgm(f"{path}: raster has {len(raster)} bytes, expected {width * height}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width) > 0


def write_mask(mask: np.ndarray, path) -> None:
    """Write a (height, width) mask as binary PGM: true pixels 255, the rest 0."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or min(mask.shape) < 1:
        raise ValueError(f"mask must be a non-empty 2-D array, got shape {mask.shape}")
    header = f"P5\n{mask.shape[1]} {mask.shape[0]}\n255\n".encode("ascii")
    raster = np.where(mask, 255, 0).astype(np.uint8).tobytes()
    unlink_if_regular(path)
    try:
        Path(path).write_bytes(header + raster)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
