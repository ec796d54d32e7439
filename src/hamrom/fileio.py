"""On-disk formats: the HROM binary matrix container, flat-text configuration
files, and the CSV reports.

HROM container layout (24-byte header, little-endian throughout):

    bytes 0-3    magic ``b"HROM"``
    bytes 4-7    format version, unsigned 32-bit
    bytes 8-15   rows, unsigned 64-bit
    bytes 16-23  cols, unsigned 64-bit
    bytes 24-    column-major float64 payload (rows * cols values)

Configuration files are UTF-8 text with one ``key = value`` pair per line and
``#`` comments; keys must match the experiment-configuration field names
exactly, unknown keys are errors.
"""

from __future__ import annotations

import csv
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = [
    "FORMAT_VERSION",
    "FormatError",
    "atomic_write_bytes",
    "parse_config_text",
    "read_config",
    "read_matrix",
    "write_energy_csv",
    "write_matrix",
    "write_report_csv",
    "write_sweep_csv",
    "write_tail_csv",
]

MAGIC = b"HROM"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQQ")


class FormatError(ValueError):
    """A file does not conform to the expected on-disk format."""


@contextmanager
def _atomic_file(path):
    """Binary file handle on a temporary file in the same directory, which
    replaces ``path`` once the block completes: an interrupted write never
    leaves a truncated file under the final name."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (see :func:`_atomic_file`)."""
    with _atomic_file(path) as fh:
        fh.write(data)


# columns per payload write: a column-major (or 1-D) matrix is written from
# its own memory, any other layout through one block of about 1 MB at a time
_WRITE_BLOCK_ENTRIES = 1 << 17


def write_matrix(path, M) -> None:
    """Write a float64 matrix to ``path`` in the HROM binary container,
    atomically (see :func:`_atomic_file`).

    The header and then the column-major payload are streamed into the
    file, so no full-size copy of ``M`` is made.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M[:, None]
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={M.ndim}")
    rows, cols = M.shape
    width = max(1, cols if M.flags.f_contiguous else _WRITE_BLOCK_ENTRIES // max(rows, 1))
    with _atomic_file(path) as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, rows, cols))
        for start in range(0, cols, width):
            # the transpose of a column block, C-ordered, is its column-major payload
            fh.write(np.ascontiguousarray(M[:, start : start + width].T, dtype="<f8"))


def read_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix`, as a column-major array.

    The header is checked against the file size before the result is
    allocated; the payload is read straight into the result.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, rows, cols = _HEADER.unpack(head)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER.size + 8 * rows * cols
        if size != expected:
            raise FormatError(f"{path}: payload has {size} bytes, expected {expected}")
        out = np.empty((rows, cols), dtype="<f8", order="F")
        payload = out.reshape(-1, order="F").view(np.uint8)  # a view: out is column-major
        done = 0
        while done < payload.size:
            got = fh.readinto(payload[done:])
            if not got:
                raise FormatError(f"{path}: payload ends after {done} of {payload.size} bytes")
            done += got
    return out


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a string mapping.

    Blank lines and ``#`` comments are skipped; duplicate keys and lines
    without ``=`` are errors.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise FormatError(f"line {lineno}: empty key")
        if key in out:
            raise FormatError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def read_config(path) -> dict[str, str]:
    """Read and parse a configuration file."""
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def _fmt(x: float) -> str:
    """Render a float with 17 significant digits (exact double round-trip)."""
    return format(float(x), ".17g")


def _write_csv(path, header, rows) -> None:
    """Write a header line and one line per row of fields."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_report_csv(path, reports) -> None:
    """Write comparison rows: one line per ROM variant."""
    _write_csv(
        path,
        ["variant", "r", "mu", "e_inf", "H0", "Hfinal", "max_drift", "offset", "wall_ms"],
        (
            [rep.variant, rep.r] + [_fmt(x) for x in (
                rep.mu, rep.e_inf, rep.energy_initial, rep.energy_final,
                rep.max_energy_drift, rep.energy_offset_vs_fom, rep.wall_ms,
            )]
            for rep in reports
        ),
    )


def write_energy_csv(path, times, energies) -> None:
    """Write an energy time series as ``t,H`` rows."""
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if times.shape != energies.shape:
        raise ValueError("times and energies must have matching lengths")
    _write_csv(path, ["t", "H"], ([_fmt(t), _fmt(h)] for t, h in zip(times, energies)))


def write_sweep_csv(path, rows) -> None:
    """Write gradient-weight sweep results as ``mu,e_inf`` rows."""
    _write_csv(path, ["mu", "e_inf"], ([_fmt(mu), _fmt(err)] for mu, err in rows))


def write_tail_csv(path, rows) -> None:
    """Write tail-bound check rows: ``r,integrated_error,sigma_tail,ratio``."""
    _write_csv(
        path,
        ["r", "integrated_error", "sigma_tail", "ratio"],
        ([r, _fmt(err), _fmt(tail), _fmt(ratio)] for r, err, tail, ratio in rows),
    )
