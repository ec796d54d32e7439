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
from pathlib import Path

import numpy as np

__all__ = [
    "FORMAT_VERSION",
    "FormatError",
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


def write_matrix(path, M) -> None:
    """Write a float64 matrix to ``path`` in the HROM binary container.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path``: an interrupted write never leaves a truncated file
    under the final name.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M[:, None]
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={M.ndim}")
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, M.shape[0], M.shape[1])
    payload = np.asfortranarray(M, dtype="<f8").tobytes(order="F")
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(header + payload)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix`."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, rows, cols = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    expected = _HEADER.size + 8 * rows * cols
    if len(raw) != expected:
        raise FormatError(f"{path}: payload has {len(raw)} bytes, expected {expected}")
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    return data.reshape((rows, cols), order="F").copy()


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


def write_report_csv(path, reports) -> None:
    """Write comparison rows: one line per ROM variant."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["variant", "r", "mu", "e_inf", "H0", "Hfinal", "max_drift", "offset", "wall_ms"]
        )
        for rep in reports:
            writer.writerow(
                [
                    rep.variant,
                    rep.r,
                    _fmt(rep.mu),
                    _fmt(rep.e_inf),
                    _fmt(rep.energy_initial),
                    _fmt(rep.energy_final),
                    _fmt(rep.max_energy_drift),
                    _fmt(rep.energy_offset_vs_fom),
                    _fmt(rep.wall_ms),
                ]
            )


def write_energy_csv(path, times, energies) -> None:
    """Write an energy time series as ``t,H`` rows."""
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if times.shape != energies.shape:
        raise ValueError("times and energies must have matching lengths")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "H"])
        for t, h in zip(times, energies):
            writer.writerow([_fmt(t), _fmt(h)])


def write_sweep_csv(path, rows) -> None:
    """Write gradient-weight sweep results as ``mu,e_inf`` rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mu", "e_inf"])
        for mu, err in rows:
            writer.writerow([_fmt(mu), _fmt(err)])


def write_tail_csv(path, rows) -> None:
    """Write tail-bound check rows: ``r,integrated_error,sigma_tail,ratio``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "integrated_error", "sigma_tail", "ratio"])
        for r, err, tail, ratio in rows:
            writer.writerow([r, _fmt(err), _fmt(tail), _fmt(ratio)])
