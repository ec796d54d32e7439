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

import os
import struct
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = [
    "FORMAT_VERSION",
    "FormatError",
    "MatrixReader",
    "MatrixWriter",
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


def _tmp_path(path: Path) -> Path:
    """The temporary file beside ``path`` that a write goes to first."""
    return path.with_name(f"{path.name}.{os.getpid()}.tmp")


@contextmanager
def _atomic_file(path):
    """Binary file handle on a temporary file in the same directory, which
    replaces ``path`` once the block completes: an interrupted write never
    leaves a truncated file under the final name."""
    path = Path(path)
    tmp = _tmp_path(path)
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


class MatrixReader:
    """Reads column blocks of an HROM container from an open binary file.

    The header is checked against the file size when the reader is made, so
    a block read never allocates from a size the file cannot hold.  A block
    read does not use or move the file position (``os.preadv``), so threads
    may read blocks of one reader side by side.  The reader owns ``fh`` and
    closes it in :meth:`close`.
    """

    def __init__(self, fh, name: str = "matrix"):
        self._fh, self.name = fh, name
        fh.seek(0)
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(f"{name}: truncated header")
        magic, version, rows, cols = _HEADER.unpack(head)
        if magic != MAGIC:
            raise FormatError(f"{name}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"{name}: unsupported format version {version}")
        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER.size + 8 * rows * cols
        if size != expected:
            raise FormatError(f"{name}: payload has {size} bytes, expected {expected}")
        self.rows, self.cols = rows, cols

    @classmethod
    def open(cls, path) -> "MatrixReader":
        fh = open(path, "rb")
        try:
            return cls(fh, str(path))
        except BaseException:
            fh.close()
            raise

    def read(self, start: int, stop: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Columns ``start:stop``, read straight into the column-major ``out``
        of shape ``(rows, stop - start)`` (a new array when None)."""
        if not 0 <= start <= stop <= self.cols:
            raise ValueError(f"{self.name}: columns {start}:{stop} outside 0:{self.cols}")
        if out is None:
            out = np.empty((self.rows, stop - start), dtype="<f8", order="F")
        elif out.shape != (self.rows, stop - start) or out.dtype != "<f8" or not (
            out.flags.f_contiguous and out.flags.writeable
        ):
            raise ValueError(f"out must be a writable column-major float64 "
                             f"({self.rows}, {stop - start}) array")
        payload = out.reshape(-1, order="F").view(np.uint8)  # a view: out is column-major
        offset = _HEADER.size + 8 * self.rows * start
        done = 0
        while done < payload.size:
            got = os.preadv(self._fh.fileno(), [payload[done:]], offset + done)
            if not got:
                raise FormatError(f"{self.name}: payload ends after {done} of "
                                  f"{payload.size} bytes of columns {start}:{stop}")
            done += got
        return out

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "MatrixReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MatrixWriter:
    """Writes an HROM container as its header and then consecutive column
    blocks, to a temporary file beside ``path`` that :meth:`publish` moves
    onto ``path`` atomically: an interrupted write never leaves a truncated
    file under the final name.  With ``path`` None the file is an anonymous
    temporary one, which is never published.

    The file is open for reading too: :meth:`reader` hands it, complete, to
    a :class:`MatrixReader`, published or not.  :meth:`close` discards what
    was not handed over.
    """

    def __init__(self, path, rows: int, cols: int):
        self.path = None if path is None else Path(path)
        self._tmp = None if path is None else _tmp_path(self.path)
        self.rows, self.cols, self.written = rows, cols, 0
        self._fh = tempfile.TemporaryFile() if path is None else open(self._tmp, "w+b")
        try:
            self._fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, rows, cols))
        except BaseException:
            self.close()
            raise

    def write(self, block) -> None:
        """Append the columns of the ``(rows, k)`` block ``block``."""
        block = np.asarray(block)
        if block.ndim != 2 or block.shape[0] != self.rows:
            raise ValueError(f"expected a block of {self.rows} rows, got shape {block.shape}")
        if self.written + block.shape[1] > self.cols:
            raise ValueError(f"{self.written + block.shape[1]} columns written, "
                             f"the header declares {self.cols}")
        # the transpose of a column block, C-ordered, is its column-major payload
        self._fh.write(np.ascontiguousarray(block.T, dtype="<f8"))
        self.written += block.shape[1]

    def _finish(self) -> None:
        if self.written != self.cols:
            raise ValueError(f"{self.written} of {self.cols} columns written")
        self._fh.flush()

    def publish(self) -> None:
        """Move the complete file onto ``path``."""
        self._finish()
        os.replace(self._tmp, self.path)

    def reader(self) -> MatrixReader:
        """A reader of the complete file, which owns it from here on."""
        self._finish()
        fh, self._fh = self._fh, None
        return MatrixReader(fh, str(self.path or "temporary matrix"))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
        if self._tmp is not None:
            self._tmp.unlink(missing_ok=True)

    def __enter__(self) -> "MatrixWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# columns per payload write: a column-major (or 1-D) matrix is written from
# its own memory, any other layout through one block of about 1 MB at a time
_WRITE_BLOCK_ENTRIES = 1 << 17


def write_matrix(path, M) -> None:
    """Write a float64 matrix to ``path`` in the HROM binary container,
    atomically, through a :class:`MatrixWriter`: no full-size copy of ``M``
    is made."""
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M[:, None]
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={M.ndim}")
    rows, cols = M.shape
    width = max(1, cols if M.flags.f_contiguous else _WRITE_BLOCK_ENTRIES // max(rows, 1))
    with MatrixWriter(path, rows, cols) as writer:
        for start in range(0, cols, width):
            writer.write(M[:, start : start + width])
        writer.publish()


def read_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix`, as a column-major array,
    through a :class:`MatrixReader`: the header is checked against the file
    size before the result is allocated."""
    with MatrixReader.open(path) as reader:
        return reader.read(0, reader.cols)


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


def _write_rows(path, header: str, row_format: str, rows) -> None:
    """Write a header line and one line per row in the ``%`` format
    ``row_format`` (``%.17g``: an exact double round-trip).  No field needs
    quoting, so the bytes are those of ``csv.writer``, CRLF line ends included."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join([header] + [row_format % tuple(row) for row in rows]) + "\r\n")


def write_report_csv(path, reports) -> None:
    """Write comparison rows: one line per ROM variant."""
    _write_rows(
        path,
        "variant,r,mu,e_inf,H0,Hfinal,max_drift,offset,wall_ms",
        "%s,%d" + ",%.17g" * 7,
        (
            (rep.variant, rep.r, rep.mu, rep.e_inf, rep.energy_initial, rep.energy_final,
             rep.max_energy_drift, rep.energy_offset_vs_fom, rep.wall_ms)
            for rep in reports
        ),
    )


def write_energy_csv(path, times, energies) -> None:
    """Write an energy time series as ``t,H`` rows."""
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if times.shape != energies.shape:
        raise ValueError("times and energies must have matching lengths")
    _write_rows(path, "t,H", "%.17g,%.17g", zip(times.tolist(), energies.tolist()))


def write_sweep_csv(path, rows) -> None:
    """Write gradient-weight sweep results as ``mu,e_inf`` rows."""
    _write_rows(path, "mu,e_inf", "%.17g,%.17g", rows)


def write_tail_csv(path, rows) -> None:
    """Write tail-bound check rows: ``r,integrated_error,sigma_tail,ratio``."""
    _write_rows(path, "r,integrated_error,sigma_tail,ratio", "%d,%.17g,%.17g,%.17g", rows)
