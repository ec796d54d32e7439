import csv
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamrom import fileio
from hamrom.fileio import (
    FORMAT_VERSION,
    FormatError,
    MatrixReader,
    MatrixWriter,
    parse_config_text,
    read_matrix,
    write_energy_csv,
    write_matrix,
    write_report_csv,
    write_sweep_csv,
    write_tail_csv,
)
from hamrom.metrics import RomReport
from hamrom.rom import RomVariant


class TestMatrixContainer:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((7, 3))
        path = tmp_path / "m.hrom"
        write_matrix(path, M)
        assert np.array_equal(read_matrix(path), M)
        assert [p.name for p in tmp_path.iterdir()] == ["m.hrom"]  # no temporary left

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.hrom"
        write_matrix(path, np.zeros((5, 2)))
        raw = path.read_bytes()
        magic, version, rows, cols = struct.unpack("<4sIQQ", raw[:24])
        assert magic == b"HROM"
        assert version == FORMAT_VERSION
        assert (rows, cols) == (5, 2)
        assert len(raw) == 24 + 8 * 10

    def test_column_major_payload(self, tmp_path):
        M = np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
        path = tmp_path / "m.hrom"
        write_matrix(path, M)
        payload = struct.unpack("<6d", path.read_bytes()[24:])
        assert payload == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)

    def test_vector_becomes_column(self, tmp_path):
        path = tmp_path / "v.hrom"
        write_matrix(path, np.array([1.0, 2.0]))
        out = read_matrix(path)
        assert out.shape == (2, 1)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.hrom"
        write_matrix(path, np.zeros((2, 2)))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            read_matrix(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "m.hrom"
        header = struct.pack("<4sIQQ", b"HROM", FORMAT_VERSION + 1, 1, 1)
        path.write_bytes(header + struct.pack("<d", 0.0))
        with pytest.raises(FormatError, match="version"):
            read_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.hrom"
        write_matrix(path, np.zeros((3, 3)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="payload"):
            read_matrix(path)


class TestStreamedContainer:
    """The streamed write keeps the bytes of the one-shot encoding, and the
    read checks the header against the file size before allocating."""

    @staticmethod
    def _one_shot(M):
        M = np.asarray(M, dtype=float)
        M = M[:, None] if M.ndim == 1 else M
        header = struct.pack("<4sIQQ", b"HROM", FORMAT_VERSION, *M.shape)
        return header + np.asfortranarray(M, dtype="<f8").tobytes(order="F")

    @pytest.mark.parametrize(
        "layout", ["C", "F", "C column slice", "F column slice", "row slice", "1-D", "float32"]
    )
    def test_bytes_match_the_one_shot_encoding(self, tmp_path, layout):
        # 400 x 700 C-ordered entries span several write blocks
        states = np.random.default_rng(1).standard_normal((400, 700))
        M = {
            "C": states,
            "F": np.asfortranarray(states),
            "C column slice": states[:, :333],
            "F column slice": np.asfortranarray(states)[:, :333],
            "row slice": states[::3],
            "1-D": states[:, 5],
            "float32": states.astype(np.float32),
        }[layout]
        path = tmp_path / "m.hrom"
        write_matrix(path, M)
        assert path.read_bytes() == self._one_shot(M)
        back = read_matrix(path)
        assert back.flags.f_contiguous
        assert np.array_equal(back, M[:, None] if M.ndim == 1 else M)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_matrix(self, tmp_path, shape):
        path = tmp_path / "m.hrom"
        write_matrix(path, np.zeros(shape))
        assert path.read_bytes() == self._one_shot(np.zeros(shape))
        assert read_matrix(path).shape == shape

    @pytest.mark.parametrize("cut", [1, 8, 100])
    def test_truncated_file(self, tmp_path, cut):
        path = tmp_path / "m.hrom"
        write_matrix(path, np.ones((4, 5)))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(FormatError):
            read_matrix(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "m.hrom"
        path.write_bytes(b"HROM\x01\x00")
        with pytest.raises(FormatError, match="header"):
            read_matrix(path)

    @pytest.mark.parametrize("extra", [1, 8])
    def test_oversized_file(self, tmp_path, extra):
        path = tmp_path / "m.hrom"
        write_matrix(path, np.ones((4, 5)))
        path.write_bytes(path.read_bytes() + b"\x00" * extra)
        with pytest.raises(FormatError, match="payload"):
            read_matrix(path)

    def test_huge_header_is_rejected_before_allocation(self, tmp_path):
        # 2^40 x 2^40 doubles cannot be allocated: the size check must come first
        path = tmp_path / "m.hrom"
        path.write_bytes(struct.pack("<4sIQQ", b"HROM", FORMAT_VERSION, 2**40, 2**40))
        with pytest.raises(FormatError, match="payload"):
            read_matrix(path)

    def test_interrupted_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.hrom"
        write_matrix(path, np.ones((2, 2)))

        def interrupted(*args, **kwargs):
            raise OSError("disk full")

        # the header is in the temporary file when the payload write fails
        monkeypatch.setattr(fileio.np, "ascontiguousarray", interrupted)
        with pytest.raises(OSError, match="disk full"):
            write_matrix(path, np.zeros((2, 2)))
        monkeypatch.undo()
        assert np.array_equal(read_matrix(path), np.ones((2, 2)))
        assert [p.name for p in tmp_path.iterdir()] == ["m.hrom"]


class TestColumnBlocks:
    """The column-block writer and reader are the container of write_matrix
    and read_matrix, written and read a block at a time."""

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(0, 9),
        cols=st.integers(0, 40),
        cuts=st.lists(st.integers(0, 40), max_size=6),
        reads=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip(self, tmp_path_factory, rows, cols, cuts, reads, seed):
        tmp = tmp_path_factory.mktemp("blocks")
        M = np.random.default_rng(seed).standard_normal((rows, cols))
        write_matrix(tmp / "whole.hrom", M)
        bounds = sorted({0, cols, *(c for c in cuts if c <= cols)})
        with MatrixWriter(tmp / "blocks.hrom", rows, cols) as writer:
            for start, stop in zip(bounds, bounds[1:]):
                writer.write(M[:, start:stop])
            writer.publish()
        assert (tmp / "blocks.hrom").read_bytes() == (tmp / "whole.hrom").read_bytes()
        whole = read_matrix(tmp / "blocks.hrom")
        with MatrixReader.open(tmp / "blocks.hrom") as reader:
            assert (reader.rows, reader.cols) == (rows, cols)
            for a, b in reads:
                start, stop = sorted((min(a, cols), min(b, cols)))
                block = reader.read(start, stop)
                assert block.flags.f_contiguous
                assert np.array_equal(block, whole[:, start:stop])
                out = np.empty((rows, stop - start), order="F")
                assert reader.read(start, stop, out) is out
                assert np.array_equal(out, M[:, start:stop])
            for start, stop in ((0, cols + 1), (-1, 0), (cols, cols - 1) if cols else (1, 0)):
                with pytest.raises(ValueError, match="outside"):
                    reader.read(start, stop)

    def test_writer_holds_to_the_declared_columns(self, tmp_path):
        path = tmp_path / "m.hrom"
        with MatrixWriter(path, 2, 3) as writer:
            writer.write(np.ones((2, 2)))
            with pytest.raises(ValueError, match="declares 3"):
                writer.write(np.ones((2, 2)))
            with pytest.raises(ValueError, match="rows"):
                writer.write(np.ones((3, 1)))
            with pytest.raises(ValueError, match="2 of 3 columns"):
                writer.publish()
        assert list(tmp_path.iterdir()) == []  # nothing published, no temporary left

    def test_read_into_a_wrong_buffer(self, tmp_path):
        write_matrix(tmp_path / "m.hrom", np.ones((3, 4)))
        with MatrixReader.open(tmp_path / "m.hrom") as reader:
            for out in (np.empty((3, 2)), np.empty((3, 3), order="F"),
                        np.empty((3, 2), dtype=np.float32, order="F")):
                with pytest.raises(ValueError, match="column-major"):
                    reader.read(0, 2, out)

    def test_truncated_payload(self, tmp_path):
        # 2000 x 5 entries: more than one read buffer
        path = tmp_path / "m.hrom"
        write_matrix(path, np.ones((2000, 5)))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FormatError, match="payload"):
            MatrixReader.open(path)
        # cut after the header was checked: the block read comes up short
        path.write_bytes(data)
        with MatrixReader.open(path) as reader:
            with open(path, "r+b") as fh:
                fh.truncate(len(data) - 8)
            assert np.array_equal(reader.read(0, 4), np.ones((2000, 4)))
            with pytest.raises(FormatError, match="ends after"):
                reader.read(3, 5)

    def test_concurrent_reads_match_sequential_reads(self, tmp_path):
        # a read neither uses nor moves the file position: threads reading
        # blocks of one reader side by side, more of them than cores and
        # switching often, each get what a lone reader gets
        M = np.random.default_rng(3).standard_normal((300, 64))
        write_matrix(tmp_path / "m.hrom", M)
        blocks = [(start, min(start + width, 64)) for width in (1, 5, 16)
                  for start in range(0, 64, width)]
        threads, results = 4, {}
        with MatrixReader.open(tmp_path / "m.hrom") as reader:
            sequential = [reader.read(a, b) for a, b in blocks]

            def read_all(k):
                order = blocks[k::threads] + blocks[:k] + blocks[k + 1:]
                results[k] = all(np.array_equal(reader.read(a, b), M[:, a:b])
                                 for _ in range(5) for a, b in order)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                workers = [threading.Thread(target=read_all, args=(k,)) for k in range(threads)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert results == dict.fromkeys(range(threads), True)
        assert all(np.array_equal(block, M[:, a:b]) for block, (a, b) in zip(sequential, blocks))

    def test_anonymous_file_reads_back(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        M = np.arange(12.0).reshape(3, 4)
        with MatrixWriter(None, 3, 4) as writer:
            writer.write(M[:, :1])
            writer.write(M[:, 1:])
            with writer.reader() as reader:
                assert np.array_equal(reader.read(0, 4), M)
        assert list(tmp_path.iterdir()) == []

    def test_published_file_reads_back_after_replacement(self, tmp_path):
        # the reader keeps the file it was handed when another one takes its name
        path = tmp_path / "m.hrom"
        with MatrixWriter(path, 2, 2) as writer:
            writer.write(np.ones((2, 2)))
            writer.publish()
            reader = writer.reader()
        with reader:
            write_matrix(path, np.zeros((2, 2)))
            assert np.array_equal(reader.read(0, 2), np.ones((2, 2)))
        assert np.array_equal(read_matrix(path), np.zeros((2, 2)))
        assert [p.name for p in tmp_path.iterdir()] == ["m.hrom"]


class TestConfigParsing:
    def test_basic(self):
        text = """
        # a comment
        system = wave
        n = 500   # trailing comment
        dt = 0.01
        """
        out = parse_config_text(text)
        assert out == {"system": "wave", "n": "500", "dt": "0.01"}

    def test_value_may_contain_equals(self):
        assert parse_config_text("roms = SP0:5:0.0")["roms"] == "SP0:5:0.0"

    def test_missing_separator(self):
        with pytest.raises(FormatError, match="key = value"):
            parse_config_text("system wave")

    def test_duplicate_key(self):
        with pytest.raises(FormatError, match="duplicate"):
            parse_config_text("n = 1\nn = 2")

    def test_empty_key(self):
        with pytest.raises(FormatError, match="empty key"):
            parse_config_text("= 3")


class TestCsvWriters:
    def test_report_header_and_precision(self, tmp_path):
        rep = RomReport(
            variant="SP-ROM-0", r=5, mu=0.0, e_inf=np.pi, energy_initial=1 / 3,
            energy_final=1 / 3, max_energy_drift=1e-14, energy_offset_vs_fom=-7.1e-3,
            wall_ms=12.5,
        )
        path = tmp_path / "report.csv"
        write_report_csv(path, [rep])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "variant,r,mu,e_inf,H0,Hfinal,max_drift,offset,wall_ms"
        fields = lines[1].split(",")
        assert fields[0] == "SP-ROM-0"
        assert float(fields[3]) == np.pi  # 17 significant digits round-trip
        assert float(fields[4]) == 1 / 3

    def test_energy_series(self, tmp_path):
        path = tmp_path / "energy.csv"
        write_energy_csv(path, [0.0, 0.5], [1.0, 1.0 + 1e-15])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,H"
        assert float(lines[2].split(",")[1]) == 1.0 + 1e-15

    def test_energy_series_bytes_match_the_csv_writer(self, tmp_path):
        # every CSV writer renders a row with one % format: the bytes are those
        # of csv.writer over the fields, floats formatted with ".17g"
        values = [float("nan"), float("inf"), float("-inf"), -0.0, 1e-300, 0.1 + 0.2, 5e-324,
                  -2.2250738585072e-310, 1.7976931348623157e308, -1.5, 3.0]
        columns = [values[k:] + values[:k] for k in range(7)]  # every value in every column
        ints = [1, 5, 40, 0, 7, 12, 2, 3, 99, 11, 4]
        variants = [v.value for v in RomVariant] * 3

        def csv_bytes(name, header, rows):
            path = tmp_path / f"{name}.expected"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows([x if isinstance(x, (str, int)) else format(x, ".17g")
                                  for x in row] for row in rows)
            return path.read_bytes()

        write_energy_csv(tmp_path / "energy.csv", columns[0], columns[1])
        assert (tmp_path / "energy.csv").read_bytes() == csv_bytes(
            "energy", ["t", "H"], zip(columns[0], columns[1]))
        reports = [RomReport(variant, r, *row)
                   for variant, r, row in zip(variants, ints, zip(*columns))]
        write_report_csv(tmp_path / "report.csv", reports)
        assert (tmp_path / "report.csv").read_bytes() == csv_bytes(
            "report", ["variant", "r", "mu", "e_inf", "H0", "Hfinal", "max_drift", "offset",
                       "wall_ms"], zip(variants, ints, *columns))
        write_sweep_csv(tmp_path / "sweep.csv", zip(columns[0], columns[1]))
        assert (tmp_path / "sweep.csv").read_bytes() == csv_bytes(
            "sweep", ["mu", "e_inf"], zip(columns[0], columns[1]))
        write_tail_csv(tmp_path / "tail.csv", zip(ints, *columns[:3]))
        assert (tmp_path / "tail.csv").read_bytes() == csv_bytes(
            "tail", ["r", "integrated_error", "sigma_tail", "ratio"], zip(ints, *columns[:3]))

    def test_energy_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_energy_csv(tmp_path / "x.csv", [0.0, 1.0], [1.0])

    def test_sweep(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, [(0.0, 0.26), (0.08, 0.248)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "mu,e_inf"
        assert len(lines) == 3
