import struct

import numpy as np
import pytest

from hamrom import fileio
from hamrom.fileio import (
    FORMAT_VERSION,
    FormatError,
    parse_config_text,
    read_matrix,
    write_energy_csv,
    write_matrix,
    write_report_csv,
    write_sweep_csv,
)
from hamrom.metrics import RomReport


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

    def test_energy_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_energy_csv(tmp_path / "x.csv", [0.0, 1.0], [1.0])

    def test_sweep(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, [(0.0, 0.26), (0.08, 0.248)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "mu,e_inf"
        assert len(lines) == 3
