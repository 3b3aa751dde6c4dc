"""Tests for frame I/O formats and the synthetic sequence generator."""

import numpy as np
import pytest

from bnvc.errors import CorruptStreamError, UsageError
from bnvc.frameio import (
    load_sequences,
    read_ppm,
    read_raw_sequence,
    read_sequence_dir,
    write_ppm,
    write_raw_sequence,
    write_sequence_dir,
)
from bnvc.synth import generate_dataset, generate_sequence


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        frame = rng.integers(0, 256, size=(3, 6, 9), dtype=np.uint8)
        write_ppm(tmp_path / "f.ppm", frame)
        np.testing.assert_array_equal(read_ppm(tmp_path / "f.ppm"), frame)

    def test_header_is_binary_p6(self, tmp_path):
        frame = np.zeros((3, 2, 4), dtype=np.uint8)
        write_ppm(tmp_path / "f.ppm", frame)
        data = (tmp_path / "f.ppm").read_bytes()
        assert data.startswith(b"P6\n4 2\n255\n")
        assert len(data) == len(b"P6\n4 2\n255\n") + 24

    def test_non_ppm_rejected(self, tmp_path):
        (tmp_path / "bad.ppm").write_bytes(b"JUNKJUNK")
        with pytest.raises(CorruptStreamError):
            read_ppm(tmp_path / "bad.ppm")

    def test_truncated_rejected(self, tmp_path):
        frame = np.zeros((3, 4, 4), dtype=np.uint8)
        write_ppm(tmp_path / "f.ppm", frame)
        data = (tmp_path / "f.ppm").read_bytes()
        (tmp_path / "cut.ppm").write_bytes(data[:-5])
        with pytest.raises(CorruptStreamError):
            read_ppm(tmp_path / "cut.ppm")

    def test_wrong_dtype_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            write_ppm(tmp_path / "f.ppm", np.zeros((3, 4, 4), dtype=np.float64))


class TestSequenceIo:
    def test_dir_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        seq = rng.integers(0, 256, size=(5, 3, 8, 8), dtype=np.uint8)
        write_sequence_dir(tmp_path / "seq", seq)
        np.testing.assert_array_equal(read_sequence_dir(tmp_path / "seq"), seq)

    def test_raw_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        seq = rng.integers(0, 256, size=(4, 3, 6, 10), dtype=np.uint8)
        write_raw_sequence(tmp_path / "seq.rgb", seq)
        np.testing.assert_array_equal(read_raw_sequence(tmp_path / "seq.rgb"), seq)

    def test_raw_sidecar_mismatch_detected(self, tmp_path):
        seq = np.zeros((2, 3, 4, 4), dtype=np.uint8)
        write_raw_sequence(tmp_path / "seq.rgb", seq)
        (tmp_path / "seq.rgb").write_bytes(b"\x00" * 10)
        with pytest.raises(CorruptStreamError):
            read_raw_sequence(tmp_path / "seq.rgb")

    def test_load_sequences_mixed(self, tmp_path):
        seq_a = np.zeros((2, 3, 4, 4), dtype=np.uint8)
        seq_b = np.full((3, 3, 4, 4), 9, dtype=np.uint8)
        write_sequence_dir(tmp_path / "a", seq_a)
        write_raw_sequence(tmp_path / "b.rgb", seq_b)
        out = load_sequences(tmp_path)
        assert sorted(out) == ["a", "b"]
        np.testing.assert_array_equal(out["b"], seq_b)

    def test_empty_root_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            load_sequences(tmp_path)


class TestSynth:
    def test_shapes_dtype_and_determinism(self):
        a = generate_sequence(width=32, height=32, n_frames=10, seed=5)
        b = generate_sequence(width=32, height=32, n_frames=10, seed=5)
        c = generate_sequence(width=32, height=32, n_frames=10, seed=6)
        assert a.shape == (10, 3, 32, 32) and a.dtype == np.uint8
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_frames_actually_move(self):
        seq = generate_sequence(n_frames=8, seed=7)
        diffs = [np.abs(seq[i].astype(int) - seq[i + 1].astype(int)).sum() for i in range(7)]
        assert all(d > 0 for d in diffs)

    def test_occlusion_blinker_visible_once_per_window(self):
        period = 4
        plain = generate_sequence(n_frames=16, seed=9, occlusion=False)
        occl = generate_sequence(n_frames=16, seed=9, occlusion=True)
        visible = [bool(np.any(plain[t] != occl[t])) for t in range(16)]
        assert any(visible)
        phase = visible.index(True)
        assert visible == [(t % period) == (phase % period) for t in range(16)]
        # any window of four consecutive frames shows the blinker exactly once
        for t in range(12):
            assert sum(visible[t : t + 4]) == 1

    def test_dataset_seeds_differ(self):
        data = generate_dataset(3, seed=1)
        assert len(data) == 3
        assert not np.array_equal(data[0], data[1])

    def test_invalid_sizes_rejected(self):
        with pytest.raises(UsageError):
            generate_sequence(width=30, height=32)
