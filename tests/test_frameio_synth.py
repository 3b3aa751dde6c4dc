"""Tests for the frame file format and the synthetic sequence generator."""

import numpy as np
import pytest

from bnvc.errors import CorruptStreamError, UsageError
from bnvc.frameio import read_frames, write_frames
from bnvc.synth import generate_dataset, generate_sequence


def _ppm(w, h, maxval=255):
    """One all-zero P6 image, its header laid out as `write_frames` lays it out."""
    return f"P6\n{w} {h}\n{maxval}\n".encode("ascii") + bytes(3 * w * h)


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        frame = rng.integers(0, 256, size=(1, 3, 6, 9), dtype=np.uint8)
        write_frames(tmp_path / "f.ppm", frame)
        np.testing.assert_array_equal(read_frames(tmp_path / "f.ppm"), frame)

    def test_header_is_binary_p6(self, tmp_path):
        frame = np.zeros((1, 3, 2, 4), dtype=np.uint8)
        write_frames(tmp_path / "f.ppm", frame)
        data = (tmp_path / "f.ppm").read_bytes()
        assert data.startswith(b"P6\n4 2\n255\n")
        assert len(data) == len(b"P6\n4 2\n255\n") + 24

    def test_non_ppm_rejected(self, tmp_path):
        (tmp_path / "bad.ppm").write_bytes(b"JUNKJUNK")
        with pytest.raises(CorruptStreamError):
            read_frames(tmp_path / "bad.ppm")

    def test_truncated_rejected(self, tmp_path):
        frame = np.zeros((1, 3, 4, 4), dtype=np.uint8)
        write_frames(tmp_path / "f.ppm", frame)
        data = (tmp_path / "f.ppm").read_bytes()
        (tmp_path / "cut.ppm").write_bytes(data[:-5])
        with pytest.raises(CorruptStreamError):
            read_frames(tmp_path / "cut.ppm")

    def test_wrong_dtype_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            write_frames(tmp_path / "f.ppm", np.zeros((1, 3, 4, 4), dtype=np.float64))


class TestSequenceFile:
    def test_n_frame_round_trip_is_one_ppm_per_frame_back_to_back(self, tmp_path):
        rng = np.random.default_rng(1)
        seq = rng.integers(0, 256, size=(5, 3, 6, 10), dtype=np.uint8)
        write_frames(tmp_path / "seq.ppm", seq)
        back = read_frames(tmp_path / "seq.ppm")
        np.testing.assert_array_equal(back, seq)
        assert back.flags.c_contiguous
        singles = []
        for i, frame in enumerate(seq):
            write_frames(tmp_path / f"{i}.ppm", frame[None])
            singles.append((tmp_path / f"{i}.ppm").read_bytes())
        assert (tmp_path / "seq.ppm").read_bytes() == b"".join(singles)

    def test_frames_past_9999_stay_in_order(self, tmp_path):
        # a directory of frame_%04d.ppm files sorted frame_10000 before frame_1001
        index = np.arange(10_002)
        seq = np.zeros((10_002, 3, 1, 1), dtype=np.uint8)
        seq[:, 0, 0, 0], seq[:, 1, 0, 0] = index & 0xFF, index >> 8
        write_frames(tmp_path / "seq.ppm", seq)
        back = read_frames(tmp_path / "seq.ppm")
        np.testing.assert_array_equal(back[:, 0, 0, 0] + (back[:, 1, 0, 0].astype(int) << 8), index)
        np.testing.assert_array_equal(back, seq)


BAD_FILES = {
    "empty": (b"", CorruptStreamError),
    "ascii_p3_header": (b"P3\n1 1\n255\n0 0 0\n", CorruptStreamError),
    "header_without_raster_separator": (b"P6\n1 1\n255", CorruptStreamError),
    "second_raster_cut_short": (_ppm(2, 2) + _ppm(2, 2)[:-1], CorruptStreamError),
    "trailing_junk": (_ppm(2, 2) + b"JUNK", CorruptStreamError),
    "trailing_newline": (_ppm(2, 2) + b"\n", CorruptStreamError),
    "sides_far_past_the_file": (b"P6\n1000000000000 1000000000000\n255\n" + bytes(12), CorruptStreamError),
    "side_past_int_digit_limit": (b"P6\n" + b"9" * 5000 + b" 1\n255\n" + bytes(3), CorruptStreamError),
    "maxval_65535": (_ppm(2, 2, 65535), UsageError),
    "maxval_1": (_ppm(2, 2, 1), UsageError),
    "sizes_differ": (_ppm(2, 2) + _ppm(4, 2), UsageError),
    "zero_by_zero": (_ppm(0, 0), UsageError),
    "zero_width": (_ppm(0, 4), UsageError),
}


@pytest.mark.parametrize("data, error", BAD_FILES.values(), ids=BAD_FILES.keys())
def test_bad_frame_file_raises_package_error(tmp_path, data, error):
    (tmp_path / "bad.ppm").write_bytes(data)
    with pytest.raises(error):
        read_frames(tmp_path / "bad.ppm")


ONE_BLACK_FRAME = np.zeros((1, 3, 2, 2), dtype=np.uint8)
BAD_CALLS = {
    "read_missing_file": lambda d: read_frames(d / "missing.ppm"),
    "read_directory": lambda d: read_frames(d),
    "read_int_path": lambda d: read_frames(3),
    "write_into_missing_directory": lambda d: write_frames(d / "missing" / "f.ppm", ONE_BLACK_FRAME),
    "write_int_path": lambda d: write_frames(3, ONE_BLACK_FRAME),
    "write_no_frames": lambda d: write_frames(d / "f.ppm", ONE_BLACK_FRAME[:0]),
    "write_one_3d_frame": lambda d: write_frames(d / "f.ppm", ONE_BLACK_FRAME[0]),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_path_or_frames_is_usage_error(tmp_path, call):
    with pytest.raises(UsageError):
        call(tmp_path)


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
