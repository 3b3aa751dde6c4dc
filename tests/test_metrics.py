"""Tests for PSNR, P-frame RD grouping and BD-rate arithmetic.

The BD-rate oracle is an independent numerical quadrature: the same
cubic fits, but integrated with a fine trapezoid rule instead of exact
polynomial antiderivatives.
"""

import math

import numpy as np
import pytest

from bnvc.errors import UsageError
from bnvc.metrics import EncodeStats, RDPoint, bd_rate, psnr, rd_by_position


def _trapezoid_bd_rate(anchor, test, samples=200_001):
    a_bpp = np.array([p.bpp for p in anchor])
    a_q = np.array([p.psnr for p in anchor])
    t_bpp = np.array([p.bpp for p in test])
    t_q = np.array([p.psnr for p in test])
    fit_a = np.polyfit(a_q, np.log10(a_bpp), 3)
    fit_t = np.polyfit(t_q, np.log10(t_bpp), 3)
    lo = max(a_q.min(), t_q.min())
    hi = min(a_q.max(), t_q.max())
    xs = np.linspace(lo, hi, samples)
    diff = np.polyval(fit_t, xs) - np.polyval(fit_a, xs)
    avg = np.trapezoid(diff, xs) / (hi - lo)
    return (10.0**avg - 1.0) * 100.0


def _random_curve(rng, n_points=None):
    n = int(n_points if n_points is not None else rng.integers(4, 7))
    q = np.sort(rng.uniform(30.0, 42.0, size=n))
    while np.any(np.diff(q) < 0.25):
        q = np.sort(rng.uniform(30.0, 42.0, size=n))
    log_bpp = np.cumsum(rng.uniform(0.08, 0.3, size=n)) - 2.0
    return [RDPoint(float(10.0**lb), float(qq)) for lb, qq in zip(log_bpp, q)]


class TestPsnr:
    def test_identical_frames_inf(self):
        img = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
        assert psnr(img, img) == math.inf

    def test_off_by_one_everywhere(self):
        a = np.full((8, 8, 3), 100, dtype=np.uint8)
        b = a + 1
        assert abs(psnr(a, b) - 20.0 * math.log10(255.0)) < 1e-9
        assert abs(psnr(a, b) - 48.130803608679) < 1e-6

    def test_worst_case_zero_db(self):
        a = np.zeros((4, 4, 3), dtype=np.uint8)
        b = np.full((4, 4, 3), 255, dtype=np.uint8)
        assert abs(psnr(a, b)) < 1e-12

    def test_decreases_with_noise_amplitude(self):
        rng = np.random.default_rng(0)
        base = rng.integers(64, 192, size=(16, 16, 3)).astype(np.uint8)
        values = []
        for amp in (1, 4, 16, 48):
            noise = rng.integers(-amp, amp + 1, size=base.shape)
            noisy = np.clip(base.astype(np.int64) + noise, 0, 255).astype(np.uint8)
            values.append(psnr(base, noisy))
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(UsageError):
            psnr(np.zeros((4, 4, 3), np.uint8), np.zeros((4, 5, 3), np.uint8))


def _stats(types, bits, psnrs, n_ref=4):
    """Hand-built accounting of a 4x2 sequence; total_bits is not read by the grouping."""
    return EncodeStats(4, 2, len(types), n_ref, sum(bits), list(bits), list(psnrs), list(types))


# two GOPs at intra period 6: P frames at positions 1..5 after each intra
TWO_GOPS = _stats(
    "IPPPPPIPPPPP",
    [1000, 10, 20, 30, 40, 50, 2000, 60, 70, 80, 90, 100],
    [99.0, 20.0, 21.0, 22.0, 23.0, 15.0, 99.0, 24.0, 25.0, 26.0, 27.0, 17.0],
)


class TestRdByPosition:
    def test_groups_at_n_ref_4(self):
        assert rd_by_position([TWO_GOPS]) == {
            "padded": RDPoint((10 + 20 + 30 + 60 + 70 + 80) / 48, 23.0),
            "intra_ref": RDPoint(400 / 64, 23.5),
            # positions restart at the second intra, so only frames 5 and 11 are past it
            "past_intra": RDPoint((50 + 100) / 16, 16.0),
            "all": RDPoint(550 / 80, 22.0),
        }

    def test_sequences_pool_like_one(self):
        s = TWO_GOPS
        halves = [_stats(s.frame_types[i : i + 6], s.frame_bits[i : i + 6], s.frame_psnr[i : i + 6]) for i in (0, 6)]
        assert rd_by_position(halves) == rd_by_position([TWO_GOPS])

    def test_n_ref_1_pads_nothing(self):
        s = TWO_GOPS
        out = rd_by_position([_stats(s.frame_types, s.frame_bits, s.frame_psnr, n_ref=1)])
        assert out == {
            "intra_ref": RDPoint((10 + 60) / 16, 22.0),
            "past_intra": RDPoint(480 / 64, 22.0),
            "all": RDPoint(550 / 80, 22.0),
        }

    def test_five_frame_gop_never_passes_the_intra(self):
        out = rd_by_position([_stats("IPPPP", [500, 8, 16, 24, 32], [99.0, 30.0, 28.0, 26.0, 24.0])])
        assert out == {
            "padded": RDPoint(48 / 24, 28.0),
            "intra_ref": RDPoint(80 / 32, 27.0),
            "all": RDPoint(80 / 32, 27.0),
        }

    def test_intra_only_has_no_group(self):
        assert rd_by_position([_stats("II", [100, 100], [99.0, 99.0])]) == {}

    def test_p_frame_before_intra_rejected(self):
        with pytest.raises(UsageError, match="start with an intra frame"):
            rd_by_position([_stats("PI", [10, 100], [20.0, 99.0])])


class TestBdRate:
    def test_identical_curves_zero(self):
        rng = np.random.default_rng(7)
        curve = _random_curve(rng)
        assert abs(bd_rate(curve, curve)) < 1e-9

    def test_doubled_rate_is_plus_100(self):
        rng = np.random.default_rng(11)
        anchor = _random_curve(rng)
        test = [RDPoint(p.bpp * 2.0, p.psnr) for p in anchor]
        assert abs(bd_rate(anchor, test) - 100.0) < 1e-6

    def test_swapped_doubled_rate_is_minus_50(self):
        rng = np.random.default_rng(11)
        anchor = _random_curve(rng)
        test = [RDPoint(p.bpp * 2.0, p.psnr) for p in anchor]
        assert abs(bd_rate(test, anchor) - (-50.0)) < 1e-6

    def test_matches_quadrature_oracle_on_seeded_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            anchor = _random_curve(rng)
            test = _random_curve(rng)
            got = bd_rate(anchor, test)
            want = _trapezoid_bd_rate(anchor, test)
            assert abs(got - want) < 1e-6

    def test_too_few_points_rejected(self):
        rng = np.random.default_rng(3)
        good = _random_curve(rng)
        with pytest.raises(UsageError):
            bd_rate(good[:3], good)
        with pytest.raises(UsageError):
            bd_rate(good, good[:2])

    def test_non_increasing_bpp_rejected(self):
        pts = [RDPoint(0.1, 30.0), RDPoint(0.1, 31.0), RDPoint(0.3, 33.0), RDPoint(0.4, 35.0)]
        with pytest.raises(UsageError):
            bd_rate(pts, pts)

    def test_no_overlap_rejected(self):
        low = [RDPoint(0.1 * (i + 1), 20.0 + i) for i in range(4)]
        high = [RDPoint(0.1 * (i + 1), 40.0 + i) for i in range(4)]
        with pytest.raises(UsageError):
            bd_rate(low, high)

