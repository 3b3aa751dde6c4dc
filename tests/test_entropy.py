"""Tests for the range coder and its probability models.

The CDF quantizer oracle recomputes bin probabilities with mpmath at 50
digits and re-implements the quantization rules from scratch; the
production tables must match it exactly. Round-trip and rate-bound
properties run over many seeded configurations.
"""

import hashlib
import math

import mpmath as mp
import numpy as np
import pytest

import bnvc.entropy as entropy
from bnvc.entropy import (
    GAUSSIAN_SCALES,
    SCALE_MAX,
    SCALE_MIN,
    TOTAL,
    DecoderState,
    GaussianModel,
    LogisticModel,
    QuantizedCdf,
    TableSet,
    build_gaussian_cdf_rows,
    build_logistic_cdf_rows,
    estimate_bits,
    gaussian_tables,
    range_decode,
    range_encode,
    row_support_bounds,
)
from bnvc.errors import CorruptStreamError, UsageError


def _oracle_quantize(probs):
    """Straightforward reimplementation of the quantization rules."""
    freq = []
    for p in probs:
        f = int(np.rint(p * TOTAL))
        freq.append(max(1, f))
    freq = np.array(freq, dtype=np.int64)
    diff = TOTAL - int(freq.sum())
    if diff > 0:
        freq[int(np.argmax(freq))] += diff
    while diff < 0:
        i = int(np.argmax(freq))
        take = min(int(freq[i]) - 1, -diff)
        freq[i] -= take
        diff += take
    return freq


def _oracle_gaussian_freqs(mean, scale, lo, hi):
    mp.mp.dps = 50
    sigma = min(max(scale, 0.04), 16.0)
    edges = [(mp.mpf(s) - mp.mpf("0.5") - mp.mpf(mean)) / mp.mpf(sigma) for s in range(lo, hi + 2)]
    cdf = [mp.ncdf(e) for e in edges]
    raw = [cdf[i + 1] - cdf[i] for i in range(len(cdf) - 1)]
    mass = mp.fsum(raw)
    probs = np.array([float(p / mass) for p in raw])
    return _oracle_quantize(probs)


def _gaussian_row(mean, scale):
    """The rows builder's table for one (mean, scale) and its support."""
    (cdf,) = build_gaussian_cdf_rows([mean], [scale])
    lo, hi = row_support_bounds([mean], [scale])
    return cdf, int(lo[0]), int(hi[0])


class TestGaussianCdf:
    def test_flat_limit_near_uniform(self):
        cdf, _, _ = _gaussian_row(0.0, 17.0)
        np.testing.assert_array_equal(cdf.freq, _gaussian_row(0.0, SCALE_MAX)[0].freq)
        assert cdf.freq.sum() == TOTAL
        center = cdf.freq[-cdf.s_min - 8 : -cdf.s_min + 9]  # symbols -8..8
        assert center.max() / center.min() < 2.0

    def test_delta_limit_min_frequency(self):
        cdf, lo, hi = _gaussian_row(0.0, SCALE_MIN)
        assert (lo, hi) == (-2, 2)
        assert cdf.freq.sum() == TOTAL
        assert cdf.freq[2] >= TOTAL - 4  # symbol 0
        assert cdf.freq.min() >= 1

    def test_matches_high_precision_oracle_exactly(self):
        cdf, lo, hi = _gaussian_row(1.3, 2.0)
        assert (cdf.s_min, cdf.s_max) == (lo, hi)
        np.testing.assert_array_equal(cdf.freq, _oracle_gaussian_freqs(1.3, 2.0, lo, hi))

    def test_matches_oracle_on_seeded_params(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            mean = float(rng.uniform(-5, 5))
            scale = float(np.exp(rng.uniform(np.log(0.04), np.log(16.0))))
            cdf, lo, hi = _gaussian_row(mean, scale)
            assert (cdf.s_min, cdf.s_max) == (lo, hi)
            np.testing.assert_array_equal(cdf.freq, _oracle_gaussian_freqs(mean, scale, lo, hi))

    def test_pure_function(self):
        a = build_gaussian_cdf_rows([0.7, -3.2], [1.1, 9.0])
        b = build_gaussian_cdf_rows([0.7, -3.2], [1.1, 9.0])
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.freq, y.freq)
            np.testing.assert_array_equal(x.cum, y.cum)

    def test_invariants_over_seeds(self):
        rng = np.random.default_rng(17)
        means = rng.uniform(-10, 10, size=50)
        scales = np.exp(rng.uniform(np.log(0.04), np.log(16.0), size=50))
        for cdf in build_gaussian_cdf_rows(means, scales):
            assert cdf.freq.min() >= 1
            assert cdf.freq.sum() == TOTAL
            assert np.all(np.diff(cdf.cum) >= 1)
            assert cdf.cum[0] == 0 and cdf.cum[-1] == TOTAL

    def test_logistic_cdf_sane(self):
        (cdf,) = build_logistic_cdf_rows([0.3], [1.5])
        lo, hi = row_support_bounds([0.3], [1.5])
        assert (cdf.s_min, cdf.s_max) == (lo[0], hi[0])
        assert cdf.freq.sum() == TOTAL
        assert cdf.freq.min() >= 1
        peak = cdf.s_min + int(np.argmax(cdf.freq))
        assert peak in (0, 1)


class TestScaleTable:
    def test_ends_pinned_and_increasing(self):
        assert len(GAUSSIAN_SCALES) == 64
        assert GAUSSIAN_SCALES[0] == SCALE_MIN and GAUSSIAN_SCALES[-1] == SCALE_MAX
        assert np.all(np.diff(GAUSSIAN_SCALES) > 0)

    def test_entries_carry_their_own_tables(self):
        tables = gaussian_tables(GAUSSIAN_SCALES)
        assert tables.index.tolist() == list(range(64))
        assert len({id(t) for t in tables.tables}) == 64
        for table, want in zip(tables.tables, build_gaussian_cdf_rows(np.zeros(64), GAUSSIAN_SCALES)):
            assert table.s_min == want.s_min
            np.testing.assert_array_equal(table.freq, want.freq)

    def test_shared_tables_pinned(self):
        """The 64 zero-mean tables every main latent is coded with: a change to
        their CDF, scales or quantizer that moves any frequency fails here."""
        h = hashlib.sha256()
        for t in entropy._GAUSSIAN_TABLES:
            h.update(np.array([t.s_min], "<i8").tobytes() + t.freq.astype("<i8").tobytes() + t.cum.astype("<i8").tobytes())
        assert h.hexdigest() == "c7ed7bd3c28fc0543627e56a5a3a7ee6cc2f4a2954e7fd69eefbfc053b240043"

    def test_scale_rounds_up_to_smallest_entry(self):
        entry_tables = gaussian_tables(GAUSSIAN_SCALES).tables
        between = 0.5 * (GAUSSIAN_SCALES[20] + GAUSSIAN_SCALES[21])
        scales = [1e-9, SCALE_MIN, GAUSSIAN_SCALES[33], between, SCALE_MAX, 1e3]
        tables = gaussian_tables(scales)
        for scale, t in zip(scales, tables.index):
            clamped = min(max(scale, SCALE_MIN), SCALE_MAX)
            smallest = min(i for i, entry in enumerate(GAUSSIAN_SCALES) if entry >= clamped)
            assert tables.tables[t] is entry_tables[smallest]
        between_tables = gaussian_tables([between])
        assert between_tables.tables[between_tables.index[0]] is entry_tables[21]

    def test_floor_tables_code_identical_bytes(self):
        """Tables 0-11 all quantize to [1, 1, 65532, 1, 1] over -2..2, so which
        of them a scale near SCALE_MIN picks changes no coded byte; table 12 is
        the first whose choice shows in the payload."""
        symbols = np.random.default_rng(12).choice([-2, -1, 0, 1, 2], size=400, p=[0.05, 0.1, 0.7, 0.1, 0.05])
        tables = gaussian_tables(GAUSSIAN_SCALES)
        payloads = [range_encode(symbols, TableSet(tables.tables, np.full(400, i))) for i in range(13)]
        assert all(p == payloads[0] for p in payloads[:12])
        assert payloads[12] != payloads[0]

    def test_equal_scales_share_one_table(self):
        tables = gaussian_tables(np.full((2, 3, 4), 0.7))
        assert len(tables) == 24
        assert np.all(tables.index == tables.index[0])
        one = gaussian_tables([0.7])
        assert one.tables[one.index[0]] is tables.tables[tables.index[0]]


def _seeded_chunk(seed, n, scale_hi=6.0):
    rng = np.random.default_rng(seed)
    means = rng.uniform(-20.0, 20.0, size=n)
    scales = np.exp(rng.uniform(np.log(0.04), np.log(scale_hi), size=n))
    clamped = np.clip(scales, 0.04, 16.0)
    lo, hi = row_support_bounds(means, scales)
    draws = rng.normal(means, clamped)
    symbols = np.clip(np.rint(draws), lo, hi).astype(np.int64)
    cdfs = TableSet(build_gaussian_cdf_rows(means, scales), np.arange(n))
    return symbols, cdfs, means, scales


class TestRangeCoder:
    def test_empty_symbol_list(self):
        empty = TableSet([], [])
        payload = range_encode([], empty)
        assert len(payload) == 6
        assert range_decode(payload, empty) == []

    def test_single_near_certain_symbol(self):
        freq = np.ones(17, dtype=np.int64)
        freq[8] = TOTAL - 16
        cdf = TableSet([QuantizedCdf(-8, freq)], [0])
        payload = range_encode([0], cdf)
        assert len(payload) <= 9
        assert range_decode(payload, cdf) == [0]

    def test_round_trip_seeded_configs(self):
        total_checked = 0
        for seed in range(200):
            n = int(np.random.default_rng(seed + 5000).integers(1, 120))
            symbols, cdfs, _, _ = _seeded_chunk(seed, n)
            payload = range_encode(symbols, cdfs)
            decoded = range_decode(payload, cdfs)
            np.testing.assert_array_equal(decoded, symbols)
            total_checked += 1
        assert total_checked == 200

    def test_round_trip_large_chunk_and_rate_bound(self):
        n = 30_000
        symbols, cdfs, means, scales = _seeded_chunk(12345, n, scale_hi=4.0)
        payload = range_encode(symbols, cdfs)
        decoded = range_decode(payload, cdfs)
        np.testing.assert_array_equal(decoded, symbols)
        ideal = estimate_bits(symbols, GaussianModel(means, scales))
        assert 8 * len(payload) <= ideal + 64
        assert abs(8 * len(payload) - ideal) <= 64

    def test_rate_bound_small_chunks(self):
        for seed in range(40):
            n = int(np.random.default_rng(seed + 900).integers(1, 400))
            symbols, cdfs, means, scales = _seeded_chunk(seed + 31, n)
            payload = range_encode(symbols, cdfs)
            ideal = estimate_bits(symbols, GaussianModel(means, scales))
            assert 8 * len(payload) <= ideal + 64
            assert len(payload) <= math.ceil(ideal / 8) + 8

    def test_deterministic_payloads(self):
        symbols, cdfs, _, _ = _seeded_chunk(77, 500)
        assert range_encode(symbols, cdfs) == range_encode(symbols, cdfs)

    def test_out_of_support_symbol_rejected(self):
        cdf, lo, hi = _gaussian_row(0.0, 1.0)
        with pytest.raises(UsageError):
            range_encode([hi + 1], TableSet([cdf], [0]))
        with pytest.raises(UsageError):
            range_encode([lo - 1], TableSet([cdf], [0]))

    def test_truncated_payload_detected(self):
        symbols, cdfs, _, _ = _seeded_chunk(5, 50)
        payload = range_encode(symbols, cdfs)
        with pytest.raises(CorruptStreamError):
            range_decode(payload[: len(payload) // 2], cdfs)
        with pytest.raises(CorruptStreamError):
            range_decode(b"\x00\x01", TableSet(cdfs.tables, cdfs.index[:1]))

    def test_flipped_byte_never_crashes(self):
        symbols, cdfs, _, _ = _seeded_chunk(8, 200)
        payload = bytearray(range_encode(symbols, cdfs))
        rng = np.random.default_rng(0)
        for _ in range(25):
            pos = int(rng.integers(0, len(payload)))
            bit = 1 << int(rng.integers(0, 8))
            corrupted = bytearray(payload)
            corrupted[pos] ^= bit
            try:
                out = range_decode(bytes(corrupted), cdfs)
                assert len(out) == 200  # garbage symbols are fine; crashing is not
            except CorruptStreamError:
                pass

    def test_state_carries_across_table_sets(self):
        """A payload coded over joined TableSets decodes one TableSet per call
        through one state, which ends on the payload's last byte."""
        (s1, t1, _, _), (s2, t2, _, _) = _seeded_chunk(40, 300), _seeded_chunk(41, 200)
        joined = TableSet(t1.tables + t2.tables, np.concatenate([t1.index, t2.index + len(t1.tables)]))
        payload = range_encode(np.concatenate([s1, s2]), joined)
        state = DecoderState()
        assert range_decode(payload, t1, state) == s1.tolist()
        assert state.pos < len(payload)
        assert range_decode(payload, t2, state) == s2.tolist()
        assert state.pos == len(payload)

    def test_payload_bytes_pinned(self):
        # Integer-only tables, so these bytes hold on every platform. The run
        # codes 648 symbols in a top interval (cum_hi == TOTAL) and carries
        # into a pending run of 0xFF bytes three times.
        skew = np.array([TOTAL // 2, TOTAL // 4, TOTAL // 8, TOTAL // 16, TOTAL // 32, TOTAL // 64, TOTAL // 64])
        tables = [
            QuantizedCdf(-1, np.array([TOTAL - 2, 1, 1], dtype=np.int64)),
            QuantizedCdf(-128, np.full(256, TOTAL // 256, dtype=np.int64)),
            QuantizedCdf(3, skew.astype(np.int64)),
        ]
        rng = np.random.default_rng(3)
        which = rng.integers(0, 3, size=4000)
        symbols = [tables[t].s_min + int(rng.integers(0, len(tables[t].freq))) for t in which]
        cdfs = TableSet(tables, which)
        payload = range_encode(symbols, cdfs)
        assert len(payload) == 3793
        assert hashlib.sha256(payload).hexdigest() == "f3c0507625cae05ccdb63cf119fbb410ab63a44e830f196477bc54d7b8cdb3c5"
        assert range_decode(payload, cdfs) == symbols

    def test_count_cdf_mismatch_rejected(self):
        cdf, _, _ = _gaussian_row(0.0, 1.0)
        with pytest.raises(UsageError):
            TableSet([cdf], [0, 1])
        with pytest.raises(UsageError):
            range_encode([0, 0], TableSet([cdf], [0]))


class TestEstimateBits:
    def test_mode_of_near_delta_gaussian(self):
        bits = estimate_bits([0], GaussianModel(np.array([0.0]), np.array([0.04])))
        assert bits < 0.01

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(4242)
        n = 5000
        means = rng.uniform(-5, 5, n)
        scales = np.exp(rng.uniform(np.log(0.04), np.log(8.0), n))
        symbols = np.rint(rng.normal(means, np.clip(scales, 0.04, 16.0)))
        got = estimate_bits(symbols, GaussianModel(means, scales))

        total = 0.0
        for s, mu, sig in zip(symbols, means, scales):
            sig = min(max(sig, 0.04), 16.0)
            p = 0.5 * (math.erf((s + 0.5 - mu) / (sig * math.sqrt(2))) - math.erf((s - 0.5 - mu) / (sig * math.sqrt(2))))
            total += -math.log2(max(p, 2.0**-60))
        assert abs(got - total) <= 1e-9 * abs(total)

    def test_logistic_model_positive_and_finite(self):
        rng = np.random.default_rng(9)
        vals = np.rint(rng.normal(0, 2, size=200))
        bits = estimate_bits(vals, LogisticModel(np.zeros(200), np.full(200, 2.0)))
        assert math.isfinite(bits)
        assert bits > 0.0
