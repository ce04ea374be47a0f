import numpy as np
import pytest

from wlanradar.golay import (
    GolayPair,
    aperiodic_autocorr,
    generate_golay_pair,
    golay_pair_correlate,
    load_golay_pair,
)


class TestGeneration:
    @pytest.mark.parametrize("length", [2, 4, 64, 128, 256, 512, 1024])
    def test_complementarity_exact(self, length):
        pair = generate_golay_pair(length)
        s = aperiodic_autocorr(pair.a) + aperiodic_autocorr(pair.b)
        expected = np.zeros(2 * length - 1, dtype=np.int64)
        expected[length - 1] = 2 * length
        assert np.array_equal(s, expected)
        assert pair.is_complementary()

    def test_smallest_pair(self):
        pair = generate_golay_pair(2)
        assert np.array_equal(pair.a, [1, 1])
        assert np.array_equal(pair.b, [1, -1])
        s = aperiodic_autocorr(pair.a) + aperiodic_autocorr(pair.b)
        assert np.array_equal(s, [0, 4, 0])

    def test_symbols_are_pm1(self):
        pair = generate_golay_pair(512)
        assert set(np.unique(pair.a)) <= {-1, 1}
        assert set(np.unique(pair.b)) <= {-1, 1}

    def test_peak_is_2n(self):
        pair = generate_golay_pair(512)
        s = aperiodic_autocorr(pair.a) + aperiodic_autocorr(pair.b)
        assert s[511] == 1024

    @pytest.mark.parametrize("bad", [0, 1, 3, 96, -8])
    def test_invalid_length_rejected(self, bad):
        with pytest.raises(ValueError):
            generate_golay_pair(bad)


class TestAutocorr:
    def test_two_ones(self):
        assert np.array_equal(aperiodic_autocorr([1, 1]), [1, 2, 1])

    def test_zero_lag_equals_length(self):
        a = generate_golay_pair(128).a
        assert aperiodic_autocorr(a)[127] == 128

    def test_single_sequence_has_sidelobes(self):
        # complementarity holds only for the pair sum
        a = generate_golay_pair(512).a
        r = aperiodic_autocorr(a)
        off = np.concatenate([r[:511], r[512:]])
        assert np.abs(off).max() > 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aperiodic_autocorr([])

    def test_complex_conjugate_symmetry(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        r = aperiodic_autocorr(x)
        assert np.allclose(r, r[::-1].conj())


class TestPairCorrelator:
    def setup_method(self):
        self.pair = generate_golay_pair(512)
        self.clean = np.concatenate([self.pair.a, self.pair.b]).astype(complex)

    def test_clean_pair_peak_is_one(self):
        g = golay_pair_correlate(self.clean, self.pair, (0, 1))
        assert g.shape == (1,)
        assert abs(g[0] - 1.0) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
        y = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
        a, b = 0.7 - 0.2j, -1.3 + 0.5j
        window = (0, 512)
        gx = golay_pair_correlate(x, self.pair, window)
        gy = golay_pair_correlate(y, self.pair, window)
        gxy = golay_pair_correlate(a * x + b * y, self.pair, window)
        assert np.allclose(gxy, a * gx + b * gy, atol=1e-10)

    def test_complex_gain_passthrough(self):
        alpha = 0.3 - 1.1j
        g = golay_pair_correlate(alpha * self.clean, self.pair, (0, 1))
        assert abs(g[0] - alpha) < 1e-12

    def test_shift_property_amplitude_exact(self):
        # delayed clean CEF: sliding-mode peak at the shift with amplitude 1
        rx = np.concatenate([np.zeros(3), self.clean, np.zeros(16)])
        g = golay_pair_correlate(rx, self.pair, (0, 8))
        assert np.argmax(np.abs(g)) == 3
        assert abs(g[3] - 1.0) < 1e-12

    def test_gated_mode_is_exact_delta(self):
        # cyclic complementary sum: zero at every off-peak lag
        rx = np.concatenate([np.zeros(600), self.clean, np.zeros(600)])
        g = golay_pair_correlate(rx, self.pair, (600 - 256, 600 + 256), gate=600)
        peak = np.argmax(np.abs(g))
        assert peak == 256
        assert abs(g[peak] - 1.0) < 1e-12
        off = np.delete(np.abs(g), peak)
        assert off.max() == 0.0

    def test_gated_mode_reads_every_record_lag(self):
        # the window may hold all N cyclic lags of the records, starting
        # anywhere: lag l reads each record rotated by (l - gate) mod N
        rng = np.random.default_rng(2)
        y = rng.standard_normal(1500) + 1j * rng.standard_normal(1500)
        a_rec, b_rec = y[300:812], y[812:1324]
        for lo in (300 - 511, 300, 300 + 700):
            g = golay_pair_correlate(y, self.pair, (lo, lo + 512), gate=300)
            ref = np.array([
                np.dot(np.roll(a_rec, 300 - l), self.pair.a)
                + np.dot(np.roll(b_rec, 300 - l), self.pair.b)
                for l in range(lo, lo + 512)
            ]) / 1024
            assert np.max(np.abs(g - ref)) < 1e-12

    def test_sliding_mode_is_the_two_half_sum(self):
        # one [a b] correlation equals the a-half plus the b-half definition
        rng = np.random.default_rng(3)
        y = rng.standard_normal(1500) + 1j * rng.standard_normal(1500)
        g = golay_pair_correlate(y, self.pair, (100, 477))
        ref = np.array([
            np.dot(y[l : l + 512], self.pair.a) + np.dot(y[l + 512 : l + 1024], self.pair.b)
            for l in range(100, 477)
        ]) / 1024
        assert np.max(np.abs(g - ref)) < 1e-12

    def test_sliding_mode_takes_stacked_rows(self):
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((2, 3, 1300)) + 1j * rng.standard_normal((2, 3, 1300))
        window = (10, 200)
        g = golay_pair_correlate(rows, self.pair, window)
        assert g.shape == (2, 3, 190)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(g[i, j], golay_pair_correlate(rows[i, j], self.pair, window))

    @pytest.mark.parametrize("shape, lags", [
        ((1500,), (100, 477)),    # inside the stream; the read ends at its end
        ((1500,), (0, 400)),      # the read starts at the stream's start
        ((4, 1535), (0, 512)),    # the map bench's stacked reads: the whole row
        ((4, 1535), (7, 400)),    # strictly inside every row
        ((3, 1300), (5, 277)),    # the read ends at the row's end
        ((4, 1536), (0, 513)),    # the whole row, one sample longer
    ])
    def test_sliding_mode_equals_fftconvolve(self, shape, lags):
        # ``lags`` is the half-open lag window (lo, hi): bit for bit one
        # circular correlation of the read rx[..., lo : hi - 1 + 2N] as long
        # as its next fast length, and within rounding of the linear
        # valid-mode fftconvolve against conj([a b] reversed)
        from scipy import fft as sp_fft
        from scipy.signal import fftconvolve

        rng = np.random.default_rng(lags[1] - lags[0])
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ref = np.concatenate([self.pair.a, self.pair.b])
        n = len(ref)
        lo, hi = lags
        seg = y[..., lo : hi - 1 + n]
        nfft = sp_fft.next_fast_len(seg.shape[-1], False)
        spec = sp_fft.fft(seg, nfft, axis=-1) * np.conj(sp_fft.fft(ref, nfft))
        circular = sp_fft.ifft(spec, axis=-1)[..., : hi - lo] / n
        got = golay_pair_correlate(y, self.pair, lags)
        assert np.array_equal(got, circular)
        kernel = np.conj(ref[::-1]).reshape((1,) * (y.ndim - 1) + (n,))
        expected = fftconvolve(seg, kernel, mode="valid", axes=-1) / n
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lags", [(-3000, -2000), (4100, 4200), (-1, 10), (2900, 2978)])
    def test_window_leaving_the_stream_raises(self, lags):
        # the last of the 4000 samples is read at lag 2976; no sample outside
        # the stream is ever read as zero
        y = np.ones(4000, dtype=complex)
        assert np.isfinite(golay_pair_correlate(y, self.pair, (2900, 2977))).all()
        with pytest.raises(ValueError, match="leaves"):
            golay_pair_correlate(y, self.pair, lags)

    @pytest.mark.parametrize("gate, lags", [
        (0, (-513, 0)),        # one lag more than the records' N cyclic lags
        (0, (0, 513)),         # the same, from the gate on
        (-1, (0, 4)),          # the gate starts before the stream
        (3000, (3000, 3004)),  # the records run past its end
    ])
    def test_gated_read_leaving_its_records_raises(self, gate, lags):
        with pytest.raises(ValueError, match="leaves"):
            golay_pair_correlate(np.ones(4000, dtype=complex), self.pair, lags, gate=gate)

    @pytest.mark.parametrize("lags", [(4, 4), (10, 3)])
    def test_empty_window_rejected(self, lags):
        for gate in (None, 0):
            with pytest.raises(ValueError, match="empty"):
                golay_pair_correlate(np.ones(2000, dtype=complex), self.pair, lags, gate=gate)

    def test_gated_mode_rejects_stacked_rows(self):
        with pytest.raises(ValueError):
            golay_pair_correlate(np.zeros((2, 1100)), self.pair, (0, 4), gate=0)

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            golay_pair_correlate(np.zeros(1000), self.pair, (0, 1))


class TestOverrides:
    def test_load_pair_roundtrip(self, tmp_path):
        pair = generate_golay_pair(128)
        pa = tmp_path / "a.txt"
        pb = tmp_path / "b.txt"
        pa.write_text("\n".join(str(v) for v in pair.a))
        pb.write_text("\n".join(str(v) for v in pair.b))
        loaded = load_golay_pair(pa, pb)
        assert np.array_equal(loaded.a, pair.a)
        assert np.array_equal(loaded.b, pair.b)

    def test_load_rejects_noncomplementary(self, tmp_path):
        pair = generate_golay_pair(128)
        pa = tmp_path / "a.txt"
        pb = tmp_path / "b.txt"
        bad = pair.b.copy()
        bad[3] *= -1
        pa.write_text("\n".join(str(v) for v in pair.a))
        pb.write_text("\n".join(str(v) for v in bad))
        with pytest.raises(ValueError):
            load_golay_pair(pa, pb)

    def test_load_rejects_bad_symbol(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("1\n2\n-1\n")
        with pytest.raises(ValueError):
            load_golay_pair(p, p)

    def test_pair_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GolayPair(np.ones(4), np.ones(8))
