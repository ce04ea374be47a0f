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
        g = golay_pair_correlate(self.clean, self.pair, np.arange(1))
        assert g.shape == (1,)
        assert abs(g[0] - 1.0) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
        y = rng.standard_normal(2048) + 1j * rng.standard_normal(2048)
        a, b = 0.7 - 0.2j, -1.3 + 0.5j
        lags = np.arange(0, 512)
        gx = golay_pair_correlate(x, self.pair, lags)
        gy = golay_pair_correlate(y, self.pair, lags)
        gxy = golay_pair_correlate(a * x + b * y, self.pair, lags)
        assert np.allclose(gxy, a * gx + b * gy, atol=1e-10)

    def test_complex_gain_passthrough(self):
        alpha = 0.3 - 1.1j
        g = golay_pair_correlate(alpha * self.clean, self.pair, np.arange(1))
        assert abs(g[0] - alpha) < 1e-12

    def test_shift_property_amplitude_exact(self):
        # delayed clean CEF: sliding-mode peak at the shift with amplitude 1
        rx = np.concatenate([np.zeros(3), self.clean, np.zeros(16)])
        lags = np.arange(0, 8)
        g = golay_pair_correlate(rx, self.pair, lags)
        assert np.argmax(np.abs(g)) == 3
        assert abs(g[3] - 1.0) < 1e-12

    def test_gated_mode_is_exact_delta(self):
        # isolated-record complementary sum: zero at every off-peak lag
        rx = np.concatenate([np.zeros(600), self.clean, np.zeros(600)])
        lags = 600 + np.arange(-256, 256)
        g = golay_pair_correlate(rx, self.pair, lags, gate=600)
        peak = np.argmax(np.abs(g))
        assert peak == 256
        assert abs(g[peak] - 1.0) < 1e-12
        off = np.delete(np.abs(g), peak)
        assert off.max() == 0.0

    def test_sliding_mode_is_the_two_half_sum(self):
        # one [a b] correlation equals the a-half plus the b-half definition,
        # with the stream zero-extended at both ends; the second lag set lies
        # inside the stream
        rng = np.random.default_rng(3)
        y = rng.standard_normal(1500) + 1j * rng.standard_normal(1500)
        pad = np.concatenate([np.zeros(64), y, np.zeros(1100)])
        for lags in (np.arange(-40, 530), np.arange(100, 477)):
            g = golay_pair_correlate(y, self.pair, lags)
            ref = np.array([
                np.dot(pad[64 + l : 64 + l + 512], self.pair.a)
                + np.dot(pad[64 + l + 512 : 64 + l + 1024], self.pair.b)
                for l in lags
            ]) / 1024
            assert np.max(np.abs(g - ref)) < 1e-12

    def test_sliding_mode_takes_stacked_rows(self):
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((2, 3, 1300)) + 1j * rng.standard_normal((2, 3, 1300))
        lags = np.arange(-10, 200)
        g = golay_pair_correlate(rows, self.pair, lags)
        assert g.shape == (2, 3, len(lags))
        for i in range(2):
            for j in range(3):
                assert np.array_equal(g[i, j], golay_pair_correlate(rows[i, j], self.pair, lags))

    @pytest.mark.parametrize("shape, lags", [
        ((1500,), np.arange(100, 477)),               # inside the stream
        ((1500,), np.arange(-40, 530)),               # leaves it at both ends
        ((4, 1535), np.arange(512)),                  # the map bench's stacked reads
        ((4, 1535), np.arange(-7, 600)),
        ((3, 1300), np.array([250, 5, -3, 276, 17])),  # unordered, non-contiguous
        ((4, 1536), np.arange(513)),                  # the span is the whole row
    ])
    def test_sliding_mode_equals_fftconvolve(self, shape, lags):
        # bit for bit one circular correlation of the zero-extended span as
        # long as its next fast length, and within rounding of the linear
        # valid-mode fftconvolve against conj([a b] reversed)
        from scipy import fft as sp_fft
        from scipy.signal import fftconvolve

        rng = np.random.default_rng(len(lags))
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ref = np.concatenate([self.pair.a, self.pair.b])
        n = len(ref)
        lo, hi = lags.min(), lags.max()
        seg_lo, seg_hi = max(lo, 0), min(hi + n, shape[-1])
        pad = [(0, 0)] * (y.ndim - 1) + [(seg_lo - lo, hi + n - seg_hi)]
        seg = np.pad(y[..., seg_lo:seg_hi], pad)
        nfft = sp_fft.next_fast_len(seg.shape[-1], False)
        spec = sp_fft.fft(seg, nfft, axis=-1) * np.conj(sp_fft.fft(ref, nfft))
        circular = sp_fft.ifft(spec, axis=-1)[..., lags - lo] / n
        got = golay_pair_correlate(y, self.pair, lags)
        assert np.array_equal(got, circular)
        kernel = np.conj(ref[::-1]).reshape((1,) * (y.ndim - 1) + (n,))
        expected = fftconvolve(seg, kernel, mode="valid", axes=-1)[..., lags - lo] / n
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lags", [np.arange(-3000, -2000), np.arange(4100, 4200)])
    def test_sliding_mode_is_zero_off_the_stream(self, lags):
        y = np.ones(4000, dtype=complex)
        assert np.array_equal(golay_pair_correlate(y, self.pair, lags), np.zeros(len(lags)))

    def test_gated_mode_rejects_stacked_rows(self):
        with pytest.raises(ValueError):
            golay_pair_correlate(np.zeros((2, 1100)), self.pair, np.arange(4), gate=0)

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            golay_pair_correlate(np.zeros(1000), self.pair, np.arange(1))


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
