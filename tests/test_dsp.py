import numpy as np
import pytest
from scipy import fft as sp_fft
from scipy.signal import fftconvolve

from wlanradar.dsp import (
    RrcSpec,
    _conj_spectrum,
    _fft_correlate,
    _rrc_kernel,
    apply_delay_doppler,
    pulse_shape,
    rc_pulse,
    rrc_taps,
)
from wlanradar.frame import FrameLayout, assemble_frame

W = 1.76e9
TS = 1 / W
SPEC = RrcSpec()
HALF = SPEC.span * SPEC.oversample // 2   # the clock's origin: sample j at (j - HALF) / rate


def _times(x, spec=SPEC):
    """The clock's time of each sample of a stream that starts at the origin."""
    rate = W * spec.oversample
    return (np.arange(len(x)) - spec.span * spec.oversample // 2) / rate


class TestRrcTaps:
    def test_unit_energy(self):
        taps = rrc_taps(SPEC)
        assert abs(np.sum(taps**2) - 1.0) < 1e-9

    @pytest.mark.parametrize("frac_shift", [0.0, 0.3, -0.41])
    def test_energy_is_the_unshifted_kernels(self, frac_shift):
        # each spec computes the normalization once; the taps keep their bytes
        spec = RrcSpec(rolloff=0.3, span=16, oversample=4)
        n = spec.span * spec.oversample + 1
        t = (np.arange(n) - (n - 1) / 2) / spec.oversample
        ref = _rrc_kernel(t, spec.rolloff)
        taps = rrc_taps(spec, frac_shift)
        assert "energy" in vars(spec)
        assert np.array_equal(taps, _rrc_kernel(t - frac_shift, spec.rolloff)
                              / np.sqrt(np.sum(ref**2)))

    def test_symmetry(self):
        taps = rrc_taps(SPEC)
        assert np.allclose(taps, taps[::-1])

    def test_cascade_nyquist(self):
        taps = rrc_taps(SPEC)
        g = np.convolve(taps, taps)
        mid = len(g) // 2
        q = SPEC.oversample
        sym = np.concatenate([g[mid + q :: q], g[mid - q :: -q]])
        assert np.abs(sym).max() < 1e-3
        assert abs(g[mid] - 1.0) < 1e-6

    @pytest.mark.parametrize("kwargs", [
        dict(rolloff=0.0), dict(rolloff=1.5), dict(span=3), dict(span=0),
        dict(oversample=0),
    ])
    def test_invalid_spec(self, kwargs):
        with pytest.raises(ValueError):
            RrcSpec(**kwargs)

    def test_rc_pulse_nyquist_zeros(self):
        k = np.arange(1, 20)
        assert np.abs(rc_pulse(k, 0.25)).max() < 1e-12
        assert rc_pulse(np.array([0.0]), 0.25)[0] == pytest.approx(1.0)


class TestPulseShape:
    def test_single_symbol_is_impulse_response(self):
        out = pulse_shape([1.0], SPEC, W)
        taps = rrc_taps(SPEC)
        assert np.allclose(out[: len(taps)], taps)
        assert np.abs(out[len(taps) :]).max() < 1e-12

    def test_energy_per_symbol(self):
        frame = assemble_frame(FrameLayout(k=6656), seed=3)
        out = pulse_shape(frame, SPEC, W)
        per_symbol = np.sum(np.abs(out) ** 2) / len(frame)
        assert per_symbol == pytest.approx(1.0, rel=0.01)

    def test_q1_degenerates_to_symbol_rate(self):
        # one sample per symbol: the plain convolution with the taps
        spec1 = RrcSpec(oversample=1)
        s = np.array([1.0, -1.0, 1.0])
        out = pulse_shape(s, spec1, W)
        assert len(out) == len(s) + spec1.span
        assert np.array_equal(out, np.convolve(s, rrc_taps(spec1)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pulse_shape([], SPEC, W)

    def test_time_axis_places_symbols(self):
        # the delayed stream starts round(delay rate) samples after the origin
        out = pulse_shape([1.0], SPEC, W, delay=5 * TS)
        rate = W * SPEC.oversample
        t_peak = _times(out)[np.argmax(np.abs(out))] + round(5 * TS * rate) / rate
        assert t_peak == pytest.approx(5 * TS, abs=TS / SPEC.oversample / 2)


def _matched_symbols(y, spec=SPEC, phase=0):
    """The RX matched filter sampled at symbol rate, phase ticks past each
    symbol instant: the receiver's reference on the clock."""
    return fftconvolve(y, rrc_taps(spec))[spec.span * spec.oversample + phase :: spec.oversample]


class TestMatchedFilter:
    def test_round_trip_symbol_recovery(self):
        frame = assemble_frame(FrameLayout(k=6656), seed=11)
        sym = _matched_symbols(pulse_shape(frame, SPEC, W))
        assert np.abs(sym[: len(frame)] - frame).max() < 1e-3

    def test_noise_variance_preserved(self):
        # filtered samples are correlated over ~Q*span taps, so a long record
        # is needed to push the estimator noise below the 1% tolerance
        rng = np.random.default_rng(4)
        n = 1_000_000
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        out = fftconvolve(noise, rrc_taps(SPEC))
        body = out[HALF + len(rrc_taps(SPEC)) : -len(rrc_taps(SPEC))]
        assert np.mean(np.abs(body) ** 2) == pytest.approx(1.0, rel=0.01)

    def test_inband_tone_unit_gain_through_cascade(self):
        # tone well inside the flat raised-cosine passband
        f = 0.2 * W
        n = np.arange(4096)
        tone = np.exp(2j * np.pi * f * n * TS)
        sym = _matched_symbols(pulse_shape(tone, SPEC, W))
        body = sym[SPEC.span : 4096 - SPEC.span]
        gain = np.abs(body / tone[SPEC.span : 4096 - SPEC.span])
        assert np.abs(gain - 1.0).max() < 2e-3


class TestSymbolSample:
    def test_wrong_phase_lowers_energy(self):
        frame = assemble_frame(FrameLayout(k=6656), seed=2)
        rx = pulse_shape(frame, SPEC, W)
        e = [np.mean(np.abs(_matched_symbols(rx, phase=p)[:6000]) ** 2)
             for p in range(SPEC.oversample)]
        assert np.argmax(e) == 0
        assert e[0] > e[SPEC.oversample // 2]


@pytest.mark.parametrize("shape, n_ref", [((500,), 128), ((3, 1535), 1024), ((3, 1536), 1024)])
def test_fft_correlate_equals_np_correlate(shape, n_ref):
    # every lag at which ref fits, row by row; 500 and 1536 are fast lengths,
    # so the transform has no spare point and the last lag reads the last sample
    rng = np.random.default_rng(shape[-1])
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref = rng.standard_normal(n_ref) + 1j * rng.standard_normal(n_ref)
    n_lags = shape[-1] - n_ref + 1
    c = _fft_correlate(x, _conj_spectrum(ref, shape[-1]), n_lags)
    assert c.shape == shape[:-1] + (n_lags,)
    for row, c_row in zip(x.reshape(-1, shape[-1]), c.reshape(-1, n_lags)):
        expected = np.correlate(row, ref, "valid")
        assert np.max(np.abs(c_row - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert sp_fft.next_fast_len(500, False) == 500
    assert sp_fft.next_fast_len(1536, False) == 1536


def test_fft_correlate_takes_a_longer_transform():
    # a reference spectrum made for longer reads serves a shorter one; a read
    # longer than the spectrum's transform is refused
    rng = np.random.default_rng(7)
    x = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    ref = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    short = _fft_correlate(x, _conj_spectrum(ref, 500), 373)
    long = _fft_correlate(x, _conj_spectrum(ref, 2000), 373)
    assert np.max(np.abs(long - short)) <= 1e-12 * np.max(np.abs(short))
    with pytest.raises(ValueError, match="longer"):
        _fft_correlate(np.ones(2001, complex), _conj_spectrum(ref, 2000), 1)


class TestDelayDoppler:
    def setup_method(self):
        self.frame = assemble_frame(FrameLayout(k=4352, header_len=0), seed=6)
        self.tx = pulse_shape(self.frame, SPEC, W)

    rate = W * SPEC.oversample

    def echo(self, delay, doppler=0.0, gain=1.0):
        """The echo added into a zeroed buffer that starts at the clock's
        origin and ends where the echo does."""
        out = np.zeros(len(self.tx) + round(delay * self.rate), dtype=complex)
        apply_delay_doppler(out, self.frame, SPEC, W, delay, doppler, gain)
        return out

    def test_identity(self):
        out = self.echo(0.0)
        assert np.allclose(out, self.tx)

    def test_integer_shift_exact(self):
        out = self.echo(7 / self.rate)
        assert np.all(out[:7] == 0)
        assert np.allclose(out[7:], self.tx, rtol=0, atol=1e-12)

    def test_doppler_phase_slope(self):
        nu = 8e3
        out = self.echo(0.0, nu)
        ratio = out[1000:5000] / self.tx[1000:5000]
        slope = np.polyfit(np.arange(4000), np.unwrap(np.angle(ratio)), 1)[0]
        assert slope * self.rate / (2 * np.pi) == pytest.approx(nu, rel=1e-9)

    def test_fractional_delay_matches_band_limited_shift(self):
        # reference: the undelayed stream shifted through its band-limited
        # interpolant (an FFT phase ramp); the echo starts round(d) samples
        # into the buffer
        rate = self.rate
        pad = 512
        x = np.concatenate([np.zeros(pad), self.tx, np.zeros(pad)])
        f = np.fft.fftfreq(len(x))
        for d in (12.37, 12.5, 12.81):
            out = self.echo(d / rate)
            ref = np.fft.ifft(np.fft.fft(x) * np.exp(-2j * np.pi * f * d))
            start = round(d)
            assert np.all(out[:start] == 0)
            err = np.abs(out[start:] - ref[pad + start : pad + len(out)])
            assert err.max() < 1e-3

    def test_echoes_add_into_the_buffer(self):
        # two calls into one buffer equal the sum of two calls into separate ones
        n = len(self.tx) + 40
        args = [(self.frame, SPEC, W, 12.37 / self.rate, 8e3, 0.3 - 0.4j),
                (self.frame[::-1], SPEC, W, 40 / self.rate, -5e3, 1.0)]
        both = np.zeros(n, dtype=complex)
        parts = np.zeros((2, n), dtype=complex)
        for a, part in zip(args, parts):
            apply_delay_doppler(both, *a)
            apply_delay_doppler(part, *a)
        assert np.array_equal(both, parts[0] + parts[1])

    def test_overrunning_echo_rejected(self):
        delay = 12.37 / self.rate
        out = np.zeros(len(self.tx) + 11, dtype=complex)
        with pytest.raises(ValueError, match="runs past"):
            apply_delay_doppler(out, self.frame, SPEC, W, delay, 0.0)
        assert not out.any()
        apply_delay_doppler(np.zeros(len(out) + 1, dtype=complex), self.frame, SPEC, W,
                            delay, 0.0)

    def test_real_symbols_match_complex_shaping(self):
        # reference: one complex convolution of the zero-stuffed symbols
        from scipy.signal import fftconvolve

        q = SPEC.oversample
        taps = rrc_taps(SPEC)
        quad = np.roll(self.frame, 5)
        for s in (self.frame, self.frame + 1j * quad):
            up = np.zeros(len(s) * q, dtype=complex)
            up[::q] = s
            ref = fftconvolve(up, taps.astype(complex))
            out = pulse_shape(s, SPEC, W)
            assert np.abs(out - ref).max() < 1e-12

    @pytest.mark.parametrize("delay_symbols", [0.0, 0.3, 587.4])
    @pytest.mark.parametrize("complex_symbols", [False, True])
    def test_polyphase_matches_zero_stuffed_convolution(self, delay_symbols,
                                                        complex_symbols):
        q = SPEC.oversample
        s = self.frame[:640] + (1j * np.roll(self.frame[:640], 3) if complex_symbols else 0)
        dly = delay_symbols * q
        taps = rrc_taps(SPEC, frac_shift=(dly - round(dly)) / q)
        up = np.zeros(len(s) * q, dtype=s.dtype)
        up[::q] = s
        ref = np.convolve(up, taps)
        out = pulse_shape(s, SPEC, W, delay=delay_symbols * TS)
        assert len(out) == len(ref)
        assert np.abs(out - ref).max() < 1e-12
        # the same echo, added into a buffer on the clock, starts round(dly) samples in
        echo = np.zeros(round(dly) + len(out), dtype=complex)
        apply_delay_doppler(echo, s, SPEC, W, delay_symbols * TS, 0.0)
        assert np.all(echo[: round(dly)] == 0)
        assert np.abs(echo[round(dly) :] - ref).max() < 1e-12

    def test_doppler_ramp_matches_direct_exponential(self):
        # near the band edge the ramp turns by almost pi per sample
        nu, g = -0.49 * self.rate, 0.3 - 0.4j
        s = self.frame[:64]
        x = pulse_shape(s, SPEC, W, delay=3.7 * TS)
        shift = round(3.7 * SPEC.oversample)
        out = np.zeros(shift + len(x), dtype=complex)
        apply_delay_doppler(out, s, SPEC, W, 3.7 * TS, nu, g)
        ref = g * x * np.exp(2j * np.pi * nu * (_times(x) + shift / self.rate))
        assert np.all(out[:shift] == 0)
        assert np.abs(out[shift:] - ref).max() < 1e-12

    def test_gain_applied(self):
        g = 0.3 - 0.4j
        out = self.echo(0.0, gain=g)
        assert np.allclose(out, g * self.tx)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            self.echo(-1e-9)

    def test_excess_doppler_rejected(self):
        with pytest.raises(ValueError):
            self.echo(0.0, self.rate)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_inputs_rejected(self, bad):
        # what a stream could be made of is refused where it enters, so no
        # shaped stream or echo holds a non-finite sample
        frame = self.frame.copy()
        frame[100] = bad
        out = np.zeros(len(self.tx) + 64, dtype=complex)
        with pytest.raises(ValueError, match="symbols"):
            pulse_shape(frame, SPEC, W)
        with pytest.raises(ValueError, match="symbols"):
            apply_delay_doppler(out, frame, SPEC, W, 0.0, 0.0)
        with pytest.raises(ValueError, match="doppler"):
            apply_delay_doppler(out, self.frame, SPEC, W, 0.0, bad)
        with pytest.raises(ValueError, match="gain"):
            apply_delay_doppler(out, self.frame, SPEC, W, 0.0, 0.0, bad)
        with pytest.raises(ValueError, match="delay"):
            apply_delay_doppler(out, self.frame, SPEC, W, bad, 0.0)
        assert not out.any()
