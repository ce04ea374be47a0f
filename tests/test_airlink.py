import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.signal import fftconvolve

from wlanradar.airlink import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    BeamPair,
    LinkBudget,
    Target,
    _add_noise,
    beam_coupling,
    dft_codebook,
    link_budget_sweep,
    radar_coupling,
    radar_path_gain,
    rician_snr_draws,
    select_beams,
    synthesize_radar_rx,
    synthesize_radar_rx_symbol_rate,
    upa_steering,
)
from wlanradar.dsp import RrcSpec, apply_delay_doppler, pulse_shape, rc_pulse, rrc_taps
from wlanradar.frame import (
    DEFAULT_PREAMBLE,
    PREAMBLE_LEN,
    FrameLayout,
    assemble_cpi,
    assemble_frame,
)

W = 1.76e9
TS = 1 / W
CFG = ArrayConfig()  # 8x2, lambda @60 GHz
RRC = RrcSpec()
RRC16 = RrcSpec(span=16)


def _windows_of(x):
    """The synthesizer's symbol source for a plain stream: rows of x, zero outside it."""
    def windows(starts, length):
        out = np.zeros((len(starts), length))
        for row, lo in zip(out, starts):
            a, b = max(lo, 0), min(lo + length, len(x))
            if b > a:
                row[a - lo : b - lo] = x[a:b]
        return out
    return windows


def _whole(symbols, targets, spec):
    """The oversampled synthesizer's window that holds the whole stream: from
    the clock's origin to the end of the latest echo, or of the undelayed
    shaped stream without targets."""
    q = spec.oversample
    shifts = [int(np.round(t.delay() * W * q)) for t in targets]
    return dict(start=0, length=max(shifts, default=0) + (len(symbols) + spec.span) * q)


def _outer_product_reference(windows, targets, sigma_cn2, beams, seed, starts, length,
                             span=16, rolloff=0.25):
    """The symbol-rate synthesizer written with whole-matrix echoes and noise."""
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0, 2 * np.pi, size=len(targets))
    starts = np.asarray(starts)
    out = np.zeros((len(starts), length), dtype=complex)
    half = span // 2
    for t, phase in zip(targets, phases):
        d = t.delay() / TS
        k0 = int(np.floor(d)) - half
        kernel = rc_pulse(np.arange(-half, half + 1) - (d - (k0 + half)), rolloff)
        w = 2j * np.pi * t.doppler(CFG.wavelength) * TS
        ramp = np.outer(radar_coupling(t, CFG, beams, phase) * np.exp(w * starts),
                        np.exp(w * np.arange(length)))
        for row, x_row in zip(ramp, windows(starts - k0 - span, length + span)):
            row *= np.convolve(x_row, kernel, "valid")
        out += ramp
    noise = rng.standard_normal((2, len(starts), length)) * np.sqrt(sigma_cn2 / 2)
    out.real += noise[0]
    out.imag += noise[1]
    return out


def _whole_echo_reference(symbols, spec, targets, sigma_cn2, beams, seed):
    """The oversampled synthesizer written with whole-stream echoes: each
    target's shaped stream times its outer-product Doppler ramp, added at its
    offset into a zeroed buffer, then the noise."""
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0, 2 * np.pi, size=len(targets))
    q = spec.oversample
    rate = W * q
    shifts = [int(np.round(t.delay() * rate)) for t in targets]
    out = np.zeros(max(shifts) + (len(symbols) + spec.span) * q, dtype=complex)
    for t, phase, shift in zip(targets, phases, shifts):
        h_p = np.exp(1j * phase) if beams is None else radar_coupling(t, CFG, beams, phase)
        x = pulse_shape(symbols, spec, W, delay=t.delay())
        t0 = (shift - spec.span * q // 2) / rate   # the time of the echo's first sample
        w = 2j * np.pi * t.doppler(CFG.wavelength) / rate
        rows = h_p * np.exp(w * (t0 * rate + q * np.arange(len(x) // q)))
        echo = x * np.outer(rows, np.exp(w * np.arange(q))).ravel()
        out[shift : shift + len(echo)] += echo
    _add_noise(out, sigma_cn2, rng)
    return out


def _full_length(x, targets, span):
    """The one window that holds every echo of the stream x."""
    return len(x) + int(np.ceil(max(t.delay() / TS for t in targets))) + span


class TestSteering:
    def test_broadside_uniform(self):
        a = upa_steering(90.0, 90.0, CFG)
        assert np.allclose(a, 0.25)

    def test_unit_norm_random_angles(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            az, el = rng.uniform(0, 180, 2)
            a = upa_steering(az, el, CFG)
            assert abs(np.linalg.norm(a) - 1.0) < 1e-12

    def test_conjugate_at_mirror_angles(self):
        a = upa_steering(70.0, 80.0, CFG)
        mirrored = upa_steering(110.0, 100.0, CFG)
        assert np.allclose(np.conj(a), mirrored)


class TestBeams:
    def test_grid_direction_full_gain(self):
        # broadside lies on the DFT grid: coupling = sqrt(Ntx Nrx) exactly
        beams = select_beams(CFG, 90.0, 90.0)
        c = beam_coupling(90.0, 90.0, CFG, beams, radar=False)
        ideal = CFG.n_elements
        assert 20 * np.log10(abs(c) / ideal) > -0.1

    def test_offgrid_beamshape_loss_nonnegative(self):
        beams = select_beams(CFG, 90.0, 90.0)
        on = abs(beam_coupling(90.0, 90.0, CFG, beams, radar=False))
        for az in (93.0, 97.0, 104.0):
            off = abs(beam_coupling(az, 90.0, CFG, beams, radar=False))
            assert off <= on + 1e-9

    def test_radar_beam_is_conjugate_path(self):
        # monostatic radar coupling magnitude matches the comm-side coupling
        beams = select_beams(CFG, 75.0, 85.0)
        c_com = beam_coupling(75.0, 85.0, CFG, beams, radar=False)
        c_rad = beam_coupling(75.0, 85.0, CFG, beams, radar=True)
        assert abs(abs(c_rad) - abs(c_com)) < 1e-9

    def test_codebook_rows_unit_norm(self):
        book = dft_codebook(CFG)
        assert np.allclose(np.linalg.norm(book, axis=1), 1.0)

    @pytest.mark.parametrize("n_h, n_v", [(1, 1), (3, 2), (8, 2), (5, 3), (8, 1)])
    def test_codebook_equals_kron_loop(self, n_h, n_v):
        # the broadcast product gives the bytes of one kron per codeword
        cfg = ArrayConfig(n_horizontal=n_h, n_vertical=n_v)
        size_h, size_v = 2 * n_h, 2 * n_v
        m, n = np.arange(n_h), np.arange(n_v)
        words = []
        for i in range(size_h):
            wh = np.exp(2j * np.pi * m * (i / size_h - 0.5))
            for j in range(size_v):
                wv = np.exp(2j * np.pi * n * (j / size_v - 0.5))
                words.append(np.kron(wh, wv) / np.sqrt(cfg.n_elements))
        book = dft_codebook(cfg)
        assert book.shape == (size_h * size_v, n_h * n_v)
        assert book.tobytes() == np.array(words).tobytes()


class TestGains:
    def test_radar_path_gain_formula(self):
        lam = 0.005
        t = Target(range_m=50.0, rcs_dbsm=10.0)
        expected = lam**2 * 10 / (64 * np.pi**3 * 50.0**4)
        assert radar_path_gain(t, lam) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(2.0e-14, rel=0.01)

    def test_double_range_sixteenth_gain(self):
        lam = CFG.wavelength
        g1 = radar_path_gain(Target(range_m=50.0), lam)
        g2 = radar_path_gain(Target(range_m=100.0), lam)
        assert g1 / g2 == pytest.approx(16.0, rel=1e-12)

    def test_rcs_3db_linearity(self):
        lam = CFG.wavelength
        g1 = radar_path_gain(Target(range_m=50.0, rcs_dbsm=10.0), lam)
        g2 = radar_path_gain(Target(range_m=50.0, rcs_dbsm=13.0), lam)
        assert 10 * np.log10(g2 / g1) == pytest.approx(3.0, abs=1e-9)

    def test_target_derived_quantities(self):
        t = Target(range_m=50.0, velocity_mps=20.0)
        assert t.delay() == pytest.approx(2 * 50 / SPEED_OF_LIGHT, rel=1e-12)
        assert t.doppler(0.005) == pytest.approx(8000.0, rel=1e-12)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            Target(range_m=0.0)

    @pytest.mark.parametrize("field", ["range_m", "velocity_mps", "rcs_dbsm",
                                       "azimuth_deg", "elevation_deg"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_target_rejected(self, field, bad):
        # a NaN velocity would otherwise ride the Doppler ramp into the stream
        with pytest.raises(ValueError, match="finite"):
            Target(**{"range_m": 50.0, field: bad})

    @pytest.mark.parametrize("kwargs", [dict(spacing=np.nan), dict(spacing=0.0),
                                        dict(wavelength=np.inf), dict(wavelength=np.nan)])
    def test_bad_array_rejected(self, kwargs):
        with pytest.raises(ValueError, match="spacing and wavelength"):
            ArrayConfig(**kwargs)


class TestCommChannel:
    def test_los_limit_deterministic(self):
        # K -> infinity: the beam-aligned fade is the LOS term alone
        for i in range(4):
            snr = rician_snr_draws(7.0, 300.0, CFG, 5, np.random.default_rng(i))
            assert np.allclose(snr, 7.0, rtol=1e-12)

    def test_rician_frobenius_normalization(self):
        # the fade is normalized by E|h|^2 = K/(K+1) N^2 + 1/(K+1): the draws
        # average to the mean SNR within 3% over 1e4 draws at K = 0 dB
        snr = rician_snr_draws(2.0, 0.0, CFG, 10_000, np.random.default_rng(7))
        assert np.mean(snr) == pytest.approx(2.0, rel=0.03)
        assert np.all(snr >= 0)

    def test_draw_order(self):
        # uniform(m) for the LOS phase, then the real and imaginary diffuse parts
        m, k_lin, n = 6, 10.0, CFG.n_elements
        rng = np.random.default_rng(3)
        phi, re, im = rng.uniform(size=m), rng.standard_normal(m), rng.standard_normal(m)
        h = (np.sqrt(k_lin / (k_lin + 1)) * n * np.exp(2j * np.pi * phi)
             + np.sqrt(1 / (k_lin + 1)) * (re + 1j * im) / np.sqrt(2))
        expected = 5.0 * np.abs(h) ** 2 / (k_lin / (k_lin + 1) * n**2 + 1 / (k_lin + 1))
        got = rician_snr_draws(5.0, 10.0, CFG, m, np.random.default_rng(3))
        assert np.array_equal(got, expected)


def _matched_symbols(rx, spec):
    """The RX matched filter sampled at the symbol instants: the oversampled
    chain's symbol-rate output on the clock."""
    return fftconvolve(rx, rrc_taps(spec))[spec.span * spec.oversample :: spec.oversample]


def _oversampled_echo(symbols, target, beams, rng):
    """The oversampled chain's noiseless symbol-rate matched output."""
    rx = synthesize_radar_rx(symbols, RRC, W, [target], 0.0, CFG, beams, rng,
                             **_whole(symbols, [target], RRC))
    return _matched_symbols(rx, RRC)


def _symbol_rate_echo(symbols, target, beams, rng):
    return synthesize_radar_rx_symbol_rate(
        _windows_of(symbols), RRC, W, [target], 0.0, CFG, beams, rng,
        starts=[0], length=_full_length(symbols, [target], RRC.span))[0]


class TestSynthesis:
    @pytest.mark.parametrize("synth", [_oversampled_echo, _symbol_rate_echo])
    @pytest.mark.parametrize("steered", [False, True])
    def test_echo_gain_rule(self, synth, steered):
        # one impulse, one static target 100 symbols out: the echo peak is
        # the gain h_p, beta_p alone without beams, the radar coupling with them
        t = Target(range_m=100 * TS * SPEED_OF_LIGHT / 2, azimuth_deg=95.0)
        beams = select_beams(CFG, 90.0, 90.0) if steered else None
        symbols = np.zeros(64)
        symbols[0] = 1.0
        y = synth(symbols, t, beams, np.random.default_rng(11))
        phase = np.random.default_rng(11).uniform(0, 2 * np.pi)
        h_p = radar_coupling(t, CFG, beams, phase) if steered else np.exp(1j * phase)
        assert np.argmax(np.abs(y)) == 100
        assert abs(y[100]) == pytest.approx(abs(h_p) if steered else 1.0, rel=1e-6)
        assert y[100] == pytest.approx(h_p, rel=1e-6)

    def test_noise_only_variance(self):
        frame = assemble_frame(FrameLayout(k=12800), seed=0)
        spec = RrcSpec(span=16, oversample=8)
        rx = synthesize_radar_rx(frame, spec, W, [], 1.0, CFG, None,
                                 np.random.default_rng(1), **_whole(frame, [], spec))
        assert len(rx) >= 100_000
        assert np.mean(np.abs(rx) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_noise_circularity(self):
        frame = assemble_frame(FrameLayout(k=3328, header_len=0), seed=0)
        spec = RrcSpec(span=16, oversample=4)
        rx = synthesize_radar_rx(frame, spec, W, [], 1.0, CFG, None,
                                 np.random.default_rng(2), **_whole(frame, [], spec))
        re, im = rx.real, rx.imag
        assert np.var(re) == pytest.approx(np.var(im), rel=0.02)
        cross = np.mean(re * im) / np.sqrt(np.var(re) * np.var(im))
        assert abs(cross) < 0.02

    def test_single_target_echo_delay_and_doppler(self):
        # 50 m -> 587 samples at 1.76 GS/s; 20 m/s -> ~8 kHz at 60 GHz
        t = Target(range_m=50.0, velocity_mps=20.0)
        assert round(t.delay() / TS) == 587
        assert t.doppler(CFG.wavelength) == pytest.approx(8005.5, abs=1.0)

        frame = assemble_frame(FrameLayout(k=4352, header_len=0), seed=3)
        rx = synthesize_radar_rx(frame, RRC, W, [t], 0.0, CFG, None, np.random.default_rng(4),
                                 **_whole(frame, [t], RRC))
        sym = _matched_symbols(rx, RRC)
        c = np.correlate(sym[:4500], DEFAULT_PREAMBLE.symbols.astype(complex), mode="valid")
        assert np.argmax(np.abs(c)) == 587

    def test_echo_energy_tracks_path_gain(self):
        # log-log slope of echo energy vs G_p = 1 over three decades of range
        beams = select_beams(CFG, 90.0, 90.0)
        frame = assemble_frame(FrameLayout(k=3328, header_len=0), seed=5)
        spec = RrcSpec(span=16, oversample=2)
        energies, gains = [], []
        for rho in (3.0, 9.5, 30.0, 95.0, 300.0):
            t = Target(range_m=rho, velocity_mps=0.0)
            rx = synthesize_radar_rx(frame, spec, W, [t], 0.0, CFG, beams,
                                     np.random.default_rng(6), **_whole(frame, [t], spec))
            energies.append(np.sum(np.abs(rx) ** 2))
            gains.append(radar_path_gain(t, CFG.wavelength))
        slope = np.polyfit(np.log10(gains), np.log10(energies), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.01)

    def test_preamble_phase_rotation_across_frames(self):
        # noiseless 2-frame CPI: preamble-to-preamble phase = 2 pi nu K Ts
        k = 3328
        cpi = assemble_cpi(2, FrameLayout(k=k, header_len=0), [0], 2 * k, 7)[0]
        t = Target(range_m=2.0, velocity_mps=20.0)
        spec = RrcSpec(span=16, oversample=4)
        rx = synthesize_radar_rx(cpi, spec, W, [t], 0.0, CFG, None, np.random.default_rng(8),
                                 **_whole(cpi, [t], spec))
        sym = _matched_symbols(rx, spec)
        d = round(t.delay() / TS)
        p0 = sym[d : d + k]
        p1 = sym[d + k : d + 2 * k]
        measured = np.angle(np.sum(p1 * np.conj(p0)))
        expected = 2 * np.pi * t.doppler(CFG.wavelength) * k * TS
        wrapped = (expected + np.pi) % (2 * np.pi) - np.pi
        assert abs(measured - wrapped) < 1e-6

    def test_half_sample_delay_keeps_length_and_placement(self):
        # a delay 100.7 samples long: the stream runs round(100.7) samples past
        # the undelayed shaped length, and the echo sits where a band-limited
        # shift of the undelayed stream puts it
        spec = RrcSpec(oversample=4)
        rate = W * spec.oversample
        d = 100.7
        t = Target(range_m=d / rate * SPEED_OF_LIGHT / 2, velocity_mps=25.0)
        frame = assemble_frame(FrameLayout(k=3328, header_len=0), seed=12)
        rx = synthesize_radar_rx(frame, spec, W, [t], 0.0, CFG, None, np.random.default_rng(13),
                                 **_whole(frame, [t], spec))
        n_tx = len(frame) * spec.oversample + spec.span * spec.oversample
        assert len(rx) == n_tx + 101

        tx = pulse_shape(frame, spec, W)
        pad = 256
        x = np.concatenate([np.zeros(pad), tx, np.zeros(pad)])
        f = np.fft.fftfreq(len(x))
        shifted = np.fft.ifft(np.fft.fft(x) * np.exp(-2j * np.pi * f * (d - 101)))[pad:-pad]
        gain = np.exp(1j * np.random.default_rng(13).uniform(0, 2 * np.pi, size=1)[0])
        ref = np.concatenate([np.zeros(101), shifted])
        # rx is on the clock: sample j at (j - span Q / 2) / rate
        times = (np.arange(len(rx)) - spec.span * spec.oversample // 2) / rate
        ref = gain * ref * np.exp(2j * np.pi * t.doppler(CFG.wavelength) * times)
        assert np.abs(rx - ref).max() < 1e-3

    @pytest.mark.parametrize("complex_symbols", [False, True])
    @pytest.mark.parametrize("steered", [False, True])
    @pytest.mark.parametrize("sigma_cn2", [0.0, 0.2])
    def test_one_buffer_equals_whole_echo_reference(self, complex_symbols, steered,
                                                    sigma_cn2):
        # two targets 100.3 and 37.8 samples out, closing and receding: the
        # echoes shaped straight into the one buffer keep every byte
        spec = RrcSpec(span=16)
        rate = W * spec.oversample
        targets = [Target(range_m=100.3 / rate * SPEED_OF_LIGHT / 2, velocity_mps=30.0),
                   Target(range_m=37.8 / rate * SPEED_OF_LIGHT / 2, velocity_mps=-45.0,
                          azimuth_deg=100.0)]
        frame = assemble_frame(FrameLayout(k=3328, header_len=0), seed=14)
        symbols = frame + 1j * np.roll(frame, 7) if complex_symbols else frame
        beams = select_beams(CFG, 90.0, 90.0) if steered else None
        rx = synthesize_radar_rx(symbols, spec, W, targets, sigma_cn2, CFG, beams,
                                 np.random.default_rng(15), **_whole(symbols, targets, spec))
        ref = _whole_echo_reference(symbols, spec, targets, sigma_cn2, beams, 15)
        assert np.array_equal(rx, ref)

    def test_oversampled_peak_memory(self):
        # a detection trial's call, the read of 49 lags of the 27 008-sample
        # shaped preamble: besides the window it returns, only its buffer's
        # echo ends, one real noise buffer and per-phase pieces are alive at
        # once (1.54x; 1.53x for a whole-stream window)
        t = Target(range_m=50.0, velocity_mps=20.0)
        frame = assemble_frame(FrameLayout(k=3840, header_len=0), seed=16)
        lag0 = int(np.round(t.delay() * W * RRC.oversample))
        n_ref = (PREAMBLE_LEN + RRC.span) * RRC.oversample
        tracemalloc.start()
        try:
            rx = synthesize_radar_rx(frame, RRC, W, [t], 0.1, CFG, None,
                                     np.random.default_rng(17), start=lag0 - 24,
                                     length=49 + n_ref - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * rx.nbytes

    def test_oversampled_windows_are_whole_stream_slices(self):
        # noise off, two targets: each read window is the slice of the window
        # that holds the whole stream, also where it starts below 0 or runs
        # past the echoes, where the stream is zero; with noise off a call
        # draws the phases alone, and with noise on the phases and then
        # exactly `length` complex noise samples
        targets = [Target(range_m=12.71, velocity_mps=33.0),
                   Target(range_m=30.2, velocity_mps=-12.0, azimuth_deg=100.0)]
        frame = assemble_frame(FrameLayout(k=PREAMBLE_LEN + 200, header_len=0), seed=9)
        beams = select_beams(CFG, 90.0, 90.0)
        args = (frame, RRC16, W, targets, 0.0, CFG, beams)
        whole = _whole(frame, targets, RRC16)
        full = synthesize_radar_rx(*args, np.random.default_rng(4), **whole)
        pad, length = 1000, 3000
        padded = np.concatenate([np.zeros(pad), full, np.zeros(2 * length)])
        peak = np.abs(full).max()
        starts = (-700, 9000, whole["length"] - 400, whole["length"] + 50)
        for start in starts:
            rng = np.random.default_rng(4)
            rx = synthesize_radar_rx(*args, rng, start=start, length=length)
            want = padded[pad + start : pad + start + length]
            assert rx.shape == want.shape
            assert np.abs(rx - want).max() <= 1e-12 * peak
            assert rx.any() == (start != starts[-1])   # the last window reaches no echo
            draws = np.random.default_rng(4)
            draws.uniform(size=len(targets))
            assert rng.bit_generator.state == draws.bit_generator.state
            noisy = np.random.default_rng(4)
            synthesize_radar_rx(frame, RRC16, W, targets, 1e-2, CFG, beams, noisy,
                                start=start, length=length)
            draws.standard_normal(2 * length)
            assert noisy.bit_generator.state == draws.bit_generator.state

    def test_symbol_rate_path_matches_oversampled_chain(self):
        t = Target(range_m=12.71, velocity_mps=33.0)
        frame = assemble_frame(FrameLayout(k=4352, header_len=0), seed=9)
        rx = synthesize_radar_rx(frame, RRC, W, [t], 0.0, CFG, None, np.random.default_rng(10),
                                 **_whole(frame, [t], RRC))
        sym_full = _matched_symbols(rx, RRC)
        sym_fast = synthesize_radar_rx_symbol_rate(
            _windows_of(frame), RRC, W, [t], 0.0, CFG, None, np.random.default_rng(10),
            starts=[0], length=_full_length(frame, [t], RRC.span),
        )[0]
        n = 4000
        err = np.abs(sym_full[:n] - sym_fast[:n])
        assert err.max() < 2e-3

    def test_symbol_rate_windows_are_full_stream_slices(self):
        # noise off, two targets: each read window is a slice of the one
        # window that holds the full stream, also where it starts below 0 or
        # runs past the stream end, and the part past the end holds no echo
        targets = [Target(range_m=12.71, velocity_mps=33.0),
                   Target(range_m=30.2, velocity_mps=-12.0)]
        frame = assemble_frame(FrameLayout(k=4352, header_len=0), seed=9)
        args = (_windows_of(frame), RRC16, W, targets, 0.0, CFG, None)
        full = synthesize_radar_rx_symbol_rate(*args, np.random.default_rng(4), starts=[0],
                                               length=_full_length(frame, targets, 16))[0]
        length = 300
        starts = np.array([-40, 1000, len(full) - 100])
        rows = synthesize_radar_rx_symbol_rate(*args, np.random.default_rng(4),
                                               starts=starts, length=length)
        assert rows.shape == (len(starts), length)
        for row, lo in zip(rows, starts):
            a, b = max(lo, 0), min(lo + length, len(full))
            assert np.abs(row[a - lo : b - lo] - full[a:b]).max() < 1e-12
        assert np.abs(rows[1]).max() > 0.5
        assert np.all(rows[2, 100:] == 0)

    def test_symbol_rate_rows_equal_outer_product_reference(self):
        # two targets with beam couplings, one of them off boresight: the
        # row-by-row echoes and the two-pass noise keep every byte
        targets = [Target(range_m=14.32, velocity_mps=30.0, azimuth_deg=90.0),
                   Target(range_m=10.06, velocity_mps=60.0, azimuth_deg=100.0)]
        beams = select_beams(CFG, 90.0, 90.0)
        k = 4352
        windows = partial(assemble_cpi, 3, FrameLayout(k=k), seed=8)
        starts = 2048 + np.arange(3) * k
        rows = synthesize_radar_rx_symbol_rate(windows, RRC16, W, targets, 0.1, CFG, beams,
                                               np.random.default_rng(9), starts=starts,
                                               length=1535)
        ref = _outer_product_reference(windows, targets, 0.1, beams, 9, starts, 1535)
        assert np.array_equal(rows, ref)

    def test_symbol_rate_noise_draw_order(self):
        # every real part row-major, then every imaginary part
        sigma_cn2, shape = 0.5, (4, 300)
        rows = synthesize_radar_rx_symbol_rate(_windows_of(np.ones(64)), RRC, W, [], sigma_cn2,
                                               CFG, None, np.random.default_rng(6),
                                               starts=np.arange(4) * 400, length=shape[1])
        n = np.random.default_rng(6).standard_normal((2, *shape))
        assert np.array_equal(rows, np.sqrt(sigma_cn2 / 2) * (n[0] + 1j * n[1]))

    def test_symbol_rate_peak_memory(self):
        # the velocity trial's call (M = 10, K = 12 800): besides the rows it
        # returns, only the symbols or one real noise buffer are alive at once
        # (1.87x; 2.22x when the symbols outlive the echoes, 2.77x with a
        # whole-matrix Doppler ramp)
        k, lo, length = 12800, 555, 32 + 33 + 3328 - 1
        windows = partial(assemble_cpi, 10, FrameLayout(k=k), seed=3)
        tracemalloc.start()
        try:
            rows = synthesize_radar_rx_symbol_rate(
                windows, RRC16, W, [Target(range_m=50.0, velocity_mps=20.0)], 0.1, CFG, None,
                np.random.default_rng(4), starts=lo + np.arange(10) * k, length=length)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * rows.nbytes

    def test_symbol_rate_windows_carry_the_noise_power(self):
        # noise 0.3 plus white clutter 0.2
        rows = synthesize_radar_rx_symbol_rate(_windows_of(np.ones(64)), RRC, W, [], 0.5, CFG,
                                               None, np.random.default_rng(5),
                                               starts=np.arange(8) * 5000, length=2000)
        assert np.mean(np.abs(rows) ** 2) == pytest.approx(0.5, rel=0.05)

    def test_symbol_rate_overlapping_windows_rejected(self):
        with pytest.raises(ValueError):
            synthesize_radar_rx_symbol_rate(_windows_of(np.ones(64)), RRC, W, [], 1.0, CFG,
                                            None, np.random.default_rng(0), starts=[0, 10],
                                            length=20)

    @pytest.mark.parametrize("repeated, starts, targets, beams", [
        ((40, 240), [250, 1100, 1950], [Target(range_m=12.3, velocity_mps=-90.0)], False),
        ((100, 110), [250, 1100, 1950], [Target(range_m=12.3, velocity_mps=-90.0)], False),
        ((-200, 600), [250, 1100, 1950], [Target(range_m=12.3, velocity_mps=-90.0)], False),
        ((40, 240), [250, 1100, 1950],
         [Target(range_m=14.32, velocity_mps=30.0, azimuth_deg=90.0),
          Target(range_m=10.06, velocity_mps=60.0, azimuth_deg=100.0)], True),
        ((130, 330), [-120, 730, 1580], [Target(range_m=2.0, velocity_mps=20.0)], False),
    ], ids=["wide", "under-the-span", "every-column", "two-targets-beams", "below-0"])
    def test_repeated_symbols_equal_the_unrepeated_call(self, repeated, starts, targets,
                                                         beams):
        # symbols a..b-1 of every window are the same: convolving the columns
        # that read only them once, from window 0, gives the rows of the same
        # call without `repeated`, from the same draws; a run shorter than the
        # kernel leaves no such column, and a long one leaves no other
        stream = assemble_frame(FrameLayout(k=PREAMBLE_LEN + 200, header_len=0), 3)
        starts, length = np.array(starts), 400
        a, b = repeated
        block = stream[starts[0] + a : starts[0] + b].copy()
        for lo in starts[1:]:
            stream[lo + a : lo + b] = block
        pair = select_beams(CFG, 90.0, 90.0) if beams else None
        rng, want_rng = np.random.default_rng(6), np.random.default_rng(6)
        args = (_windows_of(stream), RRC16, W, targets, 1e-4, CFG, pair)
        got = synthesize_radar_rx_symbol_rate(*args, rng, starts=starts, length=length,
                                              repeated=repeated)
        want = synthesize_radar_rx_symbol_rate(*args, want_rng, starts=starts, length=length)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert rng.bit_generator.state == want_rng.bit_generator.state
        if len(targets) == 1:
            # the columns at either end of a row are the unrepeated call's, bit for bit
            k0 = int(np.floor(targets[0].delay() / TS)) - RRC16.span // 2
            ends = np.ones(length, dtype=bool)
            ends[max(a + k0 + RRC16.span, 0) : max(b + k0, 0)] = False
            assert np.array_equal(got[:, ends], want[:, ends])

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            synthesize_radar_rx(np.ones(64), RRC, W, [Target(range_m=3.0)], 1.0, CFG, None,
                                np.random.default_rng(0), start=0, length=0)

    def test_negative_power_rejected(self):
        frame = np.ones(64)
        for sigma_cn2 in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma_cn2"):
                synthesize_radar_rx(frame, RRC, W, [], sigma_cn2, CFG, None,
                                    np.random.default_rng(0), start=0, length=20)
            with pytest.raises(ValueError, match="sigma_cn2"):
                synthesize_radar_rx_symbol_rate(_windows_of(frame), RRC, W, [], sigma_cn2, CFG,
                                                None, np.random.default_rng(0), starts=[0],
                                                length=20)


class TestLinkBudget:
    def test_comm_slope_follows_pl_exponent(self):
        for pl in (2.0, 2.5):
            lb = LinkBudget(pl_exponent=pl)
            rows = link_budget_sweep(lb, [50.0, 100.0], CFG, W)
            drop = rows[0][0] - rows[1][0]
            assert drop == pytest.approx(10 * pl * np.log10(2), abs=1e-9)

    def test_radar_slope_40db_per_decade(self):
        rows = link_budget_sweep(LinkBudget(), [20.0, 200.0], CFG, W)
        assert rows[0][1] - rows[1][1] == pytest.approx(40.0, abs=1e-9)

    def test_comm_above_radar_everywhere(self):
        rows = link_budget_sweep(LinkBudget(), np.linspace(5, 250, 30), CFG, W)
        for zc, zr in rows:
            assert zc > zr

    def test_eirp_cap(self):
        with pytest.raises(ValueError):
            LinkBudget(eirp_dbm=50.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["eirp_dbm", "noise_figure_db", "pl_exponent",
                                       "rician_k_db"])
    def test_nonfinite_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LinkBudget(**{field: value})

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            link_budget_sweep(LinkBudget(), [0.0], CFG, W)
