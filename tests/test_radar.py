import itertools

import numpy as np
import pytest

from wlanradar.airlink import SPEED_OF_LIGHT, Target, synthesize_radar_rx
from wlanradar.bench import Scenario, _mainlobe_widths
from wlanradar.dsp import pulse_shape
from wlanradar.frame import DEFAULT_PREAMBLE, FrameLayout, assemble_frame
from wlanradar.radar import (
    DelayDopplerMap,
    MapDetection,
    PreambleTemplate,
    build_delay_doppler_map,
    cfar_threshold,
    crlb_range,
    crlb_velocity,
    detect_targets_map,
    detection_probability,
    estimate_range,
    estimate_velocity_moose,
    matched_preamble_statistic,
    moose_ambiguity_limit,
    resolutions,
)

W = 1.76e9
TS = 1 / W
LAM60 = SPEED_OF_LIGHT / 60e9


class TestCfar:
    def test_pfa_one_gives_zero_threshold(self):
        assert cfar_threshold(1.0, 1.0) == 0.0

    def test_known_value(self):
        assert cfar_threshold(1.0, 1e-6) == pytest.approx(13.8155, abs=1e-3)

    def test_scales_with_noise_var(self):
        assert cfar_threshold(2.0, 1e-2) == pytest.approx(2 * cfar_threshold(1.0, 1e-2))

    @pytest.mark.parametrize("bad_pfa", [0.0, -0.1, 1.5])
    def test_bad_pfa(self, bad_pfa):
        with pytest.raises(ValueError):
            cfar_threshold(1.0, bad_pfa)

    def test_bad_noise_var(self):
        for noise_var in (0.0, -1.0, np.nan):   # NaN fails too
            with pytest.raises(ValueError, match="noise variance"):
                cfar_threshold(noise_var, 0.5)

    def test_false_alarm_calibration_quick(self):
        rng = np.random.default_rng(0)
        n = 100_000
        pfa = 1e-2
        noise_var = 3.7
        stats = noise_var / 2 * (rng.standard_normal(n) ** 2 + rng.standard_normal(n) ** 2)
        chi = cfar_threshold(noise_var, pfa)
        rate = np.mean(stats > chi)
        sigma = np.sqrt(pfa * (1 - pfa) / n)
        assert abs(rate - pfa) < 3 * sigma


def _lag_loop_statistic(rx, template, lags):
    """Brute-force reference: one np.vdot per admissible lag, first maximum wins."""
    t = np.asarray(template, dtype=complex)
    energy = np.real(np.vdot(t, t))
    y = rx
    best_val, best_lag = -1.0, int(lags[0])
    for lag in lags:
        if lag < 0 or lag + len(t) > len(y):
            continue
        v = np.abs(np.vdot(t, y[lag : lag + len(t)])) ** 2 / energy
        if v > best_val:
            best_val, best_lag = v, int(lag)
    if best_val < 0:
        raise ValueError("no admissible lag inside the stream")
    return float(best_val), best_lag


def _single_block(t) -> PreambleTemplate:
    """The template t as one block of itself."""
    t = np.asarray(t, dtype=complex)
    return PreambleTemplate(t[None], np.ones((1, 1)), 1, float(np.real(np.vdot(t, t))))


def _unfolded(template: PreambleTemplate) -> np.ndarray:
    """The whole template: each block's weighted references added at its stride."""
    t = np.zeros(template.length, dtype=complex)
    for i, w in enumerate(template.blocks.T):
        t[i * template.stride : i * template.stride + template.refs.shape[1]] += w @ template.refs
    return t


def _shaped_template(scen) -> tuple[PreambleTemplate, np.ndarray]:
    """The detection bench's block-form template, and the whole shaped preamble."""
    template = PreambleTemplate.of(DEFAULT_PREAMBLE, scen.rrc, W)
    return template, pulse_shape(DEFAULT_PREAMBLE.symbols, scen.rrc, W)


def _detection_read(target, seed):
    """A detection trial's read at -22 dB SCNR: +-3 symbols of lags around
    the expected echo, searched from lag 0, and its template."""
    scen = Scenario(targets=(target,))
    template, whole = _shaped_template(scen)
    layout = FrameLayout(k=scen.detection_frame_k, header_len=0)
    w = scen.detection_window_symbols * scen.oversample
    lag0 = int(np.round(target.delay() * W * scen.oversample))
    rng = np.random.default_rng([7, 0, seed])
    rx = synthesize_radar_rx(assemble_frame(layout, rng), scen.rrc, W, [target],
                             10 ** 2.2, scen.array, None, rng, start=lag0 - w,
                             length=2 * w + len(whole))
    return rx, template, whole, (0, 2 * w + 1)


DETECTION_TARGETS = [
    Scenario().targets[0],
    Target(range_m=80.0, velocity_mps=-150.0),
    # 1000.37 samples at 8 x 1.76 GHz: the delay's taps are shifted by 0.37
    Target(range_m=1000.37 / (8 * W) * SPEED_OF_LIGHT / 2, velocity_mps=7.0),
]


class TestMatchedPreambleStatistic:
    def test_template_is_the_shaped_preamble(self):
        # shaping is linear: the shaped blocks, added at 128 Q, are the
        # shaped preamble to the rounding
        template, whole = _shaped_template(Scenario())
        assert template.length == len(whole) == 27008
        assert template.refs.shape == (2, 1408) and template.stride == 1024
        assert template.energy == np.sum(whole.real**2 + whole.imag**2)
        assert np.max(np.abs(_unfolded(template) - whole)) <= 1e-12 * np.max(np.abs(whole))

    def test_equals_lag_loop_on_noisy_echoes(self):
        # the fold sums in another order than the lag loop: the same lag, and
        # the statistic to 1e-12 relative
        for target, seed in itertools.product(DETECTION_TARGETS, range(8)):
            rx, template, whole, window = _detection_read(target, seed)
            stat, lag = matched_preamble_statistic(rx, template, window)
            want_stat, want_lag = _lag_loop_statistic(rx, whole, np.arange(*window))
            assert lag == want_lag
            assert stat == pytest.approx(want_stat, rel=1e-12)

    @pytest.mark.parametrize("stride, n_blocks, n", [(7, 5, 9), (5, 4, 5), (3, 1, 40)],
                             ids=["overlapping", "abutting", "one-block"])
    def test_any_block_template_equals_lag_loop(self, stride, n_blocks, n):
        # complex references and 0/+-1 weights, blocks overlapping or abutting
        rng = np.random.default_rng(stride)
        refs = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        blocks = rng.integers(-1, 2, (2, n_blocks)).astype(float)
        whole = _unfolded(PreambleTemplate(refs, blocks, stride, 1.0))
        t = PreambleTemplate(refs, blocks, stride, float(np.real(np.vdot(whole, whole))))
        y = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        for window in ((0, 1), (3, 60), (0, 201 - t.length)):
            stat, lag = matched_preamble_statistic(y, t, window)
            want_stat, want_lag = _lag_loop_statistic(y, whole, np.arange(*window))
            assert lag == want_lag
            assert stat == pytest.approx(want_stat, rel=1e-12)

    def test_window_leaving_the_stream_rejected(self):
        # the template fits at lags 0-260 of the 300 samples; a window is
        # searched whole or refused, never narrowed to the lags that fit
        rng = np.random.default_rng(5)
        y = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        t = rng.standard_normal(40)
        got = matched_preamble_statistic(y, _single_block(t), (0, 261))
        assert got == _lag_loop_statistic(y, t, np.arange(0, 261))
        for window in ((-20, 290), (-1, 5), (0, 262), (250, 290)):
            with pytest.raises(ValueError, match="leaves"):
                matched_preamble_statistic(y, _single_block(t), window)

    def test_first_lag_wins_a_tie(self):
        # lags 0 and 3 both see the full template
        rx = np.array([1, 1, 0, 1, 1], dtype=complex)
        t = np.ones(2)
        assert matched_preamble_statistic(rx, _single_block(t), (0, 4)) == (2.0, 0)
        assert _lag_loop_statistic(rx, t, np.arange(4)) == (2.0, 0)
        assert matched_preamble_statistic(rx, _single_block(t), (1, 4)) == (2.0, 3)

    def test_gapped_blocks_rejected(self):
        # a stride past the references' length leaves samples between blocks
        # that no fold reads, so a non-finite one there could not be seen
        t = PreambleTemplate(np.ones((2, 5)), np.ones((2, 4)), 6, 1.0)
        with pytest.raises(ValueError, match="gaps"):
            matched_preamble_statistic(np.ones(100, dtype=complex), t, (0, 10))

    @pytest.mark.parametrize("window", [(-10, 0), (299, 310), (5, 5)])
    def test_no_admissible_lag_rejected(self, window):
        with pytest.raises(ValueError):
            matched_preamble_statistic(np.ones(300, dtype=complex), _single_block(np.ones(2)),
                                       window)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_sample_in_the_span_rejected(self, bad):
        # a caller's stream is checked where the search reads it
        rx = np.ones(300, dtype=complex)
        rx[280] = bad
        t = _single_block(np.ones(2))
        assert matched_preamble_statistic(rx, t, (0, 200)) == (2.0, 0)
        with pytest.raises(ValueError, match="non-finite"):
            matched_preamble_statistic(rx, t, (0, 290))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_sample_in_any_block_rejected(self, bad):
        # the first, a middle and the last sample each block's fold reads
        rx, template, whole, window = _detection_read(DETECTION_TARGETS[0], 0)
        span = window[1] + template.refs.shape[1] - 1
        for i in range(template.blocks.shape[1]):
            for j in (0, span // 2, span - 1):
                y = rx.copy()
                y[i * template.stride + j] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    matched_preamble_statistic(y, template, window)


class TestMoose:
    def _stacked(self, nu, m, k, p, ts, h=1.0, sigma=0.0, rng=None):
        # synthetic training vector per the stacked-frame model
        out = []
        for mm in range(m):
            n = mm * k + np.arange(p)
            block = h * np.exp(2j * np.pi * nu * n * ts)
            if sigma:
                block = block + sigma / np.sqrt(2) * (
                    rng.standard_normal(p) + 1j * rng.standard_normal(p)
                )
            out.append(block)
        return np.concatenate(out)

    def test_noiseless_multiframe_exact(self):
        v = 20.0
        nu = 2 * v / LAM60
        p = self._stacked(nu, m=10, k=12800, p=3328, ts=TS)
        v_hat = estimate_velocity_moose(p, n_d=12800, p_len=3328, m=10,
                                        ts=TS, wavelength=LAM60)
        assert v_hat == pytest.approx(v, rel=1e-9)

    def test_noiseless_single_frame_exact(self):
        v = 150.0
        nu = 2 * v / LAM60
        p = self._stacked(nu, m=1, k=0, p=2048, ts=TS)
        v_hat = estimate_velocity_moose(p, n_d=512, p_len=2048, m=1,
                                        ts=TS, wavelength=LAM60)
        assert v_hat == pytest.approx(v, rel=1e-9)

    def test_ambiguity_limits(self):
        # lambda = 5 mm flat: 512 -> ~4297 m/s, 12800 -> ~171.9 m/s
        assert moose_ambiguity_limit(512, TS, 0.005) == pytest.approx(4296.875)
        assert moose_ambiguity_limit(12800, TS, 0.005) == pytest.approx(171.875)

    def test_aliases_by_exact_multiple_outside_bound(self):
        k = 12800
        limit_v = moose_ambiguity_limit(k, TS, LAM60)
        v = 1.5 * limit_v
        nu = 2 * v / LAM60
        p = self._stacked(nu, m=4, k=k, p=3328, ts=TS)
        v_hat = estimate_velocity_moose(p, n_d=k, p_len=3328, m=4, ts=TS,
                                        wavelength=LAM60)
        alias = LAM60 / 2 / (k * TS)  # velocity step of one full wrap
        assert v_hat == pytest.approx(v - alias, rel=1e-9)

    def test_inside_bound_is_exact_near_edge(self):
        k = 12800
        v = 0.95 * moose_ambiguity_limit(k, TS, LAM60)
        nu = 2 * v / LAM60
        p = self._stacked(nu, m=3, k=k, p=3328, ts=TS)
        v_hat = estimate_velocity_moose(p, n_d=k, p_len=3328, m=3, ts=TS,
                                        wavelength=LAM60)
        assert v_hat == pytest.approx(v, rel=1e-9)

    def test_two_frames_give_the_summed_product_angle(self):
        # Kay's one weight at M = 2 is exactly 1
        rng = np.random.default_rng(4)
        p = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v_hat = estimate_velocity_moose(p, n_d=12800, p_len=4, m=2, ts=TS, wavelength=LAM60)
        nu = np.angle(np.sum(p[4:] * np.conj(p[:4]))) / (2 * np.pi * (12800 * TS))
        assert v_hat == LAM60 * nu / 2

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            estimate_velocity_moose(np.zeros(10), n_d=5, p_len=4, m=2,
                                    ts=TS, wavelength=LAM60)
        with pytest.raises(ValueError):
            estimate_velocity_moose(np.zeros(8), n_d=16, p_len=8, m=1,
                                    ts=TS, wavelength=LAM60)

    @pytest.mark.parametrize("n_d", [0, -12800])
    def test_nonpositive_spacing_rejected_at_every_m(self, n_d):
        # at M = 4 a negative spacing flipped the velocity's sign and zero
        # divided by zero
        p = np.ones(4, dtype=complex)
        with pytest.raises(ValueError, match="N_D must be at least one sample"):
            estimate_velocity_moose(p, n_d=n_d, p_len=1, m=4, ts=TS, wavelength=LAM60)


class TestRangeEstimate:
    def test_conversion(self):
        rho = estimate_range(587.0, TS)
        assert rho == pytest.approx(587 * TS * SPEED_OF_LIGHT / 2)

    def test_noiseless_50m_within_quantization_bound(self):
        # full oversampled pipeline at Q=8: residual is the sub-sample
        # quantization of the oversampled lag search, c*Ts/(2*2Q) ~ 0.5 cm
        from wlanradar.airlink import Target, synthesize_radar_rx
        from wlanradar.bench import Scenario
        from wlanradar.dsp import RrcSpec, pulse_shape
        from wlanradar.frame import DEFAULT_PREAMBLE, FrameLayout, assemble_frame
        from wlanradar.sync import preamble_delay

        rrc = RrcSpec()
        q = rrc.oversample
        target = Target(range_m=50.0, velocity_mps=0.0)
        frame = assemble_frame(FrameLayout(k=4352, header_len=0), seed=0)
        rx = synthesize_radar_rx(frame, rrc, W, [target], 0.0, Scenario().array, None,
                                 np.random.default_rng(1), start=0,
                                 length=(587 + len(frame) + rrc.span) * q)
        template = pulse_shape(DEFAULT_PREAMBLE.symbols, rrc, W)
        lag, _ = preamble_delay(rx, template, ((587 - 384) * q, (587 + 384) * q + 1))
        rho_hat = estimate_range(lag / q, TS)
        bound = SPEED_OF_LIGHT * TS / (2 * 2 * q)
        assert abs(rho_hat - 50.0) <= bound


class TestCrlb:
    def test_range_at_0db(self):
        v = crlb_range(1.0, p=2048, bandwidth=W)
        assert v == pytest.approx(5.3829e-7, rel=1e-3)
        sigma_mm = np.sqrt(v) * 1e3
        assert 0.7 <= sigma_mm <= 0.8

    def test_range_flat_spectrum_at_zero_rolloff(self):
        # rolloff 0 keeps the flat-spectrum bound's bits
        flat = SPEED_OF_LIGHT**2 / (8 * ((2 * np.pi) ** 2 / 12) * W**2 * 2048 * 1.0)
        assert crlb_range(1.0, p=2048, bandwidth=W, rolloff=0.0) == flat
        assert crlb_range(1.0, p=2048, bandwidth=W) == flat

    def test_range_whole_rc_preamble_below_the_stf_column(self):
        # P = 3328 and a raised cosine of rolloff 0.25, B_rms^2 = 0.0863 W^2
        for zeta in (0.25, 1.0, 10.0):
            ratio = (crlb_range(zeta, p=3328, bandwidth=W, rolloff=0.25)
                     / crlb_range(zeta, p=2048, bandwidth=W))
            assert 10 * np.log10(ratio) == pytest.approx(-2.26, abs=0.005)

    def test_range_scalings(self):
        assert crlb_range(1.0, p=4096) == pytest.approx(crlb_range(1.0, p=2048) / 2)
        assert crlb_range(10.0) == pytest.approx(crlb_range(1.0) / 10)

    def test_velocity_single_at_45db(self):
        sigma = np.sqrt(crlb_velocity(10**4.5, "single", p=2048, ts=TS,
                                      wavelength=LAM60))
        assert 0.095 <= sigma <= 0.115

    def test_exact_reduces_to_single_at_m1(self):
        for zeta in (10.0, 100.0, 10**4.5):
            e26 = crlb_velocity(zeta, "single", p=2048, ts=TS, wavelength=LAM60)
            e28 = crlb_velocity(zeta, "exact", p=2048, m=1, k=12800, ts=TS,
                                wavelength=LAM60)
            assert e28 == pytest.approx(e26, rel=0.01)

    def test_multi_cubic_frame_scaling(self):
        # in the inter-frame dominated regime doubling M shrinks variance ~8x
        a = crlb_velocity(10.0, "multi", p=3328, m=8, k=12800, ts=TS,
                          wavelength=LAM60)
        b = crlb_velocity(10.0, "multi", p=3328, m=16, k=12800, ts=TS,
                          wavelength=LAM60)
        assert a / b == pytest.approx(8.0, rel=0.01)

    def test_exact_matches_multi_for_large_m(self):
        a = crlb_velocity(10.0, "multi", p=3328, m=64, k=12800, ts=TS,
                          wavelength=LAM60)
        b = crlb_velocity(10.0, "exact", p=3328, m=64, k=12800, ts=TS,
                          wavelength=LAM60)
        assert a == pytest.approx(b, rel=0.01)

    def test_nonpositive_scnr_rejected(self):
        # NaN fails too; an infinite SCNR gave 0 m^2 for range and NaN for
        # the exact velocity bound
        for scnr in (0.0, -1.0, np.nan, np.inf):
            msg = rf"SCNR must be positive and finite \(linear\), got {scnr}"
            with pytest.raises(ValueError, match=msg):
                crlb_range(scnr)
            for mode in ("single", "multi", "exact"):
                with pytest.raises(ValueError, match=msg):
                    crlb_velocity(scnr, mode, m=2, k=12800)

    @pytest.mark.parametrize("mode", ["single", "multi", "exact"])
    def test_empty_training_rejected(self, mode):
        with pytest.raises(ValueError, match="P must be"):
            crlb_velocity(1.0, mode, p=0, m=2, k=12800)
        with pytest.raises(ValueError, match="P must be"):
            crlb_range(1.0, p=-5)

    @pytest.mark.parametrize("mode", ["multi", "exact"])
    def test_overlapping_training_blocks_rejected(self, mode):
        # one frame has no spacing to overlap; from two frames on K >= P
        crlb_velocity(1.0, mode, p=2048, m=1, k=100)
        crlb_velocity(1.0, mode, p=2048, m=2, k=2048)
        with pytest.raises(ValueError, match="K=2047"):
            crlb_velocity(1.0, mode, p=2048, m=2, k=2047)


class TestResolutions:
    def test_range_resolution(self):
        dr, _ = resolutions(1.76e9, 72.7e-6, 0.005)
        assert dr == pytest.approx(0.08517, rel=1e-3)
        dr22, _ = resolutions(2.2e9, 72.7e-6, 0.005)
        assert dr22 == pytest.approx(0.06813, rel=1e-3)

    def test_velocity_resolution(self):
        _, dv = resolutions(1.76e9, 4.2e-3, 0.005)
        assert dv == pytest.approx(0.595, abs=5e-4)
        _, dv2 = resolutions(1.76e9, 128000 * TS, 0.005)
        assert dv2 == pytest.approx(34.375, rel=1e-9)

    def test_positive_args(self):
        with pytest.raises(ValueError):
            resolutions(0.0, 1.0, 0.005)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("arg", [0, 1, 2])
    def test_nonfinite_args_rejected(self, arg, bad):
        # a NaN integration time gave a NaN resolution, an infinite one 0 m/s
        args = [1.76e9, 1.0, 0.005]
        args[arg] = bad
        with pytest.raises(ValueError, match="positive and finite"):
            resolutions(*args)


def _single_target_channel_matrix(m, k, delay_bins, nu, h=1.0, sigma=0.0, seed=0):
    """Synthetic M x 512 channel-estimate matrix of point targets."""
    rng = np.random.default_rng(seed)
    h_mat = np.zeros((m, 512), dtype=complex)
    if sigma:
        h_mat += sigma / np.sqrt(2) * (
            rng.standard_normal((m, 512)) + 1j * rng.standard_normal((m, 512))
        )
    for d_bin, nu_i, h_i in zip(np.atleast_1d(delay_bins), np.atleast_1d(nu),
                                np.atleast_1d(h)):
        for mm in range(m):
            h_mat[mm, d_bin] += h_i * np.exp(2j * np.pi * nu_i * mm * k * TS)
    return h_mat


class TestDelayDopplerMap:
    def test_requires_two_frames(self):
        with pytest.raises(ValueError):
            build_delay_doppler_map(np.zeros((1, 512)), frame_len=12800)

    def test_rejects_bad_frame_len_ts_and_wavelength(self):
        # a negative frame_len would flip the velocity axis, a negative ts
        # the range axis, and frame_len=0 would fail only inside detection
        h = np.zeros((4, 512))
        with pytest.raises(ValueError, match="frame_len"):
            build_delay_doppler_map(h, frame_len=-12800)
        with pytest.raises(ValueError, match="must be positive"):
            build_delay_doppler_map(h, frame_len=12800, ts=-TS)
        with pytest.raises(ValueError, match="must be positive"):
            build_delay_doppler_map(h, frame_len=12800, wavelength=0.0)

    def test_stationary_target_at_zero_doppler(self):
        h = _single_target_channel_matrix(10, 12800, 118, 0.0)
        ddm = build_delay_doppler_map(h, zero_pad=16, ts=TS, frame_len=12800)
        l_bin, d_bin = np.unravel_index(np.argmax(np.abs(ddm.grid)), ddm.grid.shape)
        assert l_bin == 118
        assert ddm.doppler_axis_hz()[d_bin] == 0.0

    def test_moving_target_doppler_within_resolution(self):
        m, k = 10, 12800
        v = 30.0
        nu = 2 * v / LAM60
        h = _single_target_channel_matrix(m, k, 200, nu)
        ddm = build_delay_doppler_map(h, zero_pad=16, ts=TS, frame_len=k,
                                      wavelength=LAM60)
        l_bin, d_bin = np.unravel_index(np.argmax(np.abs(ddm.grid)), ddm.grid.shape)
        t_cpi = m * k * TS
        assert l_bin == 200
        assert abs(ddm.doppler_axis_hz()[d_bin] - nu) <= 1 / (2 * t_cpi)
        assert abs(ddm.velocity_axis_mps()[d_bin] - v) <= LAM60 / (4 * t_cpi) + 1e-9

    def test_doppler_axis_span(self):
        h = _single_target_channel_matrix(10, 12800, 0, 0.0)
        ddm = build_delay_doppler_map(h, zero_pad=4, ts=TS, frame_len=12800)
        ax = ddm.doppler_axis_hz()
        assert ax.min() == pytest.approx(-1 / (2 * 12800 * TS))
        assert ax.max() < 1 / (2 * 12800 * TS)

    def test_equals_explicit_padded_dft(self):
        m, z = 5, 3
        rng = np.random.default_rng(4)
        h = rng.standard_normal((m, 512)) + 1j * rng.standard_normal((m, 512))
        ddm = build_delay_doppler_map(h, zero_pad=z, ts=TS, frame_len=12800)
        n = m * z
        dft = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(m)) / n)
        ref = np.fft.fftshift(dft @ h, axes=0).T
        assert ddm.grid.shape == (512, n)
        assert np.allclose(ddm.grid, ref, rtol=0, atol=1e-12)
        # the frame-axis transform of the frame-major matrix, bit for bit
        frame_axis = np.fft.fftshift(np.fft.fft(h, n=n, axis=0), axes=0).T
        assert np.array_equal(ddm.grid, frame_axis)

    def test_grid_does_not_depend_on_memory_order(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((8, 512)) + 1j * rng.standard_normal((8, 512))
        grids = [build_delay_doppler_map(np.asarray(h, order=o), zero_pad=4, ts=TS,
                                         frame_len=12800).grid for o in "CF"]
        assert np.array_equal(grids[0], grids[1])
        assert all(g.flags.c_contiguous for g in grids)

    @pytest.mark.parametrize("m, z, rows", [
        (5, 3, 512),      # odd M*Z
        (10, 16, 512),    # even M*Z, not a power of two
        (6, 3, 512),
        (5, 4, 512),      # odd M, even M*Z
        (10, 16, 100),    # a last block shorter than the others
        (10, 16, 7),      # fewer rows than one block
        (64, 16, 512),    # the map bench's M
    ])
    def test_blocks_equal_shifted_frame_axis_fft(self, m, z, rows):
        # the blocked transform writes each row's spectrum halves into their
        # shifted columns: the same bits as fftshift of the frame-axis FFT
        rng = np.random.default_rng(m * z + rows)
        h = rng.standard_normal((m, rows)) + 1j * rng.standard_normal((m, rows))
        grid = build_delay_doppler_map(h, zero_pad=z, ts=TS, frame_len=12800).grid
        ref = np.fft.fftshift(np.fft.fft(h, n=m * z, axis=0), axes=0).T
        assert grid.shape == (rows, m * z)
        assert np.array_equal(grid, ref)
        assert grid.flags.c_contiguous and grid.flags.owndata

    def test_scaling_invariance_of_peak_location(self):
        h = _single_target_channel_matrix(8, 12800, 250, 5e3, sigma=0.1, seed=3)
        ddm1 = build_delay_doppler_map(h, zero_pad=8, ts=TS, frame_len=12800)
        ddm2 = build_delay_doppler_map(17.3 * h, zero_pad=8, ts=TS, frame_len=12800)
        assert np.argmax(np.abs(ddm1.grid)) == np.argmax(np.abs(ddm2.grid))


def _map(grid, n_frames=2):
    return DelayDopplerMap(grid=np.asarray(grid, dtype=complex), ts=TS,
                           frame_period=12800 * TS, zero_pad=1, wavelength=LAM60,
                           n_frames=n_frames)


def _brute_force_peaks(ddm, pfa, bin_noise_var):
    """Per-cell reference: threshold, >= lower and > upper neighbour per axis."""
    power = np.abs(ddm.grid) ** 2
    chi = cfar_threshold(ddm.n_frames * bin_noise_var, pfa)
    n_l, n_d = power.shape
    rng_axis = ddm.range_axis_m()
    vel_axis = ddm.velocity_axis_mps()
    out = []
    for i in range(n_l):
        for j in range(n_d):
            p = power[i, j]
            keep = (p > chi
                    and p >= power[i, (j - 1) % n_d] and p > power[i, (j + 1) % n_d]
                    and (i == 0 or p >= power[i - 1, j])
                    and (i == n_l - 1 or p > power[i + 1, j]))
            if keep:
                out.append((i, j, float(rng_axis[i]), float(vel_axis[j]), float(p)))
    out.sort(key=lambda d: -d[4])
    return out


class TestMapDetection:
    def test_equals_brute_force_reference(self):
        # integer-valued cells make ties frequent, so the tie rule and the
        # order of equal powers are exercised too
        rng = np.random.default_rng(12)
        grid = rng.integers(0, 4, (40, 24)) + 1j * rng.integers(0, 3, (40, 24))
        ddm = _map(grid)
        dets = detect_targets_map(ddm, 0.5, bin_noise_var=0.5)
        ref = _brute_force_peaks(ddm, 0.5, 0.5)
        assert len(ref) > 20
        assert [tuple(d) for d in dets] == ref

    def test_tie_rule_on_plateaus_and_wrapped_doppler(self):
        grid = np.zeros((64, 16))
        grid[10, 5] = grid[11, 5] = 3.0     # delay plateau: the later row wins
        grid[20, 7] = grid[20, 8] = 2.0     # Doppler plateau: the later column wins
        grid[30, 0] = grid[30, 15] = 2.5    # tie across the Doppler wrap: column 0
        grid[40, 0], grid[40, 15] = 1.5, 1.8
        grid[0, 3] = grid[63, 3] = 1.0      # delay is clipped, not wrapped
        dets = detect_targets_map(_map(grid), 0.5, bin_noise_var=1e-3)
        assert [(d.delay_bin, d.doppler_bin) for d in dets] == [
            (11, 5), (30, 0), (20, 8), (40, 15), (0, 3), (63, 3),
        ]
        assert [d.power for d in dets] == [9.0, 6.25, 4.0, 3.24, 1.0, 1.0]

    def test_returns_records_sorted_by_power(self):
        rng = np.random.default_rng(12)
        grid = rng.integers(0, 4, (40, 24)) + 1j * rng.integers(0, 3, (40, 24))
        dets = detect_targets_map(_map(grid), 0.5, bin_noise_var=0.5)
        assert isinstance(dets, np.recarray) and dets.dtype == MapDetection
        assert [dets.dtype[f].kind for f in dets.dtype.names] == ["i", "i", "f", "f", "f"]
        assert len(dets) > 20 and np.all(np.diff(dets.power) <= 0)

    def test_fortran_ordered_grid_gives_the_same_detections(self):
        # the neighbour tests run on flat row-major views of the power
        rng = np.random.default_rng(12)
        grid = rng.integers(0, 4, (40, 24)) + 1j * rng.integers(0, 3, (40, 24))
        dets = detect_targets_map(_map(grid), 0.5, bin_noise_var=0.5)
        f_dets = detect_targets_map(_map(np.asfortranarray(grid)), 0.5, bin_noise_var=0.5)
        assert np.array_equal(dets, f_dets)

    def test_nan_noise_variance_rejected(self):
        # a NaN threshold would keep no cell and report an empty map
        grid = np.zeros((64, 16))
        grid[12, 6] = 2.0
        with pytest.raises(ValueError, match="noise variance"):
            detect_targets_map(_map(grid), 1e-4, bin_noise_var=np.nan)

    def test_all_zero_grid_gives_empty_array(self):
        dets = detect_targets_map(_map(np.zeros((64, 16))), 1e-4, bin_noise_var=1.0)
        assert isinstance(dets, np.recarray) and dets.dtype == MapDetection
        assert len(dets) == 0

    def test_single_peak_gives_one_record(self):
        grid = np.zeros((64, 16))
        grid[12, 6] = 2.0
        ddm = _map(grid)
        dets = detect_targets_map(ddm, 1e-4, bin_noise_var=1e-3)
        assert len(dets) == 1
        assert (dets[0].delay_bin, dets[0].doppler_bin, dets[0].power) == (12, 6, 4.0)
        # an isolated cell is its own -3 dB main lobe along both axes
        assert _mainlobe_widths(ddm, dets[0]) == (1.0, 1.0)

    def test_noise_only_false_cell_count(self):
        m, sigma2 = 4, 1.0
        rng = np.random.default_rng(5)
        pfa = 1e-3
        counts = []
        for trial in range(10):
            h = sigma2 ** 0.5 / np.sqrt(2) * (
                rng.standard_normal((m, 512)) + 1j * rng.standard_normal((m, 512))
            )
            ddm = build_delay_doppler_map(h, zero_pad=1, ts=TS, frame_len=12800)
            dets = detect_targets_map(ddm, pfa, bin_noise_var=sigma2)
            counts.append(len(dets))
        cells = 512 * m
        expected = pfa * cells
        total = np.sum(counts)
        sigma = np.sqrt(10 * expected)
        assert abs(total - 10 * expected) < 4 * sigma

    def test_two_targets_detected_at_right_bins(self):
        m, k = 10, 12800
        nu = [2 * 60 / LAM60, 2 * 30 / LAM60]
        h = _single_target_channel_matrix(m, k, [118, 168], nu, h=[1.0, 0.9],
                                          sigma=0.05, seed=6)
        ddm = build_delay_doppler_map(h, zero_pad=16, ts=TS, frame_len=k,
                                      wavelength=LAM60)
        dets = detect_targets_map(ddm, 1e-6, bin_noise_var=0.05**2)
        top2 = sorted(d.delay_bin for d in dets[:2])
        assert top2 == [118, 168]
        for d in dets[:2]:
            v_true = 60.0 if d.delay_bin == 118 else 30.0
            t_cpi = m * k * TS
            assert abs(d.velocity_mps - v_true) <= LAM60 / (4 * t_cpi)
            rho_true = d.delay_bin * TS * SPEED_OF_LIGHT / 2
            assert d.range_m == pytest.approx(rho_true)


class TestDetectionTheory:
    @pytest.mark.parametrize("scnr", [0.0, -1.0, np.nan, np.inf])   # inf gave NaN
    def test_nonpositive_scnr_rejected(self, scnr):
        msg = rf"SCNR must be positive and finite \(linear\), got {scnr}"
        with pytest.raises(ValueError, match=msg):
            detection_probability(scnr, 1e-6, 3328)

    def test_monotone_in_scnr(self):
        vals = [detection_probability(10 ** (s / 10), 1e-6, 3328)
                for s in (-26, -22, -18, -14)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_matches_synthetic_mc(self):
        rng = np.random.default_rng(8)
        n_mc = 200_000
        z = 10 ** (-2.05)
        noise = (rng.standard_normal(n_mc) + 1j * rng.standard_normal(n_mc)) / np.sqrt(2)
        stat = np.abs(np.sqrt(3328 * z) + noise) ** 2
        pd_mc = np.mean(stat > -np.log(1e-6))
        pd_th = detection_probability(z, 1e-6, 3328)
        assert pd_mc == pytest.approx(pd_th, abs=3 * np.sqrt(pd_th * (1 - pd_th) / n_mc))
