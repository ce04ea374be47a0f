import warnings

import numpy as np
import pytest
from scipy.signal import fftconvolve

from wlanradar.airlink import SPEED_OF_LIGHT, Target, synthesize_radar_rx
from wlanradar.bench import Scenario
from wlanradar.dsp import RrcSpec, apply_delay_doppler, pulse_shape, rrc_taps
from wlanradar.frame import (
    CEF_PEAK_BIN,
    DEFAULT_PREAMBLE,
    STF_LEN,
    FrameLayout,
    Preamble,
    assemble_frame,
)
from wlanradar.golay import generate_golay_pair, load_golay_pair
from wlanradar.sync import estimate_channel_cef, fine_timing_preamble, preamble_delay

W = 1.76e9
TS = 1 / W
RRC = RrcSpec()
Q = RRC.oversample
TEMPLATE = pulse_shape(DEFAULT_PREAMBLE.symbols, RRC, W)


def _noisy_frame_symbols(delay: int, scnr_db: float, rng, k: int = 4352,
                         h0: complex = 1.0) -> np.ndarray:
    """Symbol-rate received frame at integer delay: the discrete post-MF model."""
    frame = assemble_frame(FrameLayout(k=k, header_len=0), rng)
    sigma = np.sqrt(1.0 / 10 ** (scnr_db / 10) / 2)
    n = delay + k + 64
    y = sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    y[delay : delay + k] += h0 * frame
    return y


def _shaped_at(frame, delay: float) -> np.ndarray:
    """The frame shaped at ``delay`` and placed on the clock, where
    pulse_shape's delayed stream starts: round(delay rate) samples in."""
    return np.concatenate([np.zeros(round(delay * W * Q)), pulse_shape(frame, RRC, W, delay)])


@pytest.fixture
def reversed_preamble(tmp_path):
    """Preamble whose 512 pair is the time-reversed standard pair, loaded from files."""
    base = generate_golay_pair(512)
    pa, pb = tmp_path / "a512.txt", tmp_path / "b512.txt"
    pa.write_text("\n".join(str(v) for v in base.a[::-1]))
    pb.write_text("\n".join(str(v) for v in base.b[::-1]))
    return Preamble(pair512=load_golay_pair(pa, pb))


class TestSymbolTiming:
    # the joint search finds the oversampling phase with the lag: a delay of
    # a whole number of oversampled samples peaks exactly there
    def test_zero_delay(self):
        frame = assemble_frame(FrameLayout(k=4352, header_len=0), seed=0)
        rx = pulse_shape(frame, RRC, W)
        # the peak sits on the window's edge: no parabola
        assert preamble_delay(rx, TEMPLATE, (0, 100)) == (0, 0.0)

    def test_quarter_symbol_delay(self):
        frame = assemble_frame(FrameLayout(k=4352, header_len=0), seed=1)
        rx = _shaped_at(frame, 587.25 * TS)
        lag, refined = preamble_delay(rx, TEMPLATE, ((587 - 384) * Q, (587 + 384) * Q + 1))
        assert lag == 587 * Q + Q // 4
        assert refined == pytest.approx(lag, abs=1e-2)

    def test_half_symbol_wraps_negative(self):
        # half a symbol is Q / 2 whole samples: no two phases to choose between
        frame = assemble_frame(FrameLayout(k=4352, header_len=0), seed=2)
        rx = _shaped_at(frame, 0.5 * TS)
        lag, refined = preamble_delay(rx, TEMPLATE, (0, 4 * Q))
        assert lag == Q // 2
        assert refined == pytest.approx(lag, abs=1e-2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_sample_rejected(self, bad):
        # only the samples the search reads matter
        frame = assemble_frame(FrameLayout(k=4352, header_len=0), seed=0)
        rx = pulse_shape(frame, RRC, W)
        rx[len(TEMPLATE) + 200] = bad
        assert preamble_delay(rx, TEMPLATE, (0, 100))[0] == 0
        rx[1000] = bad
        # refused without a floating-point warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                preamble_delay(rx, TEMPLATE, (0, 100))


class TestPreambleDelay:
    def test_refined_lag_is_the_parabola_vertex(self):
        # a delay between two samples: the peak is a neighbour of it, and the
        # vertex through |c| at the peak and its two neighbours lies between
        frame = assemble_frame(FrameLayout(k=4352, header_len=0), seed=3)
        rx = _shaped_at(frame, (587 + 0.3 / Q) * TS)
        window = ((587 - 384) * Q, (587 + 384) * Q + 1)
        lag, refined = preamble_delay(rx, TEMPLATE, window)
        assert lag == 587 * Q
        seg = rx[lag - 1 : lag + 2 + len(TEMPLATE) - 1]
        a, b, d = np.abs(np.correlate(seg, TEMPLATE, mode="valid"))
        assert refined == pytest.approx(lag + 0.5 * (a - d) / (a - 2 * b + d), abs=1e-9)
        assert abs(refined - (587 * Q + 0.3)) < 0.05

    def test_peak_on_the_window_edge_is_not_refined(self):
        frame = assemble_frame(FrameLayout(k=4352, header_len=0), seed=4)
        rx = _shaped_at(frame, 587 * TS)
        for window in (((587 - 20) * Q, 587 * Q + 1), (587 * Q, (587 + 20) * Q)):
            lag, refined = preamble_delay(rx, TEMPLATE, window)
            assert lag == 587 * Q
            assert refined == lag

    def test_window_clipped_to_the_stream(self):
        frame = assemble_frame(FrameLayout(k=4352, header_len=0), seed=5)
        rx = _shaped_at(frame, 587 * TS)
        last = len(rx) - len(TEMPLATE)
        assert preamble_delay(rx, TEMPLATE, (-500, 10**7))[0] == 587 * Q
        assert preamble_delay(rx, TEMPLATE, (last - 2, 10**7))[0] == last

    @pytest.mark.parametrize("window", [(0, 2), (10, 10), (10**7, 10**7 + 50)])
    def test_window_too_short_rejected(self, window):
        rx = np.zeros(len(TEMPLATE) + 100, complex)
        with pytest.raises(ValueError, match="too short"):
            preamble_delay(rx, TEMPLATE, window)


class TestFineTiming:
    def test_noiseless_exact(self):
        rng = np.random.default_rng(8)
        y = _noisy_frame_symbols(587, 80.0, rng)
        idx, peak = fine_timing_preamble(y, (587 - 384, 587 + 384))
        assert idx == 587
        assert abs(peak - 1.0) < 1e-2

    def test_0db_within_one_sample(self):
        rng = np.random.default_rng(9)
        hits = 0
        trials = 1000
        for _ in range(trials):
            y = _noisy_frame_symbols(587, 0.0, rng, k=3328)
            est, _ = fine_timing_preamble(y, (587 - 64, 587 + 64))
            hits += abs(est - 587) <= 1
        assert hits >= trials * 0.99

    def test_two_echoes_strongest_wins(self):
        rng = np.random.default_rng(10)
        frame = assemble_frame(FrameLayout(k=3328, header_len=0), rng).astype(complex)
        y = np.zeros(5000, complex)
        y[300 : 300 + 3328] += 0.4 * frame
        y[700 : 700 + 3328] += 1.0 * frame
        assert fine_timing_preamble(y, (0, 1200))[0] == 700

    def test_window_too_short_rejected(self):
        with pytest.raises(ValueError):
            fine_timing_preamble(np.zeros(100, complex), (0, 10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_sample_in_the_span_rejected(self, bad):
        # only the samples the search reads matter
        rng = np.random.default_rng(8)
        y = _noisy_frame_symbols(587, 80.0, rng)
        y[4500] = bad
        assert fine_timing_preamble(y, (587 - 384, 587 + 384))[0] == 587
        y[1000] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fine_timing_preamble(y, (587 - 384, 587 + 384))


class TestChannelEstimate:
    def test_clean_delta(self):
        # synchronized noiseless target on the discrete model: exact delta
        h0 = 0.8 - 0.3j
        rng = np.random.default_rng(11)
        y = _noisy_frame_symbols(0, 500.0, rng, h0=h0)
        y = h0 * assemble_frame(FrameLayout(k=4352, header_len=0), np.random.default_rng(0)).astype(complex)
        h = estimate_channel_cef(y, 2176)
        assert abs(h[256] - h0) < 1e-10
        off = np.abs(np.delete(h, 256))
        assert off.max() < 1e-10

    def test_delayed_three_samples(self):
        y = np.concatenate([np.zeros(3), DEFAULT_PREAMBLE.symbols, np.zeros(64)]).astype(complex)
        h = estimate_channel_cef(y, 2176)
        assert np.argmax(np.abs(h)) == 259

    def test_override_pair_exact_delta(self, reversed_preamble):
        # transmitter and receiver share the substituted pair
        p = reversed_preamble
        y = assemble_frame(FrameLayout(k=4352, header_len=0), seed=0,
                           preamble=p).astype(complex)
        h = estimate_channel_cef(y, STF_LEN, preamble=p)
        assert h[256] == 1.0
        assert np.abs(np.delete(h, 256)).max() == 0.0
        # the standard receiver does not see the substituted CEF
        assert abs(estimate_channel_cef(y, STF_LEN)[256]) < 0.5

    def test_noise_only_bin_variance(self):
        # background variance sigma^2/(2*512) at the synchronized bin
        rng = np.random.default_rng(12)
        sigma2 = 4.0
        vals = []
        for _ in range(400):
            y = np.sqrt(sigma2 / 2) * (
                rng.standard_normal(4500) + 1j * rng.standard_normal(4500)
            )
            h = estimate_channel_cef(y, 2176)
            vals.append(h[256])
        var = np.var(vals)
        assert var == pytest.approx(sigma2 / 1024, rel=0.2)

    def test_sliding_mode_uniform_noise_floor(self):
        rng = np.random.default_rng(13)
        sigma2 = 1.0
        acc = np.zeros(512)
        trials = 300
        for _ in range(trials):
            y = np.sqrt(sigma2 / 2) * (
                rng.standard_normal(4500) + 1j * rng.standard_normal(4500)
            )
            h = estimate_channel_cef(y, 2176, gated=False)
            acc += np.abs(h) ** 2
        mean_power = acc / trials
        assert np.median(mean_power) == pytest.approx(sigma2 / 1024, rel=0.15)
        assert mean_power.max() / mean_power.min() < 2.0

    def test_sliding_mode_stacked_rows(self):
        # one call on M stacked frame reads: the per-row estimates, and the
        # two-half a/b correlation they are defined by
        rng = np.random.default_rng(15)
        rows = 0.1 * (rng.standard_normal((4, 1535)) + 1j * rng.standard_normal((4, 1535)))
        rows[:, 256:1280] += np.exp(0.7j * np.arange(4))[:, None] * DEFAULT_PREAMBLE.cef[:1024]
        h = estimate_channel_cef(rows, CEF_PEAK_BIN, gated=False)
        assert h.shape == (4, 512)
        pair = DEFAULT_PREAMBLE.pair512
        for row, h_row in zip(rows, h):
            assert np.max(np.abs(h_row - estimate_channel_cef(row, CEF_PEAK_BIN,
                                                              gated=False))) < 1e-12
            two_half = np.array([
                np.dot(row[l : l + 512], pair.a) + np.dot(row[l + 512 : l + 1024], pair.b)
                for l in range(512)
            ]) / 1024
            assert np.max(np.abs(h_row - two_half)) < 1e-12
        assert np.all(np.argmax(np.abs(h), axis=1) == CEF_PEAK_BIN)

    def test_gated_mode_rejects_stacked_rows(self):
        with pytest.raises(ValueError):
            estimate_channel_cef(np.zeros((2, 4500), complex), 2176)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_sliding_mode_rejects_a_nonfinite_sample(self, bad):
        # one bad sample in one of the stacked rows is refused with no
        # warning; the estimate reads samples 0..1534 of each row alone
        rows = np.ones((4, 1600), dtype=complex)
        rows[1, 1535] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(estimate_channel_cef(rows, CEF_PEAK_BIN, gated=False)).all()
            rows[2, 900] = bad
            with pytest.raises(ValueError, match="non-finite"):
                estimate_channel_cef(rows, CEF_PEAK_BIN, gated=False)

    def test_peak_unbiased_in_noise(self):
        h0 = 1.0
        rng = np.random.default_rng(14)
        vals = []
        trials = 1000
        sigma2 = 1.0
        for _ in range(trials):
            y = _noisy_frame_symbols(0, 0.0, rng, k=4352, h0=h0)
            vals.append(estimate_channel_cef(y, 2176)[256])
        mean = np.mean(vals)
        sigma_mean = np.sqrt(sigma2 / 1024 / trials)
        assert abs(mean - h0) < 3 * sigma_mean * 1.5


def _matched_symbols(rx, phase=0):
    """The RX matched filter sampled at symbol rate, phase ticks past each
    symbol instant: reference for the receiver's symbol-rate input."""
    return fftconvolve(rx, rrc_taps(RRC))[RRC.span * Q + phase :: Q]


class TestPipeline:
    def test_delay_composability_at_0db(self):
        # the peak lag, in symbols, recovers the injected delay within
        # Ts * (1 + 1/(2Q)) in at least 99% of trials
        scen = Scenario()
        trials = 60
        hits = 0
        for i in range(trials):
            rng = np.random.default_rng(100 + i)
            d_symbols = 587 + rng.uniform(0, 1)
            target = Target(range_m=d_symbols * TS * SPEED_OF_LIGHT / 2)
            frame = assemble_frame(FrameLayout(k=4352, header_len=0), rng)
            # sigma_cn^2 = 1: SCNR = 0 dB with unit gain
            rx = synthesize_radar_rx(frame, RRC, W, [target], 1.0, scen.array, None, rng)
            lag, _ = preamble_delay(rx, TEMPLATE, ((587 - 384) * Q, (587 + 384) * Q + 1))
            err = abs(lag / Q - d_symbols)
            hits += err <= 1 + 1 / (2 * Q)
        assert hits >= int(np.ceil(trials * 0.99))

    def test_stream_starting_after_time_zero(self):
        # pulse_shape's delayed stream starts 587 Q samples after the clock's
        # origin, at 563 Ts; placed there, symbol k still sits at k Ts
        frame = assemble_frame(FrameLayout(k=4352, header_len=0), seed=0)
        rx = _shaped_at(frame, 587 * TS)
        echo = np.zeros(len(rx), dtype=complex)
        apply_delay_doppler(echo, frame, RRC, W, 587 / W, 0.0)
        assert np.array_equal(rx, echo)
        for search in ((203 * Q, 971 * Q), (0, 971 * Q)):
            lag, refined = preamble_delay(rx, TEMPLATE, search)
            assert lag == 587 * Q
            assert refined == pytest.approx(lag, abs=1e-2)

    def test_override_pair_full_chain(self, reversed_preamble):
        p = reversed_preamble
        frame = assemble_frame(FrameLayout(k=4352, header_len=0), seed=17, preamble=p)
        # a noiseless echo 587 symbols out, through the radar channel model
        target = Target(range_m=587 * TS * SPEED_OF_LIGHT / 2)
        rx = synthesize_radar_rx(frame, RRC, W, [target], 0.0, Scenario().array, None,
                                 np.random.default_rng(18))
        template = pulse_shape(p.symbols, RRC, W)
        lag, _ = preamble_delay(rx, template, ((587 - 384) * Q, (587 + 384) * Q + 1))
        assert lag == 587 * Q
        start = lag // Q
        h = estimate_channel_cef(_matched_symbols(rx), start + STF_LEN, preamble=p)
        assert np.argmax(np.abs(h)) == 256
        assert abs(h[256]) == pytest.approx(1.0, abs=1e-3)
