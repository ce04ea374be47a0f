import warnings

import numpy as np
import pytest
from scipy.signal import fftconvolve

from wlanradar.airlink import SPEED_OF_LIGHT, Target, synthesize_radar_rx
from wlanradar.bench import Scenario
from wlanradar.dsp import RrcSpec, _conj_spectrum, apply_delay_doppler, pulse_shape, rrc_taps
from wlanradar.frame import (
    CEF_PEAK_BIN,
    DEFAULT_PREAMBLE,
    STF_LEN,
    FrameLayout,
    Preamble,
    assemble_frame,
)
from wlanradar.golay import generate_golay_pair, load_golay_pair
from wlanradar.radar import PreambleTemplate, matched_preamble_statistic
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
    """Preamble whose 128 pair is the time-reversed default pair, loaded from files."""
    base = generate_golay_pair(128)
    pa, pb = tmp_path / "a128.txt", tmp_path / "b128.txt"
    pa.write_text("\n".join(str(v) for v in base.a[::-1]))
    pb.write_text("\n".join(str(v) for v in base.b[::-1]))
    return Preamble(pair128=load_golay_pair(pa, pb))


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

    def test_a_ready_spectrum_gives_the_same_lags(self):
        # the range bench transforms the template once, at a whole search's
        # read length; a search from lag 0, as a near target's, reads fewer samples
        frame = assemble_frame(FrameLayout(k=4352, header_len=0), seed=3)
        rx = _shaped_at(frame, (587 + 0.3 / Q) * TS)
        spectrum = _conj_spectrum(TEMPLATE, 768 * Q + len(TEMPLATE))
        for window in (((587 - 384) * Q, (587 + 384) * Q + 1), (0, 668 * Q + 1)):
            got = preamble_delay(rx, TEMPLATE, window, spectrum)
            assert got[0] == preamble_delay(rx, TEMPLATE, window)[0] == 587 * Q
        assert got[1] == pytest.approx(preamble_delay(rx, TEMPLATE, window)[1], abs=1e-9)

    def test_peak_on_the_window_edge_is_not_refined(self):
        frame = assemble_frame(FrameLayout(k=4352, header_len=0), seed=4)
        rx = _shaped_at(frame, 587 * TS)
        for window in (((587 - 20) * Q, 587 * Q + 1), (587 * Q, (587 + 20) * Q)):
            lag, refined = preamble_delay(rx, TEMPLATE, window)
            assert lag == 587 * Q
            assert refined == lag

    def test_window_leaving_the_stream_rejected(self):
        # a window is searched whole or refused, never narrowed to the lags that fit
        frame = assemble_frame(FrameLayout(k=4352, header_len=0), seed=5)
        rx = _shaped_at(frame, 587 * TS)
        last = len(rx) - len(TEMPLATE)   # the last lag where the template fits
        assert preamble_delay(rx, TEMPLATE, (0, last + 1))[0] == 587 * Q
        assert preamble_delay(rx, TEMPLATE, (last - 2, last + 1))[0] == last
        for window in ((-500, 10**7), (-1, last + 1), (0, last + 2), (10**7, 10**7 + 50)):
            with pytest.raises(ValueError, match="leaves"):
                preamble_delay(rx, TEMPLATE, window)

    @pytest.mark.parametrize("window", [(0, 2), (10, 10), (10, 3)])
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

    def test_window_leaving_the_stream_rejected(self):
        # the velocity trial's window: 64 lags of search span and the
        # preamble fit its 3 392-symbol row exactly; one lag more does not
        y = np.zeros(64 + 3328, complex)
        y[32 : 32 + 3328] = DEFAULT_PREAMBLE.symbols
        assert fine_timing_preamble(y, (0, 65))[0] == 32
        for window in ((-1, 64), (0, 66)):
            with pytest.raises(ValueError, match="leaves"):
                fine_timing_preamble(y, window)

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

    def test_equals_direct_correlation_at_every_lag(self):
        # the velocity trial's search: 65 lags of a 3 392-symbol row at 0 dB;
        # the folded search sums in another order than np.correlate
        rng = np.random.default_rng(12)
        y = _noisy_frame_symbols(32, 0.0, rng, k=3328)[: 64 + 3328]
        c = np.correlate(y, DEFAULT_PREAMBLE.symbols, mode="valid") / 3328
        assert len(c) == 65
        for lag in range(65):
            idx, val = fine_timing_preamble(y, (lag, lag + 1))
            assert idx == lag
            assert abs(val - c[lag]) <= 1e-12 * abs(c[lag])
        idx, val = fine_timing_preamble(y, (0, 65))
        assert idx == np.argmax(np.abs(c) ** 2) == 32
        assert val == pytest.approx(c[32], rel=1e-12)

    def test_nonfinite_sample_in_any_block_rejected(self):
        # the first and last sample each block's fold reads
        y = np.zeros(64 + 3328, complex)
        y[32 : 32 + 3328] = DEFAULT_PREAMBLE.symbols
        for i in range(26):
            for j in (0, 64 + 127):
                bad = y.copy()
                bad[128 * i + j] = np.nan
                with pytest.raises(ValueError, match="non-finite"):
                    fine_timing_preamble(bad, (0, 65))


class TestChannelEstimate:
    def test_clean_delta(self):
        # synchronized noiseless target on the discrete model: exact delta
        h0 = 0.8 - 0.3j
        rng = np.random.default_rng(11)
        y = _noisy_frame_symbols(0, 500.0, rng, h0=h0)
        y = h0 * assemble_frame(FrameLayout(k=4352, header_len=0), np.random.default_rng(0)).astype(complex)
        h = estimate_channel_cef(y, 2176, gated=True)
        assert abs(h[256] - h0) < 1e-10
        off = np.abs(np.delete(h, 256))
        assert off.max() < 1e-10

    def test_gated_estimate_is_a_cyclic_delta(self, pair128):
        # echoes up to 128 samples late read cyclic shifts of Gu and Gv
        p = Preamble(pair128)
        h0 = 0.8 - 0.3j
        frame = h0 * assemble_frame(FrameLayout(k=4352, header_len=0), seed=0, preamble=p)
        for d in (0, 1, 50, 127, 128):
            y = np.zeros(4352 + 128, dtype=complex)
            y[d : d + 4352] = frame
            expected = np.zeros(512, dtype=complex)
            expected[CEF_PEAK_BIN + d] = h0
            h = estimate_channel_cef(y, STF_LEN, gated=True, preamble=p)
            assert np.abs(h - expected).max() <= 1e-12, d

    def test_sliding_estimate_has_a_zero_correlation_zone(self, pair128):
        # a noiseless echo reads exact zeros within 128 bins of its peak
        p = Preamble(pair128)
        h0 = 0.8 - 0.3j
        y = np.zeros(5000, dtype=complex)
        y[150 : 150 + 4352] = h0 * assemble_frame(FrameLayout(k=4352, header_len=0),
                                                  seed=1, preamble=p)
        h = estimate_channel_cef(y, 150 + STF_LEN, gated=False, preamble=p)
        assert abs(h[CEF_PEAK_BIN] - h0) <= 1e-12
        zone = np.delete(h[CEF_PEAK_BIN - 128 : CEF_PEAK_BIN + 129], 128)
        assert np.abs(zone).max() <= 1e-12
        assert np.abs(h).max() == np.abs(h[CEF_PEAK_BIN])

    def test_delayed_three_samples(self):
        y = np.concatenate([np.zeros(3), DEFAULT_PREAMBLE.symbols, np.zeros(64)]).astype(complex)
        h = estimate_channel_cef(y, 2176, gated=True)
        assert np.argmax(np.abs(h)) == 259

    def test_override_pair_exact_delta(self, reversed_preamble):
        # transmitter and receiver share the substituted pair
        p = reversed_preamble
        y = assemble_frame(FrameLayout(k=4352, header_len=0), seed=0,
                           preamble=p).astype(complex)
        h = estimate_channel_cef(y, STF_LEN, gated=True, preamble=p)
        assert h[256] == 1.0
        assert np.abs(np.delete(h, 256)).max() == 0.0
        # the standard receiver does not see the substituted CEF
        assert abs(estimate_channel_cef(y, STF_LEN, gated=True)[256]) < 0.5

    def test_noise_only_bin_variance(self):
        # background variance sigma^2/(2*512) at the synchronized bin
        rng = np.random.default_rng(12)
        sigma2 = 4.0
        vals = []
        for _ in range(400):
            y = np.sqrt(sigma2 / 2) * (
                rng.standard_normal(4500) + 1j * rng.standard_normal(4500)
            )
            h = estimate_channel_cef(y, 2176, gated=True)
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
        pair = DEFAULT_PREAMBLE.cef_pair
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
            estimate_channel_cef(np.zeros((2, 4500), complex), 2176, gated=True)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gated_mode_rejects_a_nonfinite_sample(self, bad):
        # the gated estimate at 2176 reads samples 2176..3199 alone; one bad
        # sample there is refused with no warning
        y = np.ones(4500, dtype=complex)
        y[3200] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(estimate_channel_cef(y, 2176, gated=True)).all()
            y[2500] = bad
            with pytest.raises(ValueError, match="non-finite"):
                estimate_channel_cef(y, 2176, gated=True)

    def test_read_leaving_the_stream_raises(self):
        # either mode's read must lie inside the stream: no zeros are read
        y = np.ones(3455, dtype=complex)
        assert estimate_channel_cef(y, 2176, gated=False).shape == (512,)
        with pytest.raises(ValueError, match="leaves"):
            estimate_channel_cef(y[:-1], 2176, gated=False)
        assert estimate_channel_cef(y[:3200], 2176, gated=True).shape == (512,)
        with pytest.raises(ValueError, match="leaves"):
            estimate_channel_cef(y[:3199], 2176, gated=True)

    def test_peak_unbiased_in_noise(self):
        h0 = 1.0
        rng = np.random.default_rng(14)
        vals = []
        trials = 1000
        sigma2 = 1.0
        for _ in range(trials):
            y = _noisy_frame_symbols(0, 0.0, rng, k=4352, h0=h0)
            vals.append(estimate_channel_cef(y, 2176, gated=True)[256])
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
            # the window from the clock's origin to the echo's end
            n_out = int(np.round(target.delay() * W * Q)) + (len(frame) + RRC.span) * Q
            rx = synthesize_radar_rx(frame, RRC, W, [target], 1.0, scen.array, None, rng,
                                     start=0, length=n_out)
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

    def test_readme_override_example_runs(self, tmp_path, monkeypatch):
        # README's Golay-override block, run as written against pair files of
        # a complementary pair other than the default one
        import re
        import textwrap
        from pathlib import Path

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = [b for b in re.findall(r"```python\n(.*?)```", readme, re.S)
                  if "load_golay_pair(" in b]
        assert len(blocks) == 1
        base = generate_golay_pair(128)
        (tmp_path / "a128.txt").write_text("\n".join(str(v) for v in base.b))
        (tmp_path / "b128.txt").write_text("\n".join(str(v) for v in base.a))
        monkeypatch.chdir(tmp_path)
        ns = {}
        exec(textwrap.dedent(blocks[0]), ns)
        assert not np.array_equal(ns["p"].cef, DEFAULT_PREAMBLE.cef)
        assert ns["lag"] == round(ns["target"].delay() * W * Q)

    def test_override_pair_full_chain(self, reversed_preamble):
        p = reversed_preamble
        frame = assemble_frame(FrameLayout(k=4352, header_len=0), seed=17, preamble=p)
        # a noiseless echo 587 symbols out, through the radar channel model
        target = Target(range_m=587 * TS * SPEED_OF_LIGHT / 2)
        rx = synthesize_radar_rx(frame, RRC, W, [target], 0.0, Scenario().array, None,
                                 np.random.default_rng(18), start=0,
                                 length=(587 + len(frame) + RRC.span) * Q)
        template = pulse_shape(p.symbols, RRC, W)
        lag, _ = preamble_delay(rx, template, ((587 - 384) * Q, (587 + 384) * Q + 1))
        assert lag == 587 * Q
        start = lag // Q
        y = _matched_symbols(rx)
        h = estimate_channel_cef(y, start + STF_LEN, gated=True, preamble=p)
        assert np.argmax(np.abs(h)) == 256
        assert abs(h[256]) == pytest.approx(1.0, abs=1e-3)
        # fine timing and the detection statistic against the same preamble,
        # each in block form, find the echo too
        idx, val = fine_timing_preamble(y, (587 - 32, 587 + 33), preamble=p)
        assert idx == 587 and abs(val) == pytest.approx(1.0, abs=1e-3)
        assert abs(fine_timing_preamble(y, (587 - 32, 587 + 33))[1]) < 0.5
        detect = PreambleTemplate.of(p, RRC, W)
        stat, lag = matched_preamble_statistic(rx, detect, ((587 - 3) * Q, (587 + 3) * Q + 1))
        assert lag == 587 * Q
        assert stat == pytest.approx(detect.energy, rel=1e-3)
