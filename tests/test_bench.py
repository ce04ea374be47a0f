import dataclasses
import pickle
from functools import partial

import numpy as np
import pytest

from wlanradar import bench
from wlanradar.airlink import (
    SPEED_OF_LIGHT,
    Target,
    synthesize_radar_rx,
    synthesize_radar_rx_symbol_rate,
)
from wlanradar.bench import (
    ExperimentSpec,
    ResultTable,
    Scenario,
    ambiguity_function,
    data_rate,
    run_experiment,
    run_manifest,
    two_vehicle_scenario,
)
from wlanradar.frame import DEFAULT_PREAMBLE, PREAMBLE_LEN, assemble_cpi, assemble_frame
from wlanradar.radar import PreambleTemplate

W = 1.76e9
TS = 1 / W


def _draw(scen, value, rng):
    return value + rng.random()


class TestAmbiguity:
    def setup_method(self):
        # the bench's pair: the CEF's (Gu512, Gv512), periodic complementary
        self.pair = DEFAULT_PREAMBLE.cef_pair

    def test_zero_doppler_pair_cut_is_delta(self):
        window = (-64, 65)
        lags = np.arange(*window)
        amb = ambiguity_function(window, [0.0], TS, self.pair)
        peak = np.argmax(amb[0])
        assert lags[peak] == 0
        assert amb[0, peak] == pytest.approx(1024.0)
        off = np.delete(amb[0], peak)
        assert off.max() < 1e-9

    def test_doppler_intolerance(self):
        # peak decays as the Doppler shift grows
        t_p = 1024 * TS
        dopplers = [0.0, 0.25 / t_p, 0.5 / t_p, 1.0 / t_p]
        amb = ambiguity_function((0, 1), dopplers, TS, self.pair)
        peaks = amb[:, 0]
        assert all(b < a for a, b in zip(peaks, peaks[1:]))

    def test_doppler_grid_bounded(self):
        with pytest.raises(ValueError):
            ambiguity_function((0, 1), [W], TS, self.pair)


class TestDataRate:
    def test_no_data_symbols_zero_rate(self):
        assert data_rate(4, 0, TS, 1e-4, [10.0]) == 0.0

    def test_full_duty_formula(self):
        # duty M K_CD Ts / T = 1 -> R = log2(1 + snr) / Ts
        m, k_cd = 5, 1000
        t = m * k_cd * TS
        snr = 15.0
        r = data_rate(m, k_cd, TS, t, [snr])
        assert r == pytest.approx(np.log2(1 + snr) / TS)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            data_rate(1, -5, TS, 1.0, [1.0])


class TestResultTable:
    def test_csv_format(self):
        t = ResultTable()
        t.add(0.0, "pd", 0.123456789123, 100, 0.01)
        text = t.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "sweep,metric,value,trials,half_width"
        assert lines[1] == "0,pd,0.123456789,100,0.01"

    def test_value_lookup(self):
        t = ResultTable()
        t.add(1.0, "x", 2.0)
        assert t.value(1.0, "x") == 2.0
        with pytest.raises(KeyError):
            t.value(2.0, "x")


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="nope")

    def test_empty_sweep_rejected_where_needed(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="detection", sweep=())

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="ddmap", trials=0)

    def test_ddmap_takes_at_most_one_scnr(self):
        # the map bench reads sweep[0] only
        with pytest.raises(ValueError, match="ddmap"):
            ExperimentSpec(kind="ddmap", sweep=(10.0, 40.0))
        assert ExperimentSpec(kind="ddmap", sweep=(10.0,)).sweep == (10.0,)

    def test_ddmap_without_scnr_rejected(self):
        # the map's SCNR default lives in the CLI's command table, not here
        with pytest.raises(ValueError, match="exactly one SCNR"):
            ExperimentSpec(kind="ddmap")
        with pytest.raises(ValueError, match="exactly one SCNR"):
            ExperimentSpec(kind="ddmap", sweep=())

    @pytest.mark.parametrize("kind, field", [
        ("detection", "sweep"), ("range-mse", "sweep"), ("velocity-mse", "sweep"),
        ("crlb", "sweep"), ("linkbudget", "sweep"), ("tradeoff", "sweep"),
        ("ambiguity", "doppler_grid"), ("tradeoff", "tradeoff_scnr_db"),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_values_rejected(self, kind, field, bad):
        # -inf dB would inject infinite noise and NaN would run NaN rows
        value = bad if field == "tradeoff_scnr_db" else (2.0, bad)
        kwargs = {"sweep": (2.0, 4.0), field: value}
        with pytest.raises(ValueError, match=f"{field} values must be finite"):
            ExperimentSpec(kind=kind, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(n_frames=0), dict(frame_k=0), dict(cpi_duration_s=0.0), dict(targets=()),
        dict(symbol_rate=np.inf), dict(cpi_duration_s=np.nan),
        dict(cpi_duration_s=np.inf), dict(n_horizontal=0), dict(n_vertical=-1),
        dict(eirp_dbm=50.0),
    ])
    def test_bad_scenario_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Scenario(**kwargs)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(rolloff=0.0), "rolloff"), (dict(rolloff=1.5), "rolloff"),
        (dict(rrc_span=47), "span"),
    ])
    def test_bad_pulse_rejected(self, kwargs, match):
        # every bench reads the pulse, the symbol-rate ones included
        with pytest.raises(ValueError, match=match):
            Scenario(**kwargs)

    @pytest.mark.parametrize("kind, sweep", [
        ("detection", (-20.0,)), ("range-mse", (10.0,)), ("velocity-mse", (10.0,)),
        ("tradeoff", (2,)), ("ddmap", (20.0,)),
    ])
    def test_negative_seed_rejected(self, kind, sweep, monkeypatch):
        # numpy's seed sequence refused it inside the first trial, after a
        # pool had started; nothing may run first
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(bench, "_map_trials", no_trials)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            run_experiment(ExperimentSpec(kind=kind, sweep=sweep, trials=2, seed=-1))

    def test_tradeoff_frame_count_below_one_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="tradeoff", sweep=(2, 0))

    def test_one_frame_velocity_rejected(self):
        # the Moose estimate needs two frames; no trial runs to find that out
        with pytest.raises(ValueError, match="M=1"):
            ExperimentSpec(kind="velocity-mse", scenario=Scenario(n_frames=1), sweep=(10.0,))
        with pytest.raises(ValueError, match="M=1"):
            ExperimentSpec(kind="tradeoff", sweep=(2, 1))

    def test_tradeoff_fractional_frame_count_rejected(self):
        # M = 2.5 would run, and be labelled, as M = 2
        with pytest.raises(ValueError, match="integers"):
            ExperimentSpec(kind="tradeoff", sweep=(2.5,))
        assert ExperimentSpec(kind="tradeoff", sweep=(2.0, 4)).sweep == (2.0, 4)

    @pytest.mark.parametrize("pfa", [0.0, 1.0, float("nan")])
    def test_pfa_outside_open_unit_interval_rejected(self, pfa):
        # caught here, not after every detection trial has run
        with pytest.raises(ValueError, match="pfa"):
            ExperimentSpec(kind="detection", sweep=(-20.0,), pfa=pfa)

    @pytest.mark.parametrize("kind, sweep", [("velocity-mse", (10.0,)),
                                             ("tradeoff", (2, 4))])
    def test_target_outside_moose_span_rejected(self, kind, sweep, monkeypatch):
        # 200 m/s aliases: the span at K = 12 800 is +-171.8 m/s, and narrower
        # at the trade-off's longer frames; nothing may run first
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(bench, "_map_trials", no_trials)
        scen = Scenario(targets=(Target(range_m=50.0, velocity_mps=-200.0),))
        spec = ExperimentSpec(kind=kind, scenario=scen, sweep=sweep, trials=2)
        with pytest.raises(ValueError, match="Moose span"):
            run_experiment(spec)

    @pytest.mark.parametrize("fields", [
        dict(detection_window_symbols=600),                      # lags from 4697 - 4800
        dict(targets=(Target(range_m=0.1),)),                    # lags from 9 - 24
        dict(detection_window_symbols=-2),
        # lags up to 9393 + 4160, past the stream's last full-template lag 9393 + 4096
        dict(detection_window_symbols=520, targets=(Target(range_m=100.0),)),
    ], ids=["wide", "near-target", "negative", "past-the-stream"])
    def test_detection_window_outside_the_stream_rejected(self, fields, monkeypatch):
        # a negative window is refused with its scenario, before any trial
        # runs; a window that leaves the stream's lags reads the stream
        # before 0 or past the echo, as the model allows, and searches every
        # lag its label says, 2 w Q + 1
        if fields.get("detection_window_symbols", 0) < 0:
            with pytest.raises(ValueError, match="detection_window_symbols"):
                Scenario(**fields)
            return
        windows = []

        def keep_window(rx, template, window):
            windows.append(window)
            return 0.0, 0

        monkeypatch.setattr(bench, "matched_preamble_statistic", keep_window)
        scen = Scenario(**fields)
        run_experiment(ExperimentSpec(kind="detection", scenario=scen, sweep=(-20.0,),
                                      trials=2))
        n_lags = 2 * scen.detection_window_symbols * scen.oversample + 1
        assert windows == [(0, n_lags)] * 2

    def test_ddmap_target_outside_cef_span_rejected(self):
        # the default Scenario's 50 m target lies past bin 511 (43.5 m)
        with pytest.raises(ValueError, match="CEF delay span"):
            run_experiment(ExperimentSpec(kind="ddmap", sweep=(20.0,)))

    @pytest.mark.parametrize("workers", [0, -2])
    def test_bad_worker_count_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_experiment(ExperimentSpec(kind="crlb", sweep=(0.0,), trials=1),
                           workers=workers)

    def test_scenario_roundtrip(self):
        scen = two_vehicle_scenario()
        again = Scenario.from_dict(scen.to_dict())
        assert again == scen

    def test_scenario_builds_its_pulse_once(self):
        # every trial reads the same RrcSpec, and so the same tap energy; a
        # pickled scenario still holds its fields alone
        scen = two_vehicle_scenario()
        assert scen.rrc is scen.rrc
        assert "rrc" not in scen.to_dict()
        again = pickle.loads(pickle.dumps(scen))
        assert again == scen and again.rrc == scen.rrc
        assert set(scen.__getstate__()) == {f.name for f in dataclasses.fields(Scenario)}


class TestDeterminism:
    def test_same_spec_same_bytes(self):
        spec = ExperimentSpec(kind="velocity-mse",
                              scenario=Scenario(n_frames=2),
                              sweep=(10.0,), trials=12, seed=3)
        a = run_experiment(spec).to_csv_text()
        b = run_experiment(spec).to_csv_text()
        assert a == b

    def test_worker_invariance(self):
        # velocity trials return a float, range trials a pair; the range and
        # detection pools carry their bound shaped template, and no point
        # carries an array
        for spec in (
            ExperimentSpec(kind="velocity-mse", scenario=Scenario(n_frames=2),
                           sweep=(10.0,), trials=16, seed=3),
            ExperimentSpec(kind="tradeoff", sweep=(2, 4), trials=16, seed=3),
            ExperimentSpec(kind="range-mse", sweep=(-6.0,), trials=16, seed=3),
            ExperimentSpec(kind="detection", sweep=(-26.0, -22.0), trials=16, seed=3,
                           pfa=1e-2),
        ):
            a = run_experiment(spec, workers=1).to_csv_text()
            b = run_experiment(spec, workers=2).to_csv_text()
            c = run_experiment(spec, workers=8).to_csv_text()
            assert a == b == c

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trial_j_of_point_i_draws_from_seed_i_j(self, workers):
        # the driver keeps a point's own index i, whatever points it is given
        spec = ExperimentSpec(kind="crlb", sweep=(0.0,), trials=5, seed=4)
        points = [(0, None, 10.0), (2, None, 20.0)]
        got = bench._monte_carlo(_draw, spec, points, workers)
        want = [[v + np.random.default_rng([4, i, j]).random() for j in range(5)]
                for i, _, v in points]
        assert [list(g) for g in got] == want

    def test_one_pool_per_monte_carlo_call(self, monkeypatch):
        pools = []

        class CountingPool(bench.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", CountingPool)
        spec = ExperimentSpec(kind="crlb", sweep=(0.0,), trials=4, seed=4)
        points = [(i, None, 10.0 * i) for i in range(3)]
        bench._monte_carlo(_draw, spec, points, 2)
        assert len(pools) == 1

    @pytest.mark.parametrize("spec, digest", [
        (ExperimentSpec(kind="detection", sweep=(-24.0, -22.0), trials=40, seed=7,
                        pfa=1e-4),
         "ca10b845decc52d95e108dce0c2bfd2f68cfa5b099c7db98ba8592bd908ce95a"),
        # an approaching target: the echo carries a -60 kHz Doppler ramp
        (ExperimentSpec(kind="detection", scenario=Scenario(targets=(
            Target(range_m=80.0, velocity_mps=-150.0),)), sweep=(-24.0,), trials=100,
            seed=3, pfa=1e-4),
         "e47a0c09c69b42c4aed54f323d60cd1a2b836d5ad71d65f771dfc70eccf69a45"),
        (ExperimentSpec(kind="range-mse", sweep=(0.0, 10.0), trials=6, seed=6),
         "ebc1b70df35b6bd2c1844ab1b4b1922b9b89e8b0e743747812e468283005e3df"),
        # enough trials, down to -6 dB, to pin the joint search's phase choices
        (ExperimentSpec(kind="range-mse", sweep=(-6.0, 0.0, 10.0), trials=40, seed=6),
         "4eda4955cc2175f95aa0f32302b1f94528e14f94882e13131ad17252f6a2bc41"),
        (ExperimentSpec(kind="velocity-mse", scenario=Scenario(n_frames=2),
                        sweep=(0.0, 10.0), trials=6, seed=3),
         "dfb2ca7d9c952ceb2a9097d1f9ff0cac34376a3c5dde2edcafc3ad7a5e15e3df"),
        # the velocity bench's own scale: the default Scenario, M = 10, K = 12 800
        (ExperimentSpec(kind="velocity-mse", sweep=(0.0, 20.0), trials=6, seed=3),
         "67caa5a378ad23f4acf00a734adb6f74fe05a455df9365ac57202a1ff91861a0"),
        (ExperimentSpec(kind="ddmap", scenario=two_vehicle_scenario(), sweep=(20.0,),
                        trials=1, seed=3, pfa=1e-4),
         "2e5a3c53f17be4b4f96a4409f4f1eb5dc58a91e3bed222a6ad9b3b13c0e2f392"),
        # the map bench's own scale: M = 64, a 512 x 1024 grid
        (ExperimentSpec(kind="ddmap", scenario=two_vehicle_scenario(n_frames=64),
                        sweep=(20.0,), trials=1, seed=3, pfa=1e-4),
         "71725bd538954b7717a7a7e2fe6b6c1cad13598afe0d67457d9d1f9a4839daa3"),
        # M = 32 leaves no room for data symbols: the infeasible row
        (ExperimentSpec(kind="tradeoff", sweep=(2, 4, 32), trials=4, seed=2),
         "e26a104ad143874ec5154bfb6e009c4ddcd9b390687090f30034d54e69a818a5"),
        # the infeasible M = 32 sits between two run points: M = 4 keeps index 2
        (ExperimentSpec(kind="tradeoff", sweep=(2, 32, 4), trials=4, seed=2),
         "f1dcd7b0f36c25cf1ca3172c43222c789e6d71df700240910fe69c9a5d93636c"),
    ], ids=["detection", "detection-doppler", "range-mse", "range-mse-40", "velocity-mse",
            "velocity-m10",
            "ddmap", "ddmap-m64", "tradeoff", "tradeoff-gap"])
    def test_golden_csv_bytes(self, spec, digest):
        # CSV bytes are a published result: a numerics change that moves a
        # decision or a digit has to change these digests on purpose
        import hashlib

        text = run_experiment(spec, workers=1).to_csv_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_manifest_contains_versions_and_seed(self):
        import json

        spec = ExperimentSpec(kind="crlb", sweep=(0.0,), trials=1, seed=9)
        m = json.loads(run_manifest(spec))
        assert m["experiment"]["seed"] == 9
        assert "numpy" in m["versions"]
        assert m["scenario"]["symbol_rate"] == 1.76e9

    def test_manifest_carries_every_experiment_field(self):
        import json

        spec = ExperimentSpec(kind="tradeoff", sweep=(2, 4), trials=1,
                              tradeoff_scnr_db=3.0)
        m = json.loads(run_manifest(spec))
        names = {f.name for f in dataclasses.fields(ExperimentSpec)} - {"scenario"}
        assert set(m["experiment"]) == names
        assert m["experiment"]["tradeoff_scnr_db"] == 3.0
        assert m["experiment"]["sweep"] == [2, 4]


class TestDetectionTrial:
    @pytest.mark.parametrize("target", [
        Target(range_m=50.0, velocity_mps=20.0),
        Target(range_m=80.0, velocity_mps=-150.0),
        # 1000.37 samples at 8 x 1.76 GHz: the delay's taps are shifted by 0.37
        Target(range_m=1000.37 / (8 * W) * SPEED_OF_LIGHT / 2, velocity_mps=7.0),
    ], ids=["50m", "80m-approaching", "fractional"])
    def test_stream_equals_the_full_frame_synthesis(self, target, monkeypatch):
        # the trial synthesizes the statistic's read of the whole frame's
        # stream, the lags (lo, hi) and the template's length past them, and
        # searches it from lag 0; its noise is drawn over that read alone
        # (at 300 dB it is below the rounding)
        reads = []

        def keep_read(rx, template, window):
            reads.append((rx, window))
            return 0.0, 0

        monkeypatch.setattr(bench, "matched_preamble_statistic", keep_read)
        scen = Scenario(targets=(target,))
        lag0 = round(target.delay() * W * scen.oversample)
        lo, hi = lag0 - 24, lag0 + 25
        q = scen.oversample
        template = PreambleTemplate(np.ones((2, (128 + scen.rrc_span) * q)),
                                    DEFAULT_PREAMBLE.blocks, 128 * q, 1.0)
        assert template.length == (PREAMBLE_LEN + scen.rrc_span) * q
        rng = bench._rng(5, 0, 1)
        bench._detection_trial(template, (lo, hi), scen, 300.0, rng)
        want_rng = bench._rng(5, 0, 1)
        symbols = assemble_frame(scen.layout(k=scen.detection_frame_k, header_len=0),
                                 want_rng)
        n_whole = lag0 + (len(symbols) + scen.rrc_span) * scen.oversample
        whole = synthesize_radar_rx(symbols, scen.rrc, W, [target], 0.0, scen.array, None,
                                    want_rng, start=0, length=n_whole)
        ((got, window),) = reads
        want = whole[lo : hi + template.length - 1]
        assert window == (0, hi - lo)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        draws = bench._rng(5, 0, 1)
        assemble_frame(scen.layout(k=scen.detection_frame_k, header_len=0), draws)
        draws.uniform(size=1)
        draws.standard_normal(2 * len(want))
        assert rng.bit_generator.state == draws.bit_generator.state

    def test_pickled_trial_is_small(self, monkeypatch):
        # the pool pickles the trial callable once per chunk: it carries the
        # template's two shaped 1 408-sample references (46 465 B with the
        # pickled scenario and block weights), never the whole shaped preamble
        sizes = []

        def no_trials(fn, jobs, workers):
            sizes.append(len(pickle.dumps(fn)))
            return [0.0] * len(jobs)

        monkeypatch.setattr(bench, "_map_trials", no_trials)
        run_experiment(ExperimentSpec(kind="detection", sweep=(-20.0,), trials=2))
        assert sizes and sizes[0] < 47_000


class TestVelocityTrial:
    @pytest.mark.parametrize("scen", [
        Scenario(),
        Scenario(targets=(Target(range_m=80.0, velocity_mps=-150.0),)),
        # 1000.37 symbols out: the kernel's taps are shifted by 0.37
        Scenario(targets=(Target(range_m=1000.37 / W * SPEED_OF_LIGHT / 2,
                                 velocity_mps=7.0),)),
        # nearer than the fine-timing span: the first window starts below 0
        Scenario(targets=(Target(range_m=2.0, velocity_mps=20.0),)),
        # a trade-off point: short frames, no header, the payload right
        # after the preamble
        Scenario(n_frames=3, frame_k=PREAMBLE_LEN + 200, header_len=0),
    ], ids=["default", "80m-approaching", "fractional", "2m", "tradeoff-no-header"])
    def test_rows_equal_the_full_window_synthesis(self, scen, monkeypatch):
        # the preamble's columns convolved once for all rows, and each row's
        # ends from its own symbols, are one noiseless synthesis of the whole
        # windows that repeats nothing; the trial then draws the noise of
        # frame 0's 65 matched outputs and one complex value per later frame
        kept = []
        synth = bench.synthesize_radar_rx_symbol_rate

        def keep_rows(*args, **kwargs):
            rows = synth(*args, **kwargs)
            kept.append(rows.copy())   # the trial adds noise and compresses in place
            return rows

        monkeypatch.setattr(bench, "synthesize_radar_rx_symbol_rate", keep_rows)
        rng, want_rng = bench._rng(5, 0, 1), bench._rng(5, 0, 1)
        bench._velocity_trial(bench._fine_noise_factor(), scen, 40.0, rng)
        target, m, k = scen.targets[0], scen.n_frames, scen.frame_k
        windows = partial(assemble_cpi, m, scen.layout(), seed=int(want_rng.integers(2**63)))
        lo = int(np.round(target.delay() / TS)) - 32
        want = synthesize_radar_rx_symbol_rate(
            windows, scen.rrc, W, [target], 0.0, scen.array, None, want_rng,
            starts=lo + np.arange(m) * k, length=64 + PREAMBLE_LEN)
        (got,) = kept
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        want_rng.standard_normal(2 * 65)
        want_rng.standard_normal(2 * (m - 1))
        assert rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("m", [2, 10])
    def test_later_frames_get_their_noise_on_the_compressed_value(self, m, monkeypatch):
        # frames 1..M-1 are read only through q_m = sum_k s_k y_m[fine + k]:
        # q_m is the noiseless row's compression plus the trial's last
        # 2 (M - 1) normals, real parts first, scaled to variance sigma^2 ||s||^2
        seen = {}
        synth = bench.synthesize_radar_rx_symbol_rate
        fine_timing = bench.fine_timing_preamble

        def keep_rows(*args, **kwargs):
            rows = synth(*args, **kwargs)
            seen["rows"] = rows.copy()   # the trial adds noise and compresses in place
            return rows

        def keep_fine(y, window, noise):
            found = fine_timing(y, window, noise=noise)
            seen["fine"] = found[0]
            return found

        def keep_q(q, **kwargs):
            seen["q"] = q.copy()
            return 0.0

        monkeypatch.setattr(bench, "synthesize_radar_rx_symbol_rate", keep_rows)
        monkeypatch.setattr(bench, "fine_timing_preamble", keep_fine)
        monkeypatch.setattr(bench, "estimate_velocity_moose", keep_q)
        scen, scnr_db = Scenario(n_frames=m), 3.0
        rng = bench._rng(8, 1, 2)
        bench._velocity_trial(bench._fine_noise_factor(), scen, scnr_db, rng)
        rows, fine, q = seen["rows"], seen["fine"], seen["q"]
        s = DEFAULT_PREAMBLE.symbols
        compressed = (rows[1:, fine : fine + PREAMBLE_LEN] * s).sum(axis=1)

        draws = bench._rng(8, 1, 2)
        draws.integers(2**63)
        draws.uniform(size=1)
        draws.standard_normal(2 * 65)
        # ||s||^2 = P: the preamble is +-1
        z = draws.standard_normal(2 * (m - 1)) * np.sqrt(10 ** (-scnr_db / 10) * PREAMBLE_LEN / 2)
        noise = z[: m - 1] + 1j * z[m - 1 :]
        np.testing.assert_allclose(q[1:] - compressed, noise, rtol=0, atol=1e-9)
        assert rng.bit_generator.state == draws.bit_generator.state

    @pytest.mark.parametrize("m", [2, 10])
    def test_frame_0_gets_its_noise_on_its_matched_outputs(self, m, monkeypatch):
        # row 0 stays noiseless: fine timing adds nu, the next 2 x 65 normals
        # (real parts first) through the factor, to the row's 65-lag
        # full-preamble correlation c; fine is the first argmax of |c + nu|^2
        # and q_0 = (c + nu)(fine)
        seen = {}
        synth = bench.synthesize_radar_rx_symbol_rate

        def keep_rows(*args, **kwargs):
            rows = synth(*args, **kwargs)
            seen["row0"] = rows[0].copy()
            return rows

        def keep_q(q, **kwargs):
            seen["q"] = q.copy()
            return 0.0

        monkeypatch.setattr(bench, "synthesize_radar_rx_symbol_rate", keep_rows)
        monkeypatch.setattr(bench, "estimate_velocity_moose", keep_q)
        scen, scnr_db = Scenario(n_frames=m), -12.0
        factor = bench._fine_noise_factor()
        bench._velocity_trial(factor, scen, scnr_db, bench._rng(4, 0, 7))
        c = np.correlate(seen["row0"], DEFAULT_PREAMBLE.symbols, mode="valid")
        assert len(c) == 65

        draws = bench._rng(4, 0, 7)
        draws.integers(2**63)
        draws.uniform(size=1)
        z = draws.standard_normal(2 * 65) * np.sqrt(10 ** (-scnr_db / 10) / 2)
        noisy = c + factor @ (z[:65] + 1j * z[65:])
        fine = int(np.argmax(np.abs(noisy) ** 2))
        assert seen["q"][0] == pytest.approx(noisy[fine], rel=1e-12)

    def test_pickled_trial_is_small(self, monkeypatch):
        # the pool pickles the trial callable once per chunk: it carries the
        # 65 x 65 noise factor (33 800 B) and the pickled scenario, never a
        # trial's rows
        sizes = []

        def no_trials(fn, jobs, workers):
            sizes.append(len(pickle.dumps(fn)))
            return [0.0] * len(jobs)

        monkeypatch.setattr(bench, "_map_trials", no_trials)
        run_experiment(ExperimentSpec(kind="velocity-mse", sweep=(10.0,), trials=2))
        assert sizes and sizes[0] < 40_000

    def test_compressed_noise_has_the_correlation_domain_law(self, monkeypatch):
        # with no echo, q_1..q_{M-1} are the noise alone: real and imaginary
        # parts each of variance sigma^2 ||s||^2 / 2, uncorrelated
        scen, scnr_db = Scenario(), 5.0
        kept = []

        def no_echo(*args, starts, length, **kwargs):
            return np.zeros((len(starts), length), dtype=complex)

        def keep_q(q, **kwargs):
            kept.append(q[1:].copy())
            return 0.0

        monkeypatch.setattr(bench, "synthesize_radar_rx_symbol_rate", no_echo)
        monkeypatch.setattr(bench, "estimate_velocity_moose", keep_q)
        trial = partial(bench._velocity_trial, bench._fine_noise_factor())
        for j in range(500):
            trial(scen, scnr_db, bench._rng(13, 0, j))
        q = np.concatenate(kept)
        assert len(q) == 500 * (scen.n_frames - 1)
        s = DEFAULT_PREAMBLE.symbols
        half = 10 ** (-scnr_db / 10) * np.vdot(s, s).real / 2
        for part in (q.real, q.imag):
            assert abs(np.var(part) / half - 1) < 0.1
        assert abs(np.corrcoef(q.real, q.imag)[0, 1]) < 0.06

    def test_near_target_searches_every_lag(self, monkeypatch):
        # a 2 m target sits ~23 symbols out: fine timing still searches the
        # 65 lags from 32 symbols before the expected echo to 32 after, all
        # of them inside frame 0's window
        seen = {}
        synth, fine = bench.synthesize_radar_rx_symbol_rate, bench.fine_timing_preamble

        def keep_start(*args, starts, **kwargs):
            seen["start"] = starts[0]
            return synth(*args, starts=starts, **kwargs)

        def keep_window(y, window, noise):
            seen["window"], seen["len"] = window, len(y)
            return fine(y, window, noise=noise)

        monkeypatch.setattr(bench, "synthesize_radar_rx_symbol_rate", keep_start)
        monkeypatch.setattr(bench, "fine_timing_preamble", keep_window)
        scen = Scenario(targets=(Target(range_m=2.0, velocity_mps=20.0),))
        bench._velocity_trial(bench._fine_noise_factor(), scen, 20.0, bench._rng(1, 0, 0))
        expect = int(np.round(scen.targets[0].delay() / TS))
        lo, hi = seen["window"]
        assert (seen["start"] + lo, seen["start"] + hi) == (expect - 32, expect + 33)
        assert 0 <= lo and hi - 1 + PREAMBLE_LEN <= seen["len"]


class TestRangeTrial:
    def test_near_target_searches_from_lag_zero(self, monkeypatch):
        # a 20 m target sits 235 symbols out, nearer than the 384-symbol
        # search span: the trial passes the lags that fit, from lag 0
        seen = {}
        delay = bench.preamble_delay

        def keep_window(rx, template, window, spectrum):
            seen["window"] = window
            return delay(rx, template, window, spectrum)

        monkeypatch.setattr(bench, "preamble_delay", keep_window)
        scen = Scenario(targets=(Target(range_m=20.0),))
        template = bench.pulse_shape(DEFAULT_PREAMBLE.symbols, scen.rrc, W)
        spectrum = bench._conj_spectrum(template, 768 * scen.oversample + len(template))
        bench._range_trial(template, spectrum, scen, 20.0, bench._rng(4, 0, 0))
        expect = 235 * scen.oversample
        assert seen["window"] == (0, expect + 384 * scen.oversample + 1)


class TestStatisticalConventions:
    def test_half_width_shrinks_with_trials(self):
        # binomial half-widths: a 4x trial increase halves them within 20%
        small = run_experiment(ExperimentSpec(
            kind="detection", sweep=(-24.0,), trials=64, seed=21, pfa=1e-4))
        big = run_experiment(ExperimentSpec(
            kind="detection", sweep=(-24.0,), trials=256, seed=21, pfa=1e-4))
        hw_small = [r[4] for r in small.rows if r[1] == "pd"][0]
        hw_big = [r[4] for r in big.rows if r[1] == "pd"][0]
        ratio = hw_big / hw_small
        assert 0.5 * 0.8 <= ratio <= 0.5 * 1.2

    def test_mse_not_below_crlb(self):
        scen = Scenario(n_frames=2)
        table = run_experiment(ExperimentSpec(
            kind="velocity-mse", scenario=scen, sweep=(0.0, 10.0), trials=100,
            seed=2))
        for s in (0.0, 10.0):
            mse = table.value(s, "velocity_mse_m2s2")
            crlb = table.value(s, "velocity_crlb_exact_m2s2")
            hw = [r[4] for r in table.rows
                  if r[1] == "velocity_mse_m2s2" and r[0] == s][0]
            assert mse >= crlb - 2 * hw

    def test_kay_velocity_mse_meets_exact_crlb(self):
        # Kay's weighted phase average reaches the exact bound at M = 16
        table = run_experiment(ExperimentSpec(
            kind="velocity-mse", scenario=Scenario(n_frames=16), sweep=(10.0,),
            trials=300, seed=11))
        gap_db = 10 * np.log10(table.value(10.0, "velocity_mse_m2s2")
                               / table.value(10.0, "velocity_crlb_exact_m2s2"))
        assert abs(gap_db) <= 1.0

    def test_refined_range_mse_meets_preamble_crlb(self):
        # the parabola on the joint peak reaches the bound of what it
        # correlates: the whole RC-shaped preamble
        table = run_experiment(ExperimentSpec(kind="range-mse", sweep=(-6.0,),
                                              trials=400, seed=3))
        gap_db = 10 * np.log10(table.value(-6.0, "range_mse_refined_m2")
                               / table.value(-6.0, "range_crlb_preamble_m2"))
        assert abs(gap_db) <= 1.0


class TestKindsRun:
    def test_detection_pd_monotone_in_scnr(self):
        spec = ExperimentSpec(kind="detection", sweep=(-26.0, -22.0, -18.0),
                              trials=200, seed=13, pfa=1e-4)
        table = run_experiment(spec)
        pds = [table.value(s, "pd") for s in spec.sweep]
        assert pds[0] <= pds[1] <= pds[2]
        assert pds[2] > 0.99

    def test_crlb_kind(self):
        table = run_experiment(ExperimentSpec(kind="crlb", sweep=(0.0, 10.0), trials=1))
        assert table.value(0.0, "range_crlb_m2") == pytest.approx(5.3829e-7, rel=1e-3)

    def test_linkbudget_kind(self):
        table = run_experiment(ExperimentSpec(kind="linkbudget",
                                              sweep=(50.0, 100.0), trials=1))
        assert table.value(50.0, "snr_com_db") > table.value(50.0, "scnr_rad_db")

    def test_ambiguity_kind(self):
        spec = ExperimentSpec(kind="ambiguity", doppler_grid=(0.0, 1e6), trials=1)
        table = run_experiment(spec)
        assert table.value(0, "mag@nu=0Hz") == pytest.approx(1024.0)

    def test_tradeoff_kind_small(self):
        spec = ExperimentSpec(kind="tradeoff", sweep=(2, 64), trials=8, seed=1,
                              scenario=Scenario(cpi_duration_s=6e-5))
        table = run_experiment(spec)
        assert table.value(2, "data_rate_bps") > 1e9
        # M = 64 leaves no payload room inside 0.06 ms -> infeasible row
        assert table.value(64, "infeasible") == 1.0

    @pytest.mark.parametrize("k, feasible", [(3360, False), (3391, False), (3392, True)])
    def test_tradeoff_frame_must_hold_the_read_window(self, k, feasible):
        # without a header, a frame of 3 329-3 391 symbols holds a payload but
        # not a velocity trial's 2 x 32 + 3 328-symbol read window
        scen = Scenario(header_len=0, cpi_duration_s=2 * k / W)
        table = run_experiment(ExperimentSpec(kind="tradeoff", sweep=(2,), trials=2,
                                              seed=5, scenario=scen))
        metrics = {metric for _, metric, *_ in table.rows}
        assert metrics == ({"velocity_rmse_mps", "data_rate_bps", "velocity_crlb_exact_m2s2"}
                           if feasible else {"infeasible"})
