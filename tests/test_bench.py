import dataclasses
import pickle

import numpy as np
import pytest

from wlanradar import bench
from wlanradar.airlink import Target
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
from wlanradar.golay import generate_golay_pair

W = 1.76e9
TS = 1 / W


def _draw(scen, value, rng):
    return value + rng.random()


def _blas_threads(scen, value, rng):
    return bench._openblas_threads()[0]()


class TestAmbiguity:
    def setup_method(self):
        self.pair = generate_golay_pair(512)
        self.waveform = np.concatenate([self.pair.a, self.pair.b]).astype(complex)

    def test_zero_doppler_pair_cut_is_delta(self):
        lags = np.arange(-64, 65)
        amb = ambiguity_function(self.waveform, lags, [0.0], TS, pair=self.pair)
        peak = np.argmax(amb[0])
        assert lags[peak] == 0
        assert amb[0, peak] == pytest.approx(1024.0)
        off = np.delete(amb[0], peak)
        assert off.max() < 1e-9

    def test_doppler_intolerance(self):
        # peak decays as the Doppler shift grows
        t_p = 1024 * TS
        dopplers = [0.0, 0.25 / t_p, 0.5 / t_p, 1.0 / t_p]
        amb = ambiguity_function(self.waveform, [0], dopplers, TS, pair=self.pair)
        peaks = amb[:, 0]
        assert all(b < a for a, b in zip(peaks, peaks[1:]))

    def test_doppler_grid_bounded(self):
        with pytest.raises(ValueError):
            ambiguity_function(self.waveform, [0], [W], TS, pair=self.pair)


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
        # velocity trials return a float; range trials a pair, and the pool
        # carries their bound shaped template
        for spec in (
            ExperimentSpec(kind="velocity-mse", scenario=Scenario(n_frames=2),
                           sweep=(10.0,), trials=16, seed=3),
            ExperimentSpec(kind="range-mse", sweep=(-6.0,), trials=16, seed=3),
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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trials_run_on_one_blas_thread(self, workers):
        # the pool is the only parallelism; the caller's BLAS count comes back
        blas = bench._openblas_threads()
        if blas is None:
            pytest.skip("numpy has no bundled scipy-openblas")
        get, set_threads = blas
        before = get()
        set_threads(2)
        try:
            spec = ExperimentSpec(kind="crlb", sweep=(0.0,), trials=4, seed=4)
            got = bench._monte_carlo(_blas_threads, spec, [(0, None, 0.0)], workers)
            assert list(got[0]) == [1, 1, 1, 1]
            assert get() == 2
        finally:
            set_threads(before)

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
         "5119f39c90918fe397f2381c361152b7986534dd47028e97ad39104a28938876"),
        # an approaching target: the echo carries a -60 kHz Doppler ramp
        (ExperimentSpec(kind="detection", scenario=Scenario(targets=(
            Target(range_m=80.0, velocity_mps=-150.0),)), sweep=(-24.0,), trials=100,
            seed=3, pfa=1e-4),
         "ca29c6c8f67bba1c6156296c744682e4810f6b36cf37b8e94601e6d0387005e8"),
        (ExperimentSpec(kind="range-mse", sweep=(0.0, 10.0), trials=6, seed=6),
         "2936a55f390e9cc47ae596484254605b2526254e07fb387b3053dd766bc25de0"),
        # enough trials, down to -6 dB, to pin the joint search's phase choices
        (ExperimentSpec(kind="range-mse", sweep=(-6.0, 0.0, 10.0), trials=40, seed=6),
         "34e1addc269beaea915322aa716a617ba1a5d806a963f0a41307fe6df9f1fe5a"),
        (ExperimentSpec(kind="velocity-mse", scenario=Scenario(n_frames=2),
                        sweep=(0.0, 10.0), trials=6, seed=3),
         "f9fe1b72fde29f6c59a3408cbc4561a0fe469937b3cad166615d28420c4e1e9b"),
        # the velocity bench's own scale: the default Scenario, M = 10, K = 12 800
        (ExperimentSpec(kind="velocity-mse", sweep=(0.0, 20.0), trials=6, seed=3),
         "6b8e551f98caa3f89b4912cf3d12ef51d8e8b49ba08b11a08faae699d9cbf968"),
        (ExperimentSpec(kind="ddmap", scenario=two_vehicle_scenario(), sweep=(20.0,),
                        trials=1, seed=3, pfa=1e-4),
         "f32c6c0fdaf3d31ee84109b70f6b5668b64666cef7bcc59215a74528d80ca52f"),
        # the map bench's own scale: M = 64, a 512 x 1024 grid
        (ExperimentSpec(kind="ddmap", scenario=two_vehicle_scenario(n_frames=64),
                        sweep=(20.0,), trials=1, seed=3, pfa=1e-4),
         "0b6f4a970f26868c6e8956401ebd2381a95c0c0b3bb417d341e20d5aa9c5f1c7"),
        # M = 32 leaves no room for data symbols: the infeasible row
        (ExperimentSpec(kind="tradeoff", sweep=(2, 4, 32), trials=4, seed=2),
         "7237ccf83fc22f842dcbd0efd9e9a6dbda27587b773c4c20fe6be83728ca0ab3"),
        # the infeasible M = 32 sits between two run points: M = 4 keeps index 2
        (ExperimentSpec(kind="tradeoff", sweep=(2, 32, 4), trials=4, seed=2),
         "8abe4865a9213cadbe0df92b377b4d438765dded70db2246432f4f1defa82426"),
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
