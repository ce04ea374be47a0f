"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  Stated tolerances are pinned here, not configurable.

Criterion 5's two detection gates are asserted exactly as stated.  Note that
the coherent preamble matched filter is the optimal single-frame detector and
its theoretical ceiling (printed next to the measurement) sits below the
first gate; see the project notes for the analysis.
"""

import subprocess
import sys
import time
from functools import partial

import numpy as np

from wlanradar.airlink import Target, synthesize_radar_rx_symbol_rate
from wlanradar.bench import ExperimentSpec, Scenario, run_experiment, two_vehicle_scenario
from wlanradar.dsp import RrcSpec
from wlanradar.frame import FrameLayout, assemble_cpi, assemble_frame
from wlanradar.golay import aperiodic_autocorr, generate_golay_pair
from wlanradar.radar import (
    build_delay_doppler_map,
    cfar_threshold,
    crlb_range,
    crlb_velocity,
    detect_targets_map,
    detection_probability,
    estimate_velocity_moose,
    moose_ambiguity_limit,
)
from wlanradar.sync import estimate_channel_cef

W = 1.76e9
TS = 1 / W
LAM = 299792458.0 / 60e9


def _report(criterion: str, ok: bool, detail: str) -> str:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return line


def test_criterion_1_golay_complementarity():
    t0 = time.time()
    ok = True
    details = []
    for n in (128, 256, 512):
        pair = generate_golay_pair(n)
        s = aperiodic_autocorr(pair.a) + aperiodic_autocorr(pair.b)
        expected = np.zeros(2 * n - 1, dtype=np.int64)
        expected[n - 1] = 2 * n
        exact = np.array_equal(s, expected)
        ok &= exact
        details.append(f"N={n} residue={np.abs(s - expected).max()}")
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    line = _report("1 golay", ok, f"{'; '.join(details)}; {elapsed:.2f}s")
    assert ok, line


def test_criterion_2_cef_delta():
    # synchronized noiseless single target on the discrete received model
    t0 = time.time()
    es = 2.0
    h0 = 0.8 - 0.3j
    frame = assemble_frame(FrameLayout(k=4352, header_len=0), seed=0)
    y = np.sqrt(es) * h0 * frame.astype(complex)
    h = estimate_channel_cef(y, start=2176, gated=True)
    peak_err = abs(h[256] - np.sqrt(es) * h0)
    off = np.abs(np.delete(h, 256)).max()
    elapsed = time.time() - t0
    ok = peak_err < 1e-9 and off < 1e-9 and elapsed < 1.0
    line = _report("2 cef-delta", ok,
                   f"|h[256]-sqrt(Es)h0|={peak_err:.2e}, max other bin={off:.2e}, "
                   f"{elapsed:.2f}s")
    assert ok, line


def test_criterion_3_crlb_formulas():
    sigma_rho_mm = np.sqrt(crlb_range(1.0, p=2048, bandwidth=W)) * 1e3
    ok1 = 0.7 <= sigma_rho_mm <= 0.8

    sigma_v = np.sqrt(crlb_velocity(10**4.5, "single", p=2048, ts=TS, wavelength=LAM))
    ok2 = 0.095 <= sigma_v <= 0.115

    rel = []
    for zeta in (10.0, 10**2, 10**4.5):
        e26 = crlb_velocity(zeta, "single", p=2048, ts=TS, wavelength=LAM)
        e28 = crlb_velocity(zeta, "exact", p=2048, m=1, k=12800, ts=TS, wavelength=LAM)
        rel.append(abs(e28 / e26 - 1))
    ok3 = max(rel) < 0.01

    ok = ok1 and ok2 and ok3
    line = _report("3 crlb-formulas", ok,
                   f"sigma_rho={sigma_rho_mm:.3f} mm in [0.7,0.8]; "
                   f"sigma_v={sigma_v:.4f} m/s in [0.095,0.115]; "
                   f"exact/Eq26 max dev={max(rel):.2e} < 1%")
    assert ok, line


def test_criterion_4_cfar_calibration():
    t0 = time.time()
    rng = np.random.default_rng(4)
    n = 100_000
    noise_var = 2.3
    ok = True
    details = []
    for pfa in (1e-1, 1e-2, 1e-3):
        stats = noise_var / 2 * (rng.standard_normal(n) ** 2 + rng.standard_normal(n) ** 2)
        chi = cfar_threshold(noise_var, pfa)
        rate = np.mean(stats > chi)
        sigma = np.sqrt(pfa * (1 - pfa) / n)
        ok &= abs(rate - pfa) < 3 * sigma
        details.append(f"pfa={pfa:g}: rate={rate:.5f} ({abs(rate - pfa) / sigma:.1f} sigma)")
    elapsed = time.time() - t0
    ok &= elapsed < 30
    line = _report("4 cfar", ok, f"{'; '.join(details)}; {elapsed:.1f}s")
    assert ok, line


def _measured_pd(scnr_db: float, pfa: float, trials: int, seed: int) -> float:
    spec = ExperimentSpec(kind="detection", sweep=(scnr_db,), trials=trials,
                          seed=seed, pfa=pfa)
    table = run_experiment(spec)
    return table.value(scnr_db, "pd")


def test_criterion_5a_detection_pfa_1e4():
    pd = _measured_pd(-24.3, 1e-4, trials=2000, seed=7)
    ceiling = detection_probability(10 ** (-2.43), 1e-4, 3328)
    ok = pd >= 0.88
    line = _report("5a detect(-24.3dB,1e-4)", ok,
                   f"Pd={pd:.4f} vs gate 0.88 (optimal-detector ceiling {ceiling:.4f})")
    assert ok, line


def test_criterion_5b_detection_pfa_1e6():
    pd = _measured_pd(-20.5, 1e-6, trials=2000, seed=7)
    ceiling = detection_probability(10 ** (-2.05), 1e-6, 3328)
    ok = pd >= 0.995
    line = _report("5b detect(-20.5dB,1e-6)", ok,
                   f"Pd={pd:.4f} vs gate 0.995 (optimal-detector ceiling {ceiling:.4f})")
    assert ok, line


def test_criterion_6_range_mse():
    spec = ExperimentSpec(kind="range-mse", sweep=(0.0, 5.0, 10.0), trials=500, seed=6)
    table = run_experiment(spec)
    ok = True
    details = []
    for s in spec.sweep:
        mse = table.value(s, "range_mse_m2")
        crlb = table.value(s, "range_crlb_m2")
        gap_cm2 = (mse - crlb) * 1e4
        ok &= mse <= 0.01 and mse >= crlb and gap_cm2 <= 2.0
        details.append(f"{s:g}dB: mse={mse:.3e} m^2, gap={gap_cm2:.3f} cm^2")
    line = _report("6 range-mse", ok, "; ".join(details))
    assert ok, line


def test_criterion_7_velocity_mse():
    ok = True
    details = []
    for m in (2, 5):
        scen = Scenario(n_frames=m)
        spec = ExperimentSpec(kind="velocity-mse", sweep=(0.0, 10.0, 20.0),
                              trials=500, seed=70 + m, scenario=scen)
        table = run_experiment(spec)
        for s in spec.sweep:
            mse = table.value(s, "velocity_mse_m2s2")
            crlb = table.value(s, "velocity_crlb_multi_m2s2")
            gap_db = 10 * np.log10(mse / crlb)
            ok &= abs(gap_db) <= 3.0
            details.append(f"M={m},{s:g}dB: {gap_db:+.2f} dB")

    # noiseless estimator exactness inside the unambiguous velocity span
    k = 12800
    v = 0.9 * moose_ambiguity_limit(k, TS, LAM)
    nu = 2 * v / LAM
    p = np.concatenate([
        np.exp(2j * np.pi * nu * (mm * k + np.arange(3328)) * TS) for mm in range(5)
    ])
    v_hat = estimate_velocity_moose(p, n_d=k, p_len=3328, m=5, ts=TS, wavelength=LAM)
    rel = abs(v_hat / v - 1)
    ok &= rel < 1e-9
    details.append(f"noiseless rel err={rel:.1e}")
    line = _report("7 velocity-mse", ok, "; ".join(details))
    assert ok, line


def test_criterion_8_tradeoff_exists():
    spec = ExperimentSpec(kind="tradeoff", sweep=(2, 4, 8, 16), trials=200,
                          seed=8, scenario=Scenario(cpi_duration_s=6e-5),
                          tradeoff_scnr_db=10.0)
    table = run_experiment(spec)
    winners = []
    for m in spec.sweep:
        try:
            rate = table.value(m, "data_rate_bps")
            rmse = table.value(m, "velocity_rmse_mps")
        except KeyError:
            continue
        if rate >= 1e9 and rmse <= 0.1:
            winners.append((m, rate, rmse))
    ok = len(winners) > 0
    detail = "; ".join(f"M={m}: {r / 1e9:.2f} Gbps, rmse={e:.3f} m/s"
                       for m, r, e in winners) or "no qualifying M"
    line = _report("8 tradeoff", ok, detail)
    assert ok, line


def test_criterion_9_multitarget_map():
    # part 1: the two-vehicle scenario at M=10, K=12800
    spec = ExperimentSpec(kind="ddmap", scenario=two_vehicle_scenario(),
                          sweep=(20.0,), trials=1, seed=3, pfa=1e-4)
    table = run_experiment(spec)
    bins = sorted(int(table.value(i, "delay_bin")) for i in (0, 1))
    ok = bins == [118, 168]
    delay_w = table.value(0, "delay_3db_bins")
    ok &= delay_w <= 2.0
    vel_w = table.value(0, "velocity_3db_mps")
    ok &= 34.375 * 0.9 <= vel_w <= 34.375 * 1.1

    # part 2: CPI >= 4.2 ms resolves a 0.6 m/s separation
    m_long, k = 860, 12800
    t_int = m_long * k * TS
    assert t_int >= 4.2e-3
    v0 = 20.0
    targets = [
        Target(range_m=25.0, velocity_mps=v0),
        Target(range_m=25.0, velocity_mps=v0 + 0.6),
    ]
    cpi = partial(assemble_cpi, m_long, FrameLayout(k=k), seed=9)
    # one window over the whole CPI and its echo tail
    n_y = m_long * k + int(np.ceil(max(t.delay() / TS for t in targets))) + 16
    y = synthesize_radar_rx_symbol_rate(cpi, RrcSpec(span=16), W, targets, 1e-3,
                                        two_vehicle_scenario().array, None,
                                        np.random.default_rng(9), starts=[0], length=n_y)[0]
    d_bin = int(round(targets[0].delay() / TS))
    rows = []
    for mm in range(m_long):
        start = mm * k + 2176 + 256
        rows.append(estimate_channel_cef(y, start, gated=False))
    h = np.array(rows)
    ddm = build_delay_doppler_map(h, zero_pad=16, ts=TS, frame_len=k, wavelength=LAM)
    dets = detect_targets_map(ddm, 1e-6, bin_noise_var=1e-3 / 1024)
    same_bin = [d for d in dets if d.delay_bin == d_bin]
    vels = sorted(d.velocity_mps for d in same_bin[:2])
    dv_bin = LAM / (2 * t_int)
    resolved = (len(same_bin) >= 2
                and abs(vels[0] - v0) <= dv_bin / 2
                and abs(vels[1] - (v0 + 0.6)) <= dv_bin / 2)
    ok &= resolved

    line = _report(
        "9 ddmap", ok,
        f"bins={bins}, delay 3dB={delay_w:g} bins, doppler 3dB={vel_w:.2f} m/s, "
        f"T_int={t_int * 1e3:.2f} ms resolves dv=0.6: {resolved} (vels={np.round(vels, 3) if same_bin else '—'})",
    )
    assert ok, line


def test_criterion_10_cli_determinism(tmp_path):
    outputs = []
    for w in ("1", "2", "8"):
        out = tmp_path / f"det{w}.csv"
        r = subprocess.run(
            [sys.executable, "-m", "wlanradar.cli", "velocity", "--scnr", "10",
             "--trials", "16", "--seed", "7", "--frames", "2",
             "--workers", w, "--out", str(out)],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    line = _report("10 determinism", ok,
                   f"CSV bytes identical across workers 1/2/8: {ok}")
    assert ok, line
