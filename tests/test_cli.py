import argparse
import json
import subprocess
import sys

import pytest

from wlanradar import bench
from wlanradar.cli import build_parser, main

CLI = [sys.executable, "-m", "wlanradar.cli"]


def run_cli(*args, **kwargs):
    return subprocess.run([*CLI, *args], capture_output=True, text=True, **kwargs)


class TestCrlbCommand:
    def test_range_value_printed(self):
        r = run_cli("crlb", "--eq", "range", "--scnr", "0", "--P", "2048")
        assert r.returncode == 0
        value = float(r.stdout.split()[0])
        assert 5.3e-7 < value < 5.5e-7
        assert "m^2" in r.stdout

    def test_velocity_value(self):
        r = run_cli("crlb", "--eq", "velocity", "--scnr", "45", "--P", "2048")
        assert r.returncode == 0
        assert "0.104" in r.stdout

    def test_exact_velocity_value_reads_frame_symbols(self, capsys):
        argv = ["crlb", "--eq", "velocity", "--mode", "exact", "--frames", "2", "--scnr", "0"]
        assert main([*argv, "--frame-symbols", "6400"]) == 0
        assert capsys.readouterr().out.startswith("5.64656192 (m/s)^2")

    @pytest.mark.parametrize("argv, match", [
        ("--eq range --P 0", "P must be at least one symbol"),
        ("--eq velocity --P 0", "P must be at least one symbol"),
        ("--eq range --P -5", "P must be at least one symbol"),
        ("--eq velocity --mode multi --frames 0", "M >= 1"),
        ("--eq velocity --mode exact --frames 0", "M >= 1"),
        # two training blocks of P = 2048 symbols cannot sit 100 symbols apart
        ("--eq velocity --mode exact --frames 2 --frame-symbols 100", "K=100"),
        ("--eq velocity --mode multi --frames 2 --frame-symbols 100", "K=100"),
        ("--eq range --scnr inf", "SCNR must be positive and finite (linear), got inf"),
        ("--eq velocity --mode exact --frames 4 --scnr inf",
         "SCNR must be positive and finite (linear), got inf"),
        ("--eq resolution --tint nan", "arguments must be positive and finite"),
        ("--eq resolution --tint inf", "arguments must be positive and finite"),
    ])
    def test_bad_bound_input_fails_loudly(self, argv, match, capsys):
        # these gave ZeroDivisionError or ValueError tracebacks, or printed a
        # negative or overlapping-block bound, 0 m^2, nan (m/s)^2 or a NaN or
        # zero velocity resolution with exit 0
        assert main(["crlb", *argv.split()]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and match in err

    def test_resolution(self):
        r = run_cli("crlb", "--eq", "resolution", "--tint", "4.2e-3")
        assert r.returncode == 0
        assert "0.59" in r.stdout


class TestErrors:
    def test_unknown_flag(self):
        r = run_cli("detect", "--frobnicate")
        assert r.returncode != 0

    def test_unknown_command(self):
        r = run_cli("explode")
        assert r.returncode != 0

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "cfg.json"
        for text in ("{not json", "[1, 2]"):
            bad.write_text(text)
            r = run_cli("range", "--config", str(bad), "--trials", "1")
            assert r.returncode != 0
            assert "config" in (r.stderr + r.stdout).lower()

    def test_zero_pfa_rejected(self):
        r = run_cli("detect", "--pfa", "0")
        assert r.returncode == 1
        assert r.stderr.startswith("error:") and "pfa" in r.stderr

    def test_zero_trials_rejected(self):
        r = run_cli("detect", "--trials", "0")
        assert r.returncode == 1
        assert r.stderr.startswith("error:") and "trials" in r.stderr

    def test_ddmap_takes_one_scnr(self, capsys):
        assert main(["ddmap", "--scnr", "10", "40"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "(10.0, 40.0)" in err

    @pytest.mark.parametrize("cfg, key", [
        ({"scenrio": {"n_frames": 2}}, "scenrio"),
        ({"experiment": {"trails": 3}}, "trails"),
        ({"experiment": {"kind": "detection"}}, "kind"),
        ({"experiment": {"scenario": {}}}, "scenario"),
    ])
    def test_unknown_config_key_rejected(self, tmp_path, cfg, key, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["range", "--config", str(path), "--trials", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize("key, value", [
        ("trials", "3"), ("pfa", "x"), ("sweep", ["a"]), ("seed", 1.5), ("trials", True),
        ("sweep", -20),
    ])
    def test_wrong_config_type_rejected(self, tmp_path, key, value, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": {key: value}}))
        assert main(["detect", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize("cfg, key", [
        ({"scenario": "x"}, "scenario"),
        ({"experiment": [1]}, "experiment"),
        ({"scenario": {"rolloff": "a"}}, "rolloff"),
        ({"scenario": {"targets": [{"range_m": 50.0, "rcs_dbsm": "big"}]}}, "rcs_dbsm"),
        ({"scenario": {"targets": [{"range_m": 50.0, "speed": 1.0}]}}, "speed"),
        ({"scenario": {"targets": []}}, "target"),
    ])
    def test_bad_config_block_rejected(self, tmp_path, cfg, key, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["range", "--config", str(path), "--trials", "1", "--scnr", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    def test_ddmap_target_outside_cef_span_rejected(self, tmp_path, capsys):
        # the sliding CEF maps delay bins 0-511, 0 to 43.5 m
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": {"targets": [
            {"range_m": 50.0, "velocity_mps": 20.0}]}}))
        assert main(["ddmap", "--config", str(path), "--out", str(tmp_path / "m.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "CEF delay span 0-43.5 m" in err
        assert not (tmp_path / "m.csv").exists()

    def test_bad_pulse_rejected_by_symbol_rate_bench(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": {"rolloff": 0}}))
        assert main(["velocity", "--config", str(path), "--trials", "1", "--scnr", "10"]) == 1
        assert capsys.readouterr().err == ("error: bad scenario config: "
                                           "rolloff must be in (0, 1)\n")

    def test_bad_pulse_ddmap_writes_no_csv(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": {"preset": "two-vehicle", "rolloff": 1.5}}))
        assert main(["ddmap", "--config", str(path), "--out", str(tmp_path / "m.csv")]) == 1
        assert "rolloff must be in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("field, value", [("symbol_rate", 0), ("carrier_hz", -60e9)])
    @pytest.mark.parametrize("argv", [
        ["linkbudget"],
        ["crlb", "--eq", "table"],
        ["velocity", "--trials", "1", "--scnr", "10"],
    ])
    def test_nonpositive_rate_or_carrier_rejected(self, tmp_path, field, value, argv,
                                                   capsys):
        # a zero symbol rate gave inf SNR rows or a ZeroDivisionError, and a
        # negative carrier a negative wavelength
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": {field: value}}))
        out = tmp_path / "o.csv"
        assert main([*argv, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: bad scenario config: "
                                           f"{field} must be positive\n")
        assert not out.exists()

    @pytest.mark.parametrize("field, argv", [
        ("noise_figure_db", ["linkbudget", "--distances", "50"]),
        ("rician_k_db", ["tradeoff", "--trials", "1"]),
    ])
    def test_nonfinite_link_budget_field_rejected(self, tmp_path, field, argv, capsys):
        # json.loads takes NaN: these wrote nan rows with exit 0
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"scenario": {{"{field}": NaN}}}}')
        out = tmp_path / "o.csv"
        assert main([*argv, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: bad scenario config: "
                                           f"{field} must be finite, got nan\n")
        assert not out.exists()

    def test_infinite_cpi_duration_rejected(self, tmp_path, capsys):
        # json.loads takes Infinity: the trade-off bench's frame lengths
        # overflowed in a traceback
        path = tmp_path / "cfg.json"
        path.write_text('{"scenario": {"cpi_duration_s": Infinity}}')
        out = tmp_path / "o.csv"
        assert main(["tradeoff", "--config", str(path), "--trials", "2",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: bad scenario config: "
                                           "cpi_duration_s must be positive and finite\n")
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        # numpy's "expected non-negative integer" came from inside the first trial
        out = tmp_path / "o.csv"
        assert main(["velocity", "--scnr", "10", "--trials", "4", "--seed", "-1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        "detect --trials 1 --scnr=-inf",
        "range --trials 1 --scnr=-inf",
        "velocity --trials 1 --scnr=-inf",
        "detect --trials 1 --scnr nan",
        "ddmap --scnr nan",
        "crlb --scnr nan",
        "crlb --eq range --scnr nan",
        "crlb --eq velocity --scnr nan",
        "linkbudget --distances nan",
        "linkbudget --distances inf",
    ])
    def test_nonfinite_sweep_fails_before_any_trial(self, argv, tmp_path, capsys):
        # -inf dB gave a ZeroDivisionError traceback; NaN wrote NaN rows and exit 0
        out = tmp_path / "o.csv"
        out_flag = [] if "--eq" in argv else ["--out", str(out)]
        assert main([*argv.split(), *out_flag]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error: ") and ("finite" in err or "SCNR" in err)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        "crlb --scnr 4000",
        "crlb --eq range --scnr 4000",
        "detect --scnr 4000 --trials 2",
        "velocity --scnr -4000 --trials 2",
    ])
    def test_scnr_without_finite_linear_value_fails_before_any_trial(self, argv, monkeypatch,
                                                                     capsys):
        # 10^400 overflowed a float (OverflowError traceback) and 10^-400 gave
        # a zero SCNR (ZeroDivisionError traceback)
        def no_trial(*args):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(bench, "_detection_trial", no_trial)
        monkeypatch.setattr(bench, "_velocity_trial", no_trial)
        assert main(argv.split()) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error: SCNR must be positive and finite (linear), got ")

    def test_zero_tint_rejected(self):
        r = run_cli("crlb", "--eq", "resolution", "--tint", "0")
        assert r.returncode != 0

    @pytest.mark.parametrize("argv", [
        ["velocity", "--frames", "1", "--trials", "2"],
        ["tradeoff", "--frames", "2", "1"],
    ])
    def test_one_frame_run_rejected_before_any_trial(self, argv, monkeypatch, capsys):
        def no_trial(*args):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(bench, "_velocity_trial", no_trial)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "M=1" in err

    def test_zero_frames_rejected(self):
        r = run_cli("velocity", "--frames", "0", "--trials", "2", "--scnr", "10")
        assert r.returncode == 1
        assert r.stderr.startswith("error:")

    def test_zero_cpi_rejected(self):
        r = run_cli("tradeoff", "--cpi", "0", "--trials", "1")
        assert r.returncode == 1
        assert r.stderr.startswith("error:")

    def test_zero_tradeoff_frames_rejected(self):
        r = run_cli("tradeoff", "--frames", "0", "--trials", "1")
        assert r.returncode == 1
        assert r.stderr.startswith("error:")

    def test_zero_workers_rejected(self):
        r = run_cli("velocity", "--workers", "0", "--trials", "2", "--scnr", "10",
                    "--frames", "2")
        assert r.returncode == 1
        assert r.stderr.startswith("error:")

    def test_target_outside_moose_span_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": {"targets": [
            {"range_m": 50.0, "velocity_mps": 200.0}]}}))
        r = run_cli("velocity", "--config", str(cfg), "--trials", "1", "--scnr", "10")
        assert r.returncode == 1
        assert r.stderr.startswith("error:")
        assert "Moose span" in r.stderr

    def test_bad_scenario_field(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": {"frame_k": 100}}))
        r = run_cli("velocity", "--config", str(cfg), "--trials", "1", "--scnr", "10")
        assert r.returncode != 0


class TestRuns:
    def test_detect_row_structure(self, tmp_path):
        out = tmp_path / "pd.csv"
        r = run_cli("detect", "--scnr", "-18", "--pfa", "1e-4", "--trials", "8",
                    "--seed", "7", "--out", str(out))
        assert r.returncode == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "sweep,metric,value,trials,half_width"
        assert any("pd" in ln for ln in lines[1:])
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["experiment"]["seed"] == 7

    def test_seed_reproducibility_and_worker_invariance(self, tmp_path):
        outs = []
        for w in ("1", "2", "8"):
            out = tmp_path / f"v{w}.csv"
            r = run_cli("velocity", "--scnr", "10", "--trials", "12", "--seed",
                        "11", "--frames", "2", "--workers", w, "--out", str(out))
            assert r.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_ddmap_defaults_find_both_vehicles(self, tmp_path):
        out = tmp_path / "map.csv"
        r = run_cli("ddmap", "--seed", "3", "--pfa", "1e-4", "--out", str(out))
        assert r.returncode == 0
        text = out.read_text()
        bins = [float(ln.split(",")[2]) for ln in text.splitlines()
                if ",delay_bin," in ln]
        assert 118.0 in bins[:2] and 168.0 in bins[:2]

    def test_ddmap_without_detections_writes_header_only(self, tmp_path):
        # at -40 dB and Pfa 1e-12 no map cell clears the threshold
        out = tmp_path / "map.csv"
        assert main(["ddmap", "--scnr", "-40", "--pfa", "1e-12", "--seed", "3",
                     "--out", str(out)]) == 0
        assert out.read_text() == "sweep,metric,value,trials,half_width\n"

    def test_ddmap_default_scnr_comes_from_the_command_table(self, tmp_path, capsys):
        # the manifest records the 20 dB the map ran at, and a config that
        # empties the sweep is refused rather than mapped at a hidden SCNR
        out = tmp_path / "map.csv"
        assert main(["ddmap", "--seed", "3", "--out", str(out)]) == 0
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["experiment"]["sweep"] == [20.0]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": {"sweep": []}}))
        assert main(["ddmap", "--config", str(cfg), "--out", str(tmp_path / "e.csv")]) == 1
        assert "exactly one SCNR" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    def test_ddmap_config_without_scenario_maps_two_vehicles(self, tmp_path):
        # a config with no scenario key keeps the command's two-vehicle scene
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": {"seed": 1}}))
        assert main(["ddmap", "--config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
        assert main(["ddmap", "--seed", "1", "--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_preset_with_targets_maps_those_targets(self, tmp_path):
        # the preset's targets are replaced by the config's, converted as
        # without a preset
        targets = [{"range_m": 12.0, "velocity_mps": 20.0},
                   {"range_m": 25.0, "velocity_mps": -10.0, "azimuth_deg": 95.0}]
        csvs = []
        for n, scenario in enumerate([{"preset": "two-vehicle", "targets": targets},
                                      {"targets": targets}]):
            cfg = tmp_path / f"cfg{n}.json"
            cfg.write_text(json.dumps({"scenario": scenario}))
            out = tmp_path / f"m{n}.csv"
            assert main(["ddmap", "--config", str(cfg), "--seed", "2", "--pfa", "1e-4",
                         "--out", str(out)]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]
        bins = [float(ln.split(",")[2]) for ln in csvs[0].decode().splitlines()
                if ",delay_bin," in ln]
        # the 12 m beam reference in bin 141 leads; the preset's own vehicles
        # (bins 118 and 168) are gone
        assert bins[0] == 141.0 and not {118.0, 168.0} & set(bins)

    def test_config_file_scenario(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": {"n_frames": 2, "frame_k": 6656},
            "experiment": {"trials": 6, "seed": 4},
        }))
        out = tmp_path / "v.csv"
        r = run_cli("velocity", "--config", str(cfg), "--scnr", "10",
                    "--out", str(out))
        assert r.returncode == 0
        assert "velocity_mse_m2s2" in out.read_text()

    def test_stdout_when_no_outfile(self):
        r = run_cli("crlb", "--scnr", "0", "--eq", "table")
        assert r.returncode == 0
        assert r.stdout.startswith("sweep,metric,value")


def _flags_by_command() -> dict:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()}


# every (command, flag) pair the CLI dropped because the pipeline never read it
REMOVED_PAIRS = [
    ("range", "--pfa"), ("velocity", "--pfa"),
    ("tradeoff", "--scnr"), ("tradeoff", "--pfa"),
    *(("linkbudget", f) for f in ("--trials", "--seed", "--workers", "--pfa", "--scnr")),
    ("ddmap", "--trials"), ("ddmap", "--workers"),
    *(("ambiguity", f) for f in ("--trials", "--seed", "--workers", "--pfa", "--scnr")),
    *(("crlb", f) for f in ("--trials", "--seed", "--workers", "--pfa")),
]
VALUES = {"--trials": "7", "--seed": "1", "--workers": "2", "--pfa": "1e-4", "--scnr": "10"}

# each accepted flag but --out, --config and --workers, at two values, with
# the command's other flags set so that each run stays small
READ_FLAGS = [
    ("detect --trials 1 --scnr {}", "-10", "10"),
    ("detect --scnr 10 --trials {}", "1", "2"),
    ("detect --scnr 10 --trials 1 --seed {}", "0", "1"),
    ("detect --scnr 10 --trials 1 --pfa {}", "1e-4", "1e-3"),
    ("range --trials 1 --scnr {}", "0", "10"),
    ("range --scnr 10 --trials {}", "1", "2"),
    ("range --scnr 10 --trials 1 --seed {}", "0", "1"),
    ("velocity --frames 2 --trials 1 --scnr {}", "0", "10"),
    ("velocity --scnr 10 --frames 2 --trials {}", "1", "2"),
    ("velocity --scnr 10 --frames 2 --trials 1 --seed {}", "0", "1"),
    ("velocity --scnr 10 --trials 1 --frames {}", "2", "3"),
    ("tradeoff --trials 1 --frames {}", "2", "4"),
    ("tradeoff --frames 2 --trials {}", "1", "2"),
    ("tradeoff --frames 2 --trials 1 --seed {}", "0", "1"),
    ("tradeoff --frames 2 --trials 1 --cpi {}", "6e-5", "8e-5"),
    ("linkbudget --distances {}", "10", "20"),
    ("ddmap --scnr {}", "20", "30"),
    ("ddmap --seed {}", "0", "1"),
    ("ddmap --pfa {}", "1e-4", "1e-3"),
    ("crlb --scnr {}", "0", "10"),
    ("crlb --eq {} --scnr 0", "range", "velocity"),
    ("crlb --eq range --scnr {}", "0", "10"),
    ("crlb --eq range --P {}", "2048", "3328"),
    ("crlb --eq velocity --mode {}", "single", "multi"),
    ("crlb --eq velocity --mode multi --frames {}", "1", "4"),
    ("crlb --eq velocity --mode exact --frames {}", "2", "4"),
    ("crlb --eq velocity --mode multi --frame-symbols {}", "12800", "6400"),
    ("crlb --eq velocity --mode exact --frames 2 --frame-symbols {}", "12800", "6400"),
    ("crlb --eq resolution --tint {}", "1e-3", "4.2e-3"),
]


def _read_flag(template: str) -> tuple[str, str]:
    words = template.split()
    return words[0], words[words.index("{}") - 1]


class TestCommandTable:
    def test_flag_count(self):
        assert sum(len(f) for f in _flags_by_command().values()) == 46

    @pytest.mark.parametrize("command, flag", REMOVED_PAIRS)
    def test_unread_flag_rejected(self, command, flag, capsys):
        assert main([command, flag, VALUES[flag]]) != 0
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("eq, flag, value", [
        ("table", "--P", "3328"), ("table", "--mode", "multi"),
        ("range", "--config", "w.json"), ("range", "--out", "x.csv"),
        ("velocity", "--tint", "1e-3"), ("resolution", "--scnr", "0"),
        # the single-frame bound (the default --mode single) reads neither M nor K
        ("velocity", "--frames", "4"), ("velocity", "--frame-symbols", "6400"),
        # the exact bound at M = 1, given or by default, reads no K
        ("velocity --mode exact", "--frame-symbols", "6400"),
        ("velocity --mode exact --frames 1", "--frame-symbols", "6400"),
    ])
    def test_crlb_mode_rejects_unread_flag(self, eq, flag, value, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["crlb", "--eq", *eq.split(), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err
        assert not (tmp_path / "x.csv").exists()

    def test_every_read_flag_is_exercised(self):
        covered = {_read_flag(t) for t, _, _ in READ_FLAGS}
        accepted = {(c, f) for c, flags in _flags_by_command().items() for f in flags
                    if f not in ("--out", "--config", "--workers")}
        assert covered == accepted

    @pytest.mark.parametrize("template, a, b", READ_FLAGS)
    def test_flag_value_reaches_the_run(self, template, a, b, tmp_path, capsys):
        def observe(value):
            argv = template.replace("{}", value).split()
            if argv[0] == "crlb" and "--eq" in argv:
                assert main(argv) == 0
                return capsys.readouterr().out
            out = tmp_path / "run.csv"
            assert main([*argv, "--out", str(out)]) == 0
            return out.with_suffix(".manifest.json").read_text()

        assert observe(a) != observe(b)
