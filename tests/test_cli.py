import json
import os
import subprocess
import sys


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
        bad.write_text("{not json")
        r = run_cli("range", "--config", str(bad), "--trials", "1")
        assert r.returncode != 0
        assert "config" in (r.stderr + r.stdout).lower()

    def test_zero_pfa_rejected(self):
        r = run_cli("crlb", "--eq", "table", "--pfa", "0")
        assert r.returncode != 0

    def test_zero_trials_rejected(self):
        r = run_cli("crlb", "--eq", "table", "--trials", "0")
        assert r.returncode != 0

    def test_zero_tint_rejected(self):
        r = run_cli("crlb", "--eq", "resolution", "--tint", "0")
        assert r.returncode != 0

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

    def test_bad_workers_env_rejected(self):
        for env in ("abc", "0"):
            r = run_cli("crlb", "--eq", "table",
                        env={**os.environ, "WLANRADAR_WORKERS": env})
            assert r.returncode == 1
            assert r.stderr.startswith("error:")
            assert "WLANRADAR_WORKERS" in r.stderr or "workers" in r.stderr

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
