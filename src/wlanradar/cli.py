"""Command-line entry point: run experiments, emit CSV results and a manifest.

    wlanradar detect --pfa 1e-6 --scnr -20.5 --trials 2000 --seed 7 --out pd.csv
    wlanradar crlb --eq range --scnr 0 --P 2048
    wlanradar ddmap --config scenario.json --out map.csv

A JSON config file supplies scenario fields (see README for the schema);
explicit flags override config values.  CSV bytes are identical for a fixed
seed regardless of --workers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bench import (
    ExperimentSpec,
    Scenario,
    run_experiment,
    run_manifest,
    two_vehicle_scenario,
)
from .radar import crlb_range, crlb_velocity, resolutions

__all__ = ["build_parser", "main"]

_KIND_BY_COMMAND = {
    "ambiguity": "ambiguity",
    "detect": "detection",
    "range": "range-mse",
    "velocity": "velocity-mse",
    "tradeoff": "tradeoff",
    "linkbudget": "linkbudget",
    "ddmap": "ddmap",
    "crlb": "crlb",
}


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", type=Path, help="JSON scenario/experiment config")
    p.add_argument("--trials", type=int, help="Monte Carlo trials per sweep point")
    p.add_argument("--seed", type=int, help="base RNG seed")
    p.add_argument("--workers", type=int, help="worker processes (default 1 or env)")
    p.add_argument("--out", type=Path, help="CSV output path (manifest alongside)")
    p.add_argument("--pfa", type=float, help="false-alarm probability")
    p.add_argument("--scnr", type=float, nargs="+", help="SCNR sweep values in dB")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wlanradar",
        description="Joint communication-radar link simulator benches",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for cmd in ("detect", "range", "velocity", "ambiguity", "linkbudget", "ddmap"):
        p = sub.add_parser(cmd)
        _add_common(p)
        if cmd == "velocity":
            p.add_argument("--frames", type=int, help="frames per CPI (M)")
        if cmd == "linkbudget":
            p.add_argument("--distances", type=float, nargs="+",
                           help="separation distances in meters")

    p = sub.add_parser("tradeoff")
    _add_common(p)
    p.add_argument("--frames", type=int, nargs="+", help="M values to sweep")
    p.add_argument("--cpi", type=float, help="CPI duration in seconds")

    p = sub.add_parser("crlb")
    _add_common(p)
    p.add_argument("--eq", choices=("range", "velocity", "resolution", "table"),
                   default="table")
    p.add_argument("--P", type=int, default=2048, help="integrated preamble symbols")
    p.add_argument("--mode", default="single",
                   choices=("single", "multi", "exact"), help="velocity CRLB flavor")
    p.add_argument("--frames", type=int, default=1)
    p.add_argument("--frame-symbols", type=int, default=12800)
    p.add_argument("--tint", type=float, help="integration time for --eq resolution")
    return ap


def _load_scenario(args) -> tuple[Scenario, dict]:
    cfg = {}
    if getattr(args, "config", None):
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise SystemExit(f"error: cannot read config {args.config}: {e}")
    scen_dict = cfg.get("scenario", {})
    try:
        if scen_dict.pop("preset", None) == "two-vehicle":
            scen = two_vehicle_scenario(**scen_dict)
        else:
            scen = Scenario.from_dict(scen_dict)
    except (TypeError, ValueError) as e:
        raise SystemExit(f"error: bad scenario config: {e}")
    return scen, cfg


def _crlb_command(args) -> int:
    if args.eq == "range":
        for s in args.scnr or (0.0,):
            v = crlb_range(10 ** (s / 10), p=args.P)
            print(f"{v:.9g} m^2  (sigma = {np.sqrt(v) * 1e3:.6g} mm) at SCNR {s:g} dB")
        return 0
    if args.eq == "velocity":
        for s in args.scnr or (0.0,):
            v = crlb_velocity(10 ** (s / 10), mode=args.mode, p=args.P,
                              m=args.frames, k=args.frame_symbols)
            print(f"{v:.9g} (m/s)^2  (sigma = {np.sqrt(v):.6g} m/s) at SCNR {s:g} dB")
        return 0
    if args.eq == "resolution":
        scen = Scenario()
        tint = args.tint if args.tint is not None else scen.n_frames * scen.frame_k * scen.ts
        try:
            dr, dv = resolutions(scen.symbol_rate, tint, scen.wavelength)
        except ValueError as e:
            raise SystemExit(f"error: {e}")
        print(f"range resolution {dr:.9g} m, velocity resolution {dv:.9g} m/s")
        return 0
    return _run_and_emit(args, "crlb")


def _run_and_emit(args, kind: str) -> int:
    scen, cfg = _load_scenario(args)
    exp_cfg = cfg.get("experiment", {})

    sweep = None
    if getattr(args, "scnr", None) is not None:
        sweep = tuple(args.scnr)
    elif getattr(args, "distances", None) is not None:
        sweep = tuple(args.distances)
    elif kind == "tradeoff" and getattr(args, "frames", None) is not None:
        sweep = tuple(args.frames)
    elif "sweep" in exp_cfg:
        sweep = tuple(exp_cfg["sweep"])
    else:
        defaults = {
            "detection": (-26.0, -24.0, -22.0, -20.0, -18.0, -16.0),
            "range-mse": (0.0, 5.0, 10.0),
            "velocity-mse": (0.0, 10.0, 20.0),
            "tradeoff": (2, 4, 8, 16),
            "linkbudget": tuple(np.linspace(10, 200, 20)),
            "crlb": (0.0, 10.0, 20.0, 30.0, 40.0),
            "ambiguity": (),
            "ddmap": (),
        }
        sweep = defaults[kind]

    try:
        if kind == "velocity-mse" and getattr(args, "frames", None) is not None:
            scen = Scenario.from_dict({**scen.to_dict(), "n_frames": args.frames})
        if kind == "tradeoff" and getattr(args, "cpi", None) is not None:
            scen = Scenario.from_dict({**scen.to_dict(), "cpi_duration_s": args.cpi})
        if kind == "ddmap" and not getattr(args, "config", None):
            scen = two_vehicle_scenario()
        spec = ExperimentSpec(
            kind=kind,
            scenario=scen,
            sweep=sweep,
            trials=args.trials if args.trials is not None else exp_cfg.get("trials", 1000),
            seed=args.seed if args.seed is not None else exp_cfg.get("seed", 0),
            pfa=args.pfa if args.pfa is not None else exp_cfg.get("pfa", 1e-6),
            tradeoff_scnr_db=exp_cfg.get("tradeoff_scnr_db", 10.0),
            doppler_grid=tuple(exp_cfg.get("doppler_grid", ())),
        )
        table = run_experiment(spec, workers=args.workers)
    except ValueError as e:
        raise SystemExit(f"error: {e}")
    csv_text = table.to_csv_text()
    if args.out:
        args.out.write_text(csv_text)
        manifest_path = args.out.with_suffix(".manifest.json")
        manifest_path.write_text(run_manifest(spec))
        print(f"wrote {args.out} and {manifest_path}")
    else:
        sys.stdout.write(csv_text)
    return 0


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "crlb":
            return _crlb_command(args)
        return _run_and_emit(args, _KIND_BY_COMMAND[args.command])
    except SystemExit as e:
        if e.code and isinstance(e.code, str):
            print(e.code, file=sys.stderr)
            return 1
        return int(e.code or 0)


if __name__ == "__main__":
    sys.exit(main())
