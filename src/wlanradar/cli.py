"""Command-line entry point: run experiments, emit CSV results and a manifest.

    wlanradar detect --pfa 1e-6 --scnr -20.5 --trials 2000 --seed 7 --out pd.csv
    wlanradar crlb --eq range --scnr 0 --P 2048
    wlanradar ddmap --config scenario.json --out map.csv

Each subcommand is one row of ``_COMMANDS`` and accepts only the flags its
pipeline reads.  A JSON config file supplies scenario and experiment fields
(see README for the schema); explicit flags override config values.  CSV bytes
are identical for a fixed seed regardless of --workers.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .airlink import Target
from .bench import (
    ExperimentSpec,
    Scenario,
    _scnr_linear,
    run_experiment,
    run_manifest,
    two_vehicle_scenario,
)
from .radar import crlb_range, crlb_velocity, resolutions

__all__ = ["build_parser", "main"]


class _Command(NamedTuple):
    kind: str                     # ExperimentSpec kind
    sweep_flag: str | None = None
    sweep: tuple = ()             # the sweep when neither the flag nor the config sets one
    reads: tuple = ()             # flags besides --config, --out and the sweep flag


_TRIALS = ("--trials", "--seed", "--workers")

_COMMANDS = {
    "detect": _Command("detection", "--scnr", (-26.0, -24.0, -22.0, -20.0, -18.0, -16.0),
                       (*_TRIALS, "--pfa")),
    "range": _Command("range-mse", "--scnr", (0.0, 5.0, 10.0), _TRIALS),
    "velocity": _Command("velocity-mse", "--scnr", (0.0, 10.0, 20.0), (*_TRIALS, "--frames")),
    "tradeoff": _Command("tradeoff", "--frames", (2, 4, 8, 16), (*_TRIALS, "--cpi")),
    "linkbudget": _Command("linkbudget", "--distances", tuple(np.linspace(10, 200, 20))),
    "ddmap": _Command("ddmap", "--scnr", (20.0,), ("--seed", "--pfa")),
    "ambiguity": _Command("ambiguity"),
    "crlb": _Command("crlb", "--scnr", (0.0, 10.0, 20.0, 30.0, 40.0),
                     ("--eq", "--P", "--mode", "--frames", "--frame-symbols", "--tint")),
}

# what each `crlb --eq` mode reads; --eq table runs the crlb experiment
_CRLB_READS = {
    "table": {"config", "scnr", "out"},
    "range": {"scnr", "P"},
    "velocity": {"scnr", "P", "mode", "frames", "frame_symbols"},
    "resolution": {"tint"},
}

# add_argument keywords of every flag a row names; a sweep flag also takes nargs="+"
_FLAGS = {
    "--trials": dict(type=int, help="Monte Carlo trials per sweep point"),
    "--seed": dict(type=int, help="base RNG seed"),
    "--workers": dict(type=int, help="worker processes (default 1)"),
    "--pfa": dict(type=float, help="false-alarm probability"),
    "--scnr": dict(type=float, help="SCNR in dB"),
    "--distances": dict(type=float, help="separation distances in meters"),
    "--frames": dict(type=int, help="frames per CPI (M)"),
    "--cpi": dict(type=float, help="CPI duration in seconds"),
    "--eq": dict(choices=tuple(_CRLB_READS), default="table", help="what to compute"),
    "--P": dict(type=int, help="integrated preamble symbols (default 2048)"),
    "--mode": dict(choices=("single", "multi", "exact"),
                   help="velocity CRLB flavor (default single)"),
    "--frame-symbols": dict(type=int, help="symbols per frame K (default 12800)"),
    "--tint": dict(type=float, help="integration time for --eq resolution"),
}

# flags that set a Scenario field rather than an ExperimentSpec field
_SCENARIO_FIELDS = {"frames": "n_frames", "cpi": "cpi_duration_s"}

# the JSON value each config key takes, by its field's annotation; a boolean is
# no number, and `targets` is a list of objects with the Target keys
_EXPERIMENT_TYPES = {f.name: f.type for f in fields(ExperimentSpec)
                     if f.name not in ("kind", "scenario")}
_SCENARIO_TYPES = {**{f.name: f.type for f in fields(Scenario)}, "targets": "targets",
                   "preset": "str"}
_TARGET_TYPES = {f.name: f.type for f in fields(Target)}
_JSON_TYPES = {"int": ("an integer", (int,)), "float": ("a number", (int, float)),
               "tuple": ("a list of numbers", (list,)), "str": ("a string", (str,)),
               "targets": ("a list of target objects", (list,))}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wlanradar",
        description="Joint communication-radar link simulator benches",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        # a flag left off the command line sets no attribute, so vars(args)
        # holds exactly the flags given (plus --eq's default)
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", type=Path, help="JSON scenario/experiment config")
        p.add_argument("--out", type=Path, help="CSV output path (manifest alongside)")
        if cmd.sweep_flag:
            p.add_argument(cmd.sweep_flag, nargs="+", **_FLAGS[cmd.sweep_flag])
        for flag in cmd.reads:
            p.add_argument(flag, **_FLAGS[flag])
    return ap


def _checked(block: str, values, types: dict) -> dict:
    """``values``, once it is a JSON object whose keys and values ``types`` allows."""
    if type(values) is not dict:
        raise SystemExit(f"error: config {block} must be a JSON object, got {values!r}")
    unknown = set(values) - set(types)
    if unknown:
        raise SystemExit(f"error: unknown {block} key(s) {', '.join(sorted(unknown))}")
    for key, value in values.items():
        name, json_types = _JSON_TYPES[types[key]]
        if type(value) not in json_types or types[key] == "tuple" and any(
                type(v) not in (int, float) for v in value):
            raise SystemExit(f"error: {block} {key} must be {name}, got {value!r}")
        if types[key] == "targets":
            for n, target in enumerate(value):
                _checked(f"scenario targets[{n}]", target, _TARGET_TYPES)
    return values


def _load_config(path: Path | None, preset: str | None) -> tuple[Scenario, dict]:
    """A config's Scenario (``preset``'s without a `scenario` key) and experiment fields."""
    cfg = {}
    if path is not None:
        try:
            cfg = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise SystemExit(f"error: cannot read config {path}: {e}")
        if not isinstance(cfg, dict):
            raise SystemExit(f"error: config {path} is not a JSON object")
    unknown = set(cfg) - {"scenario", "experiment"}
    if unknown:
        raise SystemExit(f"error: unknown config key(s) {', '.join(sorted(unknown))}")
    experiment = _checked("experiment", cfg.get("experiment", {}), _EXPERIMENT_TYPES)
    scen_dict = dict(_checked("scenario", cfg.get("scenario", {}), _SCENARIO_TYPES))
    if "scenario" in cfg:
        preset = scen_dict.pop("preset", None)
    if preset not in (None, "two-vehicle"):
        raise SystemExit(f"error: unknown scenario preset {preset!r}")
    try:
        # one conversion of the target dicts: the preset's fields are the base
        base = two_vehicle_scenario().to_dict() if preset == "two-vehicle" else {}
        scen = Scenario.from_dict({**base, **scen_dict})
    except (TypeError, ValueError) as e:
        raise SystemExit(f"error: bad scenario config: {e}")
    return scen, {k: tuple(v) if isinstance(v, list) else v for k, v in experiment.items()}


def _crlb_command(given: dict) -> int:
    eq = given.pop("eq")
    reads, label = _CRLB_READS[eq], f"--eq {eq}"
    if eq == "velocity" and given.get("mode", "single") == "single":
        reads, label = reads - {"frames", "frame_symbols"}, label + " --mode single"
    elif eq == "velocity" and given["mode"] == "exact" and given.get("frames", 1) == 1:
        # the exact bound at M = 1 is the single-frame one: it reads no K
        reads, label = reads - {"frame_symbols"}, label + " --mode exact --frames 1"
    unread = sorted(set(given) - reads)
    if unread:
        raise SystemExit(f"error: crlb {label} does not read "
                         + ", ".join("--" + d.replace("_", "-") for d in unread))
    if eq == "table":
        return _run_and_emit(_COMMANDS["crlb"], given)
    scnr = given.get("scnr", (0.0,))
    p = given.get("P", 2048)
    try:
        if eq == "range":
            for s in scnr:
                v = crlb_range(_scnr_linear(s), p=p)
                print(f"{v:.9g} m^2  (sigma = {np.sqrt(v) * 1e3:.6g} mm) at SCNR {s:g} dB")
            return 0
        if eq == "velocity":
            for s in scnr:
                v = crlb_velocity(_scnr_linear(s), mode=given.get("mode", "single"), p=p,
                                  m=given.get("frames", 1),
                                  k=given.get("frame_symbols", 12800))
                print(f"{v:.9g} (m/s)^2  (sigma = {np.sqrt(v):.6g} m/s) at SCNR {s:g} dB")
            return 0
        scen = Scenario()
        tint = given.get("tint", scen.n_frames * scen.frame_k * scen.ts)
        dr, dv = resolutions(scen.symbol_rate, tint, scen.wavelength)
    except ValueError as e:
        raise SystemExit(f"error: {e}")
    print(f"range resolution {dr:.9g} m, velocity resolution {dv:.9g} m/s")
    return 0


def _run_and_emit(cmd: _Command, given: dict) -> int:
    config = given.pop("config", None)
    out = given.pop("out", None)
    workers = given.pop("workers", 1)
    scen, spec_fields = _load_config(config, "two-vehicle" if cmd.kind == "ddmap" else None)
    spec_fields.setdefault("sweep", cmd.sweep)
    if cmd.sweep_flag and cmd.sweep_flag[2:] in given:
        spec_fields["sweep"] = tuple(given.pop(cmd.sweep_flag[2:]))
    overrides = {_SCENARIO_FIELDS[d]: given.pop(d) for d in list(given) if d in _SCENARIO_FIELDS}
    # what is left (--trials, --seed, --pfa) names ExperimentSpec fields
    spec_fields.update(given)
    try:
        spec = ExperimentSpec(kind=cmd.kind, scenario=replace(scen, **overrides), **spec_fields)
        table = run_experiment(spec, workers=workers)
    except ValueError as e:
        raise SystemExit(f"error: {e}")
    csv_text = table.to_csv_text()
    if out:
        out.write_text(csv_text)
        manifest_path = out.with_suffix(".manifest.json")
        manifest_path.write_text(run_manifest(spec))
        print(f"wrote {out} and {manifest_path}")
    else:
        sys.stdout.write(csv_text)
    return 0


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    given = vars(args)
    command = given.pop("command")
    try:
        if command == "crlb":
            return _crlb_command(given)
        return _run_and_emit(_COMMANDS[command], given)
    except SystemExit as e:
        if e.code and isinstance(e.code, str):
            print(e.code, file=sys.stderr)
            return 1
        return int(e.code or 0)


if __name__ == "__main__":
    sys.exit(main())
