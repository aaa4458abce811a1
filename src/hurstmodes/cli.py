"""Command-line surface: estimate a Hurst distribution from a panel CSV,
run Monte Carlo sweeps from a flat key-value spec file, or emit the
log-eigenvalue histogram for external plotting.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numerical
degeneracy.  Output JSON is byte-stable for a fixed config and seed, and
numbers are serialized in shortest round-trip form (lossless re-parse).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .errors import ConfigError, DataError, DegenerateSpectrumError
from .harness import ExperimentSpec, PipelineConfig, log_eigen_set, run_sweep
from .ingest import read_panel_csv, standardize
from .selection import select_scheme
from .synth import HurstDistribution

SCHEMA = "wrmsm/1"

__all__ = ["main", "parse_sweep_spec"]


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return None if math.isnan(v) else v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _dump_json(obj, path: str | None) -> None:
    text = json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _add_analysis_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="panel CSV (columns = series, rows = time)")
    sub.add_argument("--j", type=int, default=None, help="single-scale octave (requires --a; default is multiscale)")
    sub.add_argument("--j1", type=int, default=2, help="first octave of the multiscale window")
    sub.add_argument("--j2", type=int, default=5, help="last octave of the multiscale window")
    sub.add_argument("--a", type=int, default=16, help="scale factor (power of two), single-scale mode only")
    sub.add_argument("--m", type=int, default=10, help="number of grid points for threshold selection")
    sub.add_argument("--M", default="auto", help="grid upper bound ('auto' or a positive number)")
    sub.add_argument("--min-cluster", type=int, default=2, dest="min_cluster")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--n-vanishing", type=int, default=2, dest="n_vanishing")
    sub.add_argument("--output", default=None, help="output path (default: stdout)")
    sub.add_argument("--format", default="json", choices=("json", "csv"))
    sub.add_argument("--bins", type=int, default=16, help="histogram bins")
    sub.add_argument("--time-column", default="auto", choices=("auto", "yes", "no"),
                     help="treat the first CSV column as a time index")


def _pipeline_config(args) -> PipelineConfig:
    try:
        grid_max = None if args.M == "auto" else float(args.M)
    except ValueError:
        raise ConfigError(f"M must be positive or 'auto', got {args.M!r}") from None
    if args.j is not None:
        return PipelineConfig(a=args.a, j=args.j, multiscale=None, m=args.m,
                              grid_max=grid_max, min_cluster=args.min_cluster,
                              n_vanishing=args.n_vanishing)
    return PipelineConfig(multiscale=(args.j1, args.j2), m=args.m,
                          grid_max=grid_max, min_cluster=args.min_cluster,
                          n_vanishing=args.n_vanishing)


def _load_panel(args):
    tc = {"auto": "auto", "yes": True, "no": False}[args.time_column]
    panel = read_panel_csv(args.input, time_column=tc)
    return standardize(panel)


def _histogram(values: np.ndarray, bins: int, affine: str = "h") -> dict:
    vals = 2.0 * values + 1.0 if affine == "esd" else values
    counts, edges = np.histogram(vals, bins=bins)
    return {"bin_edges": edges, "counts": counts, "affine": affine}


def _mode_descriptor(cfg: PipelineConfig) -> dict:
    if cfg.multiscale is not None:
        return {"kind": "multiscale", "j1": cfg.multiscale[0], "j2": cfg.multiscale[1]}
    return {"kind": "single", "a": cfg.a, "j": cfg.j}


def cmd_estimate(args) -> int:
    if args.format != "json":
        raise ConfigError("estimate emits JSON only; --format csv applies to sweep tables")
    cfg = _pipeline_config(args)
    panel = _load_panel(args)
    h_set, grid_max = log_eigen_set(panel, cfg)
    est = select_scheme(h_set, m=cfg.m, grid_max=grid_max, seed=args.seed,
                        min_cluster=cfg.min_cluster)
    out = {
        "schema": SCHEMA,
        "mode": _mode_descriptor(cfg),
        "p": panel.p,
        "n": panel.n,
        "series": list(panel.series) if panel.series else None,
        "r_hat": est.r_hat,
        "modes": est.modes,
        "probs": est.probs,
        "epsilon_ms": est.epsilon_ms,
        "icsd": est.icsd,
        "clusters": [list(c) for c in est.scheme.clusters],
        "trace": {
            "grid": est.trace.grid,
            "icsd_curve": est.trace.icsd_curve,
            "chosen_index": est.trace.chosen_index,
            "excluded": [bool(b) for b in est.trace.excluded],
        },
        "h_values": h_set.values,
        "histogram": _histogram(h_set.values, args.bins),
        "m": cfg.m,
        "grid_max": grid_max,
        "min_cluster": cfg.min_cluster,
        "seed": args.seed,
    }
    _dump_json(out, args.output)
    return 0


def cmd_spectrum(args) -> int:
    cfg = _pipeline_config(args)
    panel = _load_panel(args)
    h_set, _ = log_eigen_set(panel, cfg)
    out = {
        "schema": SCHEMA,
        "mode": _mode_descriptor(cfg),
        "p": panel.p,
        "n": panel.n,
        "h_values": h_set.values,
        "histogram": _histogram(h_set.values, args.bins, affine=args.affine),
        "seed": args.seed,
    }
    _dump_json(out, args.output)
    return 0


def parse_sweep_spec(path) -> ExperimentSpec:
    """Flat key-value sweep description -> ExperimentSpec.

    Recognized keys (one `key = value` per line, '#' comments):
      family    bimodal | custom
      base      first mode of the bimodal family            (default 0.25)
      deltas    comma list of mode gaps for bimodal         (e.g. 0,0.05,0.1)
      probs     comma list of probabilities                 (default uniform)
      modes     for custom: semicolon-separated mode lists  (e.g. 0.2,0.5,0.8;0.3,0.6)
      n p a j   panel and analysis geometry (single-scale when j given)
      j1 j2     multiscale window (used when j absent)
      m M reps seed min_cluster methods fixed_mix n_vanishing
    """
    kv: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = line.split("=", 1)
            kv[key.strip()] = value.strip()  # keys are case-sensitive: m vs M

    def floats(text):
        return tuple(float(s) for s in text.split(","))

    def convert(key, raw, kind):
        try:
            return kind(raw)
        except ValueError:
            raise ConfigError(f"sweep spec key {key!r}: cannot read {raw!r} as {kind.__name__}") from None

    def get(key, default=None, kind=None):
        raw = kv.pop(key, default)
        return raw if kind is None or raw is None else convert(key, raw, kind)

    family = get("family", "bimodal")
    base = get("base", "0.25", float)
    probs = get("probs")
    probs = convert("probs", probs, floats) if probs else None
    n = get("n", "16384", int)
    p = get("p", "64", int)
    m = get("m", "10", int)
    value_m = get("M", "auto")
    grid_max = None if value_m == "auto" else convert("M", value_m, float)
    reps = get("reps", "200", int)
    seed = get("seed", "0", int)
    min_cluster = get("min_cluster", "2", int)
    methods = tuple(s.strip() for s in get("methods", "spectral,gmm").split(",") if s.strip())
    fixed_mix = get("fixed_mix", "false").lower() in ("1", "true", "yes")
    n_vanishing = get("n_vanishing", "2", int)

    if "j" in kv:
        pipeline = PipelineConfig(n=n, p=p, a=get("a", "16", int), j=get("j", kind=int), m=m,
                                  grid_max=grid_max, min_cluster=min_cluster, n_vanishing=n_vanishing)
    else:
        j1 = get("j1", "2", int)
        j2 = get("j2", "5", int)
        get("a")  # meaningless for the multiscale statistic; tolerated
        pipeline = PipelineConfig(n=n, p=p, multiscale=(j1, j2), m=m,
                                  grid_max=grid_max, min_cluster=min_cluster, n_vanishing=n_vanishing)

    if family == "bimodal":
        deltas = get("deltas", "0,0.025,0.05,0.075,0.1", floats)
        spec = ExperimentSpec.bimodal_sweep(
            deltas, base=base, probs=probs or (0.5, 0.5), pipeline=pipeline, reps=reps,
            methods=methods, master_seed=seed, fixed_mix=fixed_mix,
        )
    elif family == "custom":
        modes_field = get("modes")
        if not modes_field:
            raise ConfigError("family=custom requires a 'modes' entry")
        configs = []
        for chunk in modes_field.split(";"):
            modes = convert("modes", chunk, floats)
            if probs:
                dist = HurstDistribution(tuple(sorted(modes)), probs)
            else:
                dist = HurstDistribution.uniform(modes)
            configs.append((chunk.strip(), dist))
        spec = ExperimentSpec(configs=tuple(configs), pipeline=pipeline, reps=reps,
                              methods=methods, master_seed=seed, fixed_mix=fixed_mix)
    else:
        raise ConfigError(f"unknown family {family!r}")

    kv.pop("deltas", None)
    kv.pop("modes", None)
    if kv:
        raise ConfigError(f"unrecognized sweep spec keys: {', '.join(sorted(kv))}")
    return spec


_SWEEP_COLUMNS = ["config", "method", "true_r", "reps", "reps_used", "failures",
                  "proportion_correct", "mean_epsilon_ms", "mode_rmse", "prob_rmse"]


def _write_sweep_csv(rows, path) -> None:
    def fmt(v):
        if v is None or (isinstance(v, float) and math.isnan(v)):
            return ""
        return repr(v) if isinstance(v, float) else str(v)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([fmt(row[c]) for c in _SWEEP_COLUMNS])


def cmd_sweep(args) -> int:
    result = run_sweep(parse_sweep_spec(args.spec))
    base = args.output or "sweep"
    wrote = []
    if args.format in ("csv", "both"):
        _write_sweep_csv(result.rows, base + ".csv")
        wrote.append(base + ".csv")
    if args.format in ("json", "both"):
        payload = {
            "schema": SCHEMA,
            "rows": result.rows,
            "records": [
                {
                    "config": o["config"],
                    "rep": o["rep"],
                    "failure": o["failure"],
                    "records": [vars(r) for r in o["records"]],
                }
                for o in result.rep_records
            ],
        }
        _dump_json(payload, base + ".json")
        wrote.append(base + ".json")
    sys.stderr.write("wrote " + ", ".join(wrote) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hurstmodes",
                                     description="Hurst-distribution estimation for fractal panels")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    est = subs.add_parser("estimate", help="estimate the Hurst distribution of a panel CSV")
    _add_analysis_flags(est)
    est.set_defaults(func=cmd_estimate)

    spectrum = subs.add_parser("spectrum", help="emit the log-eigenvalue histogram of a panel CSV")
    _add_analysis_flags(spectrum)
    spectrum.add_argument("--affine", default="h", choices=("h", "esd"),
                          help="report values on the H scale or as 2H+1")
    spectrum.set_defaults(func=cmd_spectrum)

    sweep = subs.add_parser("sweep", help="run a Monte Carlo sweep from a spec file")
    sweep.add_argument("--spec", required=True, help="flat key-value experiment description")
    sweep.add_argument("--output", default=None, help="output base path (writes .csv/.json)")
    sweep.add_argument("--format", default="both", choices=("csv", "json", "both"))
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        _emit_error("data", exc)
        return 3
    except ConfigError as exc:
        _emit_error("config", exc)
        return 2
    except DegenerateSpectrumError as exc:
        _emit_error("degenerate-spectrum", exc)
        return 4
    except OSError as exc:
        _emit_error("data", exc)
        return 3


def _emit_error(kind: str, exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": str(exc)}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
