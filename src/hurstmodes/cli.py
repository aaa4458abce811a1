"""Command-line surface: estimate a Hurst distribution from a panel CSV,
run Monte Carlo sweeps from a flat key-value spec file, or emit the
log-eigenvalue histogram for external plotting.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numerical
degeneracy.  Output JSON is byte-stable for a fixed config and seed on a
fixed BLAS build and thread count (the eigenvalues move in the last bits
between thread counts), and numbers are serialized in shortest round-trip
form (lossless re-parse).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .errors import ConfigError, DataError, DegenerateSpectrumError
from .harness import ExperimentSpec, PipelineConfig, log_eigen_set, run_sweep
from .ingest import read_panel_csv, standardize
from .selection import select_scheme
from .synth import HurstDistribution

SCHEMA = "wrmsm/1"

__all__ = ["main", "parse_sweep_spec"]


def _dump_json(obj, path: str | None) -> None:
    # numpy arrays and scalars (np.float64 is already a float) go through
    # tolist(); a NaN or infinity anywhere is a bug, not an output
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=lambda o: o.tolist()) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# analysis setting -> (type, help): estimate takes each as a flag ("_" becomes
# "-"), spectrum the ones that shape the statistic, a sweep spec as a key of
# the same name.  An unset one is None; PipelineConfig owns the defaults.
_SETTINGS = {
    "j": (int, "single-scale octave, analyzed at scale a 2^j (unset: the multiscale window)"),
    "j1": (int, "first octave of the multiscale window (default 2)"),
    "j2": (int, "last octave of the multiscale window (default 5)"),
    "a": (int, "scale factor (power of two), single-scale mode only"),
    "n_vanishing": (int, "vanishing moments of the Daubechies wavelet"),
    "m": (int, "number of grid points for threshold selection"),
    "M": (str, "grid upper bound ('auto' or a positive number; default auto)"),
    "min_cluster": (int, "smallest cluster the selection admits"),
}
_STATISTIC_SETTINGS = ("j", "j1", "j2", "a", "n_vanishing")


def _add_analysis_flags(sub: argparse.ArgumentParser, names) -> None:
    sub.add_argument("--input", required=True, help="panel CSV (columns = series, rows = time)")
    for name in names:
        kind, text = _SETTINGS[name]
        sub.add_argument("--" + name.replace("_", "-"), dest=name, metavar=name, type=kind, help=text)
    sub.add_argument("--output", default=None, help="output path (default: stdout)")
    sub.add_argument("--bins", type=int, default=16, help="histogram bins")
    sub.add_argument("--time-column", default="auto", choices=("auto", "yes", "no"),
                     help="treat the first CSV column as a time index")


def _pipeline_config(settings: dict, n: int = 0, p: int = 0) -> PipelineConfig:
    """The PipelineConfig of a table of analysis settings, None where unset:
    single-scale when j is set, the window j1..j2 (2..5 unless given)
    otherwise.  A setting the mode does not read is an error; PipelineConfig
    fills in the unset rest."""
    s = {name: settings.get(name) for name in _SETTINGS}
    single = s["j"] is not None
    unread = [name for name in (("j1", "j2") if single else ("a",)) if s[name] is not None]
    if unread:
        mode = "single-scale mode (j set)" if single else "multiscale mode (j unset)"
        raise ConfigError(f"{mode} does not read {', '.join(unread)}")
    j1, j2, M = s.pop("j1"), s.pop("j2"), s.pop("M")
    try:
        grid_max = None if M in (None, "auto") else float(M)
    except ValueError:
        raise ConfigError(f"M must be positive or 'auto', got {M!r}") from None
    if not single:
        s["multiscale"] = (2 if j1 is None else j1, 5 if j2 is None else j2)
    return PipelineConfig(n=n, p=p, grid_max=grid_max, **{k: v for k, v in s.items() if v is not None})


def _read_panel(args):
    """Check the settings and read and standardize the CSV: the prologue
    estimate and spectrum share.  Returns the config and the panel."""
    if args.bins < 1:
        raise ConfigError(f"bins must be >= 1, got {args.bins}")
    cfg = _pipeline_config(vars(args))
    time_column = {"auto": "auto", "yes": True, "no": False}[args.time_column]
    return cfg, standardize(read_panel_csv(args.input, time_column=time_column))


def _analyze_panel(args, cfg, panel, affine: str = "h"):
    """Take the panel's statistics.  Returns the grid bound and the output
    fields estimate and spectrum both write."""
    h_set, grid_max = log_eigen_set(panel, cfg)
    mode = ({"kind": "multiscale", "j1": cfg.multiscale[0], "j2": cfg.multiscale[1]}
            if cfg.multiscale is not None else {"kind": "single", "a": cfg.a, "j": cfg.j})
    counts, edges = np.histogram(2.0 * h_set + 1.0 if affine == "esd" else h_set, bins=args.bins)
    fields = {
        "schema": SCHEMA,
        "mode": mode,
        "p": panel.p,
        "n": panel.n,
        "h_values": h_set,
        "histogram": {"bin_edges": edges, "counts": counts, "affine": affine},
    }
    return grid_max, fields


def cmd_estimate(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    cfg, panel = _read_panel(args)
    # clustering needs two statistics, one per series: fail before decomposing
    if panel.p < 2:
        raise DataError(f"estimate needs at least 2 series to cluster, got {panel.p}")
    grid_max, out = _analyze_panel(args, cfg, panel)
    est = select_scheme(out["h_values"], m=cfg.m, grid_max=grid_max, seed=args.seed,
                        min_cluster=cfg.min_cluster)
    out.update({
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
            "excluded": est.trace.excluded,
        },
        "m": cfg.m,
        "grid_max": grid_max,
        "min_cluster": cfg.min_cluster,
        "seed": args.seed,
    })
    _dump_json(out, args.output)
    return 0


def cmd_spectrum(args) -> int:
    _, out = _analyze_panel(args, *_read_panel(args), affine=args.affine)
    _dump_json(out, args.output)
    return 0


def parse_sweep_spec(path) -> ExperimentSpec:
    """Flat key-value sweep description -> ExperimentSpec.

    Recognized keys (one `key = value` per line, each key once, '#' comments):
      family    bimodal | custom
      base      bimodal only: first mode                    (default 0.25)
      deltas    bimodal only: comma list of mode gaps       (e.g. 0,0.05,0.1)
      probs     comma list of probabilities                 (default uniform)
      modes     custom only: semicolon-separated mode lists (e.g. 0.2,0.5,0.8;0.3,0.6)
      n p       panel geometry (p >= 2)
      j a j1 j2 m M min_cluster n_vanishing
                analysis settings, as the estimate flags of the same name
                (single-scale when j given, with j1/j2 an error; multiscale
                otherwise, with a an error)
      reps seed methods
                (reps >= 1; methods distinct, non-empty)
    Any other key is a configuration error.
    """
    kv: dict[str, str] = {}
    seen_at: dict[str, int] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key in seen_at:
                raise ConfigError(f"sweep spec key {key!r} repeated at lines {seen_at[key]} and {lineno}")
            seen_at[key] = lineno
            kv[key] = value  # keys are case-sensitive: m vs M

    def floats(text):
        return tuple(float(s) for s in text.split(","))

    def convert(key, raw, kind):
        try:
            return kind(raw)
        except ValueError:
            raise ConfigError(f"sweep spec key {key!r}: cannot read {raw!r} as {kind.__name__}") from None

    def get(key, default=None, kind=str):
        raw = kv.pop(key, None)
        return default if raw is None else convert(key, raw, kind)

    settings = {name: get(name, kind=kind) for name, (kind, _) in _SETTINGS.items()}
    family = get("family", "bimodal")
    probs = get("probs")
    probs = convert("probs", probs, floats) if probs else None
    reps = get("reps", 200, int)
    seed = get("seed", 0, int)
    methods = tuple(s.strip() for s in get("methods", "spectral,gmm").split(",") if s.strip())
    pipeline = _pipeline_config(settings, n=get("n", 16384, int), p=get("p", 64, int))

    if family == "bimodal":
        deltas = get("deltas", (0.0, 0.025, 0.05, 0.075, 0.1), floats)
        spec = ExperimentSpec.bimodal_sweep(
            deltas, base=get("base", 0.25, float), probs=probs or (0.5, 0.5), pipeline=pipeline,
            reps=reps, methods=methods, master_seed=seed,
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
                              methods=methods, master_seed=seed)
    else:
        raise ConfigError(f"unknown family {family!r}")

    if kv:
        raise ConfigError(f"unrecognized sweep spec keys for family {family!r}: {', '.join(sorted(kv))}")
    return spec


def _write_sweep_csv(rows, path) -> None:
    def fmt(v):
        return "" if v is None else repr(v) if isinstance(v, float) else str(v)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        writer.writerows([fmt(v) for v in row.values()] for row in rows)


def cmd_sweep(args) -> int:
    spec = parse_sweep_spec(args.spec)
    base = args.output or "sweep"
    # an output that cannot be created fails before the first replication
    for path in (base + ".csv", base + ".json"):
        open(path, "a").close()
    result = run_sweep(spec)
    _write_sweep_csv(result.rows, base + ".csv")
    records = [{**o, "records": [vars(r) for r in o["records"]]} for o in result.rep_records]
    _dump_json({"schema": SCHEMA, "rows": result.rows, "records": records}, base + ".json")
    sys.stderr.write(f"wrote {base}.csv, {base}.json\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hurstmodes",
                                     description="Hurst-distribution estimation for fractal panels")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    est = subs.add_parser("estimate", help="estimate the Hurst distribution of a panel CSV")
    _add_analysis_flags(est, _SETTINGS)
    est.add_argument("--seed", type=int, default=0, help="seed of the k-means starts (at least 0)")
    est.set_defaults(func=cmd_estimate)

    spectrum = subs.add_parser("spectrum", help="emit the log-eigenvalue histogram of a panel CSV")
    _add_analysis_flags(spectrum, _STATISTIC_SETTINGS)
    spectrum.add_argument("--affine", default="h", choices=("h", "esd"),
                          help="report values on the H scale or as 2H+1")
    spectrum.set_defaults(func=cmd_spectrum)

    sweep = subs.add_parser("sweep", help="run a Monte Carlo sweep from a spec file")
    sweep.add_argument("--spec", required=True, help="flat key-value experiment description")
    sweep.add_argument("--output", default=None, help="base path of the .csv and .json written (default: sweep)")
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
