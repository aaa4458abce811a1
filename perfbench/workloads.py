"""The four benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the benchmark seed in ``prepare`` and
runs one work item per ``run(index)`` call.  An item returns an ``Outcome``
or raises ``CheckFailed`` (or any error the program raises); the benchmark
counts both as failures.  Functions of hurstmodes are looked up through
module attributes at call time, so the span recorder sees the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import hurstmodes as hm
import hurstmodes.cli  # noqa: F401  (cli is not imported by the package)
import hurstmodes.harness  # noqa: F401

CLI_SCHEMA = "wrmsm/1"
PROB_TOL = 1e-12


class CheckFailed(AssertionError):
    """An output of the program broke an invariant."""


@dataclass(frozen=True)
class Outcome:
    ident: bool  # spectral estimator returned the true number of modes
    lines: tuple[str, ...]  # digest lines: method, r_hat, modes rounded to 1e-9
    gmm_ident: bool | None = None


def derive(seed: int, *path: int) -> int:
    """Seed for one address below the benchmark seed."""
    state = np.random.SeedSequence((int(seed),) + tuple(path)).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


def digest_line(method: str, r_hat: int, modes) -> str:
    return f"{method} {int(r_hat)} " + " ".join(f"{float(m):.9f}" for m in modes)


def check_estimate(r_hat, modes, probs, clusters=None, p=None) -> None:
    """Invariants of one estimate: r_hat == len(modes), finite modes,
    probabilities summing to 1, clusters partitioning 0..p-1."""
    if r_hat != len(modes) or len(modes) != len(probs):
        raise CheckFailed(f"r_hat={r_hat} but {len(modes)} modes and {len(probs)} probabilities")
    if not all(math.isfinite(float(m)) for m in modes):
        raise CheckFailed(f"non-finite mode in {list(modes)}")
    if abs(math.fsum(float(w) for w in probs) - 1.0) > PROB_TOL:
        raise CheckFailed(f"probabilities sum to {math.fsum(probs)!r}")
    if clusters is not None:
        if len(clusters) != r_hat:
            raise CheckFailed(f"{len(clusters)} clusters for r_hat={r_hat}")
        members = sorted(int(i) for c in clusters for i in c)
        if members != list(range(p)):
            raise CheckFailed(f"clusters do not partition 0..{p - 1}")


def _check_select_scheme(args, kwargs, est) -> None:
    h_set = args[0] if args else kwargs["h_set"]
    p = len(getattr(h_set, "values", h_set))
    check_estimate(est.r_hat, est.modes, est.probs, est.scheme.clusters, p)


# run on every select_scheme result, traced or not (see spans.Instrumentation)
CHECKS = {"selection.select_scheme": _check_select_scheme}


class SweepWorkload:
    """``run_sweep`` with its default arguments, one replication per item.

    Item i runs configuration i mod len(configs), so the laws are visited in
    equal shares, with a master seed derived from (seed, i).
    """

    setup_passes = 3

    def __init__(self, name, configs, pipeline, methods, warm_pipeline, required, long_series):
        self.name = name
        self.long_series = long_series
        self.configs = tuple(configs)
        self.pipeline = pipeline
        self.methods = methods
        self.warm_pipeline = warm_pipeline
        self.required = required
        self.seed = 0
        self.working_set = {"panel_bytes": 8 * pipeline.p * pipeline.n}

    def _spec(self, index, master_seed, pipeline):
        return hm.ExperimentSpec(configs=(self.configs[index % len(self.configs)],),
                                 pipeline=pipeline, reps=1, methods=self.methods,
                                 master_seed=master_seed)

    def prepare(self, seed, workdir) -> None:
        self.seed = seed
        # warm-up: one replication of every law at a short length
        for index in range(len(self.configs)):
            self._score(self._spec(index, derive(seed, 1, index), self.warm_pipeline))

    def run(self, index) -> Outcome:
        return self._score(self._spec(index, derive(self.seed, 0, index), self.pipeline))

    def _score(self, spec) -> Outcome:
        result = hm.run_sweep(spec)
        (outcome,) = result.rep_records
        if outcome["failure"] is not None:
            raise CheckFailed(f"run_rep failure: {outcome['failure']}")
        _label, dist = spec.configs[0]
        records = {r.method: r for r in outcome["records"]}
        if sorted(records) != sorted(spec.methods):
            raise CheckFailed(f"records for {sorted(records)}, expected {sorted(spec.methods)}")
        lines = []
        for method in spec.methods:
            rec = records[method]
            check_estimate(rec.r_hat, rec.modes, rec.probs)
            lines.append(digest_line(method, rec.r_hat, rec.modes))
        gmm = records.get("gmm")
        return Outcome(records["spectral"].r_hat == dist.r, tuple(lines),
                       None if gmm is None else gmm.r_hat == dist.r)


def write_panel_csv(panel, path) -> str:
    """Series-per-column CSV with a header of series names, lossless floats."""
    with open(path, "w") as fh:
        fh.write(",".join(f"s{i}" for i in range(panel.p)) + "\n")
        np.savetxt(fh, panel.data.T, delimiter=",", fmt="%.17g")
    return str(path)


class EstimateCsv:
    """``hurstmodes estimate`` through ``cli.main`` on CSVs written in set-up.

    Items cycle over (csv 0, multiscale), (csv 0, single-scale ``--j 1 --a
    16``), (csv 1, multiscale), (csv 1, single-scale), so each call repeats
    on its CSV and must print the same bytes as the first time.
    """

    name = "estimate-csv"
    long_series = False  # reference kernel mix (see reference.py)
    required = ("cli", "ingest", "harness", "wavelet", "scaling", "cluster", "selection")
    setup_passes = 3
    p, n, n_csv = 64, 2**14, 2
    dist = hm.HurstDistribution.uniform([0.3, 0.6])
    calls = ((), ("--j", "1", "--a", "16"))

    def __init__(self):
        self.paths: list[str] = []
        self.outputs: dict = {}
        self.working_set = {"panel_bytes": 8 * self.p * self.n, "csv_bytes": 0}

    def prepare(self, seed, workdir) -> None:
        self.paths = []
        self.outputs = {}
        for k in range(self.n_csv):
            panel, _ = hm.gen_panel(self.dist, self.p, self.n, seed=derive(seed, 2, k))
            self.paths.append(write_panel_csv(panel, os.path.join(workdir, f"panel{k}.csv")))
        self.working_set["csv_bytes"] = os.path.getsize(self.paths[0])
        warm, _ = hm.gen_panel(self.dist, 8, 2**11, seed=derive(seed, 1))
        self._call(write_panel_csv(warm, os.path.join(workdir, "warm.csv")), ())

    def _call(self, path, extra) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = hm.cli.main(["estimate", "--input", path, *extra])
        if code != 0:
            raise CheckFailed(f"hurstmodes estimate exited with {code}")
        return buf.getvalue()

    def run(self, index) -> Outcome:
        path = self.paths[(index // len(self.calls)) % self.n_csv]
        extra = self.calls[index % len(self.calls)]
        text = self._call(path, extra)
        if self.outputs.setdefault((path, extra), text) != text:
            raise CheckFailed(f"repeated call {extra} on {os.path.basename(path)} changed its output")
        out = json.loads(text)
        if out.get("schema") != CLI_SCHEMA:
            raise CheckFailed(f"schema {out.get('schema')!r}, expected {CLI_SCHEMA!r}")
        if out["p"] != self.p or out["n"] != self.n:
            raise CheckFailed(f"panel read as {out['p']}x{out['n']}")
        check_estimate(out["r_hat"], out["modes"], out["probs"], out["clusters"], self.p)
        return Outcome(out["r_hat"] == self.dist.r, (digest_line("spectral", out["r_hat"], out["modes"]),))


class WidePanel:
    """``log_eigen_set`` -> ``select_scheme`` -> ``select_gmm`` on a p=512
    panel synthesized in set-up, as ``run_rep`` does without synthesis.
    Every item repeats the analysis and must reproduce the first estimates."""

    name = "wide-p512"
    long_series = True
    required = ("harness", "wavelet", "scaling", "cluster", "selection", "gmm")
    setup_passes = 1  # synthesizing the 256 MiB panel takes about 6 s
    p, n = 512, 2**16
    dist = hm.HurstDistribution.uniform([0.3, 0.5, 0.7])
    pipeline = hm.PipelineConfig(n=2**16, p=512, multiscale=(2, 5), m=10)
    gmm_k_max = 3

    def __init__(self):
        self.panel = None
        self.seed = 0
        self.first = None
        self.working_set = {"panel_bytes": 8 * self.p * self.n}

    def prepare(self, seed, workdir) -> None:
        self.panel = None  # release the previous panel before synthesizing the next
        self.seed = derive(seed, 2)
        self.first = None
        self.panel, _ = hm.gen_panel(self.dist, self.p, self.n, seed=self.seed)
        warm, _ = hm.gen_panel(self.dist, 32, 2**12, seed=derive(seed, 1))
        self._analyse(warm, 0)

    def _analyse(self, panel, seed) -> Outcome:
        cfg = self.pipeline
        h_set, auto_m = hm.harness.log_eigen_set(panel, cfg)
        est = hm.select_scheme(h_set, m=cfg.m, grid_max=auto_m if auto_m > 0 else None,
                               seed=seed, min_cluster=cfg.min_cluster)
        fit = hm.select_gmm(h_set, k_max=self.gmm_k_max, seed=seed)
        check_estimate(fit.k, fit.means, fit.weights)
        lines = (digest_line("spectral", est.r_hat, est.modes), digest_line("gmm", fit.k, fit.means))
        return Outcome(est.r_hat == self.dist.r, lines, fit.k == self.dist.r)

    def run(self, index) -> Outcome:
        outcome = self._analyse(self.panel, self.seed)
        if self.first is None:
            self.first = outcome.lines
        elif outcome.lines != self.first:
            raise CheckFailed("repeated analysis of the panel changed its estimates")
        return outcome


_BIMODAL_PIPELINE = hm.PipelineConfig(n=2**14, p=64, multiscale=(1, 4), m=10)
_TRIMODAL_PIPELINE = hm.PipelineConfig(n=2**18, p=64, multiscale=(4, 6), m=10)


def make(name: str):
    """A fresh workload by name."""
    if name == "sweep-bimodal":
        configs = hm.ExperimentSpec.bimodal_sweep(
            (0.0, 0.025, 0.05, 0.075, 0.1), base=0.25, pipeline=_BIMODAL_PIPELINE).configs
        return SweepWorkload(
            name, configs, _BIMODAL_PIPELINE, ("spectral", "gmm"), _BIMODAL_PIPELINE,
            ("synth", "wavelet", "scaling", "cluster", "selection", "gmm", "harness"), long_series=False)
    if name == "trimodal-n18":
        configs = (("0.2,0.5,0.8", hm.HurstDistribution.uniform([0.2, 0.5, 0.8])),)
        return SweepWorkload(
            name, configs, _TRIMODAL_PIPELINE, ("spectral",),
            hm.PipelineConfig(n=2**14, p=64, multiscale=(4, 6), m=10),
            ("synth", "wavelet", "scaling", "cluster", "selection", "harness"), long_series=True)
    if name == "estimate-csv":
        return EstimateCsv()
    if name == "wide-p512":
        return WidePanel()
    raise KeyError(name)
