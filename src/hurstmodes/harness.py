"""Monte Carlo driver: sweeps over Hurst-distribution configurations,
replicates the full pipeline, and scores identification proportions,
selected thresholds, and mode/probability errors against the truth.

Per-replication seeds derive from (master seed, config index, rep index),
so any single replication can be reproduced in isolation and the
aggregates are independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateSpectrumError
from .gmm import K_MAX, select_gmm
from .scaling import heuristic_m, log_eigen, log_eigen_multiscale, wavelet_random_matrix
from .selection import EstimationResult, select_scheme
from .synth import HurstDistribution, gen_panel, subseed
from .wavelet import daubechies, decompose, require_depth, trimmed_count

__all__ = [
    "ExperimentSpec",
    "PipelineConfig",
    "RepRecord",
    "SweepResult",
    "run_pipeline",
    "run_rep",
    "run_sweep",
]


@dataclass(frozen=True)
class PipelineConfig:
    """Analysis parameters shared by every replication of a sweep.

    Single-scale mode analyzes the matrix at octave j + log2(a) and rescales
    by a; multiscale mode regresses across octaves j1..j2.  grid_max None
    means the data-driven bound log_eigen_set resolves; otherwise it must be
    finite and positive.
    """

    n: int = 0  # panel geometry; 0 when the panel comes from elsewhere (CLI)
    p: int = 0
    a: int = 16
    j: int = 1
    multiscale: tuple[int, int] | None = None
    m: int = 10
    grid_max: float | None = None
    min_cluster: int = 2
    n_vanishing: int = 2

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError(f"grid size m must be >= 1, got {self.m}")
        if self.min_cluster < 1:
            raise ConfigError(f"min_cluster must be >= 1, got {self.min_cluster}")
        if self.grid_max is not None and not (math.isfinite(self.grid_max) and self.grid_max > 0.0):
            raise ConfigError(f"grid_max must be finite and positive or None, got {self.grid_max}")
        if self.multiscale is None:
            if self.a < 2 or (self.a & (self.a - 1)) != 0:
                raise ConfigError(f"scale factor a must be a power of two >= 2, got {self.a}")
            if self.j < 0:
                raise ConfigError(f"octave j must be >= 0, got {self.j}")
        else:
            j1, j2 = self.multiscale
            if not 1 <= j1 < j2:
                raise ConfigError(f"need 1 <= j1 < j2, got ({j1}, {j2})")

    @property
    def total_octave(self) -> int:
        if self.multiscale is not None:
            return self.multiscale[1]
        return self.j + int(math.log2(self.a))


def log_eigen_set(panel, config: PipelineConfig):
    """Decompose a panel and return (sorted statistics, grid upper bound M).

    Only the octaves the statistic reads are kept, as contiguous arrays:
    j1..j2 for the multiscale statistic, the analysis octave j + log2 a
    otherwise.  M is config.grid_max when set, otherwise the data-driven
    bound: heuristic_m single-scale, the spread of the statistics
    multiscale, and 1e-8 on a flat spectrum, where any grid yields one
    cluster.  M is always finite and positive.
    """
    bank = daubechies(config.n_vanishing)
    if config.multiscale is not None:
        decomp = decompose(panel.data, bank, config.total_octave, config.multiscale[0])
        h_set = log_eigen_multiscale(decomp, *config.multiscale)
        auto_m = float(h_set[-1] - h_set[0])
    else:
        decomp = decompose(panel.data, bank, config.total_octave, config.total_octave)
        wrm = wavelet_random_matrix(decomp, config.total_octave)
        h_set = log_eigen(wrm, config.a)
        auto_m = heuristic_m(wrm, config.a)
    if config.grid_max is not None:
        return h_set, config.grid_max
    return h_set, (auto_m if auto_m > 0.0 else 1e-8)


def run_pipeline(panel, config: PipelineConfig, seed: int = 0) -> EstimationResult:
    """Panel through decomposition, log-eigenvalues, and threshold selection."""
    h_set, grid_max = log_eigen_set(panel, config)
    return select_scheme(
        h_set, m=config.m, grid_max=grid_max, seed=seed, min_cluster=config.min_cluster
    )


@dataclass(frozen=True)
class RepRecord:
    """Score card of one replication (one method)."""

    method: str
    r_hat: int
    correct: bool
    epsilon_ms: float | None
    mode_err: float | None  # max |mode_i - true_i|, only when r_hat = r
    prob_err: float | None
    modes: tuple[float, ...]
    probs: tuple[float, ...]


def _score(method, r_hat, modes, probs, dist: HurstDistribution, epsilon_ms=None) -> RepRecord:
    correct = r_hat == dist.r
    mode_err = prob_err = None
    if correct:
        mode_err = float(np.max(np.abs(np.asarray(modes) - np.asarray(dist.modes))))
        prob_err = float(np.max(np.abs(np.asarray(probs) - np.asarray(dist.probs))))
    return RepRecord(
        method, int(r_hat), correct, epsilon_ms, mode_err, prob_err,
        tuple(float(v) for v in modes), tuple(float(v) for v in probs),
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """A sweep: one pipeline configuration evaluated over several laws."""

    configs: tuple[tuple[str, HurstDistribution], ...]
    pipeline: PipelineConfig
    reps: int = 200
    methods: tuple[str, ...] = ("spectral", "gmm")
    master_seed: int = 0

    def __post_init__(self):
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        if self.master_seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.master_seed}")
        if not self.methods:
            raise ConfigError("methods must name at least one of spectral, gmm")
        for method in self.methods:
            if method not in ("spectral", "gmm"):
                raise ConfigError(f"unknown method {method!r}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError(f"methods must not repeat, got {self.methods}")
        cfg = self.pipeline
        if cfg.p < 2:
            raise ConfigError(f"panel dimension p must be >= 2, got {cfg.p}")
        # what decompose and wavelet_random_matrix would raise in every
        # replication, raised before any panel is synthesized.  n_j < n/2^j,
        # so this also keeps p below n/(a 2^j), as the moderately
        # high-dimensional regime assumes
        support, deepest = daubechies(cfg.n_vanishing).support_length, cfg.total_octave
        require_depth(cfg.n, support, deepest)
        n_j = trimmed_count(cfg.n, support, deepest)
        if cfg.p > n_j:
            raise ConfigError(
                f"p={cfg.p} exceeds the effective sample size n_j={n_j} at octave {deepest}: "
                "every replication's matrix would be rank deficient"
            )
        # run_rep's select_gmm fits k = 1..K_MAX to the p statistics
        if "gmm" in self.methods and cfg.p < 2 * K_MAX:
            raise ConfigError(f"method gmm needs p >= 2*k_max = {2 * K_MAX} series, got p={cfg.p}")

    @classmethod
    def bimodal_sweep(cls, deltas, base: float = 0.25, probs=(0.5, 0.5), **kwargs) -> "ExperimentSpec":
        configs = []
        for d in deltas:
            if d == 0.0:
                dist = HurstDistribution.point(base)
            else:
                dist = HurstDistribution((base, base + d), tuple(probs))
            configs.append((f"delta={d:g}", dist))
        return cls(configs=tuple(configs), **kwargs)


def run_rep(spec: ExperimentSpec, config_index: int, rep_index: int) -> dict:
    """One replication, reproducible in isolation from its (config, rep) address."""
    label, dist = spec.configs[config_index]
    cfg = spec.pipeline
    rep_seed = int(subseed(spec.master_seed, 5, config_index, rep_index).integers(2**63))
    panel, _true_h = gen_panel(dist, cfg.p, cfg.n, seed=rep_seed)

    records: list[RepRecord] = []
    failure = None
    try:
        h_set, grid_max = log_eigen_set(panel, cfg)
        if "spectral" in spec.methods:
            est = select_scheme(h_set, m=cfg.m, grid_max=grid_max, seed=rep_seed,
                                min_cluster=cfg.min_cluster)
            records.append(_score("spectral", est.r_hat, est.modes, est.probs, dist, est.epsilon_ms))
        if "gmm" in spec.methods:
            fit = select_gmm(h_set, seed=rep_seed)
            records.append(_score("gmm", fit.k, fit.means, fit.weights, dist))
    except DegenerateSpectrumError as exc:
        failure = str(exc)
    return {"config": label, "rep": rep_index, "records": records, "failure": failure}


@dataclass
class SweepResult:
    """Aggregates per (config, method) plus the per-rep records."""

    rows: list[dict] = field(default_factory=list)
    rep_records: list[dict] = field(default_factory=list)


def run_sweep(spec: ExperimentSpec) -> SweepResult:
    """All replications of all configs; failures are counted and excluded,
    never silently dropped."""
    outcomes = [run_rep(spec, ci, ri) for ci in range(len(spec.configs)) for ri in range(spec.reps)]
    result = SweepResult(rep_records=outcomes)
    for ci, (label, dist) in enumerate(spec.configs):
        these = outcomes[ci * spec.reps : (ci + 1) * spec.reps]
        failures = sum(1 for o in these if o["failure"] is not None)
        for method in spec.methods:
            recs = [r for o in these for r in o["records"] if r.method == method]
            used = len(recs)
            correct = [r for r in recs if r.correct]
            row = {
                "config": label,
                "method": method,
                "true_r": dist.r,
                "reps": spec.reps,
                "reps_used": used,
                "failures": failures,
                "proportion_correct": (len(correct) / used) if used else None,
                "mean_epsilon_ms": _mean([r.epsilon_ms for r in recs if r.epsilon_ms is not None]),
                "mode_rmse": _rmse([r.mode_err for r in correct]),
                "prob_rmse": _rmse([r.prob_err for r in correct]),
            }
            result.rows.append(row)
    return result


def _mean(xs):
    return float(np.mean(xs)) if xs else None


def _rmse(xs):
    return float(np.sqrt(np.mean(np.square(xs)))) if xs else None
