"""Estimation of the Hurst distribution of a high-dimensional fractal panel.

The pipeline: synthesize or ingest a p x n panel, take a pyramidal wavelet
transform, form the second-moment matrix of the detail vectors at dyadic
scales, map its eigenvalues to per-rank scaling statistics, and cluster
those statistics with a threshold-graph spectral method whose precision
parameter is chosen by minimizing the intra-cluster standard deviation over
a grid.  A 1-D Gaussian-mixture/BIC baseline and a Monte Carlo harness for
finite-sample studies are included.

Every random stream is np.random.default_rng((seed, *address)), a node of
a splittable seed tree, so streams are independent and reproducible in any
order.  The addresses:

    (seed, 0)               sample_hurst's Hurst draws
    (seed, 1)               MixingMatrix.haar's Gaussian matrix
    (seed, 2, i)            gen_panel's row i (fbm_path's path: i = 0)
    (seed, 3)               kmeans's starting centers
    (seed, 4, a, b)         select_scheme at epsilon_k, a/b = k/m in lowest terms
    (master_seed, 5, c, r)  run_rep's seed for replication r of config c
"""

from .cluster import (
    ClusterScheme,
    eigengap_count,
    epsilon_graph,
    estimate_at_epsilon,
    icsd,
    kmeans,
    laplacian_spectrum,
)
from .errors import ConfigError, DataError, DegenerateSpectrumError, DomainError
from .gmm import GmmFit, fit_gmm, select_gmm
from .harness import ExperimentSpec, PipelineConfig, RepRecord, SweepResult, run_pipeline, run_rep, run_sweep
from .ingest import Panel, read_panel_csv, standardize
from .scaling import WaveletRandomMatrix, heuristic_m, log_eigen, log_eigen_multiscale, wavelet_random_matrix
from .selection import EstimationResult, SelectionTrace, select_scheme
from .synth import (
    HurstDistribution,
    MixingMatrix,
    fbm_path,
    gen_panel,
    sample_hurst,
)
from .wavelet import FilterBank, WaveletDecomposition, daubechies, decompose, max_octave

__version__ = "0.1.0"

__all__ = [
    "ClusterScheme", "ConfigError", "DataError", "DegenerateSpectrumError", "DomainError",
    "EstimationResult", "ExperimentSpec", "FilterBank", "GmmFit", "HurstDistribution",
    "MixingMatrix", "Panel", "PipelineConfig", "RepRecord", "SelectionTrace", "SweepResult",
    "WaveletDecomposition", "WaveletRandomMatrix", "daubechies", "decompose", "eigengap_count",
    "epsilon_graph", "estimate_at_epsilon", "fbm_path", "fit_gmm", "gen_panel",
    "heuristic_m", "icsd", "kmeans", "laplacian_spectrum", "log_eigen",
    "log_eigen_multiscale", "max_octave", "read_panel_csv", "run_pipeline", "run_rep",
    "run_sweep", "sample_hurst", "select_gmm", "select_scheme", "standardize",
    "wavelet_random_matrix",
]
