"""Estimation of the Hurst distribution of a high-dimensional fractal panel.

The pipeline: synthesize or ingest a p x n panel, take a pyramidal wavelet
transform, form the second-moment matrix of the detail vectors at dyadic
scales, map its eigenvalues to per-rank scaling statistics, and cluster
those statistics with a threshold-graph spectral method whose precision
parameter is chosen by minimizing the intra-cluster standard deviation over
a grid.  A 1-D Gaussian-mixture/BIC baseline and a Monte Carlo harness for
finite-sample studies are included.
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
from .ingest import read_panel_csv, standardize
from .scaling import WaveletRandomMatrix, heuristic_m, log_eigen, log_eigen_multiscale, wavelet_random_matrix
from .selection import EstimationResult, SelectionTrace, select_scheme
from .synth import (
    HurstDistribution,
    MixingMatrix,
    Panel,
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
