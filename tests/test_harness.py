import numpy as np
import pytest

from hurstmodes import (
    ClusterScheme,
    ConfigError,
    EstimationResult,
    ExperimentSpec,
    FilterBank,
    GmmFit,
    HurstDistribution,
    MixingMatrix,
    Panel,
    PipelineConfig,
    SelectionTrace,
    WaveletDecomposition,
    WaveletRandomMatrix,
    gen_panel,
    run_pipeline,
    run_rep,
    run_sweep,
)
from hurstmodes.harness import log_eigen_set


def small_spec(**kwargs):
    defaults = dict(
        configs=(("uni", HurstDistribution.point(0.5)),),
        pipeline=PipelineConfig(n=2**11, p=8, multiscale=(2, 4)),
        reps=3,
        methods=("spectral", "gmm"),
        master_seed=99,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestRunRep:
    def test_reproducible_in_isolation(self):
        spec = small_spec()
        a = run_rep(spec, 0, 1)
        b = run_rep(spec, 0, 1)
        assert a["records"] == b["records"]
        assert a["failure"] == b["failure"]

    def test_reps_differ(self):
        spec = small_spec()
        a = run_rep(spec, 0, 0)
        b = run_rep(spec, 0, 1)
        assert a["records"] != b["records"]

    def test_fixed_mix_changes_stream_deterministically(self):
        free = run_rep(small_spec(), 0, 0)
        fixed1 = run_rep(small_spec(fixed_mix=True), 0, 0)
        fixed2 = run_rep(small_spec(fixed_mix=True), 0, 0)
        assert fixed1["records"] == fixed2["records"]
        assert free["records"] != fixed1["records"]

    def test_score_fields(self):
        rec = run_rep(small_spec(), 0, 0)["records"][0]
        assert rec.method == "spectral"
        assert isinstance(rec.r_hat, int)
        if rec.correct:
            assert rec.mode_err is not None and rec.prob_err is not None


class TestRunSweep:
    def test_single_rep_equals_record(self):
        spec = small_spec(reps=1, methods=("spectral",))
        res = run_sweep(spec)
        rec = run_rep(spec, 0, 0)["records"][0]
        row = res.rows[0]
        assert row["reps_used"] == 1
        assert row["proportion_correct"] == float(rec.correct)
        if rec.correct:
            assert row["mode_rmse"] == pytest.approx(rec.mode_err)
            assert row["prob_rmse"] == pytest.approx(rec.prob_err)
        assert row["mean_epsilon_ms"] == pytest.approx(rec.epsilon_ms)

    def test_aggregation_matches_records_exactly(self):
        spec = small_spec(reps=4, methods=("spectral",))
        res = run_sweep(spec)
        recs = [r for o in res.rep_records for r in o["records"]]
        row = res.rows[0]
        assert row["proportion_correct"] == np.mean([r.correct for r in recs])
        assert row["mean_epsilon_ms"] == pytest.approx(np.mean([r.epsilon_ms for r in recs]))

    def test_failures_counted_not_dropped(self):
        # p exceeds the coefficient count at the coarse octave: rank-deficient
        # matrices make every replication fail with a degeneracy error
        spec = small_spec(
            pipeline=PipelineConfig(n=2**8, p=16, multiscale=(2, 4)),
            reps=2,
            methods=("spectral",),
        )
        with pytest.warns(RuntimeWarning):
            res = run_sweep(spec)
        row = res.rows[0]
        assert row["failures"] == 2
        assert row["reps_used"] == 0
        assert np.isnan(row["proportion_correct"])

    def test_proportions_in_unit_interval(self):
        res = run_sweep(small_spec(reps=3))
        for row in res.rows:
            assert 0.0 <= row["proportion_correct"] <= 1.0
            assert row["reps"] == 3
            assert row["reps_used"] + row["failures"] == 3

    def test_shared_label_counted_per_config(self):
        # rows aggregate by config position, not by label
        dist = HurstDistribution.uniform([0.2, 0.8])
        res = run_sweep(small_spec(configs=(("same", dist), ("same", dist)), reps=2,
                                   methods=("spectral",)))
        assert len(res.rows) == 2
        for row in res.rows:
            assert row["reps_used"] + row["failures"] == 2


class TestRunPipeline:
    def test_panel_to_estimate(self):
        panel, _ = gen_panel(HurstDistribution.point(0.5), 8, 2**11, seed=17)
        cfg = PipelineConfig(n=2**11, p=8, multiscale=(2, 4))
        est = run_pipeline(panel, cfg, seed=17)
        assert est.r_hat >= 1
        assert len(est.modes) == est.r_hat
        assert est.epsilon_ms in est.trace.grid

    def test_deterministic(self):
        panel, _ = gen_panel(HurstDistribution.uniform([0.3, 0.7]), 8, 2**11, seed=2)
        cfg = PipelineConfig(n=2**11, p=8, multiscale=(2, 4))
        a = run_pipeline(panel, cfg, seed=5)
        b = run_pipeline(panel, cfg, seed=5)
        assert a.r_hat == b.r_hat and a.epsilon_ms == b.epsilon_ms

    def test_log_eigen_set_resolves_grid_max(self):
        panel, _ = gen_panel(HurstDistribution.uniform([0.3, 0.7]), 8, 2**11, seed=2)
        h_set, auto = log_eigen_set(panel, PipelineConfig(multiscale=(2, 4)))
        assert auto == float(h_set[-1] - h_set[0])
        _, fixed = log_eigen_set(panel, PipelineConfig(multiscale=(2, 4), grid_max=0.3))
        assert fixed == 0.3


class TestPaperPlateExample:
    def test_gap_0085_identified_above_three_quarters(self):
        # standard analysis plate (n=2^14, p=64, scale 2^4, grid m=10,
        # auto upper bound): a 0.25/0.335 equal mixture is identified as
        # bimodal in well over three quarters of replications
        cfg = PipelineConfig(n=2**14, p=64, multiscale=(1, 4), m=10)
        dist = HurstDistribution((0.25, 0.335), (0.5, 0.5))
        spec = ExperimentSpec(configs=(("d085", dist),), pipeline=cfg, reps=100,
                              methods=("spectral",), master_seed=31_337)
        res = run_sweep(spec)
        assert res.rows[0]["proportion_correct"] > 0.75


class TestExperimentSpec:
    def test_bimodal_sweep_builder(self):
        spec = ExperimentSpec.bimodal_sweep(
            [0.0, 0.1], base=0.25, pipeline=PipelineConfig(n=2**11, p=8, multiscale=(2, 4)),
            reps=1, master_seed=0,
        )
        assert spec.configs[0][1].r == 1
        assert spec.configs[1][1].modes == (0.25, 0.35)

    def test_dimension_sanity_warning(self):
        with pytest.warns(RuntimeWarning, match="moderately"):
            small_spec(pipeline=PipelineConfig(n=2**6, p=8, multiscale=(2, 3)))

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(methods=("bogus",))

    def test_repeated_method_rejected(self):
        with pytest.raises(ConfigError, match="repeat"):
            small_spec(methods=("spectral", "spectral"))

    @pytest.mark.parametrize("kwargs, match", [({"j": -1}, "octave j"), ({"multiscale": (3, 2)}, "j1 < j2")])
    def test_window_checked(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            PipelineConfig(**kwargs)

    def test_scale_factor_power_of_two(self):
        with pytest.raises(ConfigError):
            PipelineConfig(n=2**10, p=4, a=12, j=1)

    @pytest.mark.parametrize("grid_max", [-1.0, 0.0, float("inf"), float("nan")])
    def test_grid_max_finite_positive(self, grid_max):
        with pytest.raises(ConfigError):
            PipelineConfig(grid_max=grid_max)

    @pytest.mark.parametrize("field", ["m", "min_cluster"])
    def test_grid_counts_at_least_one(self, field):
        with pytest.raises(ConfigError, match=field):
            PipelineConfig(**{field: 0})


def _estimation_result():
    scheme = ClusterScheme(((0, 1),), 1, np.array([0.5]), np.array([1.0]), 0.0)
    trace = SelectionTrace(np.zeros(2), np.zeros(2), 0, np.zeros(2, dtype=bool), (scheme,))
    return EstimationResult(1, np.array([0.5]), np.array([1.0]), 0.1, 0.0, scheme, trace)


# results that hold arrays compare by identity: the generated field-wise
# __eq__ would ask numpy for the truth value of an array
_ARRAY_HOLDERS = {
    "WaveletRandomMatrix": lambda: WaveletRandomMatrix(np.eye(3), 1, 4),
    "FilterBank": lambda: FilterBank(1, np.ones(2) / np.sqrt(2.0), np.array([1.0, -1.0]) / np.sqrt(2.0)),
    "MixingMatrix": lambda: MixingMatrix(np.eye(3)),
    "Panel": lambda: Panel(np.zeros((2, 4))),
    "WaveletDecomposition": lambda: WaveletDecomposition({1: np.zeros((2, 3))}, 8),
    "ClusterScheme": lambda: _estimation_result().scheme,
    "SelectionTrace": lambda: _estimation_result().trace,
    "EstimationResult": _estimation_result,
    "GmmFit": lambda: GmmFit(1, np.ones(1), np.zeros(1), np.ones(1), 0.0, 0.0),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_HOLDERS))
def test_array_results_compare_by_identity(name):
    first, second = _ARRAY_HOLDERS[name](), _ARRAY_HOLDERS[name]()
    assert (first == first) is True
    assert (first == second) is False
    assert len({first, second, first}) == 2
