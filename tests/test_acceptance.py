"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The Monte Carlo work is shared where criteria overlap (the bimodal sweep
backs the identification curve, the unimodal control, and the baseline
comparison).  Budgets follow the stated replication counts, so the module
takes several minutes of CPU.
"""

import json

import numpy as np
import pytest

from hurstmodes import (
    ExperimentSpec,
    HurstDistribution,
    PipelineConfig,
    daubechies,
    decompose,
    eigengap_count,
    fbm_path,
    gen_panel,
    kmeans,
    laplacian_spectrum,
    run_sweep,
    select_scheme,
)
from hurstmodes.cli import main
from hurstmodes.harness import log_eigen_set

from test_cluster import component_spectrum, disjoint_complete_adjacency
from test_ingest_cli import write_panel_csv

# the identification experiments use the analysis geometry n=2^14, p=2^6,
# scale a=2^4, j=1 with the across-octave (debiased) statistic on octaves
# j..log2(a); auto-M and m=10 for selection
SWEEP_PIPELINE = PipelineConfig(n=2**14, p=64, multiscale=(1, 4), m=10, grid_max=None)
DELTAS = (0.0, 0.025, 0.05, 0.075, 0.1)
REPS = 200


def report(num: int, ok: bool, msg: str) -> bool:
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {msg}")
    return ok


@pytest.fixture(scope="session")
def bimodal_sweep():
    spec = ExperimentSpec.bimodal_sweep(
        DELTAS, base=0.25, pipeline=SWEEP_PIPELINE, reps=REPS,
        methods=("spectral", "gmm"), master_seed=20_240_817,
    )
    return run_sweep(spec)


def proportion_two(result, label: str, method: str) -> float:
    hits = [
        r.r_hat == 2
        for o in result.rep_records
        if o["config"] == label
        for r in o["records"]
        if r.method == method
    ]
    return float(np.mean(hits))


class TestCriterion1BimodalCurve:
    def test_identification_curve(self, bimodal_sweep):
        curve = {d: proportion_two(bimodal_sweep, f"delta={d:g}", "spectral") for d in DELTAS}
        gmm_curve = {d: proportion_two(bimodal_sweep, f"delta={d:g}", "gmm") for d in DELTAS}
        detail = (
            "proportion(r_hat=2) over 200 reps: "
            + ", ".join(f"delta={d:g}: {curve[d]:.3f}" for d in DELTAS)
            + " | gmm baseline: "
            + ", ".join(f"{gmm_curve[d]:.3f}" for d in DELTAS)
        )
        ok = (
            curve[0.075] > 0.75
            and curve[0.1] > 0.75
            and curve[0.0] <= 0.10
            and curve[0.025] <= 0.10
        )
        report(1, ok, detail)
        assert curve[0.0] <= 0.10, f"false bimodality at delta=0: {curve[0.0]}"
        assert curve[0.025] <= 0.10, f"false bimodality at delta=0.025: {curve[0.025]}"
        assert curve[0.1] > 0.75, f"identification at delta=0.1: {curve[0.1]}"
        assert curve[0.075] > 0.75, f"identification at delta=0.075: {curve[0.075]}"


class TestCriterion2UnimodalControl:
    def test_both_methods_identify_single_mode(self, bimodal_sweep):
        props = {row["method"]: row["proportion_correct"]
                 for row in bimodal_sweep.rows if row["config"] == "delta=0"}
        ok = props["spectral"] >= 0.9 and props["gmm"] >= 0.9
        report(2, ok, f"proportion(r_hat=1) at delta=0: spectral={props['spectral']:.3f}, "
                      f"gmm={props['gmm']:.3f} (both required >= 0.9)")
        assert props["spectral"] >= 0.9
        assert props["gmm"] >= 0.9


class TestCriterion3BeatsBaselineInTransition:
    def test_spectral_above_gmm_at_transition(self, bimodal_sweep):
        ours = proportion_two(bimodal_sweep, "delta=0.075", "spectral")
        theirs = proportion_two(bimodal_sweep, "delta=0.075", "gmm")
        ok = ours > theirs
        report(3, ok, f"delta=0.075: spectral {ours:.3f} vs gmm {theirs:.3f} "
                      "(positive margin required)")
        assert ours > theirs


class TestCriterion4Trimodal:
    def test_three_modes_recovered(self):
        dist = HurstDistribution.uniform([0.2, 0.5, 0.8])
        cfg = PipelineConfig(n=2**18, p=64, multiscale=(4, 6), m=10)
        good = 0
        reps = 50
        for rep in range(reps):
            panel, _ = gen_panel(dist, 64, 2**18, seed=9_000 + rep)
            h, auto_m = log_eigen_set(panel, cfg)
            est = select_scheme(h, m=10, grid_max=auto_m, seed=rep)
            if est.r_hat == 3 and np.allclose(est.modes, [0.2, 0.5, 0.8], atol=0.1):
                good += 1
        frac = good / reps
        ok = frac >= 0.8
        report(4, ok, f"trimodal (n,a,p)=(2^18,2^6,2^6): r_hat=3 with all modes "
                      f"within 0.1 in {good}/{reps} = {frac:.2f} (required >= 0.80)")
        assert frac >= 0.8


class TestCriterion5LaplacianOracle:
    def test_disjoint_complete_spectra(self):
        rng = np.random.default_rng(55)
        checked = eligible = 0
        for case in range(100):
            r = int(rng.integers(1, 6))
            if case % 3 == 0:
                base = int(rng.integers(2, 20))
                sizes = [min(20, base + int(rng.integers(0, 2))) for _ in range(r)]
            else:
                sizes = rng.integers(1, 21, size=r).tolist()
            theta, _ = laplacian_spectrum(disjoint_complete_adjacency(sizes))
            assert np.allclose(theta, component_spectrum(sizes), atol=1e-8)
            checked += 1
            srt = sorted(sizes)
            max_gap = max((b - a for a, b in zip(srt, srt[1:])), default=0)
            if min(sizes) > max_gap and sum(sizes) > r:
                eligible += 1
                assert eigengap_count(theta) == r, f"sizes={sizes}"
        ok = checked == 100 and eligible >= 30
        report(5, ok, f"{checked}/100 spectra match the closed form to 1e-8; eigengap "
                      f"returned r on all {eligible} size-balanced cases")
        assert ok


class TestCriterion6KmeansOracle:
    def test_level_set_partitions(self):
        rng = np.random.default_rng(66)
        for _ in range(100):
            r = int(rng.integers(1, 6))
            d = int(rng.integers(1, 4))
            values = rng.standard_normal((r, d)) * rng.uniform(0.5, 5)
            counts = rng.integers(1, 8, size=r)
            pts = np.vstack([np.repeat(values[i][None, :], counts[i], axis=0) for i in range(r)])
            pts = pts[rng.permutation(len(pts))]
            expected = {
                frozenset(np.flatnonzero((pts == values[i]).all(axis=1)).tolist())
                for i in range(r)
            }
            for seed in (0, 1, 2):
                got = {frozenset(c) for c in kmeans(pts, r, seed=seed)}
                assert got == expected
        report(6, True, "100 point sets with r distinct values: kmeans(kappa=r) returned "
                        "the level-set partition for every seed in {0,1,2}")


class TestCriterion7WaveletCorrectness:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_polynomial_details_vanish(self, order):
        k = np.arange(900, dtype=float)
        coeffs = [0.7, -0.4, 0.05][:order]
        y = sum(c * k**m for m, c in enumerate(coeffs))[None, :]  # degree order-1
        d = decompose(y, daubechies(order), 4)
        worst = max(np.max(np.abs(d.details[j])) for j in range(1, 5))
        ok = worst < 1e-8
        report(7, ok, f"N_psi={order}: degree-{order - 1} polynomial details vanish "
                      f"at all border-free indices (worst {worst:.2e} < 1e-8)")
        assert ok

    @pytest.mark.parametrize("H", [0.3, 0.7])
    def test_fbm_log_variance_slope(self, H):
        bank = daubechies(2)
        octaves = np.arange(2, 7)
        slopes = []
        for s in range(100):
            path = fbm_path(H, 2**14, seed=13_000 + s)
            d = decompose(path[None, :], bank, 6)
            lv = [np.log2(np.mean(d.details[j] ** 2)) for j in octaves]
            slopes.append(np.polyfit(octaves, lv, 1)[0])
        slope = float(np.mean(slopes))
        ok = abs(slope - (2 * H + 1)) < 0.15
        report(7, ok, f"H={H}: mean log2-variance slope over octaves 2..6 = {slope:.3f} "
                      f"(target {2 * H + 1} within 0.15, 100 paths)")
        assert ok


class TestCriterion8ConsistencyTrend:
    def test_joint_success_non_decreasing(self):
        dist = HurstDistribution((0.3, 0.5), (0.5, 0.5))  # fixed law, gap 0.2
        stages = [
            (2**12, 8, (4, 5)),
            (2**14, 16, (4, 6)),
            (2**16, 32, (4, 7)),
        ]
        props = []
        for n, p, window in stages:
            spec = ExperimentSpec(
                configs=(("gap02", dist),),
                pipeline=PipelineConfig(n=n, p=p, multiscale=window, m=10),
                reps=50, methods=("spectral",), master_seed=888,
            )
            res = run_sweep(spec)
            hits = [
                r.correct and r.mode_err < 0.05 and r.prob_err < 0.1
                for o in res.rep_records
                for r in o["records"]
            ]
            props.append(float(np.mean(hits)))
        ok = all(a <= b for a, b in zip(props, props[1:]))
        report(8, ok, "P(r_hat=r, mode err<0.05, prob err<0.1) over n in "
                      f"{{2^12,2^14,2^16}}: {[round(x, 2) for x in props]} (non-decreasing)")
        assert ok


class TestCriterion9Determinism:
    def test_cli_byte_identical_and_lossless(self, tmp_path):
        panel, _ = gen_panel(HurstDistribution.uniform([0.3, 0.6]), 12, 4096, seed=4)
        csv_path = tmp_path / "panel.csv"
        write_panel_csv(csv_path, panel.data)
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(["estimate", "--input", str(csv_path), "--j1", "2", "--j2", "5",
                         "--seed", "31", "--output", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        identical = outputs[0] == outputs[1]

        parsed = json.loads(outputs[0])
        recoded = json.loads(json.dumps(parsed))
        lossless = recoded == parsed

        ok = identical and lossless
        report(9, ok, f"repeated CLI runs byte-identical: {identical}; "
                      f"serialize/parse round trip lossless: {lossless}")
        assert ok
