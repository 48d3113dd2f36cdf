"""The unnoised diagnostics in study/, and the wall between them and the release package."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from dpfewshot.accountant import binary_search_iterations
from dpfewshot.pipeline import ConfigurationError, RunConfig, resolve_run
from dpfewshot.providers import ProviderSpec, SyntheticProvider
from dpfewshot.simplex import SIMPLEX_RADIUS
from study.diagnostics import measure_cluster_radius, min_ball_radius_oracle, run_utility_comparison
from test_pipeline import LABELS, noiseless_config, write_dataset


class TestL2Distance:
    """The distance between two points is the radius that covers both."""

    def test_identity(self):
        assert min_ball_radius_oracle(np.array([[0.2, 0.8], [0.2, 0.8]]), 1.0) == 0.0

    def test_simplex_vertices(self):
        assert min_ball_radius_oracle(np.array([[1.0, 0, 0], [0, 1.0, 0]]), 1.0) == pytest.approx(
            math.sqrt(2)
        )

    def test_plain_arithmetic(self):
        assert min_ball_radius_oracle(np.array([[0.5, 0.5], [0.8, 0.2]]), 1.0) == pytest.approx(
            math.sqrt(0.18)
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            min_ball_radius_oracle([[1.0], [1.0, 2.0]], 1.0)


class TestMinBallRadiusOracle:
    def test_identical_points(self):
        assert min_ball_radius_oracle(np.tile([0.2, 0.8], (5, 1)), 1.0) == 0.0

    def test_half_coverage_of_two_points(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert min_ball_radius_oracle(points, 0.5) == 0.0

    def test_three_point_instance(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        assert min_ball_radius_oracle(points, 1.0) == pytest.approx(math.sqrt(2) / 2)

    def test_monotone_in_coverage_and_bounded(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            points = rng.random((int(rng.integers(2, 20)), 4))
            fractions = [0.2, 0.5, 0.8, 1.0]
            radii = [min_ball_radius_oracle(points, f) for f in fractions]
            assert radii == sorted(radii)
            max_pairwise = max(
                np.linalg.norm(a - b) for a in points for b in points
            )
            assert radii[-1] <= max_pairwise + 1e-12


class TestMeasureClusterRadius:
    def test_zero_spread_means_zero_radius(self):
        config = noiseless_config(t_max=3)
        report = measure_cluster_radius(resolve_run(config), runs=2)
        assert report["oracle"]["mean"] == 0.0
        assert report["oracle"]["max"] == 0.0

    def test_calibrated_spread_lands_near_point_one(self):
        config = RunConfig(
            labels=LABELS,
            provider=ProviderSpec(kind="synthetic", seed=11),
            m=40, n=1, k=100, t_max=6, sigma1=0.0, sigma0=0.0, sigma2=0.0,
            seed=9,
        )
        report = measure_cluster_radius(resolve_run(config), runs=3)
        assert 0.07 <= report["oracle"]["mean"] <= 0.13

    def test_goodradius_block_is_the_noiseless_search_on_coincident_vectors(self):
        # every L(r) reaches t, so each bisection step halves the bracket top
        config = noiseless_config(t_max=2)
        report = measure_cluster_radius(resolve_run(config), runs=2)
        floor = SIMPLEX_RADIUS / 2 ** (binary_search_iterations(config.theta) + 1)
        assert report["goodradius"]["per_position_mean"] == [floor, floor]
        assert report["goodradius"]["per_run_mean"] == [floor, floor]
        assert (report["runs"], report["positions"], len(report["labels"])) == (2, 2, 2)

    def test_report_keys_and_shape(self):
        report = measure_cluster_radius(resolve_run(noiseless_config(t_max=3)), runs=2)
        assert set(report) == {"runs", "positions", "labels", "oracle", "goodradius"}
        for mode in ("oracle", "goodradius"):
            block = report[mode]
            assert set(block) == {"per_position_mean", "per_run_mean", "mean", "std", "max"}
            assert (len(block["per_position_mean"]), len(block["per_run_mean"])) == (3, 2)
        assert set(report["labels"]) <= set(LABELS)


class TestUtilityComparison:
    def test_noiseless_rates_are_one(self):
        config = noiseless_config(m=6, k=10)
        report = run_utility_comparison(resolve_run(config), trials=40)
        assert report["adaptive_rate"] == 1.0
        assert report["baseline_rate"] == 1.0
        assert report["matched_baseline_sigma"] == 0.0

    def test_report_keys_and_bounds(self):
        config = noiseless_config(m=6, k=10, sigma0=2.0, sigma1=0.5, sigma2=1.0)
        report = run_utility_comparison(resolve_run(config), trials=10)
        assert set(report) == {
            "trials", "matched_baseline_sigma", "adaptive_rate", "baseline_rate",
            "adaptive_ci95", "baseline_ci95", "only_adaptive_correct", "only_baseline_correct",
        }
        assert report["trials"] == 10
        for mode in ("adaptive", "baseline"):
            low, high = report[f"{mode}_ci95"]
            assert 0.0 <= low <= report[f"{mode}_rate"] <= high <= 1.0
        assert report["only_adaptive_correct"] + report["only_baseline_correct"] <= 10

    def test_heavy_noise_drops_both_rates(self):
        config = noiseless_config(
            m=6, k=10, sigma0=10.0, sigma1=1000.0, sigma2=3.0,
            provider=ProviderSpec(kind="synthetic", seed=5, vocab_size=30, spread=0.2),
        )
        with pytest.warns(UserWarning, match="margin coefficient"):
            report = run_utility_comparison(resolve_run(config), trials=60)
        assert report["adaptive_rate"] < 0.6
        assert report["baseline_rate"] < 0.6


class TestRefusals:
    """The diagnostics never read a private file, and refuse before any provider call."""

    @pytest.fixture
    def counting_provider(self):
        calls = []

        class CountingProvider(SyntheticProvider):
            def next_token_distribution(self, *args, **kwargs):
                calls.append(args)
                return super().next_token_distribution(*args, **kwargs)

        return calls, CountingProvider(seed=5, vocab_size=30)

    @pytest.mark.parametrize("diagnostic", [measure_cluster_radius, run_utility_comparison])
    def test_a_run_with_a_dataset_is_refused(self, tmp_path, counting_provider, diagnostic):
        calls, provider = counting_provider
        config = noiseless_config(labels=(), dataset_path=write_dataset(tmp_path / "d.jsonl"))
        run = resolve_run(config, provider=provider)
        with pytest.raises(ConfigurationError, match="refuse a run with a dataset"):
            diagnostic(run, 2)
        assert calls == []

    @pytest.mark.parametrize("diagnostic, name", [(measure_cluster_radius, "runs"), (run_utility_comparison, "trials")])
    def test_a_count_below_one_is_refused(self, counting_provider, diagnostic, name):
        calls, provider = counting_provider
        with pytest.raises(ConfigurationError, match=f"{name} must be positive, got 0"):
            diagnostic(resolve_run(noiseless_config(), provider=provider), 0)
        assert calls == []


def test_no_module_of_the_release_package_imports_study():
    modules = sorted((Path(__file__).resolve().parents[1] / "src" / "dpfewshot").glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name == "study" or name.startswith("study.") for name in names), (path.name, names)
