import math

import numpy as np
import pytest

import helpers
from dpfewshot.aggregate import (
    BREAK_COVERAGE_FAILED,
    BREAK_MAX_ITERS,
    BREAK_RADIUS_FLOOR,
    AggregationConfig,
    adaptive_aggregate,
    baseline_aggregate,
    noisy_mean_raw,
    radius_coverage_check,
    select_token,
)
from dpfewshot.rng import NoiseStreams, substream
from dpfewshot.simplex import SIMPLEX_RADIUS, project_to_simplex


def make_cfg(m, k, **overrides):
    params = dict(m=m, k=k, lam=0.2, t_hat=2, sigma0=0.0, sigma1=0.0, sigma2=0.0)
    params.update(overrides)
    return AggregationConfig(**params)


class TestNoisyMean:
    def test_noiseless_is_exact_mean(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0]])
        rng = substream(0, "m")
        np.testing.assert_allclose(noisy_mean_raw(points, 0.5, 0.0, rng), [0.5, 0.5])

    def test_identical_points_pass_through(self):
        p = np.array([0.2, 0.3, 0.5])
        points = np.tile(p, (9, 1))
        out, _ = project_to_simplex(noisy_mean_raw(points, 0.7, 0.0, substream(1, "m")))
        np.testing.assert_allclose(out, p, atol=1e-15)

    def test_noise_scale_on_sum(self):
        points = np.tile([0.5, 0.5], (4, 1))
        radius, sigma1, n = 0.3, 0.8, 4000
        rng = substream(2, "stats")
        residuals = np.stack(
            [noisy_mean_raw(points, radius, sigma1, rng) * 4 - points.sum(axis=0) for _ in range(n)]
        )
        assert residuals.std() == pytest.approx(2 * radius * sigma1, rel=0.05)


class TestCoverageCheck:
    def test_all_points_at_center_pass(self):
        center = np.full(4, 0.25)
        points = np.tile(center, (10, 1))
        cfg = make_cfg(10, 4)
        passed, raw, noisy = radius_coverage_check(points, center, 0.0, cfg, substream(0, "c"))
        assert passed and raw == 10 and noisy == 10.0

    def test_empty_ball_fails(self):
        points = np.tile([1.0, 0.0], (6, 1))
        center = np.array([0.0, 1.0])
        cfg = make_cfg(6, 2)
        passed, raw, _ = radius_coverage_check(points, center, 0.1, cfg, substream(0, "c"))
        assert not passed and raw == 0

    def test_threshold_arithmetic(self):
        # mu * M = 5.5: a count of 6 passes, 5 does not (noiseless check)
        center = np.full(4, 0.25)
        cfg = make_cfg(10, 4, mu=0.55)
        near = np.tile(center, (6, 1))
        far = np.tile([1.0, 0.0, 0.0, 0.0], (4, 1))
        points = np.vstack([near, far])
        passed, raw, _ = radius_coverage_check(points, center, 0.01, cfg, substream(0, "c"))
        assert passed and raw == 6
        points = np.vstack([near[:5], far, far[:1]])
        passed, raw, _ = radius_coverage_check(points, center, 0.01, cfg, substream(0, "c"))
        assert not passed and raw == 5

    def test_consumes_one_draw(self):
        class OneShot:
            calls = 0

            def standard_normal(self):
                OneShot.calls += 1
                return 0.0

        cfg = make_cfg(3, 2, sigma2=1.0)
        points = np.tile([0.5, 0.5], (3, 1))
        radius_coverage_check(points, np.array([0.5, 0.5]), 0.1, cfg, OneShot())
        assert OneShot.calls == 1


class TestSelectToken:
    def test_basic(self):
        assert select_token(np.array([0.1, 0.7, 0.2]), ["a", "b", "c"]) == "b"

    def test_uniform_takes_first(self):
        assert select_token(np.array([0.25, 0.25, 0.25, 0.25]), list("wxyz")) == "w"

    def test_last_wins_when_largest(self):
        assert select_token(np.array([0.3, 0.3, 0.4]), ["a", "b", "c"]) == "c"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            select_token(np.array([0.5, 0.5]), ["only"])


class TestBaseline:
    def test_noiseless_exact_mean(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = baseline_aggregate(points, 0.0, substream(5, "baseline"))
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_single_point_identity(self):
        points = np.array([[0.2, 0.8]])
        out = baseline_aggregate(points, 0.0, substream(5, "baseline"))
        np.testing.assert_allclose(out, [0.2, 0.8])

    def test_noise_scale(self):
        points = np.tile([0.5, 0.5], (4, 1))
        rng = substream(3, "b")
        sigma, n = 0.7, 4000
        residuals = np.stack(
            [baseline_aggregate(points, sigma, rng) * 4 - points.sum(axis=0) for _ in range(n)]
        )
        assert residuals.std() == pytest.approx(math.sqrt(2) * sigma, rel=0.05)


class TestAdaptiveAggregate:
    def test_noiseless_consensus(self):
        p = np.array([0.1, 0.6, 0.3])
        points = np.tile(p, (12, 1))
        cfg = make_cfg(12, 3)
        out, trace = adaptive_aggregate(points, cfg, NoiseStreams.from_seed(7))
        assert int(np.argmax(out)) == 1
        np.testing.assert_allclose(out, p, atol=1e-12)
        assert trace.target_radius <= cfg.theta
        # first update lands exactly on the target radius (zero margin)
        assert trace.radius_sequence[0] == SIMPLEX_RADIUS
        assert trace.radius_sequence[1] == pytest.approx(trace.target_radius)
        assert trace.break_reason in (BREAK_RADIUS_FLOOR, BREAK_MAX_ITERS)

    def test_noiseless_matches_baseline_argmax(self):
        for seed in range(20):
            points, _ = helpers.clustered_points(np.random.default_rng(seed), 10, 8)
            cfg = make_cfg(10, 8)
            out, _ = adaptive_aggregate(points, cfg, NoiseStreams.from_seed(seed))
            base = baseline_aggregate(points, 0.0, substream(seed, "baseline"))
            consensus = int(np.argmax(points.mean(axis=0)))
            assert int(np.argmax(base)) == consensus
            # adaptive recenters on the projected cloud; on these clustered
            # instances the consensus token must survive
            assert int(np.argmax(out)) == consensus

    def test_forced_coverage_failure_equals_plain_noisy_mean(self):
        # spread-out corners: nothing near the center, so the first check
        # fails and the output is exactly the initial noisy mean (which at
        # R = sqrt(2)/2 has the same noise law as the fixed-noise baseline)
        points = np.eye(4)
        cfg = make_cfg(4, 4, mu=1.0, sigma1=0.3, t_hat=3)
        seed = 123
        out, trace = adaptive_aggregate(points, cfg, NoiseStreams.from_seed(seed))
        assert trace.break_reason == BREAK_COVERAGE_FAILED
        assert trace.mean_estimates == 1
        assert len(trace.radius_sequence) == 1
        mirror = baseline_aggregate(points, 0.3, NoiseStreams.from_seed(seed).mean)
        np.testing.assert_allclose(out, project_to_simplex(mirror)[0], atol=1e-15)

    def test_noiseless_clustered_shrinks_radius(self):
        rng = np.random.default_rng(42)
        points, _ = helpers.clustered_points(rng, 20, 6, cluster_radius=0.05, outlier_fraction=0.0)
        cfg = make_cfg(20, 6, t_hat=1)
        out, trace = adaptive_aggregate(points, cfg, NoiseStreams.from_seed(0))
        assert len(trace.radius_sequence) == 2
        final_r = trace.radius_sequence[-1]
        assert final_r == pytest.approx(trace.target_radius)
        assert final_r < SIMPLEX_RADIUS
        assert trace.coverage_checks[0][0] == 20  # whole cluster sits at the mean
        assert int(np.argmax(out)) == int(np.argmax(points.mean(axis=0)))

    def test_noiseless_outliers_starve_the_zero_margin_check(self):
        # with sigma1 = 0 there is no margin: far outliers drag the mean
        # outside the target ball, the check fails, and the output stays the
        # plain (noiseless) mean
        rng = np.random.default_rng(42)
        points, _ = helpers.clustered_points(rng, 20, 6, cluster_radius=0.05, outlier_fraction=0.2)
        cfg = make_cfg(20, 6, t_hat=1)
        out, trace = adaptive_aggregate(points, cfg, NoiseStreams.from_seed(0))
        assert trace.break_reason == BREAK_COVERAGE_FAILED
        np.testing.assert_allclose(out, project_to_simplex(points.mean(axis=0))[0], atol=1e-12)

    def test_budget_ceiling_and_draw_accounting(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(4, 16))
            points, _ = helpers.clustered_points(rng, m, 5)
            cfg = make_cfg(
                m, 5, t_hat=int(rng.integers(1, 4)),
                sigma0=float(rng.uniform(0, 5)),
                sigma1=float(rng.uniform(0, 1.5)),
                sigma2=float(rng.uniform(0, 4)),
            )
            _, trace = adaptive_aggregate(points, cfg, NoiseStreams.from_seed(seed))
            assert trace.mean_estimates <= cfg.t_hat + 1
            assert len(trace.coverage_checks) <= cfg.t_hat
            assert len(trace.goodradius_steps) == 3
            assert trace.mean_estimates == len(trace.radius_sequence)

    def test_radius_updates_follow_margin_formula(self):
        for seed in range(25):
            rng = np.random.default_rng(seed + 100)
            points, _ = helpers.clustered_points(rng, 12, 5)
            cfg = make_cfg(12, 5, t_hat=3, sigma1=0.4, lam=0.15)
            _, trace = adaptive_aggregate(points, cfg, NoiseStreams.from_seed(seed))
            seq = trace.radius_sequence
            for previous, updated in zip(seq, seq[1:]):
                assert updated == pytest.approx(trace.target_radius + cfg.margin(previous))
                assert updated <= previous

    def test_deterministic_for_fixed_seed(self):
        points, _ = helpers.clustered_points(np.random.default_rng(8), 10, 6)
        cfg = make_cfg(10, 6, sigma0=2.0, sigma1=0.5, sigma2=3.0)
        out1, trace1 = adaptive_aggregate(points, cfg, NoiseStreams.from_seed(77))
        out2, trace2 = adaptive_aggregate(points, cfg, NoiseStreams.from_seed(77))
        np.testing.assert_array_equal(out1, out2)
        assert trace1 == trace2

    def test_shape_mismatch_rejected(self):
        cfg = make_cfg(5, 3)
        with pytest.raises(ValueError):
            adaptive_aggregate(np.zeros((4, 3)), cfg, NoiseStreams.from_seed(0))


class TestConfigValidation:
    def test_pathological_margin_warns(self):
        with pytest.warns(UserWarning, match="margin coefficient"):
            AggregationConfig(
                m=2, k=100, lam=0.5, t_hat=1, sigma0=1.0, sigma1=1.0, sigma2=1.0
            )

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            make_cfg(4, 3, mu=1.5)
        with pytest.raises(ValueError):
            make_cfg(4, 3, rho=0.0)

    def test_coverage_target_uses_ceiling(self):
        assert make_cfg(10, 3).coverage_target == 8
        assert make_cfg(11, 3).coverage_target == 9  # ceil(8.8)
