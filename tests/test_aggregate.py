import math
import warnings
from collections import Counter

import numpy as np
import pytest

import helpers
from dpfewshot.accountant import COVERAGE_CHECK, MEAN_ESTIMATE, RADIUS_SEARCH, binary_search_iterations
from dpfewshot.aggregate import (
    BREAK_COVERAGE_FAILED,
    BREAK_MAX_ITERS,
    BREAK_RADIUS_FLOOR,
    AggregationConfig,
    AggregationTrace,
    adaptive_aggregate,
    baseline_aggregate,
    noisy_mean_raw,
    radius_coverage_check,
    select_token,
)
from dpfewshot.radius import CoverageScore, RadiusSearchStep, good_radius
from dpfewshot.rng import NoiseStreams, substream
from dpfewshot.simplex import SIMPLEX_RADIUS, coverage_count, distances, project_to_ball, project_to_simplex
from study.diagnostics import pairwise_distances


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
        passed, raw, noisy = radius_coverage_check(distances(points, center), 0.0, cfg, substream(0, "c"))
        assert passed and raw == 10 and noisy == 10.0

    def test_empty_ball_fails(self):
        points = np.tile([1.0, 0.0], (6, 1))
        center = np.array([0.0, 1.0])
        cfg = make_cfg(6, 2)
        passed, raw, _ = radius_coverage_check(distances(points, center), 0.1, cfg, substream(0, "c"))
        assert not passed and raw == 0

    def test_threshold_arithmetic(self):
        # mu * M = 5.5: a count of 6 passes, 5 does not (noiseless check)
        center = np.full(4, 0.25)
        cfg = make_cfg(10, 4, mu=0.55)
        near = np.tile(center, (6, 1))
        far = np.tile([1.0, 0.0, 0.0, 0.0], (4, 1))
        points = np.vstack([near, far])
        passed, raw, _ = radius_coverage_check(distances(points, center), 0.01, cfg, substream(0, "c"))
        assert passed and raw == 6
        points = np.vstack([near[:5], far, far[:1]])
        passed, raw, _ = radius_coverage_check(distances(points, center), 0.01, cfg, substream(0, "c"))
        assert not passed and raw == 5

    def test_consumes_one_draw(self):
        class OneShot:
            calls = 0

            def standard_normal(self):
                OneShot.calls += 1
                return 0.0

        cfg = make_cfg(3, 2, sigma2=1.0)
        points = np.tile([0.5, 0.5], (3, 1))
        radius_coverage_check(distances(points, np.array([0.5, 0.5])), 0.1, cfg, OneShot())
        assert OneShot.calls == 1


class Ones:
    """Stub generator whose every standard normal is 1."""

    def standard_normal(self, size=None):
        return 1.0 if size is None else np.ones(size)


@pytest.mark.parametrize("sigma", [0.37, 1.0, 7.3])
class TestDrawSitesAddTheTablesNoise:
    """With every standard normal 1, each draw site adds exactly its
    release's noise_std to the exact statistic."""

    def test_radius_search_scores(self, sigma):
        points, _ = helpers.clustered_points(np.random.default_rng(4), 12, 5)
        steps = []
        good_radius(points, 10, sigma, 0.05, Ones(), steps)
        score, std = CoverageScore(points), RADIUS_SEARCH.noise_std(sigma)
        assert len(steps) == binary_search_iterations(0.05)
        for step in steps:
            assert step.noisy_half == score.l_value(10, step.midpoint / 2.0) + std
            assert step.noisy_mid == score.l_value(10, step.midpoint) + std

    @pytest.mark.parametrize("radius", [0.3, SIMPLEX_RADIUS, 1e-3])
    def test_mean_estimate(self, sigma, radius):
        out = noisy_mean_raw(np.zeros((1, 6)), radius, sigma, Ones())
        assert (out == MEAN_ESTIMATE.noise_std(sigma, radius)).all()

    def test_baseline_is_a_mean_estimate_at_the_simplex_radius(self, sigma):
        out = baseline_aggregate(np.zeros((1, 6)), sigma, Ones())
        assert (out == MEAN_ESTIMATE.noise_std(sigma, SIMPLEX_RADIUS)).all()

    def test_coverage_check(self, sigma):
        points = np.tile([1.0, 0.0], (3, 1))
        cfg = make_cfg(3, 2, sigma2=sigma)
        _, raw, noisy = radius_coverage_check(distances(points, np.array([0.0, 1.0])), 0.1, cfg, Ones())
        assert raw == 0 and noisy == COVERAGE_CHECK.noise_std(sigma)


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

    def test_missing_sigma1_is_named(self):
        with pytest.raises(ValueError, match="sigma1 is required"):
            AggregationConfig(m=10, k=100, lam=0.2, t_hat=1, sigma0=10, sigma1=None, sigma2=3)

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            make_cfg(4, 3, mu=1.5)
        with pytest.raises(ValueError):
            make_cfg(4, 3, rho=0.0)

    def test_coverage_target_uses_ceiling(self):
        assert make_cfg(10, 3).coverage_target == 8
        assert make_cfg(11, 3).coverage_target == 9  # ceil(8.8)


def reference_good_radius(points, t, sigma0, theta, rng, trace):
    """The radius search without the score cache: both L values evaluated
    afresh every iteration, from the full exact distance matrix."""
    dists = pairwise_distances(points)
    m = dists.shape[0]

    def l_value(r):
        capped = np.minimum((dists <= r).sum(axis=1), t)
        return float(np.partition(capped, m - t)[m - t:].sum()) / t

    r_low, r_high = 0.0, SIMPLEX_RADIUS
    for _ in range(binary_search_iterations(theta)):
        r_mid = (r_low + r_high) / 2.0
        noisy_half = l_value(r_mid / 2.0) + 2.0 * sigma0 * rng.standard_normal()
        noisy_mid = l_value(r_mid) + 2.0 * sigma0 * rng.standard_normal()
        if noisy_half >= t:
            r_high = r_mid
            branch = "half_pass"
        elif noisy_mid >= t:
            r_high = r_mid
            branch = "mid_pass"
        else:
            r_low = r_mid
            branch = "raise_low"
        trace.append(RadiusSearchStep(r_mid, noisy_half, noisy_mid, branch))
    return (r_low + r_high) / 2.0


def reference_project_to_simplex(v):
    clipped = np.maximum(np.asarray(v, dtype=float), 0.0)
    mass = clipped.sum(axis=-1, keepdims=True)
    degenerate = mass <= 0.0
    with np.errstate(all="ignore"):
        out = np.where(degenerate, 1.0 / clipped.shape[-1], clipped / mass)
    return out, degenerate[..., 0]


def reference_project_to_ball(points, center, radius):
    dists = np.linalg.norm(points - center, axis=-1)[:, None]
    with np.errstate(all="ignore"):
        pulled = center + (points - center) / (dists / radius)
    return np.where(dists > radius, pulled, points)


def reference_adaptive_aggregate(points, cfg, streams):
    """The aggregator without shared distances or cached scores: each check
    and each projection measures its own distances, with np.linalg.norm,
    and every row is pulled before the inside ones are put back.  The
    oracle the package must equal byte for byte."""
    search_steps = []
    target_r = reference_good_radius(
        points, cfg.coverage_target, cfg.sigma0, cfg.theta, streams.goodradius, search_steps
    )
    current_r = SIMPLEX_RADIUS
    radius_sequence = [current_r]
    center, degenerate = reference_project_to_simplex(noisy_mean_raw(points, current_r, cfg.sigma1, streams.mean))
    degenerate_events = int(degenerate)
    checks = []
    break_reason = BREAK_MAX_ITERS
    for _ in range(cfg.t_hat):
        next_r = target_r + cfg.margin(current_r)
        raw = int(np.count_nonzero(np.linalg.norm(points - center, axis=-1) <= next_r))
        noisy = raw + cfg.sigma2 * streams.check.standard_normal()
        checks.append((raw, noisy))
        if not noisy >= cfg.mu * cfg.m:
            break_reason = BREAK_COVERAGE_FAILED
            break
        if current_r < next_r:
            break_reason = BREAK_RADIUS_FLOOR
            break
        current_r = next_r
        radius_sequence.append(current_r)
        projected = reference_project_to_ball(points, center, current_r)
        center, degenerate = reference_project_to_simplex(
            noisy_mean_raw(projected, current_r, cfg.sigma1, streams.mean)
        )
        degenerate_events += int(degenerate)
    trace = AggregationTrace(
        target_radius=target_r,
        radius_sequence=radius_sequence,
        coverage_checks=checks,
        break_reason=break_reason,
        degenerate_simplex_events=degenerate_events,
        mean_estimates=len(radius_sequence),
        goodradius_steps=search_steps,
    )
    return center, trace


THETAS = (SIMPLEX_RADIUS, 0.3, 0.1, 0.05, 0.01, 0.002)


def exactness_case(seed):
    """(points, cfg, kind) for one seeded case: M in {1, 2, 10, 40}, K in
    {1, 2, 100}, t_hat 1..4, theta down to 0.002, each noise multiplier zero
    a third of the time, and rows that are Dirichlet draws with vertex
    outliers, duplicates, or pairs placed symmetrically about one center.

    The last kind runs noiseless with lam = 0, so the first center is exactly
    the midpoint of the first two vertices.  Most pairs sit on that center,
    so the search usually passes every one of its n steps; it then returns
    sqrt(2)/2 / 2**(n + 1), the check radius, and the first pair lies
    exactly on it."""
    rng = np.random.default_rng(seed)
    m, k = int(rng.choice([1, 2, 10, 40])), int(rng.choice([1, 2, 100]))
    theta = float(rng.choice(THETAS))
    kind = rng.choice(["dirichlet", "duplicates", "on_radius"] if k > 1 and m % 2 == 0 else ["dirichlet", "duplicates"])
    noise = {name: 0.0 if rng.random() < 1 / 3 else float(rng.choice(scale) * rng.random())
             for name, scale in (("sigma0", [1.0, 10.0]), ("sigma1", [0.1, 1.0]), ("sigma2", [1.0, 5.0]))}
    lam = float(rng.choice([0.0, 0.05, 0.35, 1.0]))
    if kind == "dirichlet":
        points = rng.dirichlet(np.full(k, rng.choice([0.05, 1.0, 20.0])), size=m)
        outliers = rng.random(m) < 0.2
        points[outliers] = np.eye(k)[rng.integers(k, size=int(outliers.sum()))]
    elif kind == "duplicates":
        distinct = rng.dirichlet(np.full(k, 0.3), size=int(rng.integers(1, 4)))
        points = distinct[rng.integers(len(distinct), size=m)]
        points[rng.random(m) < 0.2] = np.eye(k)[0]
    else:
        noise, lam = dict(sigma0=0.0, sigma1=0.0, sigma2=0.0), 0.0
        offset = 2.0 ** -(binary_search_iterations(theta) + 2)  # the pair's distance is sqrt(2) * offset
        offsets = np.zeros(m // 2)
        offsets[0] = offset
        offsets[1 : max(1, m // 10)] = 2.0 ** -rng.integers(1, 11, size=max(1, m // 10) - 1)
        rows = np.zeros((m, k))
        rows[:, :2] = 0.5
        rows[0::2, 0] += offsets
        rows[0::2, 1] -= offsets
        rows[1::2, 0] -= offsets
        rows[1::2, 1] += offsets
        points = rows
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a margin coefficient >= 1 is a valid, warned configuration
        cfg = AggregationConfig(
            m=m, k=k, lam=lam, t_hat=int(rng.integers(1, 5)), theta=theta,
            mu=float(rng.uniform(0.3, 1.0)), rho=float(rng.uniform(0.3, 1.0)), **noise,
        )
    return points, cfg, kind


class TestExactness:
    def test_equals_the_reference_byte_for_byte(self):
        kinds = Counter()
        on_radius = 0
        for seed in range(1200):
            points, cfg, kind = exactness_case(seed)
            kinds[kind] += 1
            got = NoiseStreams.from_seed(seed, "exact")
            want = NoiseStreams.from_seed(seed, "exact")
            center, trace = adaptive_aggregate(points, cfg, got)
            ref_center, ref_trace = reference_adaptive_aggregate(points, cfg, want)
            assert center.tobytes() == ref_center.tobytes(), seed
            assert trace == ref_trace, seed
            for site in NoiseStreams.SITES:
                assert getattr(got, site).standard_normal() == getattr(want, site).standard_normal(), (seed, site)
            if kind == "on_radius" and trace.coverage_checks:
                first_center = project_to_simplex(points.sum(axis=0) / cfg.m)[0]
                on_radius += bool((distances(points, first_center) == trace.target_radius).any())
        assert min(kinds.values()) >= 200, kinds
        assert on_radius >= 100, on_radius


class TestSharedDistanceSensitivity:
    """Replacing one of the M vectors moves the raw coverage count by at most
    1 and the projected sum by at most 2R, through the shared-distance path
    the loop runs, at every radius adaptive_aggregate visits."""

    @staticmethod
    def neighbours(rng, points):
        m, k = points.shape
        i = int(rng.integers(m))
        for replacement in (np.eye(k)[rng.integers(k)], points[(i + 1) % m], 100.0 * np.eye(k)[rng.integers(k)]):
            neighbour = points.copy()
            neighbour[i] = replacement
            yield neighbour

    def test_count_and_projected_sum(self):
        visited = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            m, k = int(rng.choice([2, 10, 40])), int(rng.choice([2, 20, 100]))
            points, center = helpers.clustered_points(rng, m, k)
            cfg = make_cfg(m, k, t_hat=4, sigma0=2.0, sigma1=0.5, sigma2=1.0, lam=0.1)
            _, trace = adaptive_aggregate(points, cfg, NoiseStreams.from_seed(seed))
            radii = {*trace.radius_sequence}
            radii.update(trace.target_radius + cfg.margin(r) for r in trace.radius_sequence[: len(trace.coverage_checks)])
            here = distances(points, center)
            for neighbour in self.neighbours(rng, points):
                there = distances(neighbour, center)
                for r in radii:
                    moved = coverage_count(here, r) - coverage_count(there, r)
                    assert abs(moved) <= COVERAGE_CHECK.sensitivity, (seed, r)
                    shift = project_to_ball(points, center, r, here).sum(axis=0) - project_to_ball(neighbour, center, r, there).sum(axis=0)
                    assert np.linalg.norm(shift) <= MEAN_ESTIMATE.sensitivity * r * (1 + 1e-12), (seed, r)
                    visited += 1
        assert visited >= 100 * 3 * 2  # three neighbours, the simplex radius and at least one check radius
