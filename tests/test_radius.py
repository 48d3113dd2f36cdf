import math

import numpy as np
import pytest

import helpers
from dpfewshot.accountant import RADIUS_SEARCH, MechanismProfile, binary_search_iterations
from dpfewshot.radius import CoverageScore, good_radius
from dpfewshot.rng import substream
from dpfewshot.simplex import SIMPLEX_RADIUS, coverage_count, distances
from study.diagnostics import pairwise_distances


class CountingRng:
    """Stub standing in for a Generator; counts standard normal draws."""

    def __init__(self, values=None):
        self.draws = 0
        self._values = list(values or [])

    def standard_normal(self):
        self.draws += 1
        return self._values.pop(0) if self._values else 0.0


def profile(sigma0, theta=0.1):
    """The radius search's part of a checked mechanism: sigma0 and theta."""
    return MechanismProfile(sigma0=sigma0, sigma1=None, sigma2=0.0, t_hat=1, theta=theta)


def always_covering(m=8):
    """Identical points: L(r) = t at every radius for every t <= m."""
    return np.tile([0.2, 0.3, 0.5], (m, 1))


def never_covering(m):
    """Two antipodal clusters: at t = m, L(r) stays below t on [0, sqrt(2)/2]."""
    return np.eye(2)[np.arange(m) % 2]


def dirichlet_corpus(repeats):
    """Seeded (M, K) batches, M = 1..40 each repeat: Dirichlet rows of every
    spread, about 20% of them replaced by vertices."""
    rng = np.random.default_rng(2024)
    for m in list(range(1, 41)) * repeats:
        k = int(rng.integers(2, 151))
        points = rng.dirichlet(np.full(k, rng.choice([0.05, 1.0, 20.0])), size=m)
        outliers = rng.random(m) < 0.2
        points[outliers] = np.eye(k)[rng.integers(k, size=int(outliers.sum()))]
        yield points


def line_on_simplex(offsets):
    """Points at the given arc offsets along an edge of the 2-simplex."""
    base = np.array([1.0, 0.0, 0.0])
    direction = np.array([-1.0, 1.0, 0.0]) / math.sqrt(2)
    return np.stack([base + t * direction for t in offsets])


class TestBallCount:
    def test_zero_radius_counts_duplicates(self):
        points = np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]])
        assert coverage_count(distances(points, points[0]), 0.0) == 2
        assert coverage_count(distances(points, points[2]), 0.0) == 1

    def test_max_pairwise_distance_covers_all(self):
        rng = np.random.default_rng(0)
        points = rng.random((12, 4))
        max_dist = max(np.linalg.norm(a - b) for a in points for b in points)
        for i in range(12):
            assert coverage_count(distances(points, points[i]), max_dist) == 12

    def test_collinear_points(self):
        points = line_on_simplex([0.0, 0.1, 0.3])
        assert coverage_count(distances(points, points[1]), 0.15) == 2


class TestLFunction:
    def test_identical_points_reach_cap(self):
        points = np.tile([0.25, 0.75], (6, 1))
        for t in (1, 3, 6):
            for r in (0.0, 0.2, 1.0):
                assert CoverageScore(points).l_value(t, r) == t

    def test_distinct_points_at_zero_radius(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        assert CoverageScore(points).l_value(2, 0.0) == 1.0

    def test_three_point_instance(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        assert CoverageScore(points).l_value(2, 0.75) == 2.0

    def test_non_decreasing_in_radius(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            points, _ = helpers.clustered_points(rng, int(rng.integers(3, 25)), 6)
            t = int(rng.integers(1, points.shape[0] + 1))
            values = [CoverageScore(points).l_value(t, r) for r in np.linspace(0, 1.6, 25)]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_pair_distances_match_full_matrix_bitwise(self):
        # One norm per pair, mirrored, must equal the full (M, M) matrix byte
        # for byte: Dirichlet rows of every spread, some replaced by vertices.
        for points in dirichlet_corpus(4):
            m = points.shape[0]
            dists = pairwise_distances(points)
            full = distances(points[:, None, :], points)
            assert dists.shape == full.shape == (m, m)
            assert dists.tobytes() == full.tobytes()
            assert dists.tobytes() == dists.T.tobytes()
            assert not np.diagonal(dists).any()

    def test_single_point_has_zero_distance_matrix(self):
        dists = pairwise_distances(np.array([[0.3, 0.7]]))
        assert dists.shape == (1, 1) and dists[0, 0] == 0.0

    def test_neighbor_sensitivity_at_most_two(self):
        grid = np.linspace(0.0, 1.5, 16)
        for seed in range(60):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(3, 20))
            points, _ = helpers.clustered_points(rng, m, 5)
            neighbor = points.copy()
            neighbor[rng.integers(m)] = helpers.peaked_center(rng, 5)
            t = int(rng.integers(1, m + 1))
            for r in grid:
                delta = abs(CoverageScore(points).l_value(t, r) - CoverageScore(neighbor).l_value(t, r))
                assert delta <= RADIUS_SEARCH.sensitivity + 1e-9


class TestScreen:
    """CoverageScore.within screens pairs with a Gram product; every mask
    must equal the exact matrix's, boundary pairs included."""

    @staticmethod
    def assert_matches_exact(points, radii):
        score = CoverageScore(points)
        want = pairwise_distances(points) <= np.asarray(radii)[:, None, None]
        got = np.stack([score.within(r) for r in radii])
        assert np.array_equal(np.count_nonzero(got, axis=2), np.count_nonzero(want, axis=2))
        assert np.array_equal(got, want)

    def test_mask_matches_exact_matrix_at_every_distance(self):
        # each exact distance, both float neighbours and half of it; r = 0
        # with a vertex row and a data row each appearing twice
        for points in dirichlet_corpus(1):
            k = points.shape[1]
            points = np.vstack([points, np.eye(k)[[0, 0]], points[:1]])
            d = np.unique(pairwise_distances(points))
            radii = np.concatenate([d, np.nextafter(d, 0.0), np.nextafter(d, 2.0), d / 2, [0.0]])
            self.assert_matches_exact(points, radii)

    def test_pair_on_the_boundary(self):
        # rows an exact distance apart, with r that distance and just below it
        points = np.array([[0.5, 0.5], [0.25, 0.75]])
        d = pairwise_distances(points)[0, 1]
        self.assert_matches_exact(points, [d, np.nextafter(d, 0.0)])
        assert CoverageScore(points).within(d).all()
        assert not CoverageScore(points).within(np.nextafter(d, 0.0))[0, 1]
        points = line_on_simplex([0.0, 0.1, 0.3])
        d = pairwise_distances(points)[np.triu_indices(3, 1)]
        self.assert_matches_exact(points, [*d, *np.nextafter(d, 0.0)])

    def test_duplicate_rows_at_zero_radius(self):
        points = np.vstack([np.eye(5)[[2, 2, 2]], np.full((2, 5), 0.2)])
        assert CoverageScore(points).within(0.0).sum(axis=1).tolist() == [3, 3, 3, 2, 2]

    def test_negative_and_nan_radius_cover_nothing(self):
        points = np.tile([0.2, 0.3, 0.5], (4, 1))
        for r in (-0.1, math.nan):
            assert not CoverageScore(points).within(r).any()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_refused(self, bad):
        points = np.tile([0.2, 0.3, 0.5], (4, 1))
        points[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            CoverageScore(points)
        with pytest.raises(ValueError, match="finite"):
            good_radius(points, 2, profile(1.0), CountingRng(), [])


class TestGoodRadius:
    def test_full_tolerance_returns_bracket_midpoint(self):
        rng = CountingRng()
        result = good_radius(always_covering(), 1, profile(1.0, SIMPLEX_RADIUS), rng, [])
        assert result == pytest.approx(math.sqrt(2) / 4)
        assert rng.draws == 0

    def test_draw_count_is_data_independent(self):
        # the charged count ceil(log2(sqrt(2) / (2 theta))) steps at
        # sqrt(2)/2 * 2**-k, so each such theta is tried with its float neighbours
        halvings = [SIMPLEX_RADIUS / 2**k for k in range(13)]
        neighbours = [np.nextafter(h, bound) for h in halvings for bound in (0.0, 1.0)]
        thetas = [0.05, 0.1, 0.2, 0.5, *halvings, *(h for h in neighbours if 0.0 < h <= SIMPLEX_RADIUS)]
        for theta in thetas:
            iterations = binary_search_iterations(theta)
            for points in (always_covering(), never_covering(3)):
                rng = CountingRng()
                steps = []
                good_radius(points, 3, profile(2.0, theta), rng, steps)
                assert rng.draws == 2 * iterations, theta
                assert len(steps) == iterations, theta

    def test_noiseless_identical_points_converge_below_theta(self):
        points = np.tile([0.2, 0.3, 0.5], (8, 1))
        rng = substream(0, "unused")
        r = good_radius(points, 8, profile(0.0), rng, [])
        assert 0.0 <= r <= 0.1

    def test_uncoverable_demand_pins_to_bracket_top(self):
        # two antipodal clusters, full coverage demanded: no radius in the
        # bracket reaches across, so the search climbs to the top
        points = np.vstack([np.tile([1.0, 0.0], (4, 1)), np.tile([0.0, 1.0], (4, 1))])
        r = good_radius(points, 8, profile(0.0), substream(1, "x"), [])
        assert r == pytest.approx(SIMPLEX_RADIUS, abs=0.1)

    def test_noiseless_output_has_coverage_at_theta_slack(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(5, 30))
            points, _ = helpers.clustered_points(rng, m, 6)
            t = math.ceil(0.8 * m)
            score = CoverageScore(points)
            r = good_radius(points, t, profile(0.0), substream(seed, "nl"), [])
            assert score.l_value(t, r + 0.1) >= t

    def test_branches_follow_noisy_scores(self):
        # plant noise so the first iteration takes each branch in turn
        t = 10
        points = never_covering(10)  # L(r) = 5
        # half passes: +6 pushes the first noisy value over t
        rng = CountingRng([6.0, -99.0, 99.0, 99.0, 99.0, 99.0])
        r_half = good_radius(points, t, profile(0.5, 0.3), rng, [])
        # both fail: bracket floor rises instead
        rng = CountingRng([-99.0, -99.0, 99.0, 99.0, 99.0, 99.0])
        r_fail = good_radius(points, t, profile(0.5, 0.3), rng, [])
        assert r_half < r_fail

    def test_each_radius_is_scored_once_and_every_value_drawn(self, monkeypatch):
        # identical rows: every step passes, so each midpoint after the first
        # is the previous half radius, scored once; both noisy values are
        # still drawn every step
        scored = []
        l_value = CoverageScore.l_value
        monkeypatch.setattr(CoverageScore, "l_value", lambda self, t, r: scored.append(r) or l_value(self, t, r))
        rng, steps = CountingRng(), []
        good_radius(always_covering(), 5, profile(1.0, 0.002), rng, steps)
        iterations = binary_search_iterations(0.002)
        assert [s.branch for s in steps] == ["half_pass"] * iterations
        assert rng.draws == 2 * iterations
        assert sorted(scored, reverse=True) == [SIMPLEX_RADIUS / 2**i for i in range(1, iterations + 2)]

    def test_seeded_determinism(self):
        points, _ = helpers.clustered_points(np.random.default_rng(5), 12, 4)
        first = good_radius(points, 10, profile(2.0), substream(99, "gr"), [])
        second = good_radius(points, 10, profile(2.0), substream(99, "gr"), [])
        assert first == second

    def test_trace_records_midpoints(self):
        points, _ = helpers.clustered_points(np.random.default_rng(6), 10, 4)
        steps = []
        good_radius(points, 8, profile(1.0), substream(3, "tr"), steps)
        assert len(steps) == 3
        assert steps[0].midpoint == pytest.approx(math.sqrt(2) / 4)
        assert all(s.branch in ("half_pass", "mid_pass", "raise_low") for s in steps)
