import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpfewshot.simplex import (
    SIMPLEX_RADIUS,
    coverage_count,
    distances,
    project_to_ball,
    project_to_simplex,
)

finite_vectors = arrays(
    float,
    st.integers(1, 12),
    elements=st.floats(-5, 5, allow_nan=False, allow_infinity=False, width=32),
)
finite_batches = arrays(
    float,
    st.tuples(st.integers(0, 4), st.integers(1, 12)),
    elements=st.floats(-5, 5, allow_nan=False, allow_infinity=False, width=32),
)


class TestProjectToSimplex:
    def test_fixed_point_on_simplex(self):
        np.testing.assert_allclose(project_to_simplex(np.array([0.2, 0.3, 0.5]))[0], [0.2, 0.3, 0.5])

    def test_truncates_and_renormalizes(self):
        out, _ = project_to_simplex(np.array([0.5, -0.1, 0.6]))
        np.testing.assert_allclose(out, [0.5 / 1.1, 0.0, 0.6 / 1.1], atol=1e-12)

    def test_all_negative_falls_back_to_uniform(self):
        out, degenerate = project_to_simplex(np.array([-1.0, -2.0, -3.0]))
        assert degenerate
        np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3])

    def test_normal_input_not_flagged(self):
        _, degenerate = project_to_simplex(np.array([0.5, 0.2]))
        assert not degenerate

    def test_batch_rows_match_single_calls(self):
        batch = np.array([[0.5, -0.1, 0.6], [-1.0, -2.0, -3.0], [0.2, 0.3, 0.5]])
        out, degenerate = project_to_simplex(batch)
        np.testing.assert_array_equal(degenerate, [False, True, False])
        np.testing.assert_array_equal(out[1], [1 / 3, 1 / 3, 1 / 3])
        for i in (0, 2):
            np.testing.assert_array_equal(out[i], project_to_simplex(batch[i])[0])

    @given(st.one_of(finite_vectors, finite_batches))
    @settings(max_examples=300)
    def test_idempotent(self, v):
        once, _ = project_to_simplex(v)
        twice, _ = project_to_simplex(once)
        assert np.all(np.abs(twice - once) <= 1e-12)

    @given(st.one_of(finite_vectors, finite_batches))
    @settings(max_examples=300)
    def test_output_is_prob_vector(self, v):
        out, degenerate = project_to_simplex(v)
        assert out.shape == v.shape and degenerate.shape == v.shape[:-1]
        assert np.all(out >= 0.0) and np.all(np.abs(out.sum(axis=-1) - 1.0) <= 1e-9)


class TestProjectToBall:
    def test_center_passes_through(self):
        center = np.array([0.3, 0.7])
        np.testing.assert_array_equal(project_to_ball(center[None], center, 0.5, distances(center[None], center)), [center])

    def test_double_radius_halves_displacement(self):
        center = np.array([0.0, 0.0])
        p = np.array([0.0, 2.0])
        out = project_to_ball(p[None], center, 1.0, distances(p[None], center))
        np.testing.assert_allclose(out, [[0.0, 1.0]], rtol=1e-12)

    def test_three_four_five(self):
        out = project_to_ball(np.array([[3.0, 4.0]]), np.array([0.0, 0.0]), 1.0, np.array([5.0]))
        np.testing.assert_allclose(out, [[0.6, 0.8]], rtol=1e-12)

    def test_inside_is_bitwise_identity(self):
        points = np.array([[0.1000000001, 0.2, 0.7], [1.0, 0.0, 0.0]])
        center = np.array([0.1, 0.2, 0.7])
        out = project_to_ball(points, center, 0.5, distances(points, center))
        np.testing.assert_array_equal(out[0], points[0])

    def test_zero_radius_maps_to_center(self):
        points, center = np.array([[1.0, 0.0], [0.5, 0.5]]), np.array([0.5, 0.5])
        out = project_to_ball(points, center, 0.0, distances(points, center))
        np.testing.assert_array_equal(out, [[0.5, 0.5], [0.5, 0.5]])

    @given(finite_vectors, st.floats(0, 2, allow_nan=False), st.integers(0, 2**32 - 1))
    @settings(max_examples=300)
    def test_output_within_radius(self, center, radius, seed):
        p = center + np.random.default_rng(seed).standard_normal(center.shape[0])
        out = project_to_ball(p[None], center, radius, distances(p[None], center))
        assert np.linalg.norm(out[0] - center) <= radius * (1 + 1e-12) + 1e-15


class TestCoverageCount:
    def test_all_at_center(self):
        points = np.tile([0.5, 0.5], (7, 1))
        assert coverage_count(distances(points, np.array([0.5, 0.5])), 0.0) == 7

    def test_zero_radius_distinct_points(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert coverage_count(distances(points, np.array([0.5, 0.5])), 0.0) == 0

    def test_boundary_counts_as_inside(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        assert coverage_count(distances(points, np.array([0.5, 0.5])), 0.5) == 1
        assert coverage_count(distances(points, np.array([0.5, 0.5])), math.sqrt(2) / 2) == 3

    def test_matches_naive_reimplementation(self):
        # second, independently written counting loop on random instances
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            m, k = int(rng.integers(1, 51)), int(rng.integers(1, 21))
            points = rng.random((m, k))
            center = rng.random(k)
            radius = float(rng.random() * 2)
            naive = 0
            for row in points:
                if math.sqrt(sum((a - b) ** 2 for a, b in zip(row, center))) <= radius:
                    naive += 1
            assert coverage_count(distances(points, center), radius) == naive


def test_simplex_radius_constant():
    assert SIMPLEX_RADIUS == pytest.approx(math.sqrt(2) / 2)
