"""Vector primitives over the probability simplex.

Vectors are float arrays of length K, alone or as the rows of an (M, K)
batch.  A probability vector is nonnegative and sums to 1.  The enclosing
ball of the whole simplex has radius sqrt(2)/2, which is the starting
point of every radius search in this package.
"""

from __future__ import annotations

import math

import numpy as np

SIMPLEX_RADIUS = math.sqrt(2.0) / 2.0


def distances(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Euclidean distance of each row of points to center: the package's one distance rule."""
    return np.linalg.norm(points - center, axis=-1)


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """(M, M) matrix of the distances between rows of an (M, K) batch, one norm per pair."""
    # Each pair once, mirrored: ||a - b|| and ||b - a|| are bitwise equal.
    # Row by row, because gathering all M(M-1)/2 pairs into one array
    # costs more in large temporaries than the loop does in calls.
    # The diagonal is ||x - x||, 0 unless x has a non-finite entry.
    dists = np.diag(distances(points, points))
    for i in range(len(points) - 1):
        dists[i, i + 1:] = dists[i + 1:, i] = distances(points[i + 1:], points[i])
    return dists


def project_to_simplex(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Truncate negatives and renormalize each row (last axis) to unit l1 mass.

    A row that truncation leaves all-zero has no such normalization and
    becomes the uniform distribution instead.  The mask, of shape
    ``v.shape[:-1]`` (0-d for one vector), flags the rows where that
    fallback fired.
    """
    clipped = np.maximum(np.asarray(v, dtype=float), 0.0)
    mass = clipped.sum(axis=-1, keepdims=True)
    degenerate = mass <= 0.0
    with np.errstate(all="ignore"):
        out = np.where(degenerate, 1.0 / clipped.shape[-1], clipped / mass)
    return out, degenerate[..., 0]


def project_to_ball(points: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    """Pull each row of points radially toward center into the ball.

    Rows already inside pass through unchanged (bitwise), matching the
    scale factor max(1, d/R).  A zero radius maps every row to the center.
    """
    points = np.asarray(points, dtype=float)
    dists = distances(points, center)[:, None]
    with np.errstate(all="ignore"):
        pulled = center + (points - center) / (dists / radius)
    return np.where(dists > radius, pulled, points)


def coverage_count(points: np.ndarray, center: np.ndarray, radius: float) -> int:
    """Number of rows of ``points`` within radius of center (boundary counts as in)."""
    return int(np.count_nonzero(distances(np.asarray(points, dtype=float), center) <= radius))


def min_ball_radius_oracle(points: np.ndarray, coverage_fraction: float) -> float:
    """Brute-force minimal covering radius, centers restricted to data points.

    Returns the smallest pairwise distance r such that the ball of radius r
    around some data point contains at least ceil(coverage_fraction * M)
    points.  Intended as a test oracle and measurement tool, not a general
    minimum-enclosing-ball solver.
    """
    points = np.asarray(points, dtype=float)
    m = points.shape[0]
    if m < 1:
        raise ValueError("need at least one point")
    if not 0.0 < coverage_fraction <= 1.0:
        raise ValueError(f"coverage_fraction must be in (0, 1], got {coverage_fraction}")
    need = math.ceil(coverage_fraction * m)
    # For each candidate center, the smallest radius covering `need` points
    # is its `need`-th smallest distance (distances to self included).
    kth = np.sort(pairwise_distances(points), axis=1)[:, need - 1]
    return float(kth.min())
