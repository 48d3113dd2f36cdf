"""Vector primitives over the probability simplex.

Vectors are 1-D float arrays of length K.  A probability vector is
nonnegative and sums to 1.  The enclosing ball of the whole simplex has
radius sqrt(2)/2, which is the starting point of every radius search in
this package.
"""

from __future__ import annotations

import math

import numpy as np

SIMPLEX_RADIUS = math.sqrt(2.0) / 2.0


def distances(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Euclidean distance of each row of points to center: the package's one distance rule."""
    return np.linalg.norm(points - center, axis=-1)


def project_to_simplex(v: np.ndarray) -> tuple[np.ndarray, bool]:
    """Truncate negatives and renormalize to unit l1 mass.

    If truncation leaves the all-zero vector the formula is undefined; the
    uniform distribution is returned instead.  The flag reports whether
    that fallback fired.
    """
    v = np.asarray(v, dtype=float)
    clipped = np.maximum(v, 0.0)
    mass = float(clipped.sum())
    if mass <= 0.0:
        k = v.shape[0]
        return np.full(k, 1.0 / k), True
    return clipped / mass, False


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
    kth = np.sort(distances(points[:, None, :], points), axis=1)[:, need - 1]
    return float(kth.min())
