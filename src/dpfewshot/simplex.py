"""Vector primitives over the probability simplex.

Vectors are 1-D float arrays of length K.  A probability vector is
nonnegative and sums to 1.  The enclosing ball of the whole simplex has
radius sqrt(2)/2, which is the starting point of every radius search in
this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIMPLEX_RADIUS = math.sqrt(2.0) / 2.0


@dataclass(frozen=True)
class Ball:
    """An l2-ball given by center and nonnegative radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        if not np.all(np.isfinite(center)):
            raise ValueError("ball center must be finite")
        if not (self.radius >= 0.0):
            raise ValueError(f"ball radius must be >= 0, got {self.radius}")
        object.__setattr__(self, "center", center)


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


def project_to_ball(p: np.ndarray, ball: Ball) -> np.ndarray:
    """Pull p radially toward ball.center until it lies inside the ball.

    Points already inside pass through unchanged (bitwise), matching the
    scale factor max(1, d/R).  A zero-radius ball maps everything to the
    center.
    """
    p = np.asarray(p, dtype=float)
    d = float(np.linalg.norm(p - ball.center))
    if d <= ball.radius:
        return p
    if ball.radius == 0.0:
        return ball.center.copy()
    return ball.center + (p - ball.center) / (d / ball.radius)


def coverage_count(points: np.ndarray, ball: Ball) -> int:
    """Number of rows of ``points`` inside the ball (boundary counts as in)."""
    points = np.asarray(points, dtype=float)
    dists = np.linalg.norm(points - ball.center, axis=1)
    return int(np.count_nonzero(dists <= ball.radius))


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
    diffs = points[:, None, :] - points[None, :, :]
    dists = np.linalg.norm(diffs, axis=2)
    # For each candidate center, the smallest radius covering `need` points
    # is its `need`-th smallest distance (distances to self included).
    kth = np.sort(dists, axis=1)[:, need - 1]
    return float(kth.min())
