"""Private radius estimation: count-based coverage score and DP binary search.

The coverage score L(r) is the capped-count average over the t best
data-point centers; its sensitivity to replacing one input point is 2,
so each noisy evaluation adds Gaussian noise of std 2*sigma0.  The search
brackets [0, sqrt(2)/2] and halves until the bracket is narrower than
theta, evaluating both L(mid/2) and L(mid) noisily every iteration in a
fixed order so the number of draws never depends on the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simplex import SIMPLEX_RADIUS, distances


@dataclass(frozen=True)
class RadiusSearchStep:
    """One binary-search iteration: midpoint and both noisy score values."""

    midpoint: float
    noisy_half: float
    noisy_mid: float
    branch: str  # "half_pass" | "mid_pass" | "raise_low"


class CoverageScore:
    """L(r) evaluator with the pairwise distance matrix computed once."""

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] < 1:
            raise ValueError("points must be a non-empty (M, K) array")
        self._dists = distances(points[:, None, :], points)
        self.m = points.shape[0]

    def l_value(self, t: int, r: float) -> float:
        """Average of the t largest capped counts min(B_r(x_i), t)."""
        if not 1 <= t <= self.m:
            raise ValueError(f"t must lie in [1, {self.m}], got {t}")
        counts = np.count_nonzero(self._dists <= r, axis=1)
        capped = np.minimum(counts, t)
        top = np.partition(capped, self.m - t)[self.m - t:]
        return float(top.sum()) / t


def dp_binary_search(
    score,
    t: int,
    sigma0: float,
    theta: float,
    rng: np.random.Generator,
    trace: list[RadiusSearchStep] | None = None,
) -> float:
    """Noisy bisection for a radius r with score(r) >= t and score(r/2) < t.

    ``score`` maps a radius to L(r).  Both noisy evaluations happen before
    the branch, drawing mid/2 first, so every run consumes exactly
    2 * ceil(log2(sqrt(2)/(2 theta))) Gaussians.  The first two branches
    coincide deliberately: both evaluations are part of the analyzed
    mechanism and both are charged, so they are not collapsed into one.
    """
    if sigma0 < 0:
        raise ValueError("sigma0 must be nonnegative")
    if not 0.0 < theta <= SIMPLEX_RADIUS:
        raise ValueError(f"theta must lie in (0, sqrt(2)/2], got {theta}")
    r_low, r_high = 0.0, SIMPLEX_RADIUS
    while r_high - r_low > theta:
        r_mid = (r_low + r_high) / 2.0
        noisy_half = score(r_mid / 2.0) + 2.0 * sigma0 * rng.standard_normal()
        noisy_mid = score(r_mid) + 2.0 * sigma0 * rng.standard_normal()
        if noisy_half >= t:
            r_high = r_mid
            branch = "half_pass"
        elif noisy_mid >= t:
            r_high = r_mid
            branch = "mid_pass"
        else:
            r_low = r_mid
            branch = "raise_low"
        if trace is not None:
            trace.append(RadiusSearchStep(r_mid, noisy_half, noisy_mid, branch))
    return (r_low + r_high) / 2.0


def good_radius(
    points: np.ndarray,
    t: int,
    sigma0: float,
    theta: float,
    rng: np.random.Generator,
    trace: list[RadiusSearchStep] | None = None,
) -> float:
    """Privately estimate a radius covering at least t of the input points."""
    score = CoverageScore(points)
    return dp_binary_search(lambda r: score.l_value(t, r), t, sigma0, theta, rng, trace)
