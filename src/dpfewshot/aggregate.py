"""DP aggregation of next-token probability vectors.

Two aggregators over the same M vectors:

* adaptive_aggregate - finds a private target radius, then iteratively
  shrinks the clipping radius toward it, re-centering with noisy projected
  means whose noise scales with the current radius.  Noise therefore adapts
  to how tightly the vectors cluster.
* baseline_aggregate - one noisy mean at the simplex radius, no
  adaptation: the first mean estimate of adaptive_aggregate alone.

Noise sites draw from named substreams (goodradius / mean / check) so a
data-dependent early break never shifts draws consumed elsewhere.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .accountant import COVERAGE_CHECK, MEAN_ESTIMATE, MechanismProfile
from .radius import RadiusSearchStep, good_radius
from .rng import NoiseStreams
from .simplex import SIMPLEX_RADIUS, coverage_count, distances, project_to_ball, project_to_simplex

BREAK_MAX_ITERS = "max_iters"
BREAK_COVERAGE_FAILED = "coverage_failed"
BREAK_RADIUS_FLOOR = "radius_floor"


@dataclass(frozen=True, kw_only=True)
class AggregationConfig(MechanismProfile):
    """The charged mechanism plus the adaptive aggregator's run-time knobs
    for M vectors of dimension K, which the charge does not depend on.

    lam scales the coverage-check margin; mu is the fraction the noisy check
    must cover; rho the fraction the radius search targets.  A zero noise
    multiplier disables noise at its site but still consumes its draws.
    """

    m: int
    k: int
    lam: float
    mu: float = 0.55
    rho: float = 0.8

    def __post_init__(self):
        super().__post_init__()
        if self.m < 1 or self.k < 1:
            raise ValueError("m and k must be positive")
        if not self.lam >= 0:
            raise ValueError("lam must be nonnegative")
        if not 0.0 < self.mu <= 1.0 or not 0.0 < self.rho <= 1.0:
            raise ValueError("mu and rho must lie in (0, 1]")
        if self.sigma1 is None:
            raise ValueError("sigma1 is required: the aggregator runs at a settled sigma1")
        if self.margin(1.0) >= 1.0:
            warnings.warn(
                f"margin coefficient 2*lam*sigma1*sqrt(k)/m = {self.margin(1.0):.3g} >= 1; "
                "the radius update cannot shrink and the loop will stop at the floor check",
                stacklevel=3,  # the caller of the generated __init__
            )

    def margin(self, current_radius: float) -> float:
        """Check-radius padding absorbing the noise in the current center."""
        return 2.0 * self.lam * current_radius * self.sigma1 * math.sqrt(self.k) / self.m

    @property
    def coverage_target(self) -> int:
        """Ball volume the radius search aims for: ceil(rho * m)."""
        return math.ceil(self.rho * self.m)


@dataclass
class AggregationTrace:
    """Audit record of one adaptive aggregation call."""

    target_radius: float
    radius_sequence: list[float]
    coverage_checks: list[tuple[int, float]]
    break_reason: str
    degenerate_simplex_events: int
    mean_estimates: int
    goodradius_steps: list[RadiusSearchStep]


def radius_coverage_check(
    dists: np.ndarray, check_radius: float, cfg: AggregationConfig, rng: np.random.Generator
) -> tuple[bool, int, float]:
    """Noisy test that enough original vectors sit near the current center,
    given their ``distances`` to it.

    Counts the vectors within check_radius, noises the count as one
    COVERAGE_CHECK release (one draw) and compares it against mu * M.
    """
    raw = coverage_count(dists, check_radius)
    noisy = COVERAGE_CHECK.draw(raw, cfg, rng)
    return noisy >= cfg.mu * cfg.m, raw, noisy


def adaptive_aggregate(
    points: np.ndarray, cfg: AggregationConfig, streams: NoiseStreams
) -> tuple[np.ndarray, AggregationTrace]:
    """Aggregate M probability vectors with iterative radius reduction.

    Returns the final simplex-mapped center and a trace recording the
    target radius, every radius update, raw/noisy coverage counts, and why
    the loop ended.
    """
    points = np.asarray(points, dtype=float)
    if points.shape != (cfg.m, cfg.k):
        raise ValueError(f"expected points of shape {(cfg.m, cfg.k)}, got {points.shape}")

    search_steps: list[RadiusSearchStep] = []
    target_r = good_radius(points, cfg.coverage_target, cfg, streams.goodradius, search_steps)

    current_r = SIMPLEX_RADIUS
    radius_sequence = [current_r]
    center, degenerate = project_to_simplex(
        MEAN_ESTIMATE.draw(points.sum(axis=0), cfg, streams.mean, current_r) / cfg.m
    )
    degenerate_events = int(degenerate)
    checks: list[tuple[int, float]] = []
    break_reason = BREAK_MAX_ITERS

    for _ in range(cfg.t_hat):
        next_r = target_r + cfg.margin(current_r)
        dists = distances(points, center)  # shared by the check and the projection at this center
        passed, raw, noisy = radius_coverage_check(dists, next_r, cfg, streams.check)
        checks.append((raw, noisy))
        if not passed:
            break_reason = BREAK_COVERAGE_FAILED
            break
        if current_r < next_r:
            break_reason = BREAK_RADIUS_FLOOR
            break
        current_r = next_r
        radius_sequence.append(current_r)
        projected = project_to_ball(points, center, current_r, dists)
        center, degenerate = project_to_simplex(
            MEAN_ESTIMATE.draw(projected.sum(axis=0), cfg, streams.mean, current_r) / cfg.m
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


def baseline_aggregate(points: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Fixed-noise mean: one MEAN_ESTIMATE release at R = sqrt(2)/2, over M.

    sigma is the matched one (matched_baseline_sigma), a field of no profile.
    No simplex remap; token selection takes the argmax of this raw vector.
    """
    points = np.asarray(points, dtype=float)
    noise = MEAN_ESTIMATE.noise_std(sigma, SIMPLEX_RADIUS) * rng.standard_normal(points.shape[1])
    return (points.sum(axis=0) + noise) / len(points)


def select_token(p: np.ndarray, support):
    """Element of support at the maximal coordinate; ties take the earliest."""
    p = np.asarray(p, dtype=float)
    if len(p) != len(support):
        raise ValueError(f"vector length {len(p)} != support length {len(support)}")
    return support[int(np.argmax(p))]
