"""Unnoised diagnostics of the per-token step.

measure_cluster_radius reports the exact covering radius of the M vectors
beside the private search's target radius; run_utility_comparison counts
how often each aggregator picks the exact consensus token.  Every figure
they report depends on unnoised values of the aggregated vectors, so both
refuse a run that has private records (``run.pools`` set) before any
provider call: they study the mechanism on public prompts only.
"""

from __future__ import annotations

import math

import numpy as np

from dpfewshot.accountant import matched_baseline_sigma
from dpfewshot.aggregate import baseline_aggregate, select_token
from dpfewshot.pipeline import ConfigurationError, ResolvedRun, step_streams, token_step
from dpfewshot.rng import NoiseStreams, substream
from dpfewshot.simplex import distances


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


def _check_run(run: ResolvedRun, name: str, count: int) -> None:
    """Refuse a run with private records, or a count below 1."""
    if run.pools is not None:
        raise ConfigurationError("the diagnostics report unnoised figures, so they refuse a run with a dataset")
    if count < 1:
        raise ConfigurationError(f"{name} must be positive, got {count}")


def measure_cluster_radius(run: ResolvedRun, runs: int) -> dict:
    """Exact and private covering radii of the M vectors along generation paths.

    Each of runs paths runs token_step at every position and advances by
    the argmax of the exact mean of the M vectors.  "oracle" holds the
    exact 80%-coverage radius (min_ball_radius_oracle), "goodradius" the
    step's private target radius (trace.target_radius): per-position and
    per-run means, overall mean, standard deviation and maximum.
    """
    _check_run(run, "runs", runs)
    config = run.config
    radii: dict[str, list[list[float]]] = {"oracle": [], "goodradius": []}
    labels_used: list[str] = []
    for run_idx in range(runs):
        label_rng = substream(config.seed, "radius", run_idx, "label")
        label = run.labels[int(label_rng.integers(len(run.labels)))]
        labels_used.append(label)
        prefix = ""
        oracle, private = [], []
        streams = step_streams(run, [("radius", run_idx, "token", position) for position in range(config.t_max)])
        for position, (draw, noise) in enumerate(streams):
            batch, _, aggregation = token_step(run, label, prefix, position, draw, noise)
            points = batch.private_vectors
            oracle.append(min_ball_radius_oracle(points, config.rho))
            private.append(aggregation.target_radius)
            prefix += select_token(points.mean(axis=0), batch.support)
        radii["oracle"].append(oracle)
        radii["goodradius"].append(private)
    report: dict = {"runs": runs, "positions": config.t_max, "labels": labels_used}
    for mode, per_run in radii.items():
        flat = np.array(per_run, dtype=float)
        report[mode] = {
            "per_position_mean": flat.mean(axis=0).tolist(),
            "per_run_mean": flat.mean(axis=1).tolist(),
            "mean": float(flat.mean()),
            "std": float(flat.std()),
            "max": float(flat.max()),
        }
    return report


def run_utility_comparison(run: ResolvedRun, trials: int) -> dict:
    """Agreement-with-consensus rates of both aggregators at matched privacy.

    Both aggregators see the same batches; the fixed-noise baseline gets the
    whole per-token budget on its single mean (matched_baseline_sigma).  The
    consensus token is the argmax of the exact mean of the private vectors.
    Reports rates, a 95% normal-approximation interval, and the discordant
    pair counts for a one-sided paired comparison.
    """
    _check_run(run, "trials", trials)
    config, spec = run.config, run.aggregation
    if min(spec.sigma0, spec.sigma1, spec.sigma2) == 0.0:
        sigma_baseline = 0.0  # an infinite budget is matched by zero noise
    else:
        sigma_baseline = matched_baseline_sigma(spec)
    adaptive_hits = 0
    baseline_hits = 0
    only_adaptive = 0
    only_baseline = 0
    for trial in range(trials):
        label = run.labels[trial % len(run.labels)]
        noise = NoiseStreams.from_seed(config.seed, "utility", trial, "adaptive")
        # No dataset, so the step draws no subsets and needs no subsample stream.
        batch, adaptive_token, _ = token_step(run, label, "", trial, None, noise)
        points = batch.private_vectors
        consensus = select_token(points.mean(axis=0), batch.support)
        baseline_vec = baseline_aggregate(
            points, sigma_baseline, substream(config.seed, "utility", trial, "baseline")
        )
        baseline_token = select_token(baseline_vec, batch.support)
        a_hit = adaptive_token == consensus
        b_hit = baseline_token == consensus
        adaptive_hits += a_hit
        baseline_hits += b_hit
        only_adaptive += a_hit and not b_hit
        only_baseline += b_hit and not a_hit
    rate_a = adaptive_hits / trials
    rate_b = baseline_hits / trials

    def half_width(rate):
        return 1.96 * math.sqrt(max(rate * (1 - rate), 1e-12) / trials)

    return {
        "trials": trials,
        "matched_baseline_sigma": sigma_baseline,
        "adaptive_rate": rate_a,
        "baseline_rate": rate_b,
        "adaptive_ci95": [max(0.0, rate_a - half_width(rate_a)), min(1.0, rate_a + half_width(rate_a))],
        "baseline_ci95": [max(0.0, rate_b - half_width(rate_b)), min(1.0, rate_b + half_width(rate_b))],
        "only_adaptive_correct": only_adaptive,
        "only_baseline_correct": only_baseline,
    }
