"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them live).

Each test pins its tolerance and wall-clock budget inline.  The reference
calibration settings used by criterion 3 are published per-task profiles
(noise multipliers and subset counts per epsilon target); six of those rows
are known not to reproduce under the per-demonstration composition span this
accountant charges -- test_reference_rows_reproduce_at_four_demo_span shows
the span that does reproduce them.
"""

import math
from dataclasses import replace
from time import perf_counter

import numpy as np
import pytest

import helpers
from dpfewshot.accountant import (
    DpBudget,
    MechanismProfile,
    SubsamplingContext,
    amplified_rdp,
    best_epsilon,
    binary_search_iterations,
    calibrate_sigma1,
    matched_baseline_sigma,
    per_iteration_coefficient,
    rdp_to_dp,
    subsample_amplify,
)
from dpfewshot.aggregate import (
    AggregationConfig,
    adaptive_aggregate,
    baseline_aggregate,
    noisy_mean_raw,
    radius_coverage_check,
)
from dpfewshot.pipeline import (
    RunConfig,
    audit_traces,
    generate_shots,
    resolve_run,
    write_outputs,
)
from dpfewshot.providers import ProviderSpec
from dpfewshot.radius import CoverageScore, good_radius
from dpfewshot.rng import NoiseStreams, substream
from dpfewshot.simplex import SIMPLEX_RADIUS, distances
from study.diagnostics import measure_cluster_radius, pairwise_distances


def report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


class DrawCounter:
    def __init__(self):
        self.draws = 0

    def standard_normal(self):
        self.draws += 1
        return 0.0


# --------------------------------------------------------------------------
# criterion 1: closed forms vs independent second implementations
# --------------------------------------------------------------------------

def _per_iteration_oracle(s0, s1, s2, t_hat, theta, alpha):
    iters = 0
    width = math.sqrt(2) / 2
    while width > theta:
        width /= 2
        iters += 1
    per_count_estimate = alpha * (2.0 / (2.0 * s0)) ** 2 / 2.0
    return (
        2 * iters * per_count_estimate
        + (t_hat + 1) * (alpha / 2.0 / s1**2)
        + t_hat * (alpha / 2.0 / s2**2)
    )


def test_accountant_closed_forms():
    t0 = perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        sens = rng.uniform(0.05, 5)
        std = rng.uniform(0.05, 5)
        alpha = rng.uniform(1.001, 128)
        assert helpers.gaussian_rdp(sens, std, alpha) == pytest.approx(
            alpha * (sens / std) ** 2 / 2, rel=1e-12
        )
    for _ in range(1000):
        alpha = rng.uniform(1.01, 128)
        tau = rng.uniform(0, 30)
        delta = 10.0 ** rng.uniform(-12, -0.05)
        want = tau + math.log1p(-1.0 / alpha) - math.log(delta * alpha) / (alpha - 1)
        assert rdp_to_dp(alpha, tau, delta) == pytest.approx(want, rel=1e-12)
    for _ in range(1000):
        profile = MechanismProfile(
            sigma0=rng.uniform(0.5, 25),
            sigma1=rng.uniform(0.05, 5),
            sigma2=rng.uniform(0.5, 12),
            t_hat=int(rng.integers(1, 5)),
            theta=rng.uniform(0.015, 0.69),
        )
        alpha = rng.uniform(1.01, 96)
        want = _per_iteration_oracle(
            profile.sigma0, profile.sigma1, profile.sigma2, profile.t_hat, profile.theta, alpha
        )
        assert per_iteration_coefficient(profile) * alpha == pytest.approx(want, rel=1e-12)

    assert binary_search_iterations(0.1) == 3
    counter = DrawCounter()
    good_radius(np.tile([0.5, 0.5], (4, 1)), 1, 1.0, 0.1, counter, [])
    assert counter.draws == 2 * 3

    elapsed = perf_counter() - t0
    report(
        "accountant closed forms match second implementations (1e-12, 3000 cases)",
        elapsed < 5.0,
        f"{elapsed:.2f}s < 5s",
    )


# --------------------------------------------------------------------------
# criterion 2: subsampling amplification vs straight-line transcription
# --------------------------------------------------------------------------

def _transcribed_bound(coeff, gamma, alpha):
    """The bound exactly as stated for tau(alpha) = coeff * alpha, in extended
    precision (no log tricks)."""
    one = np.longdouble(1.0)
    g = np.longdouble(gamma)
    t2 = np.longdouble(coeff * 2)
    pair = min(4 * (np.exp(t2) - one), 2 * np.exp(t2))
    total = one + g**2 * math.comb(alpha, 2) * pair
    for j in range(3, alpha + 1):
        total += g**j * math.comb(alpha, j) * np.exp((j - 1) * np.longdouble(coeff * j)) * 2
    return float(np.log(total) / (alpha - 1))


def test_subsampling_amplification_oracle():
    t0 = perf_counter()
    populations = [round(1 / g) for g in np.geomspace(1e-4, 0.05, 6)]
    checked = 0
    for n in populations:
        ctx = SubsamplingContext(1, n)
        for coeff in (1e-3, 1e-2, 1e-1, 1.0):
            for alpha in range(2, 65):
                got = subsample_amplify(coeff, ctx, alpha)
                want = _transcribed_bound(coeff, ctx.gamma, alpha)
                assert got == pytest.approx(want, rel=1e-10), (n, coeff, alpha)
                checked += 1
    # monotone in gamma throughout the same grid
    for coeff in (1e-3, 1e-2, 1e-1, 1.0):
        for alpha in (2, 9, 33, 64):
            values = [
                subsample_amplify(coeff, SubsamplingContext(1, n), alpha)
                for n in sorted(populations, reverse=True)
            ]
            assert values == sorted(values), (coeff, alpha)
    elapsed = perf_counter() - t0
    report(
        f"subsampling bound matches transcription oracle (1e-10, {checked} points) and is monotone in gamma",
        elapsed < 30.0,
        f"{elapsed:.2f}s < 30s",
    )


# --------------------------------------------------------------------------
# criterion 3: reference calibration rows
# --------------------------------------------------------------------------

# (task, target epsilon, sigma0, sigma2, sigma1, t_hat, m, n, t_max,
#  train size, class count or None for open label spaces)
REFERENCE_ROWS = [
    ("AGNews", 1, 10.0, 3.0, 1.23, 1, 10, 2, 100, 120000, 4),
    ("AGNews", 2, 10.0, 3.0, 0.92, 1, 10, 2, 100, 120000, 4),
    ("AGNews", 4, 10.0, 3.0, 0.71, 1, 10, 2, 100, 120000, 4),
    ("AGNews", 8, 10.0, 3.0, 0.58, 1, 10, 2, 100, 120000, 4),
    ("DBPedia", 1, 10.0, 3.0, 1.54, 1, 10, 2, 100, 49999, 14),
    ("DBPedia", 2, 10.0, 3.0, 1.14, 1, 10, 2, 100, 49999, 14),
    ("DBPedia", 4, 10.0, 3.0, 0.89, 1, 10, 2, 100, 49999, 14),
    ("DBPedia", 8, 10.0, 3.0, 0.73, 1, 10, 2, 100, 49999, 14),
    ("TREC", 1, 17.5, 6.0, 2.52, 1, 20, 2, 15, 5452, 6),
    ("TREC", 2, 15.0, 5.0, 1.95, 1, 20, 2, 15, 5452, 6),
    ("TREC", 4, 10.0, 5.0, 1.15, 1, 20, 2, 15, 5452, 6),
    ("TREC", 8, 15.0, 5.0, 1.09, 2, 20, 2, 15, 5452, 6),
    ("MIT-G", 1, 15.0, 6.0, 1.59, 1, 40, 1, 20, 2953, None),
    ("MIT-G", 2, 10.0, 6.0, 1.17, 1, 40, 1, 20, 2953, None),
    ("MIT-G", 4, 10.0, 6.0, 1.12, 2, 40, 1, 20, 2953, None),
    ("MIT-G", 8, 10.0, 5.0, 0.90, 2, 40, 1, 20, 2953, None),
    ("MIT-D", 1, 17.5, 6.0, 2.57, 1, 40, 1, 20, 1561, None),
    ("MIT-D", 2, 17.5, 6.0, 1.49, 1, 40, 1, 20, 1561, None),
    ("MIT-D", 4, 15.0, 6.0, 1.07, 1, 40, 1, 20, 1561, None),
    ("MIT-D", 8, 15.0, 5.0, 0.83, 1, 40, 1, 20, 1561, None),
]


def _row_contexts(drawn, train, classes):
    contexts = {"dataset": SubsamplingContext(drawn, train)}
    if classes:
        contexts["label"] = SubsamplingContext(drawn, round(train / classes))
    return contexts


def test_reference_calibration_rows():
    t0 = perf_counter()
    failures = []
    print(
        f"{'task':8}{'eps':>4}{'sigma1':>8} | {'eps(dataset)':>13} {'eps(label)':>11}"
        f" | {'best mode':>9} {'cal sigma1':>11} | verdict"
    )
    for task, eps_t, s0, s2, s1, t_hat, m, n, t_max, train, classes in REFERENCE_ROWS:
        delta = 1.0 / train
        profile = MechanismProfile(sigma0=s0, sigma1=s1, sigma2=s2, t_hat=t_hat, theta=0.1)
        contexts = _row_contexts(m * n, train, classes)
        eps_by_mode = {
            mode: best_epsilon(amplified_rdp(profile, ctx), t_max, delta)[0]
            for mode, ctx in contexts.items()
        }
        best_mode = min(eps_by_mode, key=lambda mode: abs(eps_by_mode[mode] - eps_t))
        forward_ok = abs(eps_by_mode[best_mode] - eps_t) <= 0.25 * eps_t
        calibrated = calibrate_sigma1(
            DpBudget(eps_t, delta), replace(profile, sigma1=None), contexts[best_mode], t_max
        )
        roundtrip_ok = abs(calibrated - s1) <= 0.25 * s1
        verdict = "ok" if forward_ok and roundtrip_ok else "MISS"
        if verdict == "MISS":
            failures.append((task, eps_t, eps_by_mode, calibrated))
        print(
            f"{task:8}{eps_t:>4}{s1:>8} | {eps_by_mode['dataset']:>13.4f}"
            f" {eps_by_mode.get('label', float('nan')):>11.4f}"
            f" | {best_mode:>9} {calibrated:>11.4f} | {verdict}"
        )
    elapsed = perf_counter() - t0
    assert elapsed < 120.0, f"{elapsed:.1f}s exceeds the 2 minute budget"
    report(
        "reference calibration rows reproduce within 25% under a published gamma interpretation",
        not failures,
        f"{len(REFERENCE_ROWS) - len(failures)}/{len(REFERENCE_ROWS)} rows in {elapsed:.1f}s; "
        f"failing: {[(t, e) for t, e, *_ in failures]}",
    )


def test_reference_rows_reproduce_at_four_demo_span():
    """Diagnostic for the rows criterion 3 cannot reach: the open-label-space
    reference rows were evidently calibrated over the full four-demonstration
    run (4 * t_max compositions) with dataset-wide gamma; at that span they
    reproduce to about one percent."""
    for task, eps_t, s0, s2, s1, t_hat, m, n, t_max, train, classes in REFERENCE_ROWS:
        if classes is not None:
            continue
        profile = MechanismProfile(sigma0=s0, sigma1=s1, sigma2=s2, t_hat=t_hat, theta=0.1)
        ctx = SubsamplingContext(m * n, train)
        eps, _ = best_epsilon(amplified_rdp(profile, ctx), 4 * t_max, 1.0 / train)
        assert eps == pytest.approx(eps_t, rel=0.02), (task, eps_t, eps)
    print("PASS: open-label reference rows reproduce at the four-demo span (2%)")


# --------------------------------------------------------------------------
# criterion 4: radius search fidelity
# --------------------------------------------------------------------------

def _smallest_bracketing_radius(score: CoverageScore, t: int, grid) -> float | None:
    for r in grid:
        if score.l_value(t, r) >= t and score.l_value(t, r / 2) < t:
            return r
    return None


def test_radius_search_fidelity():
    t0 = perf_counter()
    theta = 0.1
    oracle_checked = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(5, 41))
        k = int(rng.integers(2, 11))
        points, _ = helpers.clustered_points(rng, m, k, cluster_radius=float(rng.uniform(0.02, 0.12)))
        t = math.ceil(0.8 * m)
        score = CoverageScore(points)
        r = good_radius(points, t, 0.0, theta, substream(seed, "acc4"), [])
        assert score.l_value(t, r + theta) >= t, (seed, r)
        pairwise = pairwise_distances(points)[np.triu_indices(m, 1)]
        grid = np.unique(np.concatenate([pairwise, np.arange(0.0, SIMPLEX_RADIUS + theta / 4, theta / 4)]))
        r_prime = _smallest_bracketing_radius(score, t, grid)
        if r_prime is not None and r_prime <= SIMPLEX_RADIUS:
            assert abs(r - r_prime) <= theta, (seed, r, r_prime)
            oracle_checked += 1
    # empirical neighboring-dataset sensitivity of the coverage score
    radius_grid = np.linspace(0.0, 1.5, 16)
    for seed in range(60):
        rng = np.random.default_rng(10_000 + seed)
        m = int(rng.integers(4, 30))
        points, _ = helpers.clustered_points(rng, m, 6)
        neighbor = points.copy()
        neighbor[int(rng.integers(m))] = helpers.peaked_center(rng, 6)
        t = int(rng.integers(1, m + 1))
        one, other = CoverageScore(points), CoverageScore(neighbor)
        for r in radius_grid:
            assert abs(one.l_value(t, r) - other.l_value(t, r)) <= 2.0 + 1e-9
    elapsed = perf_counter() - t0
    report(
        "noiseless radius search is faithful (coverage at theta slack; "
        f"oracle distance <= theta on {oracle_checked}/200; sensitivity <= 2)",
        elapsed < 60.0,
        f"{elapsed:.2f}s < 60s",
    )


# --------------------------------------------------------------------------
# criterion 5: aggregator replay fidelity
# --------------------------------------------------------------------------

def _replay_noiseless(points, cfg: AggregationConfig):
    """Line-by-line noiseless transcription of the adaptive aggregation,
    written independently of the package implementation."""
    m, k = points.shape
    t = math.ceil(cfg.rho * m)

    def l_value(r):
        per_center = []
        for i in range(m):
            count = int(np.sum(np.linalg.norm(points - points[i], axis=1) <= r))
            per_center.append(min(count, t))
        return sum(sorted(per_center)[-t:]) / t

    lo, hi = 0.0, math.sqrt(2) / 2
    while hi - lo > cfg.theta:
        mid = (lo + hi) / 2
        if l_value(mid / 2) >= t:
            hi = mid
        elif l_value(mid) >= t:
            hi = mid
        else:
            lo = mid
    r = (lo + hi) / 2

    def remap(v):
        clipped = np.maximum(v, 0.0)
        return clipped / clipped.sum()

    big_r = math.sqrt(2) / 2
    seq = [big_r]
    projected = points.copy()
    center = remap(projected.sum(axis=0) / m)
    reason = "max_iters"
    containment_ok = True
    for _ in range(cfg.t_hat):
        margin = 2 * cfg.lam * big_r * cfg.sigma1 * math.sqrt(k) / m
        count = int(np.sum(np.linalg.norm(points - center, axis=1) <= r + margin))
        if count < cfg.mu * m:
            reason = "coverage_failed"
            break
        if big_r < r + margin:
            reason = "radius_floor"
            break
        big_r = r + margin
        seq.append(big_r)
        dists = np.linalg.norm(points - center, axis=1)
        scale = np.maximum(1.0, dists / big_r)
        projected = center + (points - center) / scale[:, None]
        if not np.all(np.linalg.norm(projected - center, axis=1) <= big_r * (1 + 1e-12)):
            containment_ok = False
        center = remap(projected.sum(axis=0) / m)
    return center, r, seq, reason, containment_ok


def test_aggregator_replay_fidelity():
    t0 = perf_counter()
    rng_master = np.random.default_rng(555)
    for case in range(100):
        m = int(rng_master.integers(5, 25))
        k = int(rng_master.integers(3, 11))
        outliers = float(rng_master.choice([0.0, 0.1, 0.2]))
        points, _ = helpers.clustered_points(
            np.random.default_rng(case), m, k, cluster_radius=0.06, outlier_fraction=outliers
        )
        cfg = AggregationConfig(
            m=m, k=k,
            lam=float(rng_master.choice([0.1, 0.2, 0.3])),
            t_hat=int(rng_master.integers(1, 4)),
            sigma0=0.0, sigma1=0.0, sigma2=0.0,
        )
        out, trace = adaptive_aggregate(points, cfg, NoiseStreams.from_seed(case))
        want_center, want_r, want_seq, want_reason, containment_ok = _replay_noiseless(points, cfg)
        assert trace.target_radius == want_r, case
        assert trace.radius_sequence == pytest.approx(want_seq, abs=1e-15), case
        assert trace.break_reason == want_reason, case
        np.testing.assert_allclose(out, want_center, atol=1e-12)
        assert containment_ok, case
        # budget ceiling and radius monotonicity on the mechanism's trace
        assert trace.mean_estimates <= cfg.t_hat + 1
        assert len(trace.coverage_checks) <= cfg.t_hat
        for previous, updated in zip(trace.radius_sequence, trace.radius_sequence[1:]):
            assert updated == pytest.approx(trace.target_radius + cfg.margin(previous), abs=1e-15)
            assert updated <= previous
    elapsed = perf_counter() - t0
    report(
        "noiseless aggregation replays exactly (radii, break reasons, output to 1e-12; "
        "containment, monotonicity, budget ceiling on every trace)",
        elapsed < 60.0,
        f"{elapsed:.2f}s < 60s",
    )


# --------------------------------------------------------------------------
# criterion 6: noise-law statistics
# --------------------------------------------------------------------------

def test_noise_law_statistics():
    t0 = perf_counter()
    reps = 100_000
    points = np.tile([0.15, 0.25, 0.35, 0.25], (5, 1))
    total = points.sum(axis=0)

    radius, sigma1 = 0.3, 0.7
    rng = substream(61, "mean-noise")
    residuals = np.stack(
        [noisy_mean_raw(points, radius, sigma1, rng) * 5 - total for _ in range(reps)]
    )
    mean_std = residuals.std()
    assert mean_std == pytest.approx(2 * radius * sigma1, rel=0.02)

    sigma = 0.9
    rng = substream(62, "baseline-noise")
    residuals = np.stack(
        [baseline_aggregate(points, sigma, rng) * 5 - total for _ in range(reps)]
    )
    base_std = residuals.std()
    assert base_std == pytest.approx(math.sqrt(2) * sigma, rel=0.02)

    cfg = AggregationConfig(m=5, k=4, lam=0.2, t_hat=1, sigma0=0.0, sigma1=0.0, sigma2=2.5)
    dists = distances(points, points[0])
    rng = substream(63, "check-noise")
    noise = []
    for _ in range(reps):
        _, raw, noisy = radius_coverage_check(dists, 0.1 + cfg.margin(0.2), cfg, rng)
        noise.append(noisy - raw)
    check_std = np.array(noise).std()
    assert check_std == pytest.approx(2.5, rel=0.02)

    elapsed = perf_counter() - t0
    report(
        "noise laws verified at 2% over 1e5 draws",
        elapsed < 60.0,
        f"mean {mean_std:.4f}~{2*radius*sigma1}, baseline {base_std:.4f}~{math.sqrt(2)*sigma:.4f}, "
        f"check {check_std:.4f}~2.5; {elapsed:.1f}s < 60s",
    )


# --------------------------------------------------------------------------
# criterion 7: directional utility at matched privacy
# --------------------------------------------------------------------------

def _soft_clustered(rng, m, k, top_logit):
    """80% of vectors within 0.1 of a peaked center, the rest within 0.35."""
    center = helpers.peaked_center(rng, k, top_logit)
    n_out = int(0.2 * m)
    rows = [helpers.jitter_on_simplex(rng, center, 0.1) for _ in range(m - n_out)]
    rows += [helpers.jitter_on_simplex(rng, center, 0.35) for _ in range(n_out)]
    return np.stack(rows)


def _paired_rates(m, cfg, top_logit, trials, seed):
    sigma_b = matched_baseline_sigma(
        MechanismProfile(cfg.sigma0, cfg.sigma1, cfg.sigma2, cfg.t_hat, cfg.theta)
    )
    a_hits = b_hits = only_a = only_b = 0
    for trial in range(trials):
        points = _soft_clustered(np.random.default_rng(900_000 + trial), m, cfg.k, top_logit)
        consensus = int(np.argmax(points.mean(axis=0)))
        out, _ = adaptive_aggregate(points, cfg, NoiseStreams.from_seed(seed, "a", trial))
        base = baseline_aggregate(points, sigma_b, substream(seed, "b", trial))
        a = int(np.argmax(out)) == consensus
        b = int(np.argmax(base)) == consensus
        a_hits += a
        b_hits += b
        only_a += a and not b
        only_b += b and not a
    return a_hits / trials, b_hits / trials, only_a, only_b


def test_utility_dominance():
    t0 = perf_counter()
    trials = 500
    settings = {
        10: dict(sigma1=0.4, t_hat=2, lam=0.25, top_logit=2.2),
        40: dict(sigma1=0.8, t_hat=2, lam=0.35, top_logit=1.6),
    }
    details = []
    for m, params in settings.items():
        cfg = AggregationConfig(
            m=m, k=100, lam=params["lam"], t_hat=params["t_hat"],
            sigma0=10.0, sigma1=params["sigma1"], sigma2=3.0,
        )
        rate_a, rate_b, only_a, only_b = _paired_rates(
            m, cfg, params["top_logit"], trials, seed=7_000 + m
        )
        # one-sided 95% on the paired discordant counts
        slack = 1.645 * math.sqrt(max(only_a + only_b, 1))
        assert only_a >= only_b - slack, (m, rate_a, rate_b, only_a, only_b)
        assert rate_a >= rate_b, (m, rate_a, rate_b)
        details.append(f"M={m}: adaptive {rate_a:.3f} vs baseline {rate_b:.3f}")

    # noiseless: both rates exactly 1
    for m in (10, 40):
        cfg = AggregationConfig(m=m, k=100, lam=0.25, t_hat=2, sigma0=0.0, sigma1=0.0, sigma2=0.0)
        for trial in range(25):
            points = _soft_clustered(np.random.default_rng(4_000 + trial), m, 100, 2.2)
            consensus = int(np.argmax(points.mean(axis=0)))
            out, _ = adaptive_aggregate(points, cfg, NoiseStreams.from_seed(trial))
            base = baseline_aggregate(points, 0.0, substream(trial, "baseline"))
            assert int(np.argmax(out)) == consensus
            assert int(np.argmax(base)) == consensus

    elapsed = perf_counter() - t0
    report(
        "adaptive aggregation dominates the matched fixed-noise baseline "
        f"(500 paired trials at one-sided 95%); noiseless rates both 1.0",
        elapsed < 300.0,
        "; ".join(details) + f"; {elapsed:.1f}s < 300s",
    )


# --------------------------------------------------------------------------
# criterion 8: cluster-radius measurement on the calibrated provider
# --------------------------------------------------------------------------

def test_cluster_radius_measurement():
    t0 = perf_counter()
    config = RunConfig(
        labels=("alpha", "beta", "gamma", "delta"),
        provider=ProviderSpec(kind="synthetic", seed=11),
        m=40, n=1, k=100, t_max=8,
        sigma0=0.0, sigma1=0.0, sigma2=0.0, seed=101,
    )
    result = measure_cluster_radius(resolve_run(config), runs=5)["oracle"]
    assert 0.07 <= result["mean"] <= 0.13, result["mean"]
    assert result["max"] < SIMPLEX_RADIUS
    elapsed = perf_counter() - t0
    report(
        "measured cluster radius of the calibrated provider is 0.10ish and far below sqrt(2)/2",
        elapsed < 60.0,
        f"mean={result['mean']:.4f}, max={result['max']:.4f}; {elapsed:.1f}s < 60s",
    )


# --------------------------------------------------------------------------
# criterion 9: end-to-end determinism and audit
# --------------------------------------------------------------------------

def test_determinism_and_audit(tmp_path):
    t0 = perf_counter()
    config = RunConfig(
        labels=("World", "Sports", "Business", "Technology"),
        provider=ProviderSpec(kind="synthetic", seed=3, spread=0.29),
        m=10, n=1, k=100, t_max=20, n_shots=4,
        sigma0=10.0, sigma1=0.6, sigma2=3.0, t_hat=2, lam=0.2,
        seed=424242,
    )
    outputs = []
    for tag in ("first", "second"):
        run = resolve_run(config)
        demos, traces = generate_shots(run)
        demo_path = tmp_path / f"{tag}-demos.jsonl"
        trace_path = tmp_path / f"{tag}-traces.jsonl"
        write_outputs(demos, traces, demo_path, trace_path)
        outputs.append((demo_path.read_bytes(), trace_path.read_bytes(), traces))
    assert outputs[0][0] == outputs[1][0], "demo files differ"
    assert outputs[0][1] == outputs[1][1], "trace files differ"
    audit = audit_traces(outputs[0][2], config)
    assert audit["ok"], audit
    assert audit["tokens"] == 4 * 20
    elapsed = perf_counter() - t0
    report(
        "two identical runs produce byte-identical demo/trace files; consumed <= charged",
        elapsed < 60.0,
        f"{audit['consumed']} vs {audit['charged']}; {elapsed:.1f}s < 60s",
    )
