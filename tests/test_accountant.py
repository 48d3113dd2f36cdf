import math
import re
import struct
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from dpfewshot import accountant
from dpfewshot.accountant import (
    COVERAGE_CHECK,
    DEFAULT_ALPHA_GRID,
    MEAN_ESTIMATE,
    RADIUS_SEARCH,
    RELEASES,
    AmplificationOverflowError,
    AmplifiedCurve,
    DpBudget,
    MechanismProfile,
    SubsamplingContext,
    UnachievableBudgetError,
    best_epsilon,
    binary_search_iterations,
    calibrate_sigma1,
    matched_baseline_sigma,
    per_iteration_coefficient,
    rdp_to_dp,
    subsample_amplify,
)
from dpfewshot.aggregate import BREAK_MAX_ITERS, AggregationConfig, adaptive_aggregate
from dpfewshot.rng import NoiseStreams
from helpers import gaussian_rdp, oracle_amplified, oracle_best_epsilon, oracle_terms, oracle_visited_orders
from test_acceptance import REFERENCE_ROWS

PROFILE = MechanismProfile(sigma0=10.0, sigma1=1.0, sigma2=3.0, t_hat=1, theta=0.1)


def reference_amplified(coeff, gamma, alpha):
    """Straight-line transcription of the without-replacement bound in
    extended precision (no log-space tricks) for tau(alpha) = coeff * alpha."""
    one = np.longdouble(1.0)
    g = np.longdouble(gamma)
    t2 = np.longdouble(coeff * 2)
    pair = min(4 * (np.exp(t2) - one), 2 * np.exp(t2))
    total = one + g**2 * math.comb(alpha, 2) * pair
    for j in range(3, alpha + 1):
        total += g**j * math.comb(alpha, j) * np.exp((j - 1) * np.longdouble(coeff * j)) * 2
    return float(np.log(total) / (alpha - 1))


class TestBinarySearchIterations:
    def test_default_tolerance_gives_three(self):
        assert binary_search_iterations(0.1) == 3

    def test_matches_doubling_loop(self):
        for theta in np.linspace(0.011, 0.7, 200):
            k = 0
            width = math.sqrt(2) / 2
            while width > theta:
                width /= 2
                k += 1
            assert binary_search_iterations(theta) == k, theta


class TestGaussianRdp:
    def test_unit_example(self):
        assert gaussian_rdp(1.0, 1.0, 2.0) == 1.0

    def test_radius_cancels(self):
        # sensitivity 2R with noise std 2R*sigma gives a cost independent of R
        for r in (0.01, 0.5, 5.0):
            assert gaussian_rdp(2 * r, 2 * r * 0.7, 8) == pytest.approx(8 / (2 * 0.49))

    def test_plug_in(self):
        assert gaussian_rdp(2.0, 20.0, 32) == pytest.approx(0.16)

    def test_linear_in_alpha_inverse_quadratic_in_std(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            sens, std, alpha = rng.uniform(0.1, 3), rng.uniform(0.1, 3), rng.uniform(1.1, 50)
            base = gaussian_rdp(sens, std, alpha)
            assert gaussian_rdp(sens, std, 2 * alpha) == pytest.approx(2 * base, rel=1e-12)
            assert gaussian_rdp(sens, 2 * std, alpha) == pytest.approx(base / 4, rel=1e-12)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            gaussian_rdp(1.0, 1.0, 1.0)


class TestReleases:
    def test_each_release_is_its_gaussian_mechanism(self):
        # a radius-search draw adds 2*sigma0 to a count of sensitivity 2, a
        # mean estimate 2*R*sigma1 to a sum of sensitivity 2R (R = 0.3 here),
        # a coverage check sigma2 to a count of sensitivity 1
        profile = MechanismProfile(sigma0=10.0, sigma1=0.6, sigma2=3.0, t_hat=2, theta=0.1)
        alpha = 7
        expected = {  # count, radius, sensitivity at that radius, noise std; in the audit line's order
            MEAN_ESTIMATE: (3, 0.3, 0.6, 0.6 * 0.6),
            COVERAGE_CHECK: (2, 1.0, 1.0, 3.0),
            RADIUS_SEARCH: (6, 1.0, 2.0, 20.0),
        }
        assert RELEASES == tuple(expected)
        assert [r.trace_name for r in RELEASES] == ["mean_estimates", "coverage_checks", "goodradius_draws"]
        assert [r.part for r in RELEASES] == ["mean_estimates", "coverage_checks", "radius_search"]
        for release, (count, r, sensitivity, std) in expected.items():
            assert release.count(profile) == count
            assert release.sensitivity * r == pytest.approx(sensitivity, rel=1e-15)
            assert release.noise_std(getattr(profile, release.multiplier_field), r) == pytest.approx(std, rel=1e-15)
            one_release = gaussian_rdp(sensitivity, std, alpha)
            assert release.coefficient(profile) * alpha == pytest.approx(one_release, rel=1e-12)
            assert release.total(profile) == pytest.approx(count * release.coefficient(profile), rel=1e-12)

    def test_noise_std_forms_sensitivity_times_radius_first(self):
        # the draw sites' bits: (2 R) sigma, exact for the unit radius and the sensitivity 1
        rng = np.random.default_rng(11)
        for _ in range(200):
            sigma, r = rng.uniform(0.01, 20), rng.uniform(0.001, 1)
            assert RADIUS_SEARCH.noise_std(sigma) == 2.0 * sigma
            assert MEAN_ESTIMATE.noise_std(sigma, r) == 2.0 * r * sigma
            assert COVERAGE_CHECK.noise_std(sigma) == sigma

    def test_every_release_is_charged(self):
        # the coefficient's sum is hand-ordered, so the published epsilons keep
        # their last bit; it must still charge every release of the table
        rng = np.random.default_rng(34)
        profiles = [PROFILE] + [
            MechanismProfile(*10.0 ** rng.uniform(-2, 2, size=3), int(rng.integers(1, 9)), rng.uniform(0.01, 0.7))
            for _ in range(200)
        ]
        for profile in profiles:
            total = math.fsum(release.total(profile) for release in accountant.RELEASES)
            assert per_iteration_coefficient(profile) == pytest.approx(total, rel=1e-15), profile

    def test_each_release_reads_its_draws_from_a_trace(self):
        # a noiseless run that keeps every check passing draws each release's full count
        cfg = AggregationConfig(m=6, k=3, lam=0.2, t_hat=2, theta=0.1, sigma0=0.0, sigma1=0.0, sigma2=0.0)
        _, trace = adaptive_aggregate(np.tile([0.2, 0.3, 0.5], (6, 1)), cfg, NoiseStreams.from_seed(0))
        assert trace.break_reason == BREAK_MAX_ITERS
        drawn = {r.trace_name: r.drawn(trace) for r in RELEASES}
        assert drawn == {"mean_estimates": 3, "coverage_checks": 2, "goodradius_draws": 6}
        assert drawn == {r.trace_name: r.count(cfg) for r in RELEASES}

    def test_uncalibrated_sigma1_still_counts(self):
        profile = MechanismProfile(sigma0=10.0, sigma1=None, sigma2=3.0, t_hat=1)
        assert {r.trace_name: r.count(profile) for r in RELEASES} == {
            "goodradius_draws": 6, "mean_estimates": 2, "coverage_checks": 1,
        }

    @pytest.mark.parametrize("sigma", [None, 0.0, 1e-200, 1e200])
    def test_unpriceable_multiplier_counts_but_is_refused_when_priced(self, sigma):
        profile = MechanismProfile(sigma0=10.0, sigma1=sigma, sigma2=3.0, t_hat=2)
        assert MEAN_ESTIMATE.count(profile) == 3
        for price in (MEAN_ESTIMATE.coefficient, MEAN_ESTIMATE.total):
            with pytest.raises(ValueError, match=re.escape(f"positive, finite square, got {sigma}")):
                price(profile)


class TestPerIterationRdp:
    def test_worked_example(self):
        # tau0 = 2*3/100, two mean estimates at 2/2 each, one check at 2/18
        tau = per_iteration_coefficient(PROFILE) * 2.0
        assert tau == pytest.approx(0.06 + 2.0 + 2.0 / 18.0, rel=1e-12)

    def test_large_sigma1_leaves_radius_and_check_costs(self):
        profile = MechanismProfile(sigma0=10.0, sigma1=1e9, sigma2=3.0, t_hat=1, theta=0.1)
        tau0 = 2 * 3 / 100
        tau2 = 2 / 18
        assert per_iteration_coefficient(profile) * 2.0 == pytest.approx(tau0 + tau2, abs=1e-12)

    def test_zero_inner_iterations_rejected(self):
        with pytest.raises(ValueError, match="t_hat must be positive"):
            MechanismProfile(sigma0=10.0, sigma1=1.0, sigma2=3.0, t_hat=0, theta=0.1)

    def test_matches_component_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            profile = MechanismProfile(
                sigma0=rng.uniform(1, 20),
                sigma1=rng.uniform(0.1, 5),
                sigma2=rng.uniform(1, 10),
                t_hat=int(rng.integers(1, 4)),
                theta=rng.uniform(0.02, 0.6),
            )
            alpha = rng.uniform(1.5, 64)
            expected = (
                gaussian_rdp(2.0, 2.0 * profile.sigma0, alpha) * 2 * binary_search_iterations(profile.theta)
                + (profile.t_hat + 1) * gaussian_rdp(1.0, profile.sigma1, alpha)
                + profile.t_hat * gaussian_rdp(1.0, profile.sigma2, alpha)
            )
            assert per_iteration_coefficient(profile) * alpha == pytest.approx(expected, rel=1e-12)


class TestRdpToDp:
    def test_worked_example(self):
        assert rdp_to_dp(10, 1.0, 1e-5) == pytest.approx(1.918010, abs=1e-6)

    def test_vanishes_for_huge_order(self):
        assert rdp_to_dp(1e9, 0.0, 1e-6) == pytest.approx(0.0, abs=1e-6)

    def test_rejects_delta_one(self):
        with pytest.raises(ValueError):
            rdp_to_dp(10, 1.0, 1.0)

    def test_matches_independent_rederivation(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            alpha = rng.uniform(1.01, 128)
            tau = rng.uniform(0, 20)
            delta = 10.0 ** rng.uniform(-12, -0.05)
            # separately coded arithmetic path
            expected = tau + math.log1p(-1.0 / alpha) - math.log(delta * alpha) / (alpha - 1)
            assert rdp_to_dp(alpha, tau, delta) == pytest.approx(expected, rel=1e-12)


class TestSubsampleAmplify:
    def test_gamma_one_alpha_two_instantiation(self):
        ctx = SubsamplingContext(10, 10)
        for t in (0.02, 0.4, 2.0):
            got = subsample_amplify(t / 2, ctx, 2)
            expected = math.log(1 + min(4 * (math.e**t - 1), 2 * math.e**t))
            assert got == pytest.approx(expected, rel=1e-12)
            assert got >= 0.0

    def test_vanishes_as_gamma_shrinks(self):
        values = [
            subsample_amplify(0.05, SubsamplingContext(1, n), 8)
            for n in (10, 1000, 10**6, 10**9)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-14

    def test_rejects_non_integer_order(self):
        with pytest.raises(ValueError):
            subsample_amplify(0.1, SubsamplingContext(1, 100), 2.5)
        with pytest.raises(ValueError):
            subsample_amplify(0.1, SubsamplingContext(1, 100), 1)

    def test_matches_transcription_oracle(self):
        for gamma in (1e-4, 1e-3, 0.01, 0.05):
            ctx = SubsamplingContext(1, round(1 / gamma))
            for c in (1e-3, 0.03, 0.3):
                for alpha in (2, 3, 5, 16, 64):
                    got = subsample_amplify(c, ctx, alpha)
                    want = reference_amplified(c, ctx.gamma, alpha)
                    assert got == pytest.approx(want, rel=1e-10), (gamma, c, alpha)

    def test_monotone_in_gamma(self):
        for alpha in (2, 7, 33, 64):
            values = [
                subsample_amplify(0.2, SubsamplingContext(m, 10**6), alpha)
                for m in (1, 10, 100, 5000, 50000, 10**6)
            ]
            assert values == sorted(values)

    def test_amplified_below_unamplified_in_operating_regime(self):
        # Holds for gamma <= 0.05 once the per-token coefficient is at least
        # ~0.01 (real profiles sit in 0.17..3.1); for much flatter curves the
        # bound's constant-2 tail can exceed the unamplified value.
        for c in (0.01, 0.05, 0.17, 0.5, 1.0, 3.0):
            for gamma_inv in (20, 100, 10**4):
                ctx = SubsamplingContext(1, gamma_inv)
                for alpha in (2, 8, 32, 64):
                    assert subsample_amplify(c, ctx, alpha) <= c * alpha + 1e-12

    def test_overflow_is_signaled(self):
        with pytest.raises(AmplificationOverflowError):
            subsample_amplify(5e307, SubsamplingContext(1, 100), 8)

    def test_rejects_order_outside_the_grid(self):
        with pytest.raises(ValueError, match="needs an integer order in 2..64, got 65"):
            subsample_amplify(0.1, SubsamplingContext(1, 100), 65)

    def test_warm_heads_give_the_same_bits(self):
        # A context keeps the coefficient-free heads of the terms it has
        # computed; every later value must equal a fresh context's, so no
        # calibrated sigma1 moves
        profile = MechanismProfile(sigma0=10.0, sigma1=0.9, sigma2=3.0, t_hat=2)
        for m, n in ((1, 7), (4, 120_000), (40, 5_452), (160, 1_000)):
            warm = SubsamplingContext(m, n)
            AmplifiedCurve(per_iteration_coefficient(profile), warm)
            for c in (1e-4, 0.031, 0.17, 3.1, 40.0):
                for alpha in DEFAULT_ALPHA_GRID:
                    try:
                        want = subsample_amplify(c, SubsamplingContext(m, n), alpha)
                    except AmplificationOverflowError:
                        with pytest.raises(AmplificationOverflowError):
                            subsample_amplify(c, warm, alpha)
                        continue
                    assert subsample_amplify(c, warm, alpha) == want, (m, n, c, alpha)
            coeff = per_iteration_coefficient(profile)
            assert AmplifiedCurve(coeff, warm) == AmplifiedCurve(coeff, SubsamplingContext(m, n))


def same_bits(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


def seeded_contexts(count: int, seed: int):
    """(m, n, coeff) over populations of 1..10^7, coefficients from 1e-8 to
    1e3, every tenth one large enough to overflow some or all orders."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(10 ** rng.uniform(0, 7))
        m = int(rng.integers(1, n + 1))
        exponent = rng.uniform(300, 308.25) if i % 10 == 9 else rng.uniform(-8, 3)
        yield m, n, float(np.power(10.0, exponent))


class TestTermArrayOracle:
    """The term array, the lazy curve and calibration against the scalar
    transcription in helpers, bit for bit."""

    def test_rows_match_the_scalar_terms_bitwise(self):
        cases = [*seeded_contexts(1000, 2024), (1, 100, 5e307), (3, 7, 1e308), (1, 1, math.inf)]
        overflowed = set()
        for m, n, coeff in cases:
            ctx = SubsamplingContext(m, n)
            curve = AmplifiedCurve(coeff, ctx)
            for alpha in DEFAULT_ALPHA_GRID:
                want = oracle_terms(coeff, ctx.gamma, alpha)
                got = curve._terms[alpha - 2, :alpha].tolist()
                assert all(map(same_bits, got, want)), (m, n, coeff, alpha)
            assert dict(curve.items()) == oracle_amplified(coeff, ctx.gamma, DEFAULT_ALPHA_GRID), (m, n, coeff)
            overflowed.add(len(curve))
        assert {0, 1} <= overflowed and len(DEFAULT_ALPHA_GRID) in overflowed

    def test_all_overflow_leaves_no_order(self):
        curve = AmplifiedCurve(1e308, SubsamplingContext(1, 100))
        assert len(curve) == 0 and 2 not in curve
        with pytest.raises(AmplificationOverflowError, match="no order of the grid"):
            best_epsilon(curve, 1, 1e-5)

    def test_floors_bound_values_and_membership_evaluates_nothing(self):
        for m, n, coeff in seeded_contexts(200, 7):
            curve = AmplifiedCurve(coeff, SubsamplingContext(m, n))
            excluded = [a for a in DEFAULT_ALPHA_GRID if a not in curve]
            assert curve._values == {}
            assert excluded == [a for a, floor in zip(DEFAULT_ALPHA_GRID, curve.floors) if floor == math.inf]
            for alpha in curve:
                assert 0.0 <= curve.floors[alpha - 2] <= curve[alpha]
            with pytest.raises(KeyError):
                curve[excluded[0] if excluded else 65]

    def test_best_epsilon_matches_an_exhaustive_scan(self):
        for i, (m, n, coeff) in enumerate(seeded_contexts(300, 99)):
            ctx = SubsamplingContext(m, n)
            curve = AmplifiedCurve(coeff, ctx)
            scanned = oracle_amplified(coeff, ctx.gamma, DEFAULT_ALPHA_GRID)
            delta = (1e-9, 1e-5, 1.0 / (n + 1), 0.5)[i % 4]
            for t_max in (1, 2, 7, 20, 100, 400):
                want = oracle_best_epsilon(scanned, t_max, delta)
                if want is None:
                    with pytest.raises(AmplificationOverflowError):
                        best_epsilon(curve, t_max, delta)
                    continue
                assert best_epsilon(curve, t_max, delta) == want, (m, n, coeff, t_max, delta)
                assert best_epsilon(scanned, t_max, delta) == want

    def test_exact_values_are_evaluated_where_a_scalar_ranking_visits(self):
        # pins the pruning (visiting more orders is a silent slowdown) and
        # the ties of the array pass against the scalar ranking it replaced
        for m, n, coeff in seeded_contexts(300, 99):
            ctx = SubsamplingContext(m, n)
            amplified = oracle_amplified(coeff, ctx.gamma, DEFAULT_ALPHA_GRID)
            floors = {alpha: max(oracle_terms(coeff, ctx.gamma, alpha)) / (alpha - 1) for alpha in amplified}
            for delta in (1e-9, 1e-5, 1.0 / (n + 1), 0.5):
                for t_max in (1, 2, 7, 20, 100, 400):
                    curve = AmplifiedCurve(coeff, ctx)
                    try:
                        best_epsilon(curve, t_max, delta)
                    except AmplificationOverflowError:
                        pass
                    visited = oracle_visited_orders(floors, amplified, t_max, delta)
                    assert set(curve._values) == visited, (m, n, coeff, t_max, delta)

    def test_array_conversion_is_rdp_to_dp_to_the_bit(self):
        # on the whole grid, and on rows gathered as a plain mapping's are
        reversed_rows = list(range(len(DEFAULT_ALPHA_GRID)))[::-1]
        for delta in (1e-12, 1e-9, 1e-5, 1.0 / 5_453, 0.5, 0.999):
            for tau in (0.0, 5e-324, 1.0, 1e300):
                taus = np.full(len(DEFAULT_ALPHA_GRID), tau)
                for t_max in (1, 7, 400):
                    want = [rdp_to_dp(alpha, t_max * tau, delta) for alpha in DEFAULT_ALPHA_GRID]
                    got = accountant._to_dp(taus, t_max, delta, slice(None)).tolist()
                    assert all(map(same_bits, got, want)), (delta, tau, t_max)
                    got = accountant._to_dp(taus, t_max, delta, reversed_rows).tolist()
                    assert all(map(same_bits, got, want[::-1])), (delta, tau, t_max)

    def test_tied_orders_go_to_the_first(self):
        # two orders whose epsilons are equal to the bit, in either order,
        # beside a worse one
        delta = 1e-5
        eps = rdp_to_dp(3, 0.5, delta)
        tau = eps - math.log(4 / 5) + (math.log(delta) + math.log(5)) / 4
        for _ in range(64):
            if rdp_to_dp(5, tau, delta) == eps:
                break
            tau = math.nextafter(tau, math.inf if rdp_to_dp(5, tau, delta) < eps else -math.inf)
        assert rdp_to_dp(5, tau, delta) == eps
        for amplified in ({3: 0.5, 5: tau, 9: 6.0}, {5: tau, 3: 0.5, 9: 6.0}, {9: 6.0, 5: tau, 3: 0.5}):
            assert best_epsilon(amplified, 1, delta) == oracle_best_epsilon(amplified, 1, delta)
            assert best_epsilon(amplified, 1, delta)[1] == next(a for a in amplified if a != 9)
        # a tied order whose floor equals its value is still visited after a
        # tied one with a lower floor, and wins as the first
        floored = FlooredMapping({3: 0.5, 5: tau})
        floored.floors = {3: 0.5, 5: 0.0}
        assert best_epsilon(floored, 1, delta) == (eps, 3)

    def test_calibration_matches_an_oracle_bisection(self):
        # each published row at its target and at the ends of the spread
        # e^{+-0.3} the calibrate-grid benchmark draws its targets from
        for _, target, s0, s2, _, t_hat, m, n, t_max, train, _ in REFERENCE_ROWS:
            for spread in (0.0, -0.3, 0.3):
                budget = DpBudget(target * math.exp(spread), 1.0 / train)
                profile = MechanismProfile(sigma0=s0, sigma1=None, sigma2=s2, t_hat=t_hat)
                ctx = SubsamplingContext(m * n, train)
                got = calibrate_sigma1(budget, profile, ctx, t_max)
                assert got.hex() == oracle_calibration(budget, profile, ctx.gamma, t_max).hex(), (budget, t_max)


class FlooredMapping(dict):
    """A plain mapping given floors below its values, as an AmplifiedCurve has."""


def oracle_calibration(target: DpBudget, profile: MechanismProfile, gamma: float, t_max: int) -> float:
    """calibrate_sigma1's bisection over the scalar oracle's exhaustive scan."""
    lo, hi = accountant.CALIBRATION_BRACKET

    def eps_at(s1):
        coeff = per_iteration_coefficient(replace(profile, sigma1=s1))
        return oracle_best_epsilon(oracle_amplified(coeff, gamma, DEFAULT_ALPHA_GRID), t_max, target.delta)[0]

    assert eps_at(hi) < target.epsilon < eps_at(lo)
    tol = accountant.CALIBRATION_REL_TOL * target.epsilon
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        eps_mid = eps_at(mid)
        if abs(eps_mid - target.epsilon) <= tol:
            return mid
        if eps_mid > target.epsilon:
            lo = mid
        else:
            hi = mid
    raise AssertionError("the oracle bisection did not converge")


class TestComposeAndTotal:
    def test_refusals_do_not_depend_on_the_curve(self):
        curves = (AmplifiedCurve(1e308, SubsamplingContext(1, 100)), AmplifiedCurve(0.1, SubsamplingContext(1, 100)))
        for amplified in (*curves, {3: 0.2}):
            for delta in (0.0, 1.0, -1e-5, math.nan):
                with pytest.raises(ValueError, match=re.escape(f"delta must lie in (0, 1), got {delta}")):
                    best_epsilon(amplified, 1, delta)
        with pytest.raises(ValueError, match="RDP value must be nonnegative"):
            best_epsilon({2: 0.1, 64: -1e-9}, 1, 1e-5)
        for order in (100, 1, 65, 3.5):
            with pytest.raises(ValueError, match=re.escape(f"needs an integer order in 2..64, got {order}")):
                best_epsilon({order: 0.1, 3: 0.2}, 1, 1e-5)

    def test_single_iteration_is_identity(self):
        assert best_epsilon({8: 0.37}, 1, 1e-5) == (rdp_to_dp(8, 0.37, 1e-5), 8)

    def test_negative_epsilon_reported_as_zero(self):
        # A tiny tau at a delta near 1 converts to a negative epsilon.
        assert rdp_to_dp(2, 1e-6, 0.9) < 0
        assert best_epsilon({2: 1e-6, 3: 1e-6}, 1, 0.9) == (0.0, 2)

    def test_linearity(self):
        eps, _ = best_epsilon({8: 0.002}, 100, 1e-5)
        assert eps == pytest.approx(rdp_to_dp(8, 0.2, 1e-5))

    def test_additivity_of_two_curves(self):
        # Gaussian curves with coefficients 0.2 and 0.5 compose to one with 0.7
        alpha = 6
        first = gaussian_rdp(1.0, math.sqrt(1 / 0.4), alpha)
        second = gaussian_rdp(1.0, 1.0, alpha)
        assert first + second == pytest.approx(0.7 * alpha)

    def test_returned_alpha_achieves_minimum(self):
        ctx = SubsamplingContext(40, 3000)
        eps, best = best_epsilon(AmplifiedCurve(per_iteration_coefficient(PROFILE), ctx), 20, 1e-4)
        for alpha in DEFAULT_ALPHA_GRID:
            coeff = per_iteration_coefficient(PROFILE)
            other = rdp_to_dp(alpha, 20 * subsample_amplify(coeff, ctx, alpha), 1e-4)
            assert eps <= other + 1e-12
            if alpha == best:
                assert eps == pytest.approx(other, rel=1e-12)

    def test_monotonicities(self):
        ctx = SubsamplingContext(20, 100000)

        def eps(sigma1=0.6, t_max=100, t_hat=1, n=100000):
            profile = MechanismProfile(10.0, sigma1, 3.0, t_hat, 0.1)
            amplified = AmplifiedCurve(per_iteration_coefficient(profile), SubsamplingContext(20, n))
            return best_epsilon(amplified, t_max, 1e-5)[0]

        assert eps(sigma1=0.4) > eps(sigma1=0.6) > eps(sigma1=1.0) > eps(sigma1=2.0)
        assert eps(t_max=25) < eps(t_max=100) < eps(t_max=400)
        assert eps(t_hat=1) < eps(t_hat=2) < eps(t_hat=4)
        assert eps(n=10**6) < eps(n=10**5) < eps(n=10**4)


class TestCalibration:
    def test_round_trip(self):
        ctx = SubsamplingContext(20, 120000)
        base = MechanismProfile(sigma0=10.0, sigma1=None, sigma2=3.0, t_hat=1, theta=0.1)
        for target in (1.0, 2.0, 4.0, 8.0):
            budget = DpBudget(target, 1 / 120000)
            sigma1 = calibrate_sigma1(budget, base, ctx, 100)
            profile = MechanismProfile(10.0, sigma1, 3.0, 1, 0.1)
            eps, _ = best_epsilon(AmplifiedCurve(per_iteration_coefficient(profile), ctx), 100, budget.delta)
            assert eps == pytest.approx(target, rel=1e-4)

    def test_larger_target_needs_less_noise(self):
        ctx = SubsamplingContext(40, 3000)
        base = MechanismProfile(sigma0=10.0, sigma1=None, sigma2=5.0, t_hat=2, theta=0.1)
        sigmas = [
            calibrate_sigma1(DpBudget(eps, 1e-4), base, ctx, 20) for eps in (1.0, 2.0, 4.0, 8.0)
        ]
        assert sigmas == sorted(sigmas, reverse=True)
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))

    def test_head_array_is_built_once_per_context_and_never_shared(self, monkeypatch):
        built = []
        build = SubsamplingContext.heads.func

        def counting(ctx):
            built.append(ctx)
            return build(ctx)

        heads = cached_property(counting)
        heads.__set_name__(SubsamplingContext, "heads")
        monkeypatch.setattr(SubsamplingContext, "heads", heads)
        base = MechanismProfile(sigma0=10.0, sigma1=None, sigma2=3.0, t_hat=1, theta=0.1)
        contexts = [SubsamplingContext(20, 120000) for _ in range(2)]
        for ctx in contexts:  # an equal context is a new memo: nothing is shared
            calibrate_sigma1(DpBudget(4.0, 1e-5), base, ctx, 100)
        assert built == contexts and built[0] is not built[1]
        assert contexts[0].heads is not contexts[1].heads

    def test_unachievable_budget_names_bracket(self):
        ctx = SubsamplingContext(20, 10000)
        base = MechanismProfile(sigma0=10.0, sigma1=None, sigma2=3.0, t_hat=1, theta=0.1)
        with pytest.raises(UnachievableBudgetError) as err:
            calibrate_sigma1(DpBudget(1e12, 1e-5), base, ctx, 10)
        message = str(err.value)
        assert "sigma1=0.001" in message and "sigma1=1000" in message


class TestMatchedBaseline:
    def test_matches_per_token_curve(self):
        sigma = matched_baseline_sigma(PROFILE)
        coeff = per_iteration_coefficient(PROFILE)
        for alpha in (2.0, 8.0, 64.0):
            assert gaussian_rdp(1.0, sigma, alpha) == pytest.approx(coeff * alpha, rel=1e-12)


class TestValidation:
    def test_profile_rejects_bad_values(self):
        with pytest.raises(ValueError):
            per_iteration_coefficient(MechanismProfile(0.0, 1.0, 1.0, 1))
        with pytest.raises(ValueError):
            per_iteration_coefficient(MechanismProfile(1.0, None, 1.0, 1))
        with pytest.raises(ValueError):
            MechanismProfile(1.0, -1.0, 1.0, 1)
        with pytest.raises(ValueError):
            MechanismProfile(1.0, 1.0, 1.0, -1)
        with pytest.raises(ValueError):
            MechanismProfile(1.0, 1.0, 1.0, 1, theta=0.9)

    @pytest.mark.parametrize("field", ["sigma0", "sigma1", "sigma2"])
    def test_profile_rejects_infinite_multiplier(self, field):
        values = dict(sigma0=1.0, sigma1=1.0, sigma2=1.0)
        with pytest.raises(ValueError, match="^noise multipliers must be nonnegative"):
            MechanismProfile(**{**values, field: math.inf}, t_hat=1)
        with pytest.raises(ValueError, match="^noise multipliers must be nonnegative"):
            AggregationConfig(**{**values, field: math.inf}, t_hat=1, m=4, k=3, lam=0.0)

    def test_context_rejects_oversized_draw(self):
        with pytest.raises(ValueError):
            SubsamplingContext(11, 10)

    def test_budget_bounds(self):
        with pytest.raises(ValueError):
            DpBudget(0.0, 1e-5)
        with pytest.raises(ValueError):
            DpBudget(1.0, 1.0)

    def test_context_gamma_exact(self):
        assert SubsamplingContext(20, 120000).gamma == 20 / 120000
