import dataclasses
import json
import math
import threading
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from dpfewshot import pipeline, providers
from dpfewshot.pipeline import (
    ConfigurationError,
    RunConfig,
    audit_traces,
    generate_demo,
    generate_shots,
    report_privacy,
    resolve_run,
    write_outputs,
)
from dpfewshot.accountant import (
    COVERAGE_CHECK,
    MEAN_ESTIMATE,
    RADIUS_SEARCH,
    RELEASES,
    DpBudget,
    SubsamplingContext,
    binary_search_iterations,
    calibrate_sigma1,
)
from dpfewshot.aggregate import (
    BREAK_COVERAGE_FAILED,
    BREAK_MAX_ITERS,
    BREAK_RADIUS_FLOOR,
    AggregationConfig,
    adaptive_aggregate,
    select_token,
)
from dpfewshot.data import PromptTemplate, load_dataset, partition_subsets
from dpfewshot.providers import ProviderSpec, SyntheticProvider
from dpfewshot.rng import NoiseStreams, substream

LABELS = ("World", "Sports", "Business", "Technology")


def noiseless_config(**overrides):
    params = dict(
        labels=LABELS,
        provider=ProviderSpec(kind="synthetic", seed=5, vocab_size=30, spread=0.0),
        m=4, n=1, k=8, t_max=5, n_shots=2,
        sigma0=0.0, sigma1=0.0, sigma2=0.0, seed=21,
    )
    params.update(overrides)
    return RunConfig(**params)


def golden_argmax_path(provider: SyntheticProvider, label: str, t_max: int) -> list[str]:
    """Expected token path: the center-distribution argmax at each position."""
    return [
        provider.vocab[int(np.argmax(provider.center_logits(label, position)))]
        for position in range(t_max)
    ]


class TestGenerateDemo:
    def test_single_token_demo(self):
        run = resolve_run(noiseless_config(t_max=1))
        demo, traces = generate_demo(run, "World", 0)
        assert len(demo.tokens) == 1
        assert len(traces) == 1
        assert demo.text == demo.tokens[0]

    def test_golden_sequence_with_zero_spread(self):
        config = noiseless_config(t_max=6)
        run = resolve_run(config)
        expected = golden_argmax_path(run.provider, "Sports", 6)
        demo, _ = generate_demo(run, "Sports", 0)
        assert list(demo.tokens) == expected
        assert demo.stop_rule == "t_max"

    def test_stop_token_ends_generation(self):
        config = noiseless_config(t_max=6)
        probe = resolve_run(config)
        third = golden_argmax_path(probe.provider, "World", 6)[2]
        run = resolve_run(noiseless_config(t_max=6, stop_tokens=(third,)))
        demo, traces = generate_demo(run, "World", 0)
        assert len(demo.tokens) == 3
        assert demo.tokens[-1] == third
        assert demo.stop_rule == "stop_token"
        assert len(traces) == 3

    def test_traces_reference_demo(self):
        run = resolve_run(noiseless_config())
        demo, traces = generate_demo(run, "World", 3)
        assert demo.trace_id == "demo-0003"
        assert all(t.trace_id == demo.trace_id for t in traces)
        assert [t.position for t in traces] == list(range(len(demo.tokens)))

    @pytest.mark.parametrize("vocab_size", [30, 5])
    def test_aggregates_at_the_support_size(self, monkeypatch, vocab_size):
        # a full support reuses the resolved spec; a vocabulary smaller than
        # k aggregates at k = the support size
        provider = ProviderSpec(kind="synthetic", seed=5, vocab_size=vocab_size, spread=0.0)
        run = resolve_run(noiseless_config(provider=provider, sigma1=0.4, t_max=3))
        specs, aggregate = [], pipeline.adaptive_aggregate
        monkeypatch.setattr(pipeline, "adaptive_aggregate", lambda p, spec, s: specs.append(spec) or aggregate(p, spec, s))
        _, traces = generate_demo(run, "World", 0)
        assert len(specs) == len(traces) == 3
        assert {t.support_size for t in traces} == {min(vocab_size, run.aggregation.k)}
        for spec in specs:
            if vocab_size >= run.aggregation.k:
                assert spec is run.aggregation
            else:
                assert spec == dataclasses.replace(run.aggregation, k=vocab_size)


class TestGenerateShots:
    def test_exhausts_labels_without_replacement(self):
        run = resolve_run(noiseless_config(n_shots=4, t_max=1))
        demos, _ = generate_shots(run)
        assert sorted(d.label for d in demos) == sorted(LABELS)

    def test_too_many_shots_rejected(self):
        with pytest.raises(ConfigurationError, match="n_shots=5"):
            resolve_run(noiseless_config(n_shots=5))

    def test_single_shot_label_is_uniform(self):
        # chi-square over 1000 seeded draws, 4 cells: reject only below p=0.01
        counts = {label: 0 for label in LABELS}
        for seed in range(1000):
            run = resolve_run(noiseless_config(n_shots=1, t_max=1, m=2, k=3, seed=seed))
            demos, _ = generate_shots(run)
            counts[demos[0].label] += 1
        expected = 1000 / len(LABELS)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 11.345, counts  # chi2_{0.99, df=3}

    def test_demo_indices_follow_draw_order(self):
        run = resolve_run(noiseless_config(n_shots=3, t_max=1))
        demos, _ = generate_shots(run)
        assert [d.trace_id for d in demos] == ["demo-0000", "demo-0001", "demo-0002"]

    def test_synthetic_provider_runs_in_the_calling_thread(self, monkeypatch):
        callers, started = [], []
        call = SyntheticProvider.next_token_distribution
        monkeypatch.setattr(SyntheticProvider, "next_token_distribution", lambda self, *args, **kw: (
            callers.append(threading.current_thread()) or call(self, *args, **kw)
        ))
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
        demos, _ = generate_shots(resolve_run(noiseless_config(n_shots=4, t_max=2)))
        assert len(demos) == 4
        assert callers == [threading.current_thread()] * 8
        assert started == []


class TestWithoutDataset:
    """A run without a dataset has no private records: it draws no subsets
    and sends the public prompt, rendered once, as all M+1 prompts."""

    def test_resolves_without_pools(self):
        assert resolve_run(RunConfig(labels=("a", "b"), n_shots=1, sigma1=0.6)).pools is None

    def test_draws_no_subsets(self, monkeypatch):
        draws = []
        draw = providers.partition_subsets
        monkeypatch.setattr(providers, "partition_subsets", lambda *a: draws.append(a) or draw(*a))
        _, traces = generate_shots(resolve_run(noiseless_config()))
        assert len(traces) == 10
        assert draws == []

    def test_renders_once_per_token(self, monkeypatch):
        renders = []
        render = PromptTemplate.render
        monkeypatch.setattr(PromptTemplate, "render", lambda self, *a: renders.append(a) or render(self, *a))
        _, traces = generate_shots(resolve_run(noiseless_config()))
        assert len(renders) == len(traces) == 10
        assert [subset for subset, *_ in renders] == [[]] * len(traces)

    def test_derives_no_subset_draw_stream(self, monkeypatch, tmp_path):
        paths = []
        derive, derive_batch = pipeline.substream, pipeline.substreams
        monkeypatch.setattr(pipeline, "substream", lambda seed, *path: paths.append(path) or derive(seed, *path))
        monkeypatch.setattr(pipeline, "substreams", lambda seed, batch: paths.extend(batch) or derive_batch(seed, batch))
        generate_shots(resolve_run(noiseless_config()))
        assert [path for path in paths if path[-1] == "subsample"] == []
        data = tmp_path / "d.jsonl"
        data.write_text("".join(json.dumps({"text": f"x{i}", "label": l}) + "\n" for l in LABELS for i in range(8)))
        _, traces = generate_shots(resolve_run(noiseless_config(labels=(), dataset_path=str(data))))
        assert len([path for path in paths if path[-1] == "subsample"]) == len(traces)


def write_dataset(path, per_label=8):
    path.write_text("".join(
        json.dumps({"text": f"x{i}", "label": label}) + "\n" for label in LABELS for i in range(per_label)
    ))
    return str(path)


class TestStepStreams:
    """A demo's streams come from one substreams batch, equal to per-token derivation."""

    @pytest.mark.parametrize("with_dataset", [False, True])
    def test_batch_equals_per_token_derivation(self, tmp_path, monkeypatch, with_dataset):
        overrides = dict(sigma1=0.4, sigma0=2.0, sigma2=1.0, t_max=6, n_shots=4)
        if with_dataset:
            overrides.update(labels=(), dataset_path=write_dataset(tmp_path / "d.jsonl"))
        config = noiseless_config(**overrides)
        first, _ = generate_shots(resolve_run(config))
        config = dataclasses.replace(config, stop_tokens=(first[0].tokens[1],))  # ends demo 0 early
        run = resolve_run(config)
        batches, draws, derived = [], [], []
        step, draw, derive = pipeline.next_token_generation, providers.partition_subsets, pipeline.substreams
        monkeypatch.setattr(pipeline, "next_token_generation", lambda *a, **kw: batches.append(step(*a, **kw)) or batches[-1])
        monkeypatch.setattr(providers, "partition_subsets", lambda *a: draws.append((a, draw(*a))) or draws[-1][1])
        monkeypatch.setattr(pipeline, "substreams", lambda seed, paths: derived.append(paths) or derive(seed, paths))
        demos, traces = generate_shots(run)
        monkeypatch.undo()
        assert demos[0].stop_rule == "stop_token" and len(demos[0].tokens) < config.t_max
        assert len(derived) == config.n_shots  # one batch per demo
        assert len(batches) == len(traces)
        assert len(draws) == (len(traces) if with_dataset else 0)
        for trace, batch in zip(traces, batches):
            path = ("demo", int(trace.trace_id.removeprefix("demo-")), "token", trace.position)
            vector, again = adaptive_aggregate(
                batch.private_vectors, dataclasses.replace(run.aggregation, k=len(batch.support)),
                NoiseStreams.from_seed(config.seed, *path),
            )
            assert again == trace.aggregation
            assert select_token(vector, batch.support) == trace.chosen_token
        for trace, ((pools, label, m, n, _), subsets) in zip(traces, draws):
            path = ("demo", int(trace.trace_id.removeprefix("demo-")), "token", trace.position, "subsample")
            assert subsets == partition_subsets(pools, label, m, n, substream(config.seed, *path))

    @pytest.mark.parametrize("pools", [None, {}])
    def test_long_step_list_is_one_batch_equal_to_per_step_derivation(self, monkeypatch, pools):
        run = dataclasses.replace(resolve_run(noiseless_config()), pools=pools)
        prefixes = [("demo", 0, "token", position) for position in range(300)]
        derived, derive = [], pipeline.substreams
        monkeypatch.setattr(pipeline, "substreams", lambda seed, paths: derived.append(paths) or derive(seed, paths))
        streams = list(pipeline.step_streams(run, prefixes))
        assert len(derived) == 1
        assert len(streams) == len(prefixes)
        for (draw, noise), prefix in zip(streams, prefixes):
            if pools is None:
                assert draw is None
            else:
                assert draw.bit_generator.state == substream(run.config.seed, *prefix, "subsample").bit_generator.state
            want = NoiseStreams.from_seed(run.config.seed, *prefix)
            for site in NoiseStreams.SITES:
                assert getattr(noise, site).bit_generator.state == getattr(want, site).bit_generator.state


class TestOutputsAndAudit:
    def test_round_trip_and_determinism(self, tmp_path):
        config = noiseless_config(sigma1=0.4, sigma0=2.0, sigma2=1.0)
        paths = [
            (tmp_path / f"demos{i}.jsonl", tmp_path / f"traces{i}.jsonl") for i in (1, 2)
        ]
        for demo_path, trace_path in paths:
            run = resolve_run(config)
            demos, traces = generate_shots(run)
            write_outputs(demos, traces, demo_path, trace_path)
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()
        fresh, _ = generate_shots(resolve_run(config))
        loaded = [json.loads(line) for line in paths[0][0].read_text().splitlines()]
        assert loaded == [demo.to_record() for demo in fresh]

    def test_audit_consumed_within_charged(self):
        config = noiseless_config(sigma1=0.4, sigma0=2.0, sigma2=1.0, t_max=4, n_shots=3)
        run = resolve_run(config)
        _, traces = generate_shots(run)
        audit = audit_traces(traces, config)
        assert audit["ok"]
        assert audit["consumed"]["mean_estimates"] <= audit["charged"]["mean_estimates"]
        assert audit["consumed"]["coverage_checks"] <= audit["charged"]["coverage_checks"]
        assert audit["consumed"]["goodradius_draws"] == audit["charged"]["goodradius_draws"]

    def test_audit_of_a_zero_noise_replay_lists_the_charged_counts(self):
        config = noiseless_config(t_max=3)
        _, traces = generate_shots(resolve_run(config))
        per_token = {
            "goodradius_draws": 2 * binary_search_iterations(config.theta),
            "mean_estimates": config.t_hat + 1,
            "coverage_checks": config.t_hat,
        }
        audit = audit_traces(traces, config)
        assert audit["ok"]
        assert audit["charged"] == {name: len(traces) * count for name, count in per_token.items()}

    @pytest.mark.parametrize("reason, points, overrides", [
        (BREAK_MAX_ITERS, np.tile([0.1, 0.6, 0.3], (12, 1)), {}),
        (BREAK_COVERAGE_FAILED, np.eye(4), {"mu": 1.0}),
        (BREAK_RADIUS_FLOOR, np.tile([0.1, 0.6, 0.3], (12, 1)), {"sigma1": 0.1, "lam": 50.0}),
    ])
    def test_audit_of_a_forced_break_stays_within_the_charge(self, reason, points, overrides):
        m, k = points.shape
        params = {**dict(m=m, k=k, lam=0.2, t_hat=3, sigma0=0.0, sigma1=0.0, sigma2=0.0), **overrides}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the radius-floor margin is pathological on purpose
            cfg = AggregationConfig(**params)
        _, trace = adaptive_aggregate(points, cfg, NoiseStreams.from_seed(0))
        assert trace.break_reason == reason
        config = RunConfig(labels=("a",), t_hat=cfg.t_hat, theta=cfg.theta, sigma1=cfg.sigma1)
        audit = audit_traces([SimpleNamespace(aggregation=trace)], config)
        assert audit["ok"]
        for release in RELEASES:
            count = release.count(config.mechanism(None))
            assert audit["charged"][release.trace_name] == count
            assert audit["consumed"][release.trace_name] <= count
        draws = RADIUS_SEARCH.trace_name
        assert audit["consumed"][draws] == audit["charged"][draws]

    def test_every_release_is_audited_and_reported(self):
        config = noiseless_config(sigma1=0.6, sigma0=10.0, sigma2=3.0, t_max=2)
        _, traces = generate_shots(resolve_run(config))
        audit = audit_traces(traces, config)
        names = {release.trace_name for release in RELEASES}
        assert set(audit["consumed"]) == set(audit["charged"]) == names
        part_of = {
            RADIUS_SEARCH: "radius_search_coeff",
            MEAN_ESTIMATE: "mean_estimate_coeff",
            COVERAGE_CHECK: "coverage_check_coeff",
        }
        assert set(part_of) == set(RELEASES)
        parts = report_privacy(config, dataset_size=120000)["per_token_rdp"]
        for release, part in part_of.items():
            assert parts[part] == release.total(config.mechanism(0.6))

    @pytest.mark.parametrize("field, value", [("lam", -1.0), ("mu", 0.0), ("rho", 1.5)])
    def test_bad_aggregator_field_is_refused_before_any_provider_call(self, field, value):
        calls = []

        class CountingProvider(SyntheticProvider):
            def next_token_distribution(self, *args, **kwargs):
                calls.append(args)
                return super().next_token_distribution(*args, **kwargs)

        config = RunConfig(labels=("a", "b"), n_shots=1, sigma1=0.5, **{field: value})
        with pytest.raises(ValueError):
            generate_shots(resolve_run(config, provider=CountingProvider(seed=0, vocab_size=200)))
        assert calls == []

    def test_trace_records_are_json_serializable(self):
        run = resolve_run(noiseless_config(sigma1=0.4))
        _, traces = generate_shots(run)
        for trace in traces:
            parsed = json.loads(json.dumps(trace.to_record()))
            assert parsed["break_reason"] in ("max_iters", "coverage_failed", "radius_floor")

    def test_records_equal_the_flattened_asdict(self):
        demos, traces = generate_shots(resolve_run(noiseless_config(sigma1=0.4, sigma0=10.0)))
        assert any(trace.aggregation.goodradius_steps for trace in traces)
        for trace in traces:
            want = dataclasses.asdict(trace)
            want.update(want.pop("aggregation"))
            assert trace.to_record() == want
        for demo in demos:
            want = {**dataclasses.asdict(demo), "tokens": list(demo.tokens), "token_count": len(demo.tokens)}
            assert demo.to_record() == want


#: Every key of a written trace record; an element of coverage_checks is
#: [raw, noisy], so its two entries are keyed by their index.
TRACE_KEYS = {
    # public: fixed by the config, the label draw and the public row 0
    "public": {"trace_id", "position", "label", "support_size"},
    # a release's noisy value, or post-processing of released values and public ones
    "released": {
        "chosen_token", "target_radius", "radius_sequence", "coverage_checks[1]", "break_reason",
        "degenerate_simplex_events", "mean_estimates", "goodradius_steps.midpoint",
        "goodradius_steps.noisy_half", "goodradius_steps.noisy_mid", "goodradius_steps.branch",
    },
    # computed from the private vectors without noise
    "unnoised": {"coverage_checks[0]", "fallback_count"},
}


def test_every_trace_field_is_classified(tmp_path):
    config = noiseless_config(sigma1=0.4, sigma0=10.0, sigma2=1.0, t_hat=2)
    traces_path = tmp_path / "traces.jsonl"
    write_outputs(*generate_shots(resolve_run(config)), tmp_path / "demos.jsonl", traces_path)
    keys = set()
    for line in traces_path.read_text().splitlines():
        for key, value in json.loads(line).items():
            if key == "coverage_checks":
                keys.update(f"{key}[{i}]" for check in value for i in range(len(check)))
            elif key == "goodradius_steps":
                keys.update(f"{key}.{name}" for step in value for name in step)
            else:
                keys.add(key)
    public, released, unnoised = TRACE_KEYS.values()
    assert not (public & released or public & unnoised or released & unnoised)
    assert keys == public | released | unnoised
    assert unnoised == {"coverage_checks[0]", "fallback_count"}


class TestReportPrivacy:
    def test_sigma1_passthrough(self):
        config = noiseless_config(sigma1=0.6, sigma0=10.0, sigma2=3.0, t_max=20)
        report = report_privacy(config, dataset_size=50000, label_counts={l: 12500 for l in LABELS})
        assert report["sigma1"] == 0.6
        entry = report["epsilon"]["dataset"]
        assert entry["epsilon"] > 0
        assert 2 <= entry["best_alpha"] <= 64
        assert report["epsilon"]["label"]["gamma"] == pytest.approx(4 / 12500)
        assert entry["full_run_epsilon"] >= entry["epsilon"]

    def test_epsilon_target_calibrates_and_round_trips(self):
        config = noiseless_config(sigma1=None, epsilon=4.0, sigma0=10.0, sigma2=3.0, t_max=20)
        report = report_privacy(config, dataset_size=50000)
        sigma1 = report["sigma1"]
        assert sigma1 > 0
        assert report["epsilon"]["dataset"]["epsilon"] == pytest.approx(4.0, rel=1e-3)
        assert report["calibration"]["target_epsilon"] == 4.0

    def test_both_noise_sources_rejected(self):
        with pytest.raises(ConfigurationError, match="not both"):
            noiseless_config(sigma1=0.5, epsilon=1.0)

    def test_neither_noise_source_rejected(self):
        with pytest.raises(ConfigurationError, match="^one of sigma1 or a target epsilon is required$"):
            noiseless_config(sigma1=None)

    def test_overflowed_orders_are_listed(self):
        # (j - 1) * j / (2 sigma1^2) * (t_hat + 1) passes the double range
        # from order 41 on at this sigma1
        config = noiseless_config(sigma1=3e-153, sigma0=10.0, sigma2=3.0, m=10)
        report = report_privacy(config, dataset_size=120000, label_counts={l: 30000 for l in LABELS})
        for mode in ("dataset", "label"):
            entry = report["epsilon"][mode]
            assert entry["excluded_alphas"] == list(range(41, 65))
            assert entry["best_alpha"] == 2

    def test_theta_at_simplex_radius_skips_the_search(self):
        config = noiseless_config(sigma1=0.6, sigma0=10.0, sigma2=3.0, theta=math.sqrt(2) / 2)
        parts = report_privacy(config, dataset_size=120000)["per_token_rdp"]
        assert parts["binary_search_iterations"] == 0
        assert parts["radius_search_coeff"] == 0

    def test_per_token_components_reported(self):
        config = noiseless_config(sigma1=0.58, sigma0=10.0, sigma2=3.0, t_hat=1, t_max=100)
        report = report_privacy(config, dataset_size=120000)
        parts = report["per_token_rdp"]
        assert parts["binary_search_iterations"] == 3
        total = (
            parts["radius_search_coeff"]
            + parts["mean_estimate_coeff"]
            + parts["coverage_check_coeff"]
        )
        assert parts["coefficient"] == pytest.approx(total)


class TestResolveRun:
    def test_dataset_labels_inferred(self, tmp_path):
        path = tmp_path / "d.jsonl"
        rows = [{"text": f"x{i}", "label": l} for l in ("a", "b") for i in range(4)]
        path.write_text("\n".join(json.dumps(r) for r in rows))
        config = noiseless_config(labels=(), dataset_path=str(path), m=2, n=2, n_shots=2)
        run = resolve_run(config)
        assert run.labels == ("a", "b")

    def test_missing_labels_without_dataset(self):
        with pytest.raises(ConfigurationError, match="labels"):
            resolve_run(noiseless_config(labels=()))

    def test_epsilon_target_needs_a_dataset(self):
        config = RunConfig(labels=("a", "b", "c", "d"), n_shots=1, epsilon=4.0)
        with pytest.raises(ConfigurationError, match="needs a dataset"):
            resolve_run(config)

    def test_calibration_uses_dataset_delta(self, tmp_path):
        path = tmp_path / "d.jsonl"
        rows = [{"text": f"x{i}", "label": l} for l in LABELS for i in range(8)]
        path.write_text("\n".join(json.dumps(r) for r in rows))
        config = noiseless_config(
            sigma1=None, epsilon=8.0, sigma0=10.0, sigma2=3.0,
            dataset_path=str(path), m=2, n=2, t_max=3,
        )
        run = resolve_run(config)
        assert report_privacy(config, 32)["delta"] == 1 / 32
        assert run.aggregation.sigma1 == calibrate_sigma1(
            DpBudget(8.0, 1 / 32), config.mechanism(None), SubsamplingContext(4, 32), 3
        )

    @pytest.mark.parametrize("gamma_mode", ["dataset", "label"])
    def test_agrees_with_report_privacy(self, tmp_path, gamma_mode):
        path = tmp_path / "d.jsonl"
        rows = [
            {"text": f"x{i}", "label": label}
            for label, count in zip(LABELS, (40, 25, 30, 60))
            for i in range(count)
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows))
        config = noiseless_config(
            sigma1=None, epsilon=6.0, sigma0=10.0, sigma2=3.0, gamma_mode=gamma_mode,
            dataset_path=str(path), m=2, n=2, t_max=3,
        )
        run = resolve_run(config)
        dataset = load_dataset(path)
        report = report_privacy(config, len(dataset), Counter(ex.label for ex in dataset))
        assert report["delta"] == 1 / 155
        drawn_from = {"dataset": 155, "label": 25}[gamma_mode]
        assert run.aggregation.sigma1 == report["sigma1"] == calibrate_sigma1(
            DpBudget(6.0, 1 / 155), config.mechanism(None), SubsamplingContext(4, drawn_from), 3
        )

    def test_a_config_without_a_seed_runs_at_a_secret_one(self, monkeypatch):
        config = noiseless_config(seed=None)
        monkeypatch.setattr(pipeline.secrets, "randbits", lambda bits: 2**bits - 1)
        run = resolve_run(config)
        assert config.seed is None and run.config == dataclasses.replace(config, seed=2**128 - 1)
        assert generate_shots(run) == generate_shots(resolve_run(run.config))

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**64, 2**128 - 1])
    def test_seeds_at_the_range_edges_run(self, seed):
        provider = ProviderSpec(kind="synthetic", seed=seed, vocab_size=30)
        _, traces = generate_shots(resolve_run(noiseless_config(seed=seed, provider=provider, t_max=2)))
        assert len(traces) == 4

    def test_token_steps_never_iterate_the_dataset(self, tmp_path, monkeypatch):
        class CountingList(list):
            iterations = 0

            def __iter__(self):
                CountingList.iterations += 1
                return super().__iter__()

        path = tmp_path / "d.jsonl"
        path.write_text("".join(
            json.dumps({"text": f"x{i}", "label": label}) + "\n" for i in range(40) for label in LABELS
        ))
        dataset = CountingList(load_dataset(path))
        monkeypatch.setattr(pipeline, "load_dataset", lambda *args: dataset)
        run = resolve_run(noiseless_config(labels=(), dataset_path=str(path), m=4, n=2))
        assert CountingList.iterations == 1  # the one grouping into label pools
        assert run.pools == {label: tuple(ex for ex in dataset if ex.label == label) for label in LABELS}
        CountingList.iterations = 0
        _, traces = generate_shots(run)
        assert len(traces) == 10
        assert CountingList.iterations == 0
