"""Run orchestration: demo generation and privacy reports.

Everything here is driven by a RunConfig and a master seed.  Each noise or
sampling site draws from a named substream of that seed (label draw,
per-token subsample, per-token noise bundle), so outputs and trace files
are byte-stable for a fixed config.  step_streams derives a demo's per-token
streams in one substreams batch; a stream an early stop never reads
consumes no draw, so batching moves no byte.  Nor do threads: a provider
that ``waits_on_network`` gets one per demo, gathered in demo order.
"""

from __future__ import annotations

import dataclasses
import json
import math
import secrets
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .accountant import (
    DEFAULT_ALPHA_GRID,
    RADIUS_SEARCH,
    RELEASES,
    AmplifiedCurve,
    DpBudget,
    MechanismProfile,
    SubsamplingContext,
    best_epsilon,
    calibrate_sigma1,
    per_iteration_coefficient,
)
from .aggregate import (
    AggregationConfig,
    AggregationTrace,
    adaptive_aggregate,
    select_token,
)
from .data import Example, GENERIC_TEMPLATE, PromptTemplate, label_pools, load_dataset
from .providers import NextTokenBatch, ProviderSpec, next_token_generation
from .rng import NoiseStreams, check_seed, substream, substreams


class ConfigurationError(ValueError):
    """The run configuration is inconsistent or incomplete."""


GAMMA_DATASET = "dataset"
GAMMA_LABEL = "label"


@dataclass(frozen=True)
class RunConfig:
    """Complete description of a synthesis run.

    Exactly one of sigma1 / epsilon must be set: a given sigma1 is used
    directly, a given epsilon target triggers calibration (see
    settle_privacy).  With no seed, resolve_run draws a secret one.
    """

    task: str = "task"
    dataset_path: str | None = None
    dataset_format: str | None = None
    labels: tuple[str, ...] = ()
    template_path: str | None = None
    provider: ProviderSpec = field(default_factory=lambda: ProviderSpec(kind="synthetic"))
    m: int = 10
    n: int = 1
    k: int = 100
    t_max: int = 20
    n_shots: int = 4
    lam: float = 0.2
    t_hat: int = 1
    mu: float = AggregationConfig.mu
    rho: float = AggregationConfig.rho
    theta: float = MechanismProfile.theta
    sigma0: float = 10.0
    sigma2: float = 3.0
    sigma1: float | None = None
    epsilon: float | None = None
    delta: float | None = None
    gamma_mode: str = GAMMA_DATASET
    seed: int | None = field(default=None, repr=False)
    demos_path: str = "demos.jsonl"
    traces_path: str = "traces.jsonl"
    stop_tokens: tuple[str, ...] = ()

    def __post_init__(self):
        if min(self.m, self.n, self.k, self.t_max, self.n_shots) < 1:
            raise ConfigurationError("m, n, k, t_max, n_shots must be positive")
        if len(set(self.labels)) < len(self.labels):
            raise ConfigurationError(f"labels must be distinct, got {list(self.labels)}")
        if self.gamma_mode not in (GAMMA_DATASET, GAMMA_LABEL):
            raise ConfigurationError(f"unknown gamma_mode {self.gamma_mode!r}")
        if self.sigma1 is not None and self.epsilon is not None:
            raise ConfigurationError("set either sigma1 or a target epsilon, not both")
        if self.sigma1 is None and self.epsilon is None:
            raise ConfigurationError("one of sigma1 or a target epsilon is required")
        if self.epsilon is not None and not 0.0 < self.epsilon < math.inf:
            raise ConfigurationError(f"epsilon must be a positive finite number, got {self.epsilon}")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ConfigurationError(f"delta must lie in (0, 1), got {self.delta}")
        if self.seed is not None:
            check_seed(self.seed, "seed")
        check_seed(self.provider.seed, "provider_seed")
        self.mechanism(self.sigma1)  # the spec checks the charged fields

    def mechanism(self, sigma1: float | None) -> MechanismProfile:
        """The per-token mechanism the accountant charges (sigma1 None before calibration)."""
        return self._spec(MechanismProfile, sigma1=sigma1)

    def _spec(self, spec_type, **overrides):
        values = {f.name: getattr(self, f.name) for f in dataclasses.fields(spec_type)}
        return spec_type(**{**values, **overrides})


@dataclass(frozen=True)
class TokenTrace:
    """Per-token audit record, serialized alongside the demos.

    The record is flat: the aggregation trace's fields sit next to the
    token's own.
    """

    trace_id: str
    position: int
    label: str
    chosen_token: str
    support_size: int
    fallback_count: int
    aggregation: AggregationTrace

    def to_record(self) -> dict:
        own = {name: value for name, value in vars(self).items() if name != "aggregation"}
        steps = [vars(step).copy() for step in self.aggregation.goodradius_steps]
        return {**own, **vars(self.aggregation), "goodradius_steps": steps}


@dataclass(frozen=True)
class SyntheticDemo:
    label: str
    text: str
    tokens: tuple[str, ...]
    trace_id: str
    stop_rule: str  # "t_max" | "stop_token"

    def to_record(self) -> dict:
        return {**vars(self), "tokens": list(self.tokens), "token_count": len(self.tokens)}


@dataclass
class ResolvedRun:
    """A RunConfig with label pools (label_pools; None without a dataset),
    template, provider, and the checked aggregator spec at the settled
    sigma1 and support size k."""

    config: RunConfig
    pools: dict[str, tuple[Example, ...]] | None
    labels: tuple[str, ...]
    template: PromptTemplate
    provider: object
    aggregation: AggregationConfig


def load_population(config: RunConfig) -> tuple[int | None, dict[str, tuple[Example, ...]] | None, dict[str, int]]:
    """The population a run's subsets are drawn from: the dataset file's row count (the sum
    of its pool sizes), label pools and examples per label, or (None, None, {}) without one."""
    if config.dataset_path is None:
        return None, None, {}
    pools = label_pools(load_dataset(config.dataset_path, config.dataset_format, config.labels or None))
    counts = {label: len(pool) for label, pool in pools.items()}
    return sum(counts.values()), pools, counts


def resolve_run(config: RunConfig, provider=None) -> ResolvedRun:
    """Load data and template, infer labels, settle sigma1 and build the
    aggregator spec, refusing bad lam, mu or rho before any provider call.
    A config without a seed runs at 128 secret bits, which no output holds."""
    if config.seed is None:
        config = dataclasses.replace(config, seed=secrets.randbits(128))
    dataset_size, pools, counts = load_population(config)  # no pools: every prompt is the public one
    if dataset_size is None and not config.labels:
        raise ConfigurationError("labels are required when no dataset file is given")
    labels = config.labels or tuple(sorted(counts))
    needed = config.m * config.n
    short = [f"label {label!r} has {counts.get(label, 0)} examples, need {needed} "
             f"(m={config.m}, n={config.n})" for label in labels if counts.get(label, 0) < needed]
    if pools and short:  # settle_privacy refuses an empty file as such
        raise ConfigurationError("; ".join(short))
    if not labels:
        raise ConfigurationError("the label set is empty")
    if config.n_shots > len(labels):
        raise ConfigurationError(
            f"n_shots={config.n_shots} exceeds the {len(labels)} available labels"
        )
    template = (
        PromptTemplate.from_file(config.template_path)
        if config.template_path
        else GENERIC_TEMPLATE
    )
    if provider is None:
        provider = config.provider.build()
    return ResolvedRun(
        config=config, pools=pools, labels=labels, template=template,
        provider=provider, aggregation=settle_privacy(config, dataset_size, counts)[0],
    )


def settle_privacy(
    config: RunConfig, dataset_size: int | None, label_counts=None
) -> tuple[AggregationConfig, float | None, dict[str, SubsamplingContext]]:
    """(checked aggregator spec, delta, subsampling context of each gamma mode) of a run.

    Each token draws m*n records: from the whole dataset (gamma_mode
    "dataset") or, given label counts, from the smallest label's pool
    ("label").  delta defaults to 1/dataset_size.  Without a dataset
    (dataset_size None) only a given sigma1 is accepted; an epsilon target
    calibrates sigma1 for gamma_mode.  The spec at the settled sigma1 checks lam, mu and rho.
    """
    delta, subsampling = config.delta, {}
    if dataset_size is not None:
        if dataset_size < 1:
            raise ConfigurationError(f"cannot account for a dataset of {dataset_size} rows")
        delta = config.delta if config.delta is not None else 1.0 / dataset_size
        drawn = config.m * config.n
        subsampling[GAMMA_DATASET] = SubsamplingContext(drawn, dataset_size)
        if label_counts:
            subsampling[GAMMA_LABEL] = SubsamplingContext(drawn, min(label_counts.values()))
        if config.gamma_mode not in subsampling:
            raise ConfigurationError("per-label gamma requested but no label counts available")
    elif config.sigma1 is None:
        raise ConfigurationError("an epsilon target needs a dataset file or a dataset size")
    sigma1 = config.sigma1
    if sigma1 is None:
        sigma1 = calibrate_sigma1(
            DpBudget(config.epsilon, delta), config.mechanism(None),
            subsampling[config.gamma_mode], config.t_max,
        )
    return config._spec(AggregationConfig, sigma1=sigma1), delta, subsampling


def step_streams(run: ResolvedRun, prefixes):
    """Yield each token step's (subset-draw stream, NoiseStreams) for the step
    paths in prefixes: ``substream(seed, *prefix, "subsample")`` (None without a
    dataset) and ``NoiseStreams.from_seed(seed, *prefix)``.

    All of them come from one substreams call, made before the first step.
    """
    sites = NoiseStreams.SITES if run.pools is None else ("subsample", *NoiseStreams.SITES)
    streams = iter(substreams(run.config.seed, [(*prefix, site) for prefix in prefixes for site in sites]))
    for _ in prefixes:
        draw = None if run.pools is None else next(streams)
        yield draw, NoiseStreams(**{site: next(streams) for site in NoiseStreams.SITES})


def token_step(
    run: ResolvedRun, label: str, prefix: str, position: int,
    draw: np.random.Generator | None, noise: NoiseStreams,
) -> tuple[NextTokenBatch, str, AggregationTrace]:
    """One token position: draw M subsets, query the model with all M+1
    prompts in one call, restrict to the public top-K, aggregate the M
    vectors adaptively and select the token.

    draw and noise are the step's streams from step_streams.  Returns
    (batch, token, aggregation trace).
    """
    config = run.config
    batch = next_token_generation(
        run.provider, run.pools, label, config.m, config.n, config.k,
        run.template, prefix, draw, position=position,
    )
    spec = run.aggregation
    if len(batch.support) != spec.k:  # a vocabulary smaller than k
        spec = dataclasses.replace(spec, k=len(batch.support))
    vector, trace = adaptive_aggregate(batch.private_vectors, spec, noise)
    return batch, select_token(vector, batch.support), trace


def generate_demo(run: ResolvedRun, label: str, demo_index: int,
                  stop: threading.Event | None = None) -> tuple[SyntheticDemo, list[TokenTrace]] | None:
    """Generate one demonstration token by token, recording a trace per token
    (None, before any further token, once stop is set)."""
    config = run.config
    trace_id = f"demo-{demo_index:04d}"
    prefix = ""
    tokens: list[str] = []
    traces: list[TokenTrace] = []
    stop_rule = "t_max"
    streams = step_streams(run, [("demo", demo_index, "token", position) for position in range(config.t_max)])
    for position, (draw, noise) in enumerate(streams):
        if stop is not None and stop.is_set():
            return None
        batch, token, aggregation = token_step(run, label, prefix, position, draw, noise)
        tokens.append(token)
        prefix += token
        traces.append(
            TokenTrace(
                trace_id=trace_id,
                position=position,
                label=label,
                chosen_token=token,
                support_size=len(batch.support),
                fallback_count=len(batch.fallback_indices),
                aggregation=aggregation,
            )
        )
        if token in config.stop_tokens:
            stop_rule = "stop_token"
            break
    demo = SyntheticDemo(
        label=label, text="".join(tokens), tokens=tuple(tokens),
        trace_id=trace_id, stop_rule=stop_rule,
    )
    return demo, traces


def generate_shots(run: ResolvedRun) -> tuple[list[SyntheticDemo], list[TokenTrace]]:
    """Draw n_shots labels without replacement and generate one demo each,
    in one thread each (overlap_demos) if the provider ``waits_on_network``."""
    config = run.config
    label_rng = substream(config.seed, "labels")
    order = label_rng.choice(len(run.labels), size=config.n_shots, replace=False)
    jobs = [(run.labels[int(label_index)], demo_index) for demo_index, label_index in enumerate(order)]
    if len(jobs) > 1 and getattr(run.provider, "waits_on_network", False):
        results = overlap_demos(run, jobs)
    else:
        results = [generate_demo(run, *job) for job in jobs]
    return [demo for demo, _ in results], [trace for _, demo_traces in results for trace in demo_traces]


def overlap_demos(run: ResolvedRun, jobs) -> list[tuple[SyntheticDemo, list[TokenTrace]]]:
    """generate_demo for each (label, demo_index) job, in a thread of its own.
    A failure in a demo, or in the waiting thread (Ctrl-C too), stops every
    demo before its next token; the first failed demo's error is raised."""
    from concurrent.futures import ThreadPoolExecutor  # costs ms cold: pool path only

    stop = threading.Event()

    def demo(job):
        try:
            return generate_demo(run, *job, stop)
        except BaseException:
            stop.set()
            raise

    with ThreadPoolExecutor(len(jobs)) as pool:
        try:
            return list(pool.map(demo, jobs))  # a stopped demo (None) implies a failed one, which raises
        finally:
            stop.set()


def write_outputs(demos, traces, demos_path, traces_path) -> None:
    """Write demo and trace JSONL files (deterministic byte-for-byte)."""
    for path, records in (
        (demos_path, (d.to_record() for d in demos)),
        (traces_path, (t.to_record() for t in traces)),
    ):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def audit_traces(traces, config: RunConfig) -> dict:
    """Compare the draws each token's trace records (Release.drawn) against
    its charge at the config's t_hat and theta (Release.count).

    Every token must stay within its charge, and its radius search must run
    all of its iterations.
    """
    used = {release: [release.drawn(t.aggregation) for t in traces] for release in RELEASES}
    counts = {release: release.count(config) for release in RELEASES}
    ok = all(n <= counts[release] for release, ns in used.items() for n in ns)
    return {
        "tokens": len(traces),
        "consumed": {release.trace_name: sum(ns) for release, ns in used.items()},
        "charged": {release.trace_name: len(traces) * count for release, count in counts.items()},
        "ok": ok and all(n == counts[RADIUS_SEARCH] for n in used[RADIUS_SEARCH]),
    }


def report_privacy(config: RunConfig, dataset_size: int, label_counts=None) -> dict:
    """Privacy report: epsilon (or calibrated sigma1) of the spec settle_privacy
    returns, with the tau of each release of RELEASES under its Release.part.

    Both gamma interpretations are reported when label counts are available;
    the per-label number uses the smallest label count (largest gamma).  An
    informational full-run epsilon composes n_shots * t_max positions.
    """
    spec, delta, subsampling = settle_privacy(config, dataset_size, label_counts)
    report: dict = {
        "task": config.task,
        "delta": delta,
        "gamma_mode": config.gamma_mode,
        "t_max": config.t_max,
        "n_shots": config.n_shots,
        **{f.name: getattr(spec, f.name) for f in dataclasses.fields(MechanismProfile)},
        "alpha_grid": [DEFAULT_ALPHA_GRID[0], DEFAULT_ALPHA_GRID[-1]],
        "gamma": {mode: ctx.gamma for mode, ctx in subsampling.items()},
    }
    if config.sigma1 is None:
        report["calibration"] = {"target_epsilon": config.epsilon, "gamma_mode": config.gamma_mode}

    coefficient = per_iteration_coefficient(spec)
    parts = {release.part: release.total(spec) for release in RELEASES}
    report["per_token_rdp"] = {
        "coefficient": coefficient,
        **{part.removesuffix("s") + "_coeff": c for part, c in parts.items()},
        "binary_search_iterations": RADIUS_SEARCH.count(spec) // 2,
    }
    parts["per_token_total"] = coefficient

    epsilons = {}
    for mode, ctx in subsampling.items():
        amplified = AmplifiedCurve(coefficient, ctx)
        eps, alpha = best_epsilon(amplified, config.t_max, delta)
        eps_run, alpha_run = best_epsilon(amplified, config.t_max * config.n_shots, delta)
        entry = {
            "epsilon": eps, "best_alpha": alpha, "gamma": ctx.gamma,
            "tau_at_best_alpha": {part: c * alpha for part, c in parts.items()},
            "full_run_epsilon": eps_run, "full_run_best_alpha": alpha_run,
        }
        excluded = [a for a, floor in zip(DEFAULT_ALPHA_GRID, amplified.floors) if floor == math.inf]
        if excluded:
            entry["excluded_alphas"] = excluded
        epsilons[mode] = entry
    report["epsilon"] = epsilons
    return report
