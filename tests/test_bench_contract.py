"""The package names the benchmark under bench/ looks up.

The benchmark imports the package and patches some of its functions by
name, so a rename in src/ can silently turn a traced layer absent or break
a workload.  These checks run the lookups the benchmark makes, without
running it.
"""

import ast
import importlib
import inspect
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dpfewshot import accountant, aggregate, data, pipeline, providers, radius, rng, simplex

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
BENCH_SOURCES = sorted([*BENCH_DIR.glob("*.py"), *BENCH_DIR.glob("tests/*.py")])


@pytest.fixture(scope="module")
def bench():
    """bench/tracer.py and bench/workloads.py, imported as the benchmark imports them."""
    sys.path.insert(0, str(BENCH_DIR))
    try:
        return importlib.import_module("tracer"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH_DIR))


def module_attributes(source: Path):
    """(module, attribute, call node or None) for each `<module>.<name>` in source
    whose module the file imports with `from dpfewshot import ...`."""
    tree = ast.parse(source.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "dpfewshot" for alias in node.names}
    for node in ast.walk(tree):
        func = node.func if isinstance(node, ast.Call) else node
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in imported:
            yield func.value.id, func.attr, node if isinstance(node, ast.Call) else None


def test_every_tracer_target_resolves_to_a_callable(bench):
    tracer, _ = bench
    for layer in tracer.LAYERS:
        for target in layer.targets:
            module, _, attr = target.partition(":")
            obj = importlib.import_module(module)
            for part in attr.split("."):
                obj = getattr(obj, part)
            assert callable(obj), target


def test_workload_class_bodies_build_their_specs(bench):
    _, workloads = bench
    assert isinstance(workloads.SynthM40.base_config, pipeline.RunConfig)
    assert isinstance(workloads.AggregateM40.cfg, aggregate.AggregationConfig)


@pytest.mark.parametrize("source", BENCH_SOURCES, ids=lambda path: path.relative_to(BENCH_DIR).as_posix())
def test_every_module_attribute_and_keyword_exists(source):
    for module, attr, call in module_attributes(source):
        obj = getattr(importlib.import_module(f"dpfewshot.{module}"), attr, None)
        assert obj is not None, f"{module}.{attr}"
        if call is not None:
            try:
                inspect.signature(obj).bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
            except TypeError as err:
                pytest.fail(f"{source.name}:{call.lineno}: {module}.{attr}: {err}")


def test_patched_and_called_names(monkeypatch):
    assert pipeline.next_token_generation is providers.next_token_generation
    assert aggregate.good_radius is radius.good_radius
    assert aggregate.coverage_count is simplex.coverage_count
    assert aggregate.project_to_ball is simplex.project_to_ball
    # the loop calls both through aggregate's names, the lookup the tracer patches
    called = []
    for name in ("coverage_count", "project_to_ball"):
        real = getattr(simplex, name)
        monkeypatch.setattr(aggregate, name, lambda *a, name=name, real=real: called.append(name) or real(*a))
    spec = aggregate.AggregationConfig(m=4, k=3, lam=0.1, t_hat=1, sigma0=0.0, sigma1=0.0, sigma2=0.0)
    _, trace = aggregate.adaptive_aggregate(np.tile([0.2, 0.3, 0.5], (4, 1)), spec, rng.NoiseStreams.from_seed(0))
    assert trace.coverage_checks[0][0] == 4 and len(trace.radius_sequence) == 2  # the first check passed
    assert called == ["coverage_count", "project_to_ball"]
    monkeypatch.undo()
    pool = [data.Example(text=f"item {i}", label=label) for label in ("a", "b") for i in range(4)]
    batch = providers.next_token_generation(
        providers.SyntheticProvider(seed=1), pool, "b", 4, 1, 10, data.GENERIC_TEMPLATE, "",
        np.random.default_rng(0), position=0,
    )
    assert batch.private_vectors.shape == (4, 10)
    assert isinstance(rng.NoiseStreams.from_seed(1, 2), rng.NoiseStreams)
    config = pipeline.RunConfig(task="t", m=1, n=1, t_max=10, t_hat=1, sigma0=10.0, sigma1=1.0, sigma2=3.0, delta=1e-5)
    report = pipeline.report_privacy(config, 1000, {"c0": 500, "c1": 500})
    assert report["epsilon"]["dataset"]["epsilon"] > 0


def test_calibrate_grid_reports_raise_no_aggregator_warning(bench):
    """report_privacy checks the aggregator spec; at either end of each row's
    target spread, calibrate-grid's report must neither warn nor fail."""
    inputs = bench[1].inputs
    for task, eps, s0, s2, _, t_hat, m, n, t_max, train, classes in inputs.REFERENCE_ROWS:
        for target in (eps * math.exp(-inputs.TARGET_SPREAD), eps * math.exp(inputs.TARGET_SPREAD)):
            profile = accountant.MechanismProfile(sigma0=s0, sigma1=None, sigma2=s2, t_hat=t_hat)
            sigma1 = accountant.calibrate_sigma1(
                accountant.DpBudget(target, 1.0 / train), profile, accountant.SubsamplingContext(m * n, train), t_max
            )
            config = pipeline.RunConfig(
                task=task, m=m, n=n, t_max=t_max, t_hat=t_hat, sigma0=s0, sigma1=sigma1, sigma2=s2, delta=1.0 / train,
            )
            counts = {f"class{c}": round(train / classes) for c in range(classes)} if classes else None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pipeline.report_privacy(config, train, counts)
