"""Tests of the benchmark itself: endpoint, tracing wrappers, metric names.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

import hostspeed
import run
import tracer
from dpfewshot import aggregate, pipeline, providers
from workloads import Endpoint

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent


def _post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url + "/v1/completions", data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as resp:
        return json.loads(resp.read())


@pytest.fixture(scope="module")
def endpoint():
    server = Endpoint(seed=5)
    server.wait_ready()
    try:
        yield server
    finally:
        server.stop()


def test_list_prompt_answer_equals_per_prompt_answers(endpoint):
    prompts = [
        "Instruction\n\nNews Type: World\nText: a b\n\nNews Type: World\nText:",
        "Instruction\n\nNews Type: World\nText: c d\n\nNews Type: World\nText:",
        "Instruction\n\nNews Type: Sports\nText: w001",
    ]
    batched = _post(endpoint.url, {"model": "m", "prompt": prompts, "max_tokens": 1, "logprobs": 100})
    assert [c["index"] for c in batched["choices"]] == [0, 1, 2]
    for i, prompt in enumerate(prompts):
        single = _post(endpoint.url, {"model": "m", "prompt": prompt, "max_tokens": 1, "logprobs": 100})
        assert len(single["choices"]) == 1
        assert single["choices"][0]["index"] == 0
        assert single["choices"][0]["logprobs"] == batched["choices"][i]["logprobs"]
        assert len(single["choices"][0]["logprobs"]["top_logprobs"][0]) == 100


def test_endpoint_counts_requests_prompts_and_failures(endpoint):
    endpoint.reset()
    _post(endpoint.url, {"model": "m", "prompt": ["a", "b"], "logprobs": 5})
    _post(endpoint.url, {"model": "m", "prompt": ["a", "b"], "logprobs": 5})
    with pytest.raises(urllib.error.HTTPError):
        _post(endpoint.url, {"model": "m", "prompt": 7})
    stats = endpoint.stats()
    assert (stats["requests"], stats["prompts"], stats["retries"], stats["failures"]) == (3, 4, 1, 1)
    assert stats["inflight_max"] == 1 and stats["busy_s"] > 0


def _generate(tmp_path: Path, name: str) -> bytes:
    config = pipeline.RunConfig(
        labels=("A", "B", "C"), provider=providers.ProviderSpec(kind="synthetic", seed=3),
        m=6, n=1, k=20, t_max=5, n_shots=2, t_hat=2, sigma1=0.6, seed=11,
        demos_path=str(tmp_path / f"{name}-demos.jsonl"),
        traces_path=str(tmp_path / f"{name}-traces.jsonl"),
    )
    demos, traces = pipeline.generate_shots(pipeline.resolve_run(config))
    pipeline.write_outputs(demos, traces, config.demos_path, config.traces_path)
    return Path(config.demos_path).read_bytes() + Path(config.traces_path).read_bytes()


def test_tracing_leaves_outputs_unchanged_and_restores_functions(tmp_path):
    originals = (pipeline.next_token_generation, providers.restrict_topk, aggregate.good_radius)
    untraced = _generate(tmp_path, "untraced")
    spans_tracer = tracer.Tracer()
    with spans_tracer:
        assert pipeline.next_token_generation is not originals[0]
        traced = _generate(tmp_path, "traced")
    assert traced == untraced
    assert (pipeline.next_token_generation, providers.restrict_topk, aggregate.good_radius) == originals
    names = {span.name for span in spans_tracer.spans}
    assert {"providers.call", "rng.substream", "radius.search", "aggregate.adaptive"} <= names
    assert not spans_tracer.absent
    for span in spans_tracer.spans:
        assert span.self_s >= -1e-9
        assert span.parent is None or span.parent.start <= span.start <= span.end <= span.parent.end


def test_missing_function_is_reported_absent():
    layers = tracer.LAYERS + (
        tracer.Layer("gone", ("dpfewshot.providers:no_such_function",), "gone.calls", "gone.self_s"),
        tracer.Layer("gone.method", ("dpfewshot.data:PromptTemplate.no_such_method",), None, "x.self_s"),
    )
    spans_tracer = tracer.Tracer(layers=layers)
    with spans_tracer:
        pass
    assert [layer.span for layer in spans_tracer.absent] == ["gone", "gone.method"]


def test_host_scaling_scales_the_host_part_alone():
    slow = 2 * hostspeed.REFERENCE_S
    assert hostspeed.scale(0.5, 0.3, slow) == pytest.approx(0.2 + 0.15)
    assert hostspeed.scale(0.5, 0.9, hostspeed.REFERENCE_S) == pytest.approx(0.5)
    assert hostspeed.scale_blocks([0.1, 0.2, 0.4], [0.1, 0.2, 0.0], [slow, slow, 1.0], 2) == pytest.approx(
        [0.05, 0.1, 0.4]
    )


def _declared():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        [w["name"] for w in spec["workloads"]],
    )


def test_benchmark_json_declares_what_the_code_prints():
    end_to_end, per_layer, workloads = _declared()
    assert end_to_end == run.END_TO_END
    assert per_layer == run.per_layer_units()
    assert tuple(workloads) == run.WORKLOAD_NAMES


@pytest.mark.parametrize("workload", ["aggregate-m40", "calibrate-grid"])
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    end_to_end, per_layer, _ = _declared()
    expected = per_layer if trace else end_to_end
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_exits_nonzero_without_package_sources(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "synth-m40", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
