"""dpfewshot benchmark.

    python3 bench/run.py --workload synth-m40 --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Builds the workload's inputs from --seed, sets up, then runs commands for
--seconds (and until at least MIN_OPS operations are done).  With --trace 0
it prints the end-to-end metrics, with times given at a reference host speed
(see hostspeed.py) and, on an ``unscaled:`` line, as measured; set-up is
repeated every SETUP_INTERVAL seconds.  With --trace 1 it first runs command 0
untraced, then traces the commands outside-in (see tracer.py) and prints the
per-layer metrics.  Outputs are checked against the references stored in
refs/ for the seeds that have them, and against invariants for every seed.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Exits 2 without a result when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("synth-m40", "http-m10", "aggregate-m40", "calibrate-grid")

#: Enough latency samples that p90 has at least twenty beyond it.
MIN_OPS = 200

#: Seconds between the set-up samples taken during a run.
SETUP_INTERVAL = 2.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in print order."""
    from tracer import LAYERS

    units = {}
    for layer in LAYERS:
        if layer.calls_metric:
            units[layer.calls_metric] = "count"
        units[layer.self_metric] = "s"
    units.update({
        "providers.call.ms_p50": "ms",
        "providers.call.ms_p90": "ms",
        "providers.requests_per_token": "1/token",
        "providers.retries": "count",
        "providers.failed": "count",
        "providers.client_overhead_s": "s",
        "endpoint.requests": "count",
        "endpoint.prompts_per_request": "1/request",
        "endpoint.inflight_max": "count",
        "endpoint.busy_s": "s",
        "aggregate.mean_estimates_per_call": "1/call",
        "aggregate.checks_per_call": "1/call",
        "aggregate.shrink_ratio": "ratio",
        "aggregate.break.max_iters": "count",
        "aggregate.break.coverage_failed": "count",
        "aggregate.break.radius_floor": "count",
        "aggregate.radius_ratio": "ratio",
        "pipeline.write.bytes": "bytes",
        "bench.self_s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.attributed_ratio": "ratio",
        "check.ref_ops": "count",
    })
    return units


def percentile(samples, q: int) -> float:
    """The q-th percentile (1..99) of samples, exclusive method."""
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100)[q - 1]


def load_references(name: str, seed: int):
    path = BENCH_DIR / "refs" / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["seeds"].get(str(seed))


def split_reference(reference, width: int | None):
    """Stored commands are strings of fixed-width per-op codes or lists."""
    if isinstance(reference, str):
        return [reference[i:i + width] for i in range(0, len(reference), width)]
    return reference


class Checker:
    """Compares each command's outputs with the stored reference, if any."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.references = load_references(workload.name, seed)
        self.compared = 0
        self.matched = 0
        self.errors: list[str] = []

    def check(self, index: int, result) -> None:
        self.workload.verify(result)
        self.errors.extend(f"command {index}: {e}" for e in result.errors)
        if self.references is None or index >= len(self.references) or not result.outputs:
            return
        width = len(result.outputs[0]) if isinstance(result.outputs[0], str) else None
        expected = split_reference(self.references[index], width)
        for ref, out in zip(expected, result.outputs):
            self.compared += 1
            self.matched += self.workload.output_matches(ref, out)
        self.compared += abs(len(expected) - len(result.outputs))

    @property
    def output_match(self) -> float | None:
        return self.matched / self.compared if self.compared else None

    def summary(self, attempted: int, failed: int) -> list[str]:
        if self.references is None:
            match = "output_match n/a (no stored reference for this seed; invariants checked)"
        else:
            match = f"output_match {self.output_match if self.compared else 'n/a'} " \
                    f"({self.matched} of {self.compared} ops equal to the stored reference)"
        lines = [match, f"fail_ratio {failed / max(attempted, 1):.6g} ({failed} of {attempted} ops)"]
        lines.append("checks ok" if not self.errors else f"checks FAILED: {self.errors[:5]}")
        return lines

    def correct(self, failed: int) -> bool:
        return not self.errors and failed == 0 and (self.output_match in (None, 1.0))


def run_commands(workload, checker, seconds: float, before=None, after=None):
    """Commands 0, 1, ... until `seconds` pass and MIN_OPS are done."""
    results = []
    start = perf_counter()
    while True:
        index = len(results)
        if before:
            before(index)
        result = workload.command(index)
        if after:
            after(index, result)
        checker.check(index, result)
        results.append(result)
        if perf_counter() - start >= seconds and sum(r.ops for r in results) >= MIN_OPS:
            return results
        if result.ops == 0 and perf_counter() - start >= seconds:
            return results


def untraced_metrics(workload, setup_samples, results) -> tuple[dict[str, float], dict[str, float]]:
    """End-to-end metrics at the reference host speed, and the same times
    as measured (see hostspeed.py)."""
    setup_samples = setup_samples + [r.resolve for r in results if r.resolve is not None]
    timed = [r for r in results if r.probe_s]
    op_s = [s for r in timed for s in r.op_s]
    raw = {
        "setup_s": statistics.median(wall for wall, _, _ in setup_samples),
        "run_s": statistics.median(r.wall_s for r in timed) if timed else 0.0,
        **latency_metrics(op_s),
    }
    scaled_op_s = hostspeed.scale_blocks(
        op_s, [c for r in timed for c in r.op_host_s], [p for r in timed for p in r.probe_s], workload.block_ops
    )
    metrics = {
        "setup_s": statistics.median(hostspeed.scale(*sample) for sample in setup_samples),
        "run_s": statistics.median(
            hostspeed.scale(r.wall_s, r.host_s, statistics.median(r.probe_s)) for r in timed
        ) if timed else 0.0,
        **latency_metrics(scaled_op_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, raw


def latency_metrics(op_s: list[float]) -> dict[str, float]:
    return {
        "ops_per_s": len(op_s) / sum(op_s) if sum(op_s) > 0 else 0.0,
        "op_ms_p50": 1e3 * statistics.median(op_s) if op_s else 0.0,
        "op_ms_p90": 1e3 * percentile(op_s, 90) if op_s else 0.0,
    }


def traced_metrics(workload, checker, seconds, spans_path):
    """Untraced command 0, then traced commands; returns (metrics, absent, results)."""
    from tracer import COMMAND_SPAN, LAYERS, Tracer, summarize

    baseline = workload.command(0)
    checker.check(0, baseline)
    endpoint = workload.endpoint
    stats0 = {}
    tracer = Tracer()
    command_spans = []

    def before(index):
        tracer.run_id = index
        if endpoint is not None and index == 0:
            endpoint.reset()
        command_spans.append(tracer.open(COMMAND_SPAN))

    def after(index, result):
        tracer.close(command_spans[-1])
        if endpoint is not None and index == 0:
            stats0.update(endpoint.stats())

    with tracer:
        results = run_commands(workload, checker, seconds, before=before, after=after)
    busy_s = endpoint.stats()["busy_s"] if endpoint is not None else 0.0
    commands = len(results)
    layers = summarize(tracer.spans, commands)
    write_spans(tracer.spans, spans_path)

    metrics: dict[str, float] = {}
    absent = tracer.absent
    for layer in LAYERS:
        if layer in absent:
            continue
        entry = layers.get(layer.span, {"calls0": 0, "self_s": 0.0})
        if layer.calls_metric:
            metrics[layer.calls_metric] = entry["calls0"]
        metrics[layer.self_metric] = entry["self_s"]

    first = results[0]
    calls = [1e3 * d for d in layers.get("providers.call", {}).get("durations", [])]
    requests = stats0.get("requests", 0)
    metrics.update({
        "providers.call.ms_p50": statistics.median(calls) if calls else 0.0,
        "providers.call.ms_p90": percentile(calls, 90) if calls else 0.0,
        "providers.requests_per_token": requests / first.ops if first.ops else 0.0,
        "providers.retries": stats0.get("retries", 0),
        "providers.failed": stats0.get("failures", 0),
        "providers.client_overhead_s": metrics.get("providers.call.self_s", 0.0) - busy_s / commands,
        "endpoint.requests": requests,
        "endpoint.prompts_per_request": stats0.get("prompts", 0) / requests if requests else 0.0,
        "endpoint.inflight_max": stats0.get("inflight_max", 0),
        "endpoint.busy_s": busy_s / commands,
        "pipeline.write.bytes": first.bytes_written,
        "bench.self_s": layers.get(COMMAND_SPAN, {"self_s": 0.0})["self_s"],
    })
    if "aggregate.adaptive" not in {layer.span for layer in absent}:
        metrics.update(aggregation_guards(
            [s for s in tracer.spans if s.run_id == 0 and s.name == "aggregate.adaptive"]
        ))
    untraced_rate = baseline.ops / baseline.work_s if baseline.work_s > 0 else 0.0
    traced_rate = first.ops / first.work_s if first.work_s > 0 else 0.0
    metrics["trace.overhead_ratio"] = traced_rate / untraced_rate if untraced_rate else 0.0
    layer_s = sum(s.self_s for s in tracer.spans if s.run_id == 0 and s.name != COMMAND_SPAN)
    metrics["trace.attributed_ratio"] = layer_s / baseline.wall_s if baseline.wall_s else 0.0
    if baseline.digest != first.digest:
        checker.errors.append("traced and untraced runs of command 0 wrote different outputs")
    return metrics, absent, [baseline] + results


def aggregation_guards(spans) -> dict[str, float]:
    """Loop statistics of the adaptive aggregator in the first traced command."""
    traces = [s.result[1] for s in spans if isinstance(s.result, tuple) and len(s.result) == 2]
    calls = len(traces)
    checks = sum(len(t.coverage_checks) for t in traces)
    updates = sum(len(t.radius_sequence) - 1 for t in traces)
    breaks = {}
    for t in traces:
        breaks[t.break_reason] = breaks.get(t.break_reason, 0) + 1
    from dpfewshot.simplex import SIMPLEX_RADIUS

    return {
        "aggregate.mean_estimates_per_call": sum(t.mean_estimates for t in traces) / calls if calls else 0.0,
        "aggregate.checks_per_call": checks / calls if calls else 0.0,
        "aggregate.shrink_ratio": updates / checks if checks else 0.0,
        "aggregate.break.max_iters": breaks.get("max_iters", 0),
        "aggregate.break.coverage_failed": breaks.get("coverage_failed", 0),
        "aggregate.break.radius_floor": breaks.get("radius_floor", 0),
        "aggregate.radius_ratio": (
            sum(t.radius_sequence[-1] for t in traces) / calls / SIMPLEX_RADIUS if calls else 0.0
        ),
    }


def write_spans(spans, path: Path) -> None:
    """Spans of the first traced command as JSON lines (name, start, end, parent, run)."""
    index = {}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            if span.run_id != 0:
                continue
            index[id(span)] = len(index)
            parent = index.get(id(span.parent)) if span.parent is not None else None
            fh.write(json.dumps([span.name, span.start, span.end, parent, span.run_id]) + "\n")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    workdir = BENCH_DIR / ".work" / f"{name}-{os.getpid()}"
    workload = WORKLOADS[name](seed, workdir)
    checker = Checker(workload, seed)
    try:
        if trace:
            workload.setup()
            metrics, absent, results = traced_metrics(
                workload, checker, seconds, BENCH_DIR / "out" / f"spans-{name}-{seed}.jsonl"
            )
            metrics["check.ref_ops"] = checker.compared
            units = per_layer_units()
            if absent:
                print(f"absent layers: {', '.join(layer.span for layer in absent)}")
            samples = None
        else:
            workload.probe = hostspeed.probe
            setup_samples = workload.setup()
            next_sample = perf_counter() + SETUP_INTERVAL

            def resample(index):
                # Set-up samples spread over the run, outside the commands' clocks.
                nonlocal next_sample
                if perf_counter() >= next_sample:
                    setup_samples.extend(workload.setup_sample())
                    next_sample = perf_counter() + SETUP_INTERVAL

            results = run_commands(workload, checker, seconds, before=resample)
            metrics, raw = untraced_metrics(workload, setup_samples, results)
            units = END_TO_END
            samples = sum(len(r.op_s) for r in results)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    for line in checker.summary(attempted, failed):
        print(line)
    if not trace:
        print("unscaled: " + ", ".join(f"{key} {value:.6g}" for key, value in raw.items()))
    for key, value in metrics.items():
        note = f"  (n={samples})" if samples and key.startswith("op_ms") else ""
        print(f"{key:40s} {value:14.6g} {units[key]}{note}")
    return {
        "correct": checker.correct(failed),
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, then one table."""
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(f"== {name}\n{proc.stdout}")
        if proc.returncode != 0:
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(rows, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dpfewshot benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its endpoint and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    src = REPO_ROOT / "src"
    if not (src / "dpfewshot" / "__init__.py").is_file():
        print(f"error: package sources not found at {src / 'dpfewshot'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
