"""The four benchmark workloads, driven through the package's public entry points.

Each workload is closed-loop with one sequential caller.  Its timed part is
a sequence of commands; command i uses inputs derived from (seed, i), so no
command repeats another's work and a memo cache cannot pass for a speed-up.

* synth-m40: ``dpfewshot generate`` with the synthetic provider at M=40.
* http-m10: ``dpfewshot generate`` through HttpProvider against the fake
  endpoint (a second process), on a 120,000-row corpus with a target epsilon.
* aggregate-m40: adaptive_aggregate plus baseline_aggregate on pre-built
  M=40 batches (20% outlier subsets).
* calibrate-grid: calibrate_sigma1 then report_privacy for the published
  rows at fresh epsilon targets.

The package is looked up through module attributes at call time (e.g.
``pipeline.resolve_run``) so that the tracer's wrappers apply.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import urllib.request
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from dpfewshot import accountant, aggregate, data, pipeline, providers, rng

import hostspeed
import inputs
from hostspeed import cpu_time

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


@dataclass
class CommandResult:
    """One command: timings, per-op outputs, and failed checks."""

    attempted: int = 0
    ops: int = 0
    op_s: list[float] = field(default_factory=list)
    #: The part of each op's time that runs at the host's speed (its CPU
    #: seconds, for most workloads), and the host probe before the op
    #: (see hostspeed.py).
    op_host_s: list[float] = field(default_factory=list)
    probe_s: list[float] = field(default_factory=list)
    #: Work and wall times and the command's host part exclude the probes.
    work_s: float = 0.0
    wall_s: float = 0.0
    host_s: float = 0.0
    #: The command's own resolve_run, as a set-up sample (wall, cpu, probe).
    resolve: tuple[float, float, float] | None = None
    outputs: list = field(default_factory=list)
    digest: str = ""
    errors: list[str] = field(default_factory=list)
    bytes_written: int = 0

    @property
    def failed(self) -> int:
        return self.attempted - self.ops


class Workload:
    """Set-up once, then commands; subclasses define both."""

    name = ""
    #: Relative tolerance for float outputs compared against references.
    rel_tol = 0.0
    #: Consecutive ops that share one host-speed factor.
    block_ops = 100

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.endpoint: Endpoint | None = None
        #: Replaced by hostspeed.probe in runs that scale their times.
        self.probe = hostspeed.no_probe

    def setup(self) -> list[tuple[float, float, float]]:
        """Build inputs; return set-up samples as (wall, cpu, probe) seconds."""
        raise NotImplementedError

    def setup_sample(self) -> list[tuple[float, float, float]]:
        """Repeat a unit of set-up during the run; return (wall, cpu, probe) samples."""
        return []

    def timed(self, fn) -> tuple[float, float, float]:
        """(wall, cpu) seconds ``fn()`` takes, and the host probe around it."""
        before = hostspeed.setup_probe(self.probe)
        cpu, start = cpu_time(), perf_counter()
        fn()
        wall, cpu = perf_counter() - start, cpu_time() - cpu
        return wall, cpu, (before + hostspeed.setup_probe(self.probe)) / 2

    def command(self, index: int) -> CommandResult:
        """The timed part of command ``index``."""
        raise NotImplementedError

    def verify(self, result: CommandResult) -> None:
        """Fill result.outputs and result.errors (outside the timed part)."""

    def output_matches(self, reference, output) -> bool:
        if self.rel_tol and isinstance(reference, list):
            return len(reference) == len(output) and all(
                math.isclose(r, o, rel_tol=self.rel_tol) for r, o in zip(reference, output)
            )
        return reference == output

    def close(self) -> None:
        if self.endpoint is not None:
            self.endpoint.stop()
            self.endpoint = None


# ---------------------------------------------------------------------------
# generate workloads


@dataclass
class TokenClock:
    """Wall and CPU time at the start and end of each token step, and the
    probe run between steps."""

    starts: list[tuple[float, float]] = field(default_factory=list)
    ends: list[tuple[float, float]] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)

    def latencies(self, end: tuple[float, float]) -> tuple[list[float], list[float]]:
        """Per-token wall and CPU seconds, given the (wall, cpu) after the last."""
        spans = list(zip(self.starts, self.ends[1:] + [end]))
        return [b[0] - a[0] for a, b in spans], [b[1] - a[1] for a, b in spans]

    def overhead(self) -> float:
        return sum(b[0] - a[0] for a, b in zip(self.ends, self.starts))


@contextmanager
def token_clock(probe):
    """A TokenClock fed where generate_demo looks up next_token_generation.
    Yields None when that lookup no longer exists."""
    original = getattr(pipeline, "next_token_generation", None)
    if original is None:
        yield None
        return
    clock = TokenClock()

    def ticking(*args, **kwargs):
        clock.ends.append((perf_counter(), cpu_time()))
        clock.probes.append(probe())
        clock.starts.append((perf_counter(), cpu_time()))
        return original(*args, **kwargs)

    pipeline.next_token_generation = ticking
    try:
        yield clock
    finally:
        pipeline.next_token_generation = original


class GenerateWorkload(Workload):
    """RunConfig -> resolve_run -> generate_shots -> write_outputs, per command."""

    base_config: pipeline.RunConfig
    setup_repeats = 3

    def config_for(self, index: int) -> pipeline.RunConfig:
        cfg = self.base_config
        return dataclasses.replace(
            cfg,
            seed=inputs.derive(self.name, self.seed, index, "run"),
            provider=dataclasses.replace(cfg.provider, seed=inputs.derive(self.name, self.seed, index, "provider")),
            demos_path=str(self.workdir / "demos.jsonl"),
            traces_path=str(self.workdir / "traces.jsonl"),
        )

    def _resolve_samples(self, repeats: int) -> list[tuple[float, float, float]]:
        config = self.config_for(0)
        return [self.timed(lambda: pipeline.resolve_run(config)) for _ in range(repeats)]

    def command(self, index: int) -> CommandResult:
        config = self.config_for(index)
        planned = config.t_max * config.n_shots
        result = CommandResult(attempted=planned)
        probe = hostspeed.setup_probe(self.probe)
        c0, t0 = cpu_time(), perf_counter()
        run = pipeline.resolve_run(config)
        t1, c1 = perf_counter(), cpu_time()
        result.resolve = (t1 - t0, c1 - c0, probe)
        try:
            with token_clock(self.probe) as clock:
                demos, traces = pipeline.generate_shots(run)
        except providers.ProviderError as err:
            end = perf_counter()
            done = max(0, len(clock.starts if clock else []) - 1)
            result.errors.append(f"command {index}: provider error after {done} tokens: {err}")
            result.work_s, result.wall_s = end - t1, end - t0
            return result
        t2, c2 = perf_counter(), cpu_time()
        pipeline.write_outputs(demos, traces, config.demos_path, config.traces_path)
        t3, c3 = perf_counter(), cpu_time()
        tokens = len(traces)
        result.ops = tokens
        if clock is not None and len(clock.starts) == tokens:
            result.op_s, result.op_host_s = clock.latencies((t2, c2))
            result.probe_s = clock.probes
            overhead = clock.overhead()
        else:
            overhead = 0.0
            result.op_s = [(t2 - t1) / tokens] * tokens
            result.op_host_s = [(c2 - c1) / tokens] * tokens
        result.work_s, result.wall_s, result.host_s = t2 - t1 - overhead, t3 - t0 - overhead, c3 - c0 - overhead
        self.last = (traces, config)
        return result

    def verify(self, result: CommandResult) -> None:
        if result.ops == 0:
            return
        traces, config = self.last
        audit = pipeline.audit_traces(traces, config)
        if not audit["ok"]:
            result.errors.append(f"trace audit failed: {audit}")
        demos_bytes = Path(config.demos_path).read_bytes()
        traces_bytes = Path(config.traces_path).read_bytes()
        result.bytes_written = len(demos_bytes) + len(traces_bytes)
        result.digest = hashlib.sha256(demos_bytes + b"\0" + traces_bytes).hexdigest()
        demo_lines = {
            json.loads(line)["trace_id"]: line for line in demos_bytes.decode("utf-8").splitlines()
        }
        outputs = []
        for line in traces_bytes.decode("utf-8").splitlines():
            demo_line = demo_lines.get(json.loads(line).get("trace_id"), "")
            outputs.append(hashlib.sha256(f"{demo_line}\n{line}".encode("utf-8")).hexdigest()[:8])
        if len(outputs) != result.ops:
            result.errors.append(f"{len(outputs)} trace records for {result.ops} tokens")
        result.outputs = outputs


class SynthM40(GenerateWorkload):
    """The paper's upper setting with the synthetic provider: CPU-bound."""

    name = "synth-m40"
    #: resolve_run takes well under a millisecond here, so each sample is a burst.
    setup_repeats = 20
    base_config = pipeline.RunConfig(
        task="synth-m40",
        labels=inputs.AGNEWS_LABELS,
        provider=providers.ProviderSpec(kind="synthetic"),
        m=40, n=1, k=100, t_max=100, n_shots=4,
        t_hat=2, lam=0.2, sigma0=10.0, sigma1=0.6, sigma2=3.0,
    )

    def setup(self) -> list[tuple[float, float, float]]:
        return self.setup_sample()

    def setup_sample(self) -> list[tuple[float, float, float]]:
        return self._resolve_samples(self.setup_repeats)


class HttpM10(GenerateWorkload):
    """HttpProvider against the fake endpoint, AGNews-scale corpus: latency-bound."""

    name = "http-m10"
    corpus_rows = 120_000
    #: Tokens are 25 to a demo.
    block_ops = 25

    def command(self, index: int) -> CommandResult:
        """A generate command whose host part is all but the model latency.

        The endpoint's injected latency is fixed; the client's work, the
        endpoint's own and the loopback traffic all run at the host's speed.
        """
        before = self.endpoint.stats()["model_s"]
        result = super().command(index)
        model_s = self.endpoint.stats()["model_s"] - before
        if result.ops:
            per_token = model_s / result.ops
            result.op_host_s = [max(0.0, wall - per_token) for wall in result.op_s]
            result.host_s = max(0.0, result.wall_s - model_s)
        return result

    def setup(self) -> list[tuple[float, float, float]]:
        os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
        self.endpoint = Endpoint(inputs.derive(self.name, self.seed, "endpoint"))
        dataset = self.workdir / "train.jsonl"
        template = self.workdir / "agnews.tmpl"
        inputs.write_corpus(dataset, self.seed, self.corpus_rows)
        inputs.write_template(template)
        self.endpoint.wait_ready()
        self.base_config = pipeline.RunConfig(
            task="http-m10",
            dataset_path=str(dataset),
            template_path=str(template),
            provider=providers.ProviderSpec(
                kind="http", base_url=self.endpoint.url, model="bench-fake", max_logprobs=100,
            ),
            m=10, n=2, k=100, t_max=25, n_shots=4,
            t_hat=1, lam=0.2, sigma0=10.0, sigma2=3.0, epsilon=4.0,
        )
        return self._resolve_samples(self.setup_repeats)


class Endpoint:
    """The fake completions endpoint, running as a child process."""

    def __init__(self, seed: int):
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "endpoint.py"), "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        )
        self.url = ""

    def wait_ready(self) -> None:
        line = self.process.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError(f"endpoint did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def _call(self, method: str, path: str) -> dict:
        request = urllib.request.Request(self.url + path, method=method, data=b"" if method == "POST" else None)
        with urllib.request.urlopen(request, timeout=10) as resp:
            return json.loads(resp.read())

    def stats(self) -> dict:
        return self._call("GET", "/stats")

    def reset(self) -> None:
        self._call("POST", "/reset")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


# ---------------------------------------------------------------------------
# library workloads


class AggregateM40(Workload):
    """Both aggregators on a pool of pre-built M=40, K=100 batches."""

    name = "aggregate-m40"
    pool_size = 128
    block_ops = pool_size
    setup_chunks = 8
    cfg = aggregate.AggregationConfig(
        m=40, k=100, lam=0.35, t_hat=2, sigma0=10.0, sigma1=0.8, sigma2=3.0
    )

    def setup(self) -> list[tuple[float, float, float]]:
        profile = accountant.MechanismProfile(
            sigma0=self.cfg.sigma0, sigma1=self.cfg.sigma1, sigma2=self.cfg.sigma2, t_hat=self.cfg.t_hat
        )
        self.baseline_sigma = accountant.matched_baseline_sigma(profile)
        self.provider = providers.SyntheticProvider(
            seed=inputs.derive(self.name, self.seed, "provider"), outlier_fraction=0.2
        )
        self.batches = []
        samples = [self.timed(lambda: self.batches.extend(self._build_chunk(c))) for c in range(self.setup_chunks)]
        self.next_chunk = 0
        return samples

    def setup_sample(self) -> list[tuple[float, float, float]]:
        """Rebuild one chunk of the pool, in turn, and discard it."""
        chunk = self.next_chunk
        self.next_chunk = (chunk + 1) % self.setup_chunks
        return [self.timed(lambda: self._build_chunk(chunk))]

    def _build_chunk(self, chunk: int) -> list:
        labels = inputs.AGNEWS_LABELS
        pool = [data.Example(text=f"item {i}", label=label) for label in labels for i in range(self.cfg.m)]
        per_chunk = self.pool_size // self.setup_chunks
        batches = []
        for j in range(chunk * per_chunk, (chunk + 1) * per_chunk):
            draw = np.random.default_rng(inputs.derive(self.name, self.seed, j, "draw"))
            batches.append(providers.next_token_generation(
                self.provider, pool, labels[j % len(labels)], self.cfg.m, 1, self.cfg.k,
                data.GENERIC_TEMPLATE, "", draw, position=j,
            ))
        return batches

    def command(self, index: int) -> CommandResult:
        run_seed = inputs.derive(self.name, self.seed, index, "noise")
        result = CommandResult(attempted=len(self.batches))
        chosen = []
        self.traces = []
        c0, t0 = cpu_time(), perf_counter()
        for j, batch in enumerate(self.batches):
            result.probe_s.append(self.probe())
            cpu, start = cpu_time(), perf_counter()
            vector, trace = aggregate.adaptive_aggregate(
                batch.private_vectors, self.cfg, rng.NoiseStreams.from_seed(run_seed, j)
            )
            adaptive_token = aggregate.select_token(vector, batch.support)
            baseline = aggregate.baseline_aggregate(
                batch.private_vectors, self.baseline_sigma, rng.substream(run_seed, j, "baseline")
            )
            baseline_token = aggregate.select_token(baseline, batch.support)
            result.op_s.append(perf_counter() - start)
            result.op_host_s.append(cpu_time() - cpu)
            chosen.append((adaptive_token, baseline_token))
            self.traces.append(trace)
        t1 = perf_counter()
        path = self.workdir / "aggregate.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for adaptive_token, baseline_token in chosen:
                fh.write(json.dumps([adaptive_token, baseline_token]) + "\n")
        t2, c2 = perf_counter(), cpu_time()
        probes = sum(result.probe_s)
        result.ops = len(chosen)
        result.work_s, result.wall_s, result.host_s = t1 - t0 - probes, t2 - t0 - probes, c2 - c0 - probes
        self.chosen = chosen
        return result

    def verify(self, result: CommandResult) -> None:
        result.outputs = [
            f"{batch.support.index(a):02x}{batch.support.index(b):02x}"
            for batch, (a, b) in zip(self.batches, self.chosen)
        ]
        breaks = {aggregate.BREAK_MAX_ITERS, aggregate.BREAK_COVERAGE_FAILED, aggregate.BREAK_RADIUS_FLOOR}
        for j, trace in enumerate(self.traces):
            if (trace.mean_estimates > self.cfg.t_hat + 1
                    or len(trace.coverage_checks) > self.cfg.t_hat
                    or trace.break_reason not in breaks):
                result.errors.append(f"batch {j}: aggregation trace exceeds its charged events")
        result.digest = hashlib.sha256("".join(result.outputs).encode("ascii")).hexdigest()


class CalibrateGrid(Workload):
    """calibrate_sigma1 then report_privacy over the published rows."""

    name = "calibrate-grid"
    rel_tol = 1e-6
    block_ops = len(inputs.REFERENCE_ROWS)
    import_repeats = 4

    def setup(self) -> list[tuple[float, float, float]]:
        """Cold start of the package: a fresh interpreter importing dpfewshot."""
        return [self.setup_sample()[0] for _ in range(self.import_repeats)]

    def setup_sample(self) -> list[tuple[float, float, float]]:
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        return [self.timed(lambda: subprocess.run([sys.executable, "-c", "import dpfewshot"], env=env, check=True))]

    def command(self, index: int) -> CommandResult:
        rows = inputs.REFERENCE_ROWS
        result = CommandResult(attempted=len(rows))
        self.solved = []
        c0, t0 = cpu_time(), perf_counter()
        for r, (task, _, s0, s2, _, t_hat, m, n, t_max, train, classes) in enumerate(rows):
            target = inputs.calibration_target(self.seed, index, r)
            result.probe_s.append(self.probe())
            cpu, start = cpu_time(), perf_counter()
            delta = 1.0 / train
            profile = accountant.MechanismProfile(sigma0=s0, sigma1=None, sigma2=s2, t_hat=t_hat)
            sigma1 = accountant.calibrate_sigma1(
                accountant.DpBudget(target, delta), profile, accountant.SubsamplingContext(m * n, train), t_max
            )
            config = pipeline.RunConfig(
                task=task, m=m, n=n, t_max=t_max, t_hat=t_hat,
                sigma0=s0, sigma1=sigma1, sigma2=s2, delta=delta,
            )
            counts = {f"class{c}": round(train / classes) for c in range(classes)} if classes else None
            report = pipeline.report_privacy(config, train, counts)
            result.op_s.append(perf_counter() - start)
            result.op_host_s.append(cpu_time() - cpu)
            self.solved.append((target, sigma1, report["epsilon"]["dataset"]["epsilon"]))
        t1 = perf_counter()
        with open(self.workdir / "calibration.json", "w", encoding="utf-8") as fh:
            json.dump(self.solved, fh)
        t2, c2 = perf_counter(), cpu_time()
        probes = sum(result.probe_s)
        result.ops = len(self.solved)
        result.work_s, result.wall_s, result.host_s = t1 - t0 - probes, t2 - t0 - probes, c2 - c0 - probes
        return result

    def verify(self, result: CommandResult) -> None:
        result.outputs = [[sigma1, eps] for _, sigma1, eps in self.solved]
        for r, (target, _, eps) in enumerate(self.solved):
            if abs(eps - target) > accountant.CALIBRATION_REL_TOL * target * (1 + 1e-9):
                result.errors.append(f"row {r}: reported epsilon {eps} misses target {target}")
        result.digest = hashlib.sha256(json.dumps(result.outputs).encode("ascii")).hexdigest()


WORKLOADS = {cls.name: cls for cls in (SynthM40, HttpM10, AggregateM40, CalibrateGrid)}
