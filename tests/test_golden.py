"""Golden outputs of every loop that runs the per-token step.

The README quickstart settings (synthetic provider, M=10, K=100, t_max=20,
4 shots) drive `generate` (its files and its stdout), `report_privacy`, and
the two loops of `study.diagnostics` that run the same token step,
`measure_cluster_radius` and `run_utility_comparison`.  Each output is
pinned by its SHA-256 digest, so a refactor of the token loop or the
accountant that changes a single byte of a fixed-seed output fails here.
The benchmark only checks the `generate` path; this is the guard on the
other loops.

A seeded corpus of aggregation batches (M 5..40, K 5..100, up to 25% vertex
outliers) pins `adaptive_aggregate`'s chosen index and every trace field,
but not the last bits of the returned centre.
"""

import dataclasses
import hashlib
import json
import warnings

import numpy as np

from dpfewshot.aggregate import AggregationConfig, adaptive_aggregate
from dpfewshot.cli import main
from dpfewshot.pipeline import RunConfig, report_privacy, resolve_run
from dpfewshot.providers import ProviderSpec
from dpfewshot.rng import NoiseStreams
from study.diagnostics import measure_cluster_radius, run_utility_comparison

LABELS = ("World", "Sports", "Business", "Technology")

QUICKSTART = """\
task = demo
labels = World,Sports,Business,Technology
provider = synthetic
provider_seed = 7
m = 10
n = 1
k = 100
t_max = 20
n_shots = 4
sigma1 = 0.6
sigma0 = 10
sigma2 = 3
t_hat = 2
lambda = 0.2
seed = 42
"""

CONFIG = RunConfig(
    task="demo", labels=LABELS, provider=ProviderSpec(kind="synthetic", seed=7),
    m=10, n=1, k=100, t_max=20, n_shots=4,
    sigma1=0.6, sigma0=10.0, sigma2=3.0, t_hat=2, lam=0.2, seed=42, gamma_mode="dataset",
)

GOLDEN = {
    "demos": "75c63a3bc74761ecb8f797c056b51c5e46b7e203a7fa52f404bd269024da9989",
    "generate_stdout": "eb8783a03b6c69571f7856c73be68f005a295ca3c0db433ef5c1346284aa7758",
    "traces": "228f3dd5d15eca4f54185b2718d600ee06a162e07b4cf01e9a258b30b80f8124",
    "radius": "d0c349997fc44bc6b055a131bcd3cc6ac3dc15ddfa509a89f53a2be4aaa06585",
    "utility": "73b0c74e24c28fc822c44834e06f8494ff4a44310243d4af60dbc9c31fd55b32",
    "privacy_sigma1": "a2d97e922a1bb8e109c7f9c71c880a39c42fb22105f045234e5ab44d9768d8e8",
    "privacy_calibrated": "55887d384acdfef59b9bc326632c8faa0834d86100df01e8c04d7aabc20f4ea5",
    "aggregator_corpus": "ff837784e87fa060c4154b5ee2e72af8bf89f698eae7ff620335fff9cd047174",
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def json_digest(report: dict) -> str:
    return digest(json.dumps(report, sort_keys=True).encode("utf-8"))


def test_generate_files(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(QUICKSTART)
    demos, traces = tmp_path / "demos.jsonl", tmp_path / "traces.jsonl"
    code = main([
        "generate", "--config", str(config),
        "--demos-out", str(demos), "--traces-out", str(traces),
    ])
    assert code == 0
    # the sigma1 line and the audit line, with the output paths masked
    stdout = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
    assert digest(stdout.encode("utf-8")) == GOLDEN["generate_stdout"]
    assert digest(demos.read_bytes()) == GOLDEN["demos"]
    assert digest(traces.read_bytes()) == GOLDEN["traces"]


def test_measure_cluster_radius():
    report = measure_cluster_radius(resolve_run(CONFIG), runs=3)
    assert json_digest(report) == GOLDEN["radius"]


def test_run_utility_comparison():
    report = run_utility_comparison(resolve_run(CONFIG), trials=100)
    assert json_digest(report) == GOLDEN["utility"]


def test_report_privacy_with_label_counts():
    counts = {label: 30_000 for label in LABELS}
    assert json_digest(report_privacy(CONFIG, 120_000, counts)) == GOLDEN["privacy_sigma1"]
    calibrated = dataclasses.replace(CONFIG, sigma1=None, epsilon=4.0, gamma_mode="label")
    assert json_digest(report_privacy(calibrated, 120_000, counts)) == GOLDEN["privacy_calibrated"]


def aggregator_corpus(n_batches: int = 500, seed: int = 8):
    """Seeded (points, cfg, streams) triples over M, K, outliers, t_hat and lambda."""
    for j in range(n_batches):
        gen = np.random.default_rng([seed, j])
        m, k = int(gen.integers(5, 41)), int(gen.integers(5, 101))
        spread = gen.uniform(0.05, 0.6)
        points = (1.0 - spread) * gen.dirichlet(np.ones(k)) + spread * gen.dirichlet(np.ones(k), size=m)
        n_outliers = int(gen.integers(0, m // 4 + 1))
        points[:n_outliers] = np.eye(k)[gen.integers(0, k, size=n_outliers)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # large margins are part of the corpus
            cfg = AggregationConfig(
                m=m, k=k, lam=float(gen.choice([0.1, 0.2, 0.35])), t_hat=int(gen.integers(1, 4)),
                sigma0=gen.uniform(0.5, 10.0), sigma1=gen.uniform(0.1, 1.0), sigma2=gen.uniform(0.5, 3.0),
            )
        yield points, cfg, NoiseStreams.from_seed(seed, "corpus", j)


def test_aggregator_corpus():
    records = []
    for points, cfg, streams in aggregator_corpus():
        center, trace = adaptive_aggregate(points, cfg, streams)
        records.append([int(np.argmax(center)), dataclasses.asdict(trace)])
    assert json_digest({"records": records}) == GOLDEN["aggregator_corpus"]
