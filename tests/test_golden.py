"""Golden outputs of every loop that runs the per-token step.

The README quickstart settings (synthetic provider, M=10, K=100, t_max=20,
4 shots) drive `generate`, both modes of `measure_cluster_radius`,
`run_utility_comparison` and `report_privacy`.  Each output is pinned by
its SHA-256 digest, so a refactor of the token loop or the accountant that
changes a single byte of a fixed-seed output fails here.  The benchmark
only checks the `generate` path; this is the guard on the other loops.
"""

import dataclasses
import hashlib
import json

from dpfewshot.cli import main
from dpfewshot.pipeline import (
    RunConfig,
    measure_cluster_radius,
    report_privacy,
    resolve_run,
    run_utility_comparison,
)
from dpfewshot.providers import ProviderSpec

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
    sigma1=0.6, sigma0=10.0, sigma2=3.0, t_hat=2, lam=0.2, seed=42,
)

GOLDEN = {
    "demos": "75c63a3bc74761ecb8f797c056b51c5e46b7e203a7fa52f404bd269024da9989",
    "traces": "228f3dd5d15eca4f54185b2718d600ee06a162e07b4cf01e9a258b30b80f8124",
    "radius_oracle": "5c78d579358482d21c49b166827fbac0c28b7210f16144ac820aff6cb53911f8",
    "radius_goodradius": "7be6535a6b0a70343978169ffe8a31de5c99626f1e7ab4a6775c44c6110164af",
    "utility": "44ee75415d23335051be68bf59210a66a6a0c2403b3ba96891a2646adb72b583",
    "privacy_sigma1": "9f696880758a1ae32aadf1366a8a9e3e0284b64ee84a433178acc200ada9b989",
    "privacy_calibrated": "55887d384acdfef59b9bc326632c8faa0834d86100df01e8c04d7aabc20f4ea5",
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def json_digest(report: dict) -> str:
    return digest(json.dumps(report, sort_keys=True).encode("utf-8"))


def test_generate_files(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(QUICKSTART)
    demos, traces = tmp_path / "demos.jsonl", tmp_path / "traces.jsonl"
    code = main([
        "generate", "--config", str(config),
        "--demos-out", str(demos), "--traces-out", str(traces),
    ])
    assert code == 0
    assert digest(demos.read_bytes()) == GOLDEN["demos"]
    assert digest(traces.read_bytes()) == GOLDEN["traces"]


def test_measure_cluster_radius_oracle():
    report = measure_cluster_radius(resolve_run(dataclasses.replace(CONFIG, n_runs=3)))
    assert json_digest(report) == GOLDEN["radius_oracle"]


def test_measure_cluster_radius_goodradius():
    config = dataclasses.replace(CONFIG, n_runs=3, radius_mode="goodradius")
    report = measure_cluster_radius(resolve_run(config))
    assert json_digest(report) == GOLDEN["radius_goodradius"]


def test_run_utility_comparison():
    report = run_utility_comparison(resolve_run(dataclasses.replace(CONFIG, n_trials=100)))
    assert json_digest(report) == GOLDEN["utility"]


def test_report_privacy_with_label_counts():
    counts = {label: 30_000 for label in LABELS}
    assert json_digest(report_privacy(CONFIG, 120_000, counts)) == GOLDEN["privacy_sigma1"]
    calibrated = dataclasses.replace(CONFIG, sigma1=None, epsilon=4.0, gamma_mode="label")
    assert json_digest(report_privacy(calibrated, 120_000, counts)) == GOLDEN["privacy_calibrated"]
