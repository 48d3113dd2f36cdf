import json

import pytest

from dpfewshot import cli
from dpfewshot.cli import (
    EXIT_CALIBRATION,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PROVIDER,
    build_run_config,
    main,
    read_config_file,
)
from dpfewshot.pipeline import ConfigurationError

BASE_CONFIG = """\
# synthetic desk-scale run
task = smoke
labels = red,green,blue,amber
provider = synthetic
provider_seed = 9
m = 4
n = 1
k = 8
t_max = 3
n_shots = 2
sigma1 = 0.5
sigma0 = 2
sigma2 = 1
seed = 123
"""


#: Every config key and flag: key -> (RunConfig field or provider.* field, converter kind).
CLI_SURFACE = {
    "task": ("task", "str"),
    "dataset": ("dataset_path", "str"),
    "format": ("dataset_format", "str"),
    "labels": ("labels", "csv"),
    "template": ("template_path", "str"),
    "m": ("m", "int"),
    "n": ("n", "int"),
    "k": ("k", "int"),
    "t_max": ("t_max", "int"),
    "n_shots": ("n_shots", "int"),
    "lambda": ("lam", "float"),
    "t_hat": ("t_hat", "int"),
    "mu": ("mu", "float"),
    "rho": ("rho", "float"),
    "theta": ("theta", "float"),
    "sigma0": ("sigma0", "float"),
    "sigma1": ("sigma1", "float"),
    "sigma2": ("sigma2", "float"),
    "epsilon": ("epsilon", "float"),
    "delta": ("delta", "float"),
    "gamma_mode": ("gamma_mode", "str"),
    "alpha_max": ("alpha_max", "int"),
    "seed": ("seed", "int"),
    "demos_out": ("demos_path", "str"),
    "traces_out": ("traces_path", "str"),
    "stop_tokens": ("stop_tokens", "csv"),
    "radius_mode": ("radius_mode", "str"),
    "runs": ("n_runs", "int"),
    "trials": ("n_trials", "int"),
    "provider": ("provider.kind", "str"),
    "provider_seed": ("provider.seed", "int"),
    "vocab_size": ("provider.vocab_size", "int"),
    "spread": ("provider.spread", "float"),
    "outlier_fraction": ("provider.outlier_fraction", "float"),
    "base_url": ("provider.base_url", "str"),
    "model": ("provider.model", "str"),
    "max_logprobs": ("provider.max_logprobs", "int"),
    "auth_env": ("provider.auth_env", "str"),
    "timeout": ("provider.timeout", "float"),
    "max_retries": ("provider.max_retries", "int"),
}


class TestSurface:
    def test_option_table_is_pinned(self):
        kinds = {int: "int", float: "float", str: "str", cli._csv_tuple: "csv"}
        table = {key: (target, kinds[convert]) for key, (target, convert) in cli._OPTIONS.items()}
        assert table == CLI_SURFACE

    @pytest.mark.parametrize("command", ["generate", "measure-radius", "report-privacy", "compare-utility", "calibrate"])
    def test_every_command_takes_every_key(self, command):
        sub = cli.build_parser()._subparsers._group_actions[0].choices[command]
        numeric = {"int": int, "float": float}
        flags = {
            action.dest: (action.option_strings, action.type)
            for action in sub._actions if action.dest in CLI_SURFACE
        }
        assert flags == {
            key: (["--" + key.replace("_", "-")], numeric.get(kind))
            for key, (_, kind) in CLI_SURFACE.items()
        }


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG)
    return path


def run_cli(*argv):
    return main(list(argv))


class TestConfigParsing:
    def test_file_values_parsed(self, config_file):
        values = read_config_file(config_file)
        config = build_run_config(values, {})
        assert config.task == "smoke"
        assert config.labels == ("red", "green", "blue", "amber")
        assert config.provider.kind == "synthetic"
        assert config.provider.seed == 9
        assert config.sigma1 == 0.5

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("labels = a,b\nmystery = 3\n")
        with pytest.raises(ConfigurationError, match="bad.cfg:2"):
            read_config_file(path)

    def test_flags_override_file(self, config_file):
        values = read_config_file(config_file)
        config = build_run_config(values, {"seed": 999, "t_max": 7})
        assert config.seed == 999
        assert config.t_max == 7
        assert config.m == 4  # untouched file value survives


class TestGenerate:
    def test_writes_deterministic_outputs(self, config_file, tmp_path, capsys):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            code = run_cli(
                "generate", "--config", str(config_file),
                "--demos-out", str(out / "demos.jsonl"),
                "--traces-out", str(out / "traces.jsonl"),
            )
            assert code == EXIT_OK
        assert (out1 / "demos.jsonl").read_bytes() == (out2 / "demos.jsonl").read_bytes()
        assert (out1 / "traces.jsonl").read_bytes() == (out2 / "traces.jsonl").read_bytes()
        assert "audit: consumed <= charged: True" in capsys.readouterr().out

    def test_flag_changes_output(self, config_file, tmp_path):
        outputs = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            run_cli(
                "generate", "--config", str(config_file), "--seed", seed,
                "--demos-out", str(out / "demos.jsonl"),
                "--traces-out", str(out / "traces.jsonl"),
            )
            outputs.append((out / "demos.jsonl").read_text())
        assert outputs[0] != outputs[1]

    def test_conflicting_noise_config_exits_2(self, config_file, capsys):
        code = run_cli("generate", "--config", str(config_file), "--epsilon", "2")
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_provider_failure_exits_3(self, config_file, capsys):
        code = run_cli(
            "generate", "--config", str(config_file),
            "--provider", "http", "--base-url", "http://127.0.0.1:9",
            "--model", "m", "--max-retries", "0", "--timeout", "0.2",
        )
        assert code == EXIT_PROVIDER
        assert "provider error" in capsys.readouterr().err


class TestRefusals:
    @pytest.mark.parametrize("argv", [
        ("generate", "--dataset", "{empty}", "--labels", "a,b", "--n-shots", "1", "--epsilon", "4"),
        ("report-privacy", "--dataset", "{empty}", "--labels", "a,b", "--epsilon", "4"),
        ("report-privacy", "--dataset-size", "0", "--sigma1", "0.5"),
        ("calibrate", "--dataset-size", "0", "--epsilon", "4"),
    ])
    def test_empty_dataset_exits_2(self, tmp_path, capsys, argv):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = run_cli(*(arg.format(empty=empty) for arg in argv))
        assert code == EXIT_CONFIG
        assert "cannot account for a dataset of 0 rows" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "generate", "report-privacy", "calibrate", "compare-utility",
        "measure-radius", "measure-radius --radius-mode goodradius",
    ])
    @pytest.mark.parametrize("flag, message", [
        ("--t-hat", "t_hat must be positive"),
        ("--sigma0", "noise multipliers must be positive"),
        ("--mu", "mu and rho must lie in (0, 1]"),
        ("--runs", "n_runs must be positive, got 0"),
        ("--trials", "n_trials must be positive, got 0"),
        ("--alpha-max", "alpha_max must be at least 2"),
    ])
    def test_every_command_refuses_the_same_mechanism(self, tmp_path, capsys, command, flag, message):
        path = tmp_path / "run.cfg"
        if command == "calibrate":
            path.write_text(BASE_CONFIG.replace("sigma1 = 0.5", "epsilon = 4"))
        else:
            path.write_text(BASE_CONFIG)
        extra = {
            "generate": ("--demos-out", str(tmp_path / "d.jsonl"), "--traces-out", str(tmp_path / "t.jsonl")),
            "report-privacy": ("--dataset-size", "1000"),
            "calibrate": ("--dataset-size", "1000"),
        }.get(command, ())
        code = run_cli(*command.split(), "--config", str(path), flag, "0", *extra)
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not (tmp_path / "d.jsonl").exists()

    def test_negative_max_retries_exits_2(self, config_file, capsys):
        code = run_cli(
            "generate", "--config", str(config_file),
            "--provider", "http", "--base-url", "http://127.0.0.1:9",
            "--model", "x", "--max-retries", "-1",
        )
        assert code == EXIT_CONFIG
        assert "max_retries must be nonnegative" in capsys.readouterr().err

    def test_zero_vocab_size_exits_2(self, tmp_path, capsys):
        code = run_cli(
            "generate", "--labels", "a,b", "--n-shots", "1", "--sigma1", "1", "--vocab-size", "0",
            "--demos-out", str(tmp_path / "d.jsonl"), "--traces-out", str(tmp_path / "t.jsonl"),
        )
        assert code == EXIT_CONFIG
        assert "vocab_size must be positive, got 0" in capsys.readouterr().err


class TestReports:
    def test_report_privacy_json(self, config_file, capsys):
        code = run_cli(
            "report-privacy", "--config", str(config_file),
            "--dataset-size", "10000", "--t-max", "10",
        )
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["sigma1"] == 0.5
        assert report["epsilon"]["dataset"]["epsilon"] > 0

    def test_report_without_size_or_dataset_exits_2(self, config_file):
        assert run_cli("report-privacy", "--config", str(config_file)) == EXIT_CONFIG

    def test_calibrate_prints_sigma1(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text(BASE_CONFIG.replace("sigma1 = 0.5", "epsilon = 4"))
        code = run_cli(
            "calibrate", "--config", str(path), "--dataset-size", "10000", "--t-max", "10"
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("sigma1 = ")
        sigma1 = float(out.splitlines()[0].split("=")[1])
        assert sigma1 > 0

    def test_unachievable_target_exits_4(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text(BASE_CONFIG.replace("sigma1 = 0.5", "epsilon = 0.0001"))
        code = run_cli(
            "calibrate", "--config", str(path), "--dataset-size", "1000", "--t-max", "20"
        )
        assert code == EXIT_CALIBRATION
        assert "calibration infeasible" in capsys.readouterr().err

    def test_measure_radius_table(self, config_file, capsys):
        code = run_cli("measure-radius", "--config", str(config_file), "--runs", "2")
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "position  mean_radius" in out
        assert "overall mean" in out

    def test_compare_utility_json(self, config_file, capsys):
        code = run_cli("compare-utility", "--config", str(config_file), "--trials", "10")
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["baseline_rate"] <= 1.0
        assert report["trials"] == 10
