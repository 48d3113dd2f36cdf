import json
import secrets

import pytest

from dpfewshot import cli, radius
from dpfewshot.cli import (
    EXIT_CALIBRATION,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PROVIDER,
    build_run_config,
    main,
    read_config_file,
)
from dpfewshot.accountant import DpBudget, SubsamplingContext, calibrate_sigma1
from dpfewshot.pipeline import ConfigurationError, RunConfig, report_privacy
from dpfewshot.providers import SyntheticProvider

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
    "seed": ("seed", "int"),
    "demos_out": ("demos_path", "str"),
    "traces_out": ("traces_path", "str"),
    "stop_tokens": ("stop_tokens", "json"),
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
        kinds = {int: "int", float: "float", str: "str", cli._csv_tuple: "csv", cli._json_strings: "json"}
        table = {key: (target, kinds[convert]) for key, (target, convert) in cli._OPTIONS.items()}
        assert table == CLI_SURFACE

    def test_command_set_is_pinned(self):
        assert set(cli.build_parser()._subparsers._group_actions[0].choices) == {"generate", "report-privacy"}

    @pytest.mark.parametrize("command", ["measure-radius", "compare-utility"])
    def test_removed_command_is_refused(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(command, "--labels", "a,b")
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "report-privacy"])
    @pytest.mark.parametrize("flag", ["--runs", "--trials"])
    def test_removed_flag_is_refused(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(command, "--labels", "a,b", flag, "2")
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "report-privacy"])
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

    @pytest.mark.parametrize("key", ["runs", "trials"])
    def test_removed_diagnostic_key_rejected_with_line(self, tmp_path, key):
        path = tmp_path / "old.cfg"
        path.write_text(f"labels = a,b\n{key} = 3\n")
        with pytest.raises(ConfigurationError, match=f"old.cfg:2: unknown option '{key}'"):
            read_config_file(path)

    @pytest.mark.parametrize("first_line", [0, 1], ids=["comment_first", "key_first"])
    def test_byte_order_mark_accepted(self, tmp_path, capsys, first_line):
        # a file saved with a UTF-8 byte-order mark reads like the same file without one
        text = "".join(BASE_CONFIG.splitlines(keepends=True)[first_line:])
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert read_config_file(marked) == read_config_file(plain)
        reports = []
        for path in (plain, marked):
            assert run_cli("report-privacy", "--config", str(path), "--dataset-size", "1000") == EXIT_OK
            out = capsys.readouterr()
            assert out.err == ""
            reports.append(out.out)
        assert reports[0] == reports[1]

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

    def test_radius_search_consumes_what_is_charged(self, tmp_path, capsys):
        # theta = sqrt(2)/32 sits where the charged count steps: 4 iterations,
        # 8 draws per token, whichever way the noisy scores branch
        code = run_cli(
            "generate", "--labels", "a,b", "--n-shots", "1", "--sigma1", "0.6", "--sigma0", "0.01",
            "--t-max", "3", "--k", "20", "--outlier-fraction", "1", "--theta", "0.04419417382415922",
            "--demos-out", str(tmp_path / "d.jsonl"), "--traces-out", str(tmp_path / "t.jsonl"),
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "audit: consumed <= charged: True" in out
        audit = out.split("audit: consumed <= charged: True ")[1]
        assert audit.count("'goodradius_draws': 24") == 2

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
    ])
    def test_empty_dataset_exits_2(self, tmp_path, capsys, argv):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = run_cli(*(arg.format(empty=empty) for arg in argv))
        assert code == EXIT_CONFIG
        assert "cannot account for a dataset of 0 rows" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("[" * 100_000, "maximum recursion depth exceeded"),
        ('{"text": 1' + "0" * 5000 + ', "label": "a"}', "Exceeds the limit (4300 digits)"),
    ], ids=["nested-too-deep", "too-many-digits"])
    def test_undecodable_jsonl_line_exits_2_naming_path_and_line(self, tmp_path, capsys, line, message):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "ok", "label": "a"}\n' + line + "\n")
        code = run_cli("report-privacy", "--dataset", str(path), "--epsilon", "4", "--labels", "a")
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}:2: invalid JSON: ")
        assert message in err

    @pytest.mark.parametrize("command", ["generate", "report-privacy"])
    @pytest.mark.parametrize("flag, message", [
        ("--t-hat", "t_hat must be positive"),
        ("--sigma0", "noise multipliers must be positive"),
        ("--mu", "mu and rho must lie in (0, 1]"),
        ("--rho", "mu and rho must lie in (0, 1]"),
        ("--delta", "delta must lie in (0, 1), got 0"),
    ])
    def test_every_command_refuses_the_same_mechanism(self, tmp_path, capsys, command, flag, message):
        path = tmp_path / "run.cfg"
        path.write_text(BASE_CONFIG)
        extra = {
            "generate": ("--demos-out", str(tmp_path / "d.jsonl"), "--traces-out", str(tmp_path / "t.jsonl")),
            "report-privacy": ("--dataset-size", "1000"),
        }.get(command, ())
        code = run_cli(*command.split(), "--config", str(path), flag, "0", *extra)
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not (tmp_path / "d.jsonl").exists()

    @pytest.mark.parametrize("argv, message", [
        ("generate --sigma1 nan", "noise multipliers must be nonnegative"),
        ("generate --sigma1 1 --sigma0 nan", "noise multipliers must be nonnegative"),
        ("generate --sigma1 1 --sigma2 nan", "noise multipliers must be nonnegative"),
        ("generate --sigma1 inf", "noise multipliers must be nonnegative"),
        ("generate --sigma1 1 --sigma0 inf", "noise multipliers must be nonnegative"),
        ("generate --sigma1 1 --sigma2 inf", "noise multipliers must be nonnegative"),
        ("report-privacy --dataset-size 1000 --sigma1 inf", "noise multipliers must be nonnegative"),
        ("generate --sigma1 1 --lambda nan", "lam must be nonnegative"),
        ("generate --sigma1 1e-200", "noise multipliers must be positive with a positive, finite square"),
        ("report-privacy --dataset-size 1000 --sigma1 nan", "noise multipliers must be nonnegative"),
        ("report-privacy --dataset-size 1000 --sigma1 1e-154", "no order of the grid gives a finite epsilon"),
        ("report-privacy --dataset-size 1000 --sigma1 1e-200",
         "noise multipliers must be positive with a positive, finite square"),
        ("report-privacy --dataset-size 1000 --sigma1 1e200",
         "noise multipliers must be positive with a positive, finite square"),
        *((f"{command} --epsilon {value}", f"epsilon must be a positive finite number, got {value}")
          for command in ("generate", "report-privacy --dataset-size 1000") for value in ("nan", "inf")),
    ])
    def test_unpriceable_multiplier_exits_2(self, tmp_path, capsys, argv, message):
        command, *flags = argv.split()
        code = run_cli(
            command, "--labels", "a,b", "--n-shots", "1", "--t-max", "3", "--k", "10", *flags,
            "--demos-out", str(tmp_path / "d.jsonl"), "--traces-out", str(tmp_path / "t.jsonl"),
        )
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"configuration error: {message}" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "d.jsonl").exists()

    def test_short_label_pool_exits_2_before_any_provider_call(self, tmp_path, capsys, monkeypatch):
        dataset = tmp_path / "small.jsonl"
        dataset.write_text("".join(
            json.dumps({"text": f"{label} row {i}", "label": label}) + "\n"
            for label, count in (("A", 40), ("B", 5)) for i in range(count)
        ))
        calls = []
        original = SyntheticProvider.next_token_distribution
        monkeypatch.setattr(
            SyntheticProvider, "next_token_distribution",
            lambda self, *a, **kw: calls.append(kw) or original(self, *a, **kw),
        )
        code = run_cli(
            "generate", "--dataset", str(dataset), "--n-shots", "2", "--m", "10", "--t-max", "20",
            "--k", "20", "--sigma1", "1", "--seed", "3",
            "--demos-out", str(tmp_path / "d.jsonl"), "--traces-out", str(tmp_path / "t.jsonl"),
        )
        assert code == EXIT_CONFIG
        assert "label 'B' has 5 examples, need 10 (m=10, n=1)" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("example, section", [
        ("Label: {label}\nText: {text}\nSource: {source}", "[example]"),
        ('{"label": "{label}", "text": "{text}"}', "[example]"),
        ("Label: {label}\nText: {text.upper:>3}", "[example]"),
    ])
    def test_unrenderable_template_exits_2_before_any_provider_call(
        self, tmp_path, capsys, monkeypatch, example, section
    ):
        template = tmp_path / "bad.tmpl"
        template.write_text(f"[instruction]\nWrite.\n[example]\n{example}\n[query]\nText:{{generated}}\n")
        calls = []
        monkeypatch.setattr(SyntheticProvider, "next_token_distribution", lambda *a, **kw: calls.append(kw))
        code = run_cli(
            "generate", "--labels", "a,b", "--n-shots", "1", "--sigma1", "1", "--template", str(template),
            "--demos-out", str(tmp_path / "d.jsonl"), "--traces-out", str(tmp_path / "t.jsonl"),
        )
        assert code == EXIT_CONFIG
        assert f"template {section} section does not render" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "d.jsonl").exists()

    @pytest.mark.parametrize("argv, files, message", [
        ("generate --config {dir}/run.cfg", {"run.cfg": "labels = a,b\nsigma1 0.5\n"}, "run.cfg:2: expected 'key = value'"),
        ("generate --config {dir}/run.cfg", {"run.cfg": "labels = a,b\nsigma1 = 0.5\nm = abc\n"},
         "option 'm': invalid literal for int() with base 10: 'abc'"),
        *((f"generate --labels a,b --n-shots 1 --sigma1 1 --{flag} 0", {}, "m, n, k, t_max, n_shots must be positive")
          for flag in ("m", "n", "k", "t-max", "n-shots")),
        ("generate --labels a,b --n-shots 1 --sigma1 1 --gamma-mode pool", {}, "unknown gamma_mode 'pool'"),
        *((f"generate --labels a,b --n-shots 1 --sigma1 1 --{flag} {seed}", {},
           f"{flag.replace('-', '_')} must lie in [0, 2**128), got {seed}")
          for flag in ("seed", "provider-seed") for seed in (-1, 2**128, 2**128 + 5)),
        ("generate --config {dir}/run.cfg", {"run.cfg": "labels = a,b\nsigma1 = 1\nn_shots = 1\nseed = -1\n"},
         "seed must lie in [0, 2**128), got -1"),
        *((f"{command} --dataset {{dir}}/d.jsonl --labels a,b --sigma1 1", {"d.jsonl": '{"text": "x", "label": "c"}\n'},
           "d.jsonl:1: unknown label 'c'") for command in ("report-privacy", "generate")),
        ("generate --dataset {dir}/d.csv --sigma1 1", {"d.csv": "text,label\nok,a\n,a\n"},
         "d.csv:3: example text must be non-empty"),
        ("generate --dataset {dir}/d.jsonl --sigma1 1", {"d.jsonl": '{"text": "", "label": "a"}\n'},
         "d.jsonl:1: example text must be non-empty"),
        ("generate --dataset {dir}/d.csv --sigma1 1", {"d.csv": "text,label\nok,a\nonly\n"},
         "d.csv:3: missing text or label value"),
        ("generate --dataset {dir}/d.csv --sigma1 1", {"d.csv": "text,label\nok,\n"},
         "d.csv:2: example label must be non-empty"),
    ])
    def test_refusal_exits_2_before_any_provider_call(self, tmp_path, capsys, monkeypatch, argv, files, message):
        for name, content in files.items():
            (tmp_path / name).write_text(content)
        calls = []
        monkeypatch.setattr(SyntheticProvider, "next_token_distribution", lambda *a, **kw: calls.append(kw))
        code = run_cli(
            *argv.format(dir=tmp_path).split(),
            "--demos-out", str(tmp_path / "out.jsonl"), "--traces-out", str(tmp_path / "t.jsonl"),
        )
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert calls == []
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("flag, path, message", [
        ("--demos-out", "afile/d.jsonl", "cannot write {dir}/afile/d.jsonl: [Errno 17] File exists"),
        ("--traces-out", "afile/sub/t.jsonl", "cannot write {dir}/afile/sub/t.jsonl: [Errno 20] Not a directory"),
        ("--demos-out", "adir", "cannot write {dir}/adir: it is a directory"),
    ])
    def test_unwritable_output_path_exits_2_before_any_provider_call(
        self, tmp_path, capsys, monkeypatch, flag, path, message
    ):
        (tmp_path / "afile").write_text("")
        (tmp_path / "adir").mkdir()
        calls = []
        monkeypatch.setattr(SyntheticProvider, "next_token_distribution", lambda *a, **kw: calls.append(kw))
        outputs = {"--demos-out": str(tmp_path / "d.jsonl"), "--traces-out": str(tmp_path / "t.jsonl")}
        outputs[flag] = str(tmp_path / path)
        code = run_cli("generate", "--labels", "a,b", "--n-shots", "1", "--sigma1", "1",
                       *(arg for item in outputs.items() for arg in item))
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert message.format(dir=tmp_path) in captured.err
        assert captured.out == ""
        assert calls == []

    @pytest.mark.parametrize("demos, traces", [("x.jsonl", "x.jsonl"), ("sub/../y.jsonl", "y.jsonl")])
    def test_one_file_for_both_outputs_exits_2_before_any_provider_call(
        self, tmp_path, capsys, monkeypatch, demos, traces
    ):
        calls = []
        monkeypatch.setattr(SyntheticProvider, "next_token_distribution", lambda *a, **kw: calls.append(kw))
        monkeypatch.chdir(tmp_path)
        code = run_cli("generate", "--labels", "a,b", "--n-shots", "1", "--sigma1", "0.6", "--t-max", "3",
                       "--k", "20", "--demos-out", demos, "--traces-out", traces)
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"demos_out {demos} and traces_out {traces} are the same file" in captured.err
        assert captured.out == ""
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_empty_label_set_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = run_cli(
            "generate", "--dataset", str(empty), "--sigma1", "1",
            "--demos-out", str(tmp_path / "d.jsonl"), "--traces-out", str(tmp_path / "t.jsonl"),
        )
        assert code == EXIT_CONFIG
        assert "the label set is empty" in capsys.readouterr().err

    def test_failed_audit_exits_2_after_writing(self, config_file, tmp_path, capsys, monkeypatch):
        # A radius search one iteration longer than the accountant charges.
        charged = radius.binary_search_iterations
        monkeypatch.setattr(radius, "binary_search_iterations", lambda theta: charged(theta) + 1)
        demos, traces = tmp_path / "d.jsonl", tmp_path / "t.jsonl"
        code = run_cli(
            "generate", "--config", str(config_file), "--demos-out", str(demos), "--traces-out", str(traces)
        )
        assert code == EXIT_CONFIG
        assert "audit: consumed <= charged: False" in capsys.readouterr().out
        assert demos.exists() and traces.exists()

    @pytest.mark.parametrize("command, noise", [
        ("report-privacy", ("--sigma1", "0.5")), ("report-privacy", ("--epsilon", "4")),
    ])
    def test_dataset_and_dataset_size_together_exit_2(self, tmp_path, capsys, command, noise):
        path = tmp_path / "d.jsonl"
        path.write_text("".join(json.dumps({"text": f"row {i}", "label": "a"}) + "\n" for i in range(4)))
        code = run_cli(command, "--dataset", str(path), "--dataset-size", "1000000", "--m", "1", *noise)
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "give either --dataset or --dataset-size, not both" in captured.err
        assert captured.out == ""

    def test_label_gamma_without_label_counts_exits_2(self, capsys):
        code = run_cli("report-privacy", "--gamma-mode", "label", "--dataset-size", "1000", "--sigma1", "0.5")
        assert code == EXIT_CONFIG
        assert "per-label gamma requested but no label counts" in capsys.readouterr().err

    def test_repeated_labels_exit_2(self, tmp_path, capsys):
        code = run_cli(
            "generate", "--labels", "a,a", "--n-shots", "2", "--sigma1", "1", "--t-max", "3", "--k", "10",
            "--demos-out", str(tmp_path / "d.jsonl"), "--traces-out", str(tmp_path / "t.jsonl"),
        )
        assert code == EXIT_CONFIG
        assert "labels must be distinct, got ['a', 'a']" in capsys.readouterr().err
        assert not (tmp_path / "d.jsonl").exists()

    @pytest.mark.parametrize("argv", [
        "generate --dataset {missing}.jsonl --sigma1 1",
        "generate --labels a,b --n-shots 1 --sigma1 1 --template {missing}.tmpl",
        "generate --config {missing}.cfg",
        "report-privacy --dataset {missing}.csv --sigma1 1",
    ], ids=["dataset", "template", "config", "report_dataset"])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, argv):
        missing = tmp_path / "missing"
        code = run_cli(
            *argv.format(missing=missing).split(),
            "--demos-out", str(tmp_path / "d.jsonl"), "--traces-out", str(tmp_path / "t.jsonl"),
        )
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert str(missing) in captured.err
        assert captured.out == ""
        assert not (tmp_path / "d.jsonl").exists()

    @pytest.mark.parametrize("command", ["generate", "report-privacy"])
    def test_neither_noise_source_exits_2_before_any_file_is_read(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.jsonl"
        code = run_cli(command, "--dataset", str(missing), "--labels", "a")
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "configuration error: one of sigma1 or a target epsilon is required\n"
        assert captured.out == ""

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


#: BASE_CONFIG without its seed line.
UNSEEDED_CONFIG = BASE_CONFIG.replace("seed = 123\n", "")


class TestSecretSeed:
    """A config without a seed runs at 128 secret bits; a set seed is named on stderr."""

    def generate(self, tmp_path, name, *flags):
        config = tmp_path / "run.cfg"
        config.write_text(UNSEEDED_CONFIG)
        out = tmp_path / name
        code = run_cli(
            "generate", "--config", str(config), *flags,
            "--demos-out", str(out / "demos.jsonl"), "--traces-out", str(out / "traces.jsonl"),
        )
        assert code == EXIT_OK
        return (out / "demos.jsonl").read_bytes(), (out / "traces.jsonl").read_bytes()

    def test_two_default_runs_write_different_traces(self, tmp_path, capsys):
        assert "\nseed" not in UNSEEDED_CONFIG
        first, second = self.generate(tmp_path, "a"), self.generate(tmp_path, "b")
        assert first[1] != second[1]
        assert capsys.readouterr().err == ""

    def test_the_drawn_seed_appears_in_no_output(self, tmp_path, capsys, monkeypatch):
        secret = 0x9E3779B97F4A7C15F39CC0605CEDC834
        drawn = []
        monkeypatch.setattr(secrets, "randbits", lambda bits: drawn.append(bits) or secret)
        files = self.generate(tmp_path, "default")
        assert drawn == [128]
        stdout = capsys.readouterr().out
        for form in (str(secret), f"{secret:x}", f"{secret:X}"):
            assert all(form.encode() not in data for data in files)
            assert form not in stdout
        # the run did use the drawn seed: an explicit --seed of it writes the same bytes
        assert self.generate(tmp_path, "explicit", "--seed", str(secret)) == files

    def test_a_set_seed_prints_one_notice_on_stderr(self, tmp_path, capsys):
        self.generate(tmp_path, "a", "--seed", "5")
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "seed is kept secret" in err

    def test_report_privacy_prints_no_notice(self, tmp_path, capsys):
        assert run_cli("report-privacy", "--sigma1", "1", "--dataset-size", "100", "--seed", "5") == EXIT_OK
        assert capsys.readouterr().err == ""


class TestStopTokens:
    # This run emits ' w132', ' w001', ' w030', ...: every synthetic token starts with a space.
    ARGV = ("generate", "--labels", "World,Sports", "--n-shots", "1", "--sigma1", "0.6", "--t-max", "6", "--seed", "3")

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_stop_token_keeps_its_whitespace(self, tmp_path, source):
        demos = tmp_path / "d.jsonl"
        outputs = ("--demos-out", str(demos), "--traces-out", str(tmp_path / "t.jsonl"))
        if source == "flag":
            extra = ("--stop-tokens", '[" w030"]')
        else:
            path = tmp_path / "run.cfg"
            path.write_text('stop_tokens = ["\\n", " w030"]\n')
            extra = ("--config", str(path))
        assert run_cli(*self.ARGV, *extra, *outputs) == EXIT_OK
        demo = json.loads(demos.read_text())
        assert demo["tokens"][2] == " w030"
        assert demo["token_count"] == 3
        assert demo["stop_rule"] == "stop_token"

    @pytest.mark.parametrize("value", ["a,b", '" w030"', "[1]", "[\"a\""])
    def test_anything_but_a_json_list_of_strings_exits_2(self, tmp_path, capsys, value):
        code = run_cli(
            *self.ARGV, "--stop-tokens", value,
            "--demos-out", str(tmp_path / "d.jsonl"), "--traces-out", str(tmp_path / "t.jsonl"),
        )
        assert code == EXIT_CONFIG
        assert "stop_tokens must be a JSON list of strings" in capsys.readouterr().err
        assert not (tmp_path / "d.jsonl").exists()


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

    def test_report_privacy_counts_the_dataset_label_pools(self, tmp_path, capsys):
        path = tmp_path / "d.jsonl"
        path.write_text("".join(
            json.dumps({"text": f"{label} {i}", "label": label}) + "\n"
            for label, count in (("a", 30), ("b", 12), ("a", 5)) for i in range(count)
        ))
        flags = ("--sigma1", "0.8", "--t-max", "5", "--m", "2", "--k", "4")
        assert run_cli("report-privacy", "--dataset", str(path), *flags) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        config = RunConfig(dataset_path=str(path), sigma1=0.8, t_max=5, m=2, k=4)
        assert report == json.loads(json.dumps(report_privacy(config, 47, {"a": 35, "b": 12})))
        assert report["gamma"] == {"dataset": 2 / 47, "label": 2 / 12}

    def test_negative_epsilon_is_reported_as_zero(self, capsys):
        code = run_cli(
            "report-privacy", "--dataset-size", "100", "--m", "1", "--sigma1", "1000",
            "--delta", "0.9", "--t-max", "1", "--lambda", "0",
        )
        assert code == EXIT_OK
        entry = json.loads(capsys.readouterr().out)["epsilon"]["dataset"]
        assert entry["epsilon"] == 0.0
        assert entry["full_run_epsilon"] == 0.0

    def test_report_without_size_or_dataset_exits_2(self, config_file):
        assert run_cli("report-privacy", "--config", str(config_file)) == EXIT_CONFIG

    def test_calibrate_prints_sigma1(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text(BASE_CONFIG.replace("sigma1 = 0.5", "epsilon = 4"))
        code = run_cli(
            "report-privacy", "--config", str(path), "--dataset-size", "10000", "--t-max", "10"
        )
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        config = build_run_config(read_config_file(path), {"t_max": 10})
        expected = calibrate_sigma1(
            DpBudget(4.0, 1 / 10000), config.mechanism(None), SubsamplingContext(4, 10000), 10
        )
        assert report["sigma1"] == expected
        assert report["calibration"] == {"target_epsilon": 4.0, "gamma_mode": "dataset"}

    def test_unachievable_target_exits_4(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text(BASE_CONFIG.replace("sigma1 = 0.5", "epsilon = 0.0001"))
        code = run_cli(
            "report-privacy", "--config", str(path), "--dataset-size", "1000", "--t-max", "20"
        )
        assert code == EXIT_CALIBRATION
        assert "calibration infeasible" in capsys.readouterr().err
