"""Command-line surface: generate and report-privacy (which calibrates
sigma1 when given a target epsilon).

Every flag is named after a RunConfig or ProviderSpec field (_ALIASES
lists the eight that differ) and can also be set in a flat ``key = value``
config file; flags override file values.  Every command resolves its run
and prices it before releasing anything.  Exit codes: 0 success,
2 configuration error or unreadable input file, 3 provider error,
4 calibration infeasible.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .accountant import AmplificationOverflowError, UnachievableBudgetError, per_iteration_coefficient
from .pipeline import (
    ConfigurationError,
    RunConfig,
    audit_traces,
    generate_shots,
    load_population,
    report_privacy,
    resolve_run,
    write_outputs,
)
from .providers import ProviderError, ProviderSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROVIDER = 3
EXIT_CALIBRATION = 4


def _csv_tuple(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _json_strings(text: str) -> tuple[str, ...]:
    try:
        values = json.loads(text)
    except json.JSONDecodeError:
        values = None
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ConfigurationError(f"stop_tokens must be a JSON list of strings, got {text!r}")
    return tuple(values)


#: Flags whose names differ from their RunConfig or ProviderSpec field.
_ALIASES = {
    "dataset": "dataset_path",
    "format": "dataset_format",
    "template": "template_path",
    "lambda": "lam",
    "demos_out": "demos_path",
    "traces_out": "traces_path",
    "provider": "provider.kind",
    "provider_seed": "provider.seed",
}


def _option_table() -> dict[str, tuple[str, object]]:
    """key -> (RunConfig field or provider.* field, converter), one key per field."""
    # By field type, except stop_tokens: read as JSON, a token keeps its whitespace.
    converters = {"int": int, "float": float, "tuple[str, ...]": _csv_tuple, "stop_tokens": _json_strings}
    keys = {target: key for key, target in _ALIASES.items()}
    fields = [(f.name, f) for f in dataclasses.fields(RunConfig) if f.name != "provider"]
    fields += [("provider." + f.name, f) for f in dataclasses.fields(ProviderSpec)]
    return {
        keys.get(target, f.name):
            (target, converters.get(target, converters.get(f.type.removesuffix(" | None"), str)))
        for target, f in fields
    }


_OPTIONS = _option_table()


def read_config_file(path) -> dict[str, str]:
    """Parse a flat ``key = value`` file; '#' starts a comment line."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _OPTIONS:
            raise ConfigurationError(f"{path}:{lineno}: unknown option {key!r}")
        values[key] = value.strip()
    return values


def build_run_config(file_values: dict[str, str], flag_values: dict[str, object]) -> RunConfig:
    """Merge config-file strings and parsed flags into a RunConfig."""
    fields: dict[str, object] = {}
    provider_fields: dict[str, object] = {"kind": "synthetic"}

    def assign(key: str, value):
        target, convert = _OPTIONS[key]
        if isinstance(value, str):
            try:
                value = convert(value)
            except ValueError as err:
                raise ConfigurationError(f"option {key!r}: {err}") from err
        if target.startswith("provider."):
            provider_fields[target.split(".", 1)[1]] = value
        else:
            fields[target] = value

    for key, value in file_values.items():
        assign(key, value)
    for key, value in flag_values.items():
        if value is not None:
            assign(key, value)
    fields["provider"] = ProviderSpec(**provider_fields)
    try:
        return RunConfig(**fields)
    except TypeError as err:
        raise ConfigurationError(str(err)) from err


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    for key, (_, convert) in _OPTIONS.items():
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=key, type=convert if convert in (int, float) else None)


def _check_output_paths(config: RunConfig) -> None:
    """Refuse demos and traces paths that resolve to one file, create the
    output directories and refuse a path that cannot be written, before the
    run's first provider call."""
    paths = (config.demos_path, config.traces_path)
    if Path(paths[0]).resolve() == Path(paths[1]).resolve():
        raise ConfigurationError(f"demos_out {paths[0]} and traces_out {paths[1]} are the same file")
    for path in paths:
        try:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigurationError(f"cannot write {path}: {err}") from err
        if Path(path).is_dir():
            raise ConfigurationError(f"cannot write {path}: it is a directory")


def cmd_generate(config: RunConfig, args: argparse.Namespace) -> int:
    run = resolve_run(config)  # checks the aggregator's fields
    per_iteration_coefficient(run.aggregation)  # prices the mechanism
    _check_output_paths(config)
    if config.seed is not None:
        print("note: the DP guarantee assumes the seed is kept secret; omit seed to draw one", file=sys.stderr)
    demos, traces = generate_shots(run)
    write_outputs(demos, traces, config.demos_path, config.traces_path)
    audit = audit_traces(traces, config)
    print(f"wrote {len(demos)} demos to {config.demos_path}")
    print(f"wrote {len(traces)} token traces to {config.traces_path}")
    print(f"sigma1 = {run.aggregation.sigma1:.9g}")
    print(f"audit: consumed <= charged: {audit['ok']} ({audit['consumed']} vs {audit['charged']})")
    if not audit["ok"]:
        return EXIT_CONFIG
    return EXIT_OK


def cmd_report_privacy(config: RunConfig, args: argparse.Namespace) -> int:
    """report_privacy over the dataset file's population or --dataset-size rows."""
    if config.dataset_path is not None and args.dataset_size is not None:
        raise ConfigurationError("give either --dataset or --dataset-size, not both")
    if config.dataset_path is None and args.dataset_size is None:
        raise ConfigurationError("report needs a dataset file or --dataset-size")
    size, _, counts = load_population(config)
    report = report_privacy(config, args.dataset_size if size is None else size, counts)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "report-privacy": cmd_report_privacy,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpfewshot",
        description="Differentially private few-shot demonstration synthesis",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub = subparsers.add_parser(name)
        _add_common_flags(sub)
        if name == "report-privacy":
            sub.add_argument("--dataset-size", dest="dataset_size", type=int)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_values = read_config_file(args.config) if args.config else {}
        config = build_run_config(file_values, {key: getattr(args, key) for key in _OPTIONS})
        return _COMMANDS[args.command](config, args)
    except UnachievableBudgetError as err:
        print(f"calibration infeasible: {err}", file=sys.stderr)
        return EXIT_CALIBRATION
    except ProviderError as err:
        print(f"provider error: {err}", file=sys.stderr)
        return EXIT_PROVIDER
    except (ValueError, AmplificationOverflowError, OSError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
