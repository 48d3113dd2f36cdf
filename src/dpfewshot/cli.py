"""Command-line surface: generate, measure-radius, report-privacy (which
calibrates sigma1 when given a target epsilon) and compare-utility.

Every flag is named after a RunConfig or ProviderSpec field (_ALIASES
lists the ten that differ) and can also be set in a flat ``key = value``
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
from .data import label_pools, load_dataset, pool_sizes
from .pipeline import (
    ConfigurationError,
    RunConfig,
    audit_traces,
    generate_shots,
    measure_cluster_radius,
    report_privacy,
    resolve_run,
    run_utility_comparison,
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
    "runs": "n_runs",
    "trials": "n_trials",
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


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = read_config_file(args.config) if args.config else {}
    flag_values = {key: getattr(args, key, None) for key in _OPTIONS}
    return build_run_config(file_values, flag_values)


def _privacy_report(config: RunConfig, dataset_size: int | None) -> dict:
    """report_privacy over the dataset file (rows and the label pool sizes
    resolve_run reads) or over --dataset-size rows."""
    if config.dataset_path is not None:
        if dataset_size is not None:
            raise ConfigurationError("give either --dataset or --dataset-size, not both")
        dataset = load_dataset(config.dataset_path, config.dataset_format, config.labels or None)
        return report_privacy(config, len(dataset), pool_sizes(label_pools(dataset)))
    if dataset_size is None:
        raise ConfigurationError("report needs a dataset file or --dataset-size")
    return report_privacy(config, dataset_size)


def _resolve(args):
    """The object the command runs on: a ResolvedRun, or the privacy report
    for report-privacy.

    Refuses the run before the command releases anything unless the
    aggregator accepts its mechanism and the accountant can price it.
    """
    config = _config_from_args(args)
    if args.command == "report-privacy":
        report = _privacy_report(config, args.dataset_size)  # prices the mechanism
        config.aggregation(report["sigma1"], config.k)
        return report
    run = resolve_run(config)  # checks the aggregator's fields
    per_iteration_coefficient(run.aggregation)
    return run


def _check_output_paths(config: RunConfig) -> None:
    """Create the output directories and refuse a path that cannot be
    written, before the run's first provider call."""
    for path in (config.demos_path, config.traces_path):
        try:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigurationError(f"cannot write {path}: {err}") from err
        if Path(path).is_dir():
            raise ConfigurationError(f"cannot write {path}: it is a directory")


def cmd_generate(run) -> int:
    config = run.config
    _check_output_paths(config)
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


def cmd_measure_radius(run) -> int:
    report = measure_cluster_radius(run)
    oracle, private = report["oracle"], report["goodradius"]
    print(f"runs = {report['runs']}")
    print("position  oracle    goodradius")
    columns = zip(oracle["per_position_mean"], private["per_position_mean"])
    for position, (exact, searched) in enumerate(columns):
        print(f"{position:8d}  {exact:.6f}  {searched:.6f}")
    for mode, block in (("oracle", oracle), ("goodradius", private)):
        print(f"{mode}: mean = {block['mean']:.6f}, std = {block['std']:.6f}, max = {block['max']:.6f}")
    return EXIT_OK


def cmd_report_privacy(report: dict) -> int:
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_compare_utility(run) -> int:
    print(json.dumps(run_utility_comparison(run), indent=2, sort_keys=True))
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "measure-radius": cmd_measure_radius,
    "report-privacy": cmd_report_privacy,
    "compare-utility": cmd_compare_utility,
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
        return _COMMANDS[args.command](_resolve(args))
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
