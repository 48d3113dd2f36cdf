"""Command-line surface: generate, measure-radius, report-privacy,
compare-utility, calibrate.

Every flag mirrors a RunConfig field and can also be set in a flat
``key = value`` config file; flags override file values.  Exit codes:
0 success, 2 configuration error, 3 provider error, 4 calibration
infeasible.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from .accountant import UnachievableBudgetError
from .data import DatasetError, load_dataset
from .pipeline import (
    ConfigurationError,
    ResolvedRun,
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


# key -> (RunConfig attribute or provider.* pseudo-field, converter)
_OPTIONS = {
    "task": ("task", str),
    "dataset": ("dataset_path", str),
    "format": ("dataset_format", str),
    "labels": ("labels", _csv_tuple),
    "template": ("template_path", str),
    "m": ("m", int),
    "n": ("n", int),
    "k": ("k", int),
    "t_max": ("t_max", int),
    "n_shots": ("n_shots", int),
    "lambda": ("lam", float),
    "t_hat": ("t_hat", int),
    "mu": ("mu", float),
    "rho": ("rho", float),
    "theta": ("theta", float),
    "sigma0": ("sigma0", float),
    "sigma1": ("sigma1", float),
    "sigma2": ("sigma2", float),
    "epsilon": ("epsilon", float),
    "delta": ("delta", float),
    "gamma_mode": ("gamma_mode", str),
    "alpha_max": ("alpha_max", int),
    "seed": ("seed", int),
    "demos_out": ("demos_path", str),
    "traces_out": ("traces_path", str),
    "stop_tokens": ("stop_tokens", _csv_tuple),
    "radius_mode": ("radius_mode", str),
    "runs": ("n_runs", int),
    "trials": ("n_trials", int),
    "provider": ("provider.kind", str),
    "provider_seed": ("provider.seed", int),
    "vocab_size": ("provider.vocab_size", int),
    "spread": ("provider.spread", float),
    "outlier_fraction": ("provider.outlier_fraction", float),
    "base_url": ("provider.base_url", str),
    "model": ("provider.model", str),
    "max_logprobs": ("provider.max_logprobs", int),
    "auth_env": ("provider.auth_env", str),
    "timeout": ("provider.timeout", float),
    "max_retries": ("provider.max_retries", int),
}


def read_config_file(path) -> dict[str, str]:
    """Parse a flat ``key = value`` file; '#' starts a comment line."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
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
            value = convert(value)
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
        if convert in (int, float):
            parser.add_argument(flag, dest=key, type=convert)
        else:
            parser.add_argument(flag, dest=key)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = read_config_file(args.config) if args.config else {}
    flag_values = {key: getattr(args, key, None) for key in _OPTIONS}
    return build_run_config(file_values, flag_values)


def _dataset_stats(config: RunConfig, override_size: int | None):
    """(dataset_size, label_counts) for privacy reporting."""
    if config.dataset_path is not None:
        dataset = load_dataset(config.dataset_path, config.dataset_format, config.labels or None)
        return len(dataset), Counter(ex.label for ex in dataset)
    if override_size is not None:
        return override_size, None
    raise ConfigurationError("report needs a dataset file or --dataset-size")


def cmd_generate(args) -> int:
    config = _config_from_args(args)
    run: ResolvedRun = resolve_run(config)
    demos, traces = generate_shots(run)
    write_outputs(demos, traces, config.demos_path, config.traces_path)
    audit = audit_traces(traces, config)
    print(f"wrote {len(demos)} demos to {config.demos_path}")
    print(f"wrote {len(traces)} token traces to {config.traces_path}")
    print(f"sigma1 = {run.sigma1:.9g}")
    print(f"audit: consumed <= charged: {audit['ok']} ({audit['consumed']} vs {audit['charged']})")
    if not audit["ok"]:
        return EXIT_CONFIG
    return EXIT_OK


def cmd_measure_radius(args) -> int:
    config = _config_from_args(args)
    report = measure_cluster_radius(resolve_run(config))
    print(f"mode = {report['mode']}, runs = {report['runs']}")
    print("position  mean_radius")
    for position, radius in enumerate(report["per_position_mean"]):
        print(f"{position:8d}  {radius:.6f}")
    print(f"overall mean = {report['mean']:.6f}, std = {report['std']:.6f}, max = {report['max']:.6f}")
    return EXIT_OK


def cmd_report_privacy(args) -> int:
    config = _config_from_args(args)
    size, counts = _dataset_stats(config, args.dataset_size)
    report = report_privacy(config, size, counts)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_compare_utility(args) -> int:
    config = _config_from_args(args)
    report = run_utility_comparison(resolve_run(config))
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_calibrate(args) -> int:
    config = _config_from_args(args)
    if config.epsilon is None:
        raise ConfigurationError("calibrate needs a target --epsilon")
    size, counts = _dataset_stats(config, args.dataset_size)
    report = report_privacy(config, size, counts)
    sigma1 = report["sigma1"]
    print(f"sigma1 = {sigma1:.9g}")
    print(json.dumps(report["epsilon"], indent=2, sort_keys=True))
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "measure-radius": cmd_measure_radius,
    "report-privacy": cmd_report_privacy,
    "compare-utility": cmd_compare_utility,
    "calibrate": cmd_calibrate,
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
        if name in ("report-privacy", "calibrate"):
            sub.add_argument("--dataset-size", dest="dataset_size", type=int)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UnachievableBudgetError as err:
        print(f"calibration infeasible: {err}", file=sys.stderr)
        return EXIT_CALIBRATION
    except ProviderError as err:
        print(f"provider error: {err}", file=sys.stderr)
        return EXIT_PROVIDER
    except (ConfigurationError, DatasetError, ValueError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
