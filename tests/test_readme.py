"""The README's "Quickstart" and "Library use" examples run as written, and
its list of flag aliases is the CLI's."""

import re
import shlex
from pathlib import Path

from dpfewshot import cli
from dpfewshot.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"## {title}", 1)[1]


def test_quickstart_commands_run(tmp_path, monkeypatch, capsys):
    block = re.search(r"```sh\n(.*?)```", _section("Quickstart"), re.S).group(1)
    config = re.search(r"cat > run\.cfg <<'EOF'\n(.*?)^EOF$", block, re.S | re.M).group(1)
    (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    commands = [
        shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("dpfewshot ")
    ]
    assert len(commands) == 3
    for argv in commands:
        assert main(argv[1:]) == EXIT_OK, argv
        assert capsys.readouterr().err == ""


def test_library_use_example_runs():
    code = re.search(r"```python\n(.*?)```", _section("Library use"), re.S).group(1)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["vector"].shape == (100,)
    assert namespace["trace"].mean_estimates >= 1


def test_flag_aliases_match_the_cli():
    sentence = re.search(r"except these aliases:(.*?)\.\s", _section("Quickstart"), re.S).group(1)
    pairs = re.findall(r"`(\w+)`\s+\(`([\w.]+)`\)", sentence)
    assert sorted(pairs) == sorted(cli._ALIASES.items())
