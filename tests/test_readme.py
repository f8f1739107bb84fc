"""README examples run as written: the library example and every command line."""

import json
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from irgalab.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

# The files the command examples name, with contents the commands accept.
PLACEHOLDERS = {
    "P.mat": "2 1\n1 1\n",
    "A.mat": "2 1\n1 1\n",
    "B.mat": "4 1 0\n1 3 1\n0 1 2\n",
    "S.mat": "2/3 1/3\n1/3 2/3\n",
    "my.poly": "a^2 b + 1/2 c - 1\n",
}


def _block(heading: str, language: str) -> str:
    """The first ``language`` code block after the ``heading`` line."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


COMMANDS = [
    shlex.split(line, comments=True)
    for line in _block("## Command line", "sh").splitlines()
    if line.startswith("irgalab ")
]


def test_every_command_has_an_example():
    documented = {tuple(argv[1:3]) for argv in COMMANDS}
    commands = {(name, sub) for name, group in main.commands.items() for sub in group.commands}
    assert commands <= documented


def test_every_documented_flag_is_an_option():
    # A removed option must not stay documented; pip's flag is not ours.
    options = {"--help", "--no-build-isolation"}
    stack = [main]
    while stack:
        command = stack.pop()
        options.update(opt for param in command.params for opt in param.opts)
        stack.extend(getattr(command, "commands", {}).values())
    assert set(re.findall(r"--[A-Za-z][\w-]*", README)) <= options


def test_every_module_is_in_the_layout():
    listed = set(re.findall(r"^  (\w+\.py) ", _block("## Layout", ""), re.M))
    modules = {path.name for path in (ROOT / "src" / "irgalab").glob("*.py")}
    assert listed == modules - {"__init__.py"}


def test_library_example_runs():
    exec(compile(_block("## Library example", "python"), "README.md", "exec"), {})


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv[1:]) for argv in COMMANDS])
def test_command_line_example_runs(tmp_path, monkeypatch, argv):
    for name, text in PLACEHOLDERS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, argv[1:])
    assert result.exit_code in (0, 1), result.output
    report = json.loads(result.stdout)
    assert report["command"] == " ".join(argv[1:3])


def test_size_six_reference_figures_match_the_asset():
    from irgalab.sos import _read_asset, builtin_expression

    code = re.sub(r"#[^\n]*", "", _read_asset("s6-entry12"))
    tokens = re.findall(r"[0-9]+(?:/[0-9]*)?|[⁰¹²³⁴⁵⁶⁷⁸⁹]+|\S", code)
    groups, stack = [], []
    for at, char in enumerate(code):
        if char == "(":
            stack.append(at)
        elif char == ")":
            groups.append(code[stack.pop() + 1:at])
    instructions = len(builtin_expression("s6-entry12").program)
    text = " ".join(README.split())
    assert f"the {len(tokens):,} tokens of the size-6 reference" in text
    assert f"become {instructions:,} instructions" in text
    assert f"Its {len(groups):,} parenthesized groups have {len(set(groups)):,} distinct texts" in text
