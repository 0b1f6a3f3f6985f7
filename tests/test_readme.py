"""The README states the command line's contract.

Every subcommand, every long option its ``--help`` lists, every config
key (a ``PipelineConfig`` field) and every exit code of ``cli`` appears
in ``README.md``, so none of them ships without its line there.
"""

import re
from pathlib import Path

import pytest

from nextphrase import cli

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _help(capsys, *argv) -> str:
    assert cli.main([*argv, "--help"]) == 0
    return capsys.readouterr().out


# the subcommands as the top-level usage line lists them, {build-npp,...}
COMMANDS = re.search(r"\{([\w,-]+)\}", cli.build_parser().format_usage()).group(1).split(",")


@pytest.mark.parametrize("argv", [[], *([command] for command in COMMANDS)], ids=lambda argv: argv[0] if argv else "top-level")
def test_every_long_option_is_in_the_readme(capsys, argv):
    text = _help(capsys, *argv)
    options = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    assert "--help" in options
    missing = [
        option
        for option in sorted(options)
        if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", README)
    ]
    assert missing == []


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_has_a_section(command):
    assert f"\n### {command}\n" in README


def test_every_config_key_is_in_the_readme():
    assert [key for key in cli.PipelineConfig._fields if f"`{key}`" not in README] == []


def test_every_exit_code_has_a_row():
    codes = sorted(value for name, value in vars(cli).items() if name.startswith("EXIT_"))
    assert codes == [0, 1, 2, 3, 4]
    rows = re.findall(r"^\| (\d+) \|", README, re.M)
    assert [int(code) for code in rows] == codes
