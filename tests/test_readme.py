"""The README's CLI commands and library example run against the package, so
a removed flag, subcommand or name fails here."""

import pathlib
import re
import shlex

from ineqlab import cli

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(section: str, lang: str) -> str:
    """The first ``lang`` code block after the heading ``section``."""
    body = README[README.index(f"\n## {section}\n"):]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def _cli_commands() -> list[list[str]]:
    joined = _block("CLI", "sh").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines()
            if line.startswith("ineqlab ")]


def test_readme_cli_commands_parse():
    commands = _cli_commands()
    assert len(commands) >= 7  # one per subcommand at least
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]


def test_readme_library_example_runs(capsys):
    exec(_block("Library example", "python"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "4.0 16.0"
