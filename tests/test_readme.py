"""The README's CLI commands run as written and write their result files."""

import json
import re
import shlex
from pathlib import Path

from homcontract import cli

README = Path(__file__).resolve().parent.parent / "README.md"
RESULT_FILES = {"classify": "classify.json", "certify": "certificate.json",
                "loop-check": "loop_report.json", "reach": "reach.json"}


def readme_commands() -> list[list[str]]:
    """The arguments of each ``homcontract`` command in the first ``sh`` block
    of README.md that has any, with backslash continuations joined."""
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        lines = block.replace("\\\n", " ").splitlines()
        argvs = [shlex.split(line, comments=True) for line in lines]
        commands = [argv[1:] for argv in argvs if argv[:1] == ["homcontract"]]
        if commands:
            return commands
    return []


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HOMCONTRACT_OUT", raising=False)
    commands = readme_commands()
    parsed = [cli.build_parser().parse_args(argv) for argv in commands]
    assert {args.command for args in parsed} == set(RESULT_FILES)
    for argv, args in zip(commands, parsed):
        assert cli.main(argv) == 0, argv
        # the file exists and was written by this command, not an earlier one
        path = Path(args.out or "out") / RESULT_FILES[args.command]
        config = json.loads(path.read_text())["config"]
        assert config == {k: v for k, v in vars(args).items() if k not in ("func", "out")}
