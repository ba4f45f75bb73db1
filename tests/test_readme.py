"""The README's CLI commands and its library sketch run as written, and the
CLI options it names exist."""

import argparse
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


def test_readme_library_sketch_runs(capsys):
    # the first ``python`` block: a cap certificate and a tube on the sphere
    sketch = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(sketch, str(README), "exec"), {})
    assert capsys.readouterr().out == "PASS True\n"


def cli_options() -> set[str]:
    """The option strings of the top-level parser and of every subcommand."""
    parser = cli.build_parser()
    parsers = [parser] + [choice for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction)
                          for choice in action.choices.values()]
    return {opt for p in parsers for action in p._actions for opt in action.option_strings}


def test_readme_options_exist():
    # the install lines name pip's options, not the CLI's
    text = "\n".join(line for line in README.read_text().splitlines()
                     if "pip install" not in line)
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", text))
    missing = named - cli_options()
    assert named and not missing, sorted(missing)


def test_every_cli_option_documented():
    # the converse of test_readme_options_exist: no option is missing from the text
    text = README.read_text()
    undocumented = {opt for opt in cli_options() - {"-h", "--help"}
                    if not re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", text)}
    assert not undocumented, sorted(undocumented)


def _run_readme(tmp_path, monkeypatch, command):
    """Run the README's ``command`` invocations; yield each one's result JSON."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HOMCONTRACT_OUT", raising=False)
    for argv in readme_commands():
        args = cli.build_parser().parse_args(argv)
        if args.command == command:
            assert cli.main(argv) == 0, argv
            yield json.loads((Path(args.out or "out") / RESULT_FILES[command]).read_text())


def test_readme_loop_checks_report_exact_geodesics(tmp_path, monkeypatch, capsys):
    reports = list(_run_readme(tmp_path, monkeypatch, "loop-check"))
    assert reports
    for rep in reports:
        assert rep["geodesic"] is True and not any(rep["u_uu"])


def test_readme_reach_certificate_is_exact(tmp_path, monkeypatch, capsys):
    # the demo field's measure is exactly 0 on bi-invariant so3
    (rep,) = _run_readme(tmp_path, monkeypatch, "reach")
    assert rep["certificate"]["mu_max"] == 0.0
