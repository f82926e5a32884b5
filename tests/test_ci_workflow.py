"""The CI workflow against the repository it runs: every script and
test path it names exists, every ``repro``/``repro-fm`` command it runs
parses with the CLI's own parser, and the pin step checks exactly the
workloads ``BENCHMARK.json`` declares."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import pytest

from repro import cli
from repro.observe import analyze, diff, top

REPO_ROOT = Path(__file__).resolve().parent.parent
CI_WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"

#: The parser ``repro.cli.main`` hands each subcommand's arguments to;
#: any other first argument is an experiment id.
SUBCOMMAND_PARSERS = {
    "analyze": analyze.build_parser,
    "top": top.build_parser,
    "diff": diff.build_parser,
}


def _repro_commands() -> list[str]:
    """Every ``repro``/``repro-fm`` command line in the workflow, with
    backslash continuations joined and a one-line step's ``run:``
    dropped."""
    text = CI_WORKFLOW.read_text().replace("\\\n", " ")
    commands = []
    for line in text.splitlines():
        words = line.split()
        if words[:1] == ["run:"]:
            words = words[1:]
        if words[:1] in (["repro"], ["repro-fm"]):
            commands.append(" ".join(words))
    return commands


def test_workflow_names_only_existing_paths():
    paths = set(
        re.findall(r"\b(?:benchmarks|tests|perfbench)/[\w/.-]*\w", CI_WORKFLOW.read_text())
    )
    assert {"perfbench/run.py", "perfbench/tests"} <= paths
    assert [p for p in sorted(paths) if not (REPO_ROOT / p).exists()] == []


@pytest.mark.parametrize("command", _repro_commands())
def test_repro_command_parses(command):
    argv = shlex.split(command)[1:]
    if ">" in argv:  # drop the shell redirection
        argv = argv[: argv.index(">")]
    build_parser = SUBCOMMAND_PARSERS.get(argv[0])
    if build_parser is None:
        args = cli.build_parser().parse_args(argv)
        assert args.experiment in cli.EXPERIMENTS
    else:
        build_parser().parse_args(argv[1:])


def test_pin_step_checks_every_declared_workload():
    text = CI_WORKFLOW.read_text()
    (listed,) = re.findall(r"for workload in ([\w -]+); do", text)
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert sorted(listed.split()) == sorted(w["name"] for w in spec["workloads"])
