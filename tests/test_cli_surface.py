"""The CLI's surface: one parser per command, and the docs that drive it.

Every command declares only the flags it reads, so a flag given to the
wrong command is an argparse usage error.  Three pins keep that true:

* the rejection table — every misuse is exit 2 naming the offending
  flag (or operand) on stderr, before anything runs;
* the accepted-flag lists — each command's parser accepts exactly its
  committed flag set, so a flag attached to the wrong command fails;
* the documented commands — every ``ring-repro …`` / ``python -m
  repro.cli …`` line in README.md and the CLI docstring parses.
"""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

import pytest

from conftest import assert_rejected
from repro import cli

# (argv, the flag or operand its usage error must name)
REJECTIONS = [
    # experiment runs: flags of other commands, bad values, combinations
    (["E8", "--quick", "--all"], "--all"),
    (["E8", "--quick", "--refit"], "--refit"),
    (["E8", "--quick", "--prune-stale"], "--prune-stale"),
    (["E8", "--open", "--no-store"], "--open"),
    (["E8", "--out", "site", "--no-store"], "--out"),
    (["E8", "--quick", "--fleet", "3", "--no-store"], "--fleet"),
    (["E9", "--quick", "--into", "dir"], "--into"),
    (["E8", "--sizes", "6,twelve"], "--sizes"),
    (["E8", "--quick", "--preset", "long"], "--quick"),
    (["E9", "--quick", "--mode", "exact"], "--mode"),
    (["E8", "--quick", "--jobs", "0"], "--jobs"),
    (["E8", "--quick", "--resume", "--no-store"], "--no-store"),
    (["E9", "--quick", "--shard", "0/3"], "--shard"),
    (["E9", "--quick", "--shard", "4/3"], "--shard"),
    (["E9", "--quick", "--shard", "x/3"], "--shard"),
    (["E9", "--quick", "--shard", "1/0"], "--shard"),
    (["E9", "--quick", "--shard", "1.5/3"], "--shard"),
    (["E9", "--quick", "--shard", "1/3", "--no-store"], "--no-store"),
    (["E9", "--quick", "--shard-strategy", "weight"], "--shard-strategy"),
    # report
    (["report", "--quick", "--shard", "1/3"], "--shard"),
    (["report", "E8", "--quick", "--no-store"], "--no-store"),
    (["report", "E8", "--jobs", "2"], "--jobs"),
    (["report", "E8", "--bench-dir", "benchmarks"], "--bench-dir"),
    (["report", "E9", "--quick", "--strip-seconds"], "--strip-seconds"),
    (["report", "E8", "--dry-run"], "--dry-run"),
    (["report", "--quick"], "--all"),
    # dashboard
    (["dashboard", "E8"], "E8"),
    (["dashboard", "--refit"], "--refit"),
    (["dashboard", "--prune-stale"], "--prune-stale"),
    (["dashboard", "--resume"], "--resume"),
    (["dashboard", "--no-store"], "--no-store"),
    (["dashboard", "--profile"], "--profile"),
    (["dashboard", "--quick", "--shard", "1/3"], "--shard"),
    (["dashboard", "--fleet", "0"], "--fleet"),
    # ingest
    (["ingest"], "SRC"),
    (["ingest", "src", "--jobs", "2"], "--jobs"),
    (["ingest", "src", "--store", "other"], "--store"),
    (["ingest", "src", "--quick"], "--quick"),
    # trace
    (["trace", "--jobs", "2"], "--jobs"),
    (["trace", "E8"], "E8"),
    # ledger
    (["ledger"], "action"),
    (["ledger", "prune"], "prune"),
    (["ledger", "seed"], "seed"),
    (["ledger", "check", "extra"], "extra"),
    (["ledger", "append"], "FILE"),
    (["ledger", "check", "--window", "4"], "--window"),
    (["ledger", "check", "--band-k", "3"], "--band-k"),
    (["ledger", "check", "--min-history", "2"], "--min-history"),
    (["ledger", "check", "--run-id", "r0"], "--run-id"),
    (["ledger", "append", "f.json", "--rel-floor", "0.5"], "--rel-floor"),
]


@pytest.mark.parametrize(
    "argv, flag", REJECTIONS, ids=[" ".join(argv) for argv, _ in REJECTIONS]
)
def test_rejected_with_exit_2_naming_the_flag(capsys, argv, flag):
    assert_rejected(capsys, argv, flag)


_PROFILE = {"--quick", "--preset", "--mode", "--sizes", "--store"}

# The committed surface: the flags each command reads, and no others.
ACCEPTED_FLAGS = {
    "run": _PROFILE
    | {"--profile", "--jobs", "--resume", "--no-store", "--shard",
       "--shard-strategy"},
    "report": _PROFILE
    | {"--profile", "--all", "--refit", "--prune-stale", "--dry-run"},
    "dashboard": _PROFILE
    | {"--jobs", "--out", "--open", "--bench-dir", "--fleet"},
    "ingest": {"--into", "--strip-seconds"},
    "trace": {"--campaign"},
    "ledger": set(),
    "ledger append": {"--ledger", "--run-id"},
    "ledger check": {"--ledger", "--rel-floor"},
}


def _parsers() -> "dict[str, argparse.ArgumentParser]":
    parsers = {}
    for command in ("run", *cli.COMMANDS):
        parser = parsers[command] = cli.command_parser(command)
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    parsers[f"{command} {name}"] = sub
    return parsers


def test_each_command_accepts_exactly_its_flags():
    accepted = {
        name: {
            option
            for action in parser._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        }
        for name, parser in _parsers().items()
    }
    assert accepted == ACCEPTED_FLAGS


_CLI_LINE = re.compile(
    r"^(?:[A-Z_]+=\S+\s+)*(?:ring-repro|python -m repro\.cli)\s+(.*)$"
)


def _documented_commands() -> "list[str]":
    """The arguments of every CLI line in README.md's code blocks and in
    the CLI docstring."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8"
    )
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    lines += cli.__doc__.splitlines()
    return [
        shlex.join(shlex.split(match.group(1), comments=True))
        for match in map(_CLI_LINE.match, map(str.strip, lines))
        if match
    ]


DOCUMENTED = _documented_commands()


def test_docs_cover_every_command():
    commands = {
        cli.parse_command(shlex.split(line))[0]
        for line in DOCUMENTED
    }
    assert commands == {"run", *cli.COMMANDS}


@pytest.mark.parametrize("line", DOCUMENTED)
def test_documented_command_parses(line):
    """Parsing only: nothing runs, but every usage check applies."""
    cli.parse_command(shlex.split(line))
