"""README states the package's limits as "`module.NAME` = value"; each
must be the value the code uses, so a documented limit cannot drift.
Each `$ zerosum ...` transcript that shows output must be what the CLI
prints, elapsed times aside."""

from __future__ import annotations

import importlib
import re
import shlex
from pathlib import Path

import pytest

from zerosum import cli

README = Path(__file__).resolve().parent.parent / "README.md"
STATED = re.compile(r"`(\w+)\.([A-Z][A-Z0-9_]*)`\s+=\s+(\d[\d,]*(?:\^\d+)?)")
ELAPSED = re.compile(r"elapsed=\d+ms")


def _transcripts() -> list[tuple[str, str]]:
    """(command, shown output) for each `$ zerosum` line that shows output."""
    found = []
    for block in re.findall(r"```text\n(.*?)```", README.read_text(), re.S):
        for chunk in re.split(r"\n(?=\$ )", block.strip()):
            command, _, output = chunk.partition("\n")
            if command.startswith("$ zerosum ") and output.strip():
                found.append((command[len("$ zerosum ") :], output.strip() + "\n"))
    return found


TRANSCRIPTS = _transcripts()


def _value(text: str) -> int:
    base, _, power = text.replace(",", "").partition("^")
    return int(base) ** int(power) if power else int(base)


def test_readme_limits_match_the_code():
    stated = {(m, name): _value(v) for m, name, v in STATED.findall(README.read_text())}
    assert set(stated) >= {
        ("sums", "DENSE_ORDER_CAP"),
        ("sums", "DENSE_BIT_CAP"),
        ("sums", "WITNESS_BIT_CAP"),
        ("sums", "DAVENPORT_ORDER_CAP"),
        ("quad", "CLASS_GROUP_DISC_CAP"),
        ("verify", "POOL_DEPTH"),
        ("verify", "SCAN_WORK_CAP"),
    }, stated
    for (module, name), value in stated.items():
        assert getattr(importlib.import_module(f"zerosum.{module}"), name) == value, name
    # the pool gate is one order per family
    gate = importlib.import_module("zerosum.verify").POOL_MIN_ORDER
    assert f"`verify.POOL_MIN_ORDER` = `{gate!r}`" in README.read_text()


@pytest.mark.parametrize("command, shown", TRANSCRIPTS, ids=[c for c, _ in TRANSCRIPTS])
def test_readme_transcripts_match_the_cli(capsys, command, shown):
    cli.main(shlex.split(command))
    printed = capsys.readouterr().out
    assert ELAPSED.sub("elapsed=…ms", printed) == ELAPSED.sub("elapsed=…ms", shown)
