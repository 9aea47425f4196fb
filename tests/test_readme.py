"""README states the package's limits as "`module.NAME` = value"; each
must be the value the code uses, so a documented limit cannot drift.
Each `$ zerosum ...` transcript that shows output must be what the CLI
prints, elapsed times aside, and the stated `verify_all(...)` signature
must name the parameters and defaults of the code's."""

from __future__ import annotations

import importlib
import inspect
import re
import shlex
from pathlib import Path

import pytest

from zerosum import cli, verify

README = Path(__file__).resolve().parent.parent / "README.md"
STATED = re.compile(r"`(\w+)\.([A-Z][A-Z0-9_]*)`\s+=\s+(\d[\d,]*(?:\^\d+)?)")
ELAPSED = re.compile(r"elapsed=\d+ms")
SIGNATURE = re.compile(r"`verify_all(\(.*?\))`", re.S)


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


def _parameters(fn) -> list[tuple]:
    return [(p.name, p.kind, p.default) for p in inspect.signature(fn).parameters.values()]


def test_readme_signature_matches_the_code():
    (stated,) = SIGNATURE.findall(README.read_text())
    namespace: dict = {}
    exec(f"def verify_all{' '.join(stated.split())}: pass", namespace)
    assert _parameters(namespace["verify_all"]) == _parameters(verify.verify_all), stated
