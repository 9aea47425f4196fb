"""README states the package's limits as "`module.NAME` = value"; each
must be the value the code uses, so a documented limit cannot drift."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
STATED = re.compile(r"`(\w+)\.([A-Z][A-Z0-9_]*)`\s+=\s+(\d[\d,]*(?:\^\d+)?)")


def _value(text: str) -> int:
    base, _, power = text.replace(",", "").partition("^")
    return int(base) ** int(power) if power else int(base)


def test_readme_limits_match_the_code():
    stated = {(m, name): _value(v) for m, name, v in STATED.findall(README.read_text())}
    assert set(stated) >= {
        ("sums", "DENSE_ORDER_CAP"),
        ("sums", "WITNESS_BIT_CAP"),
        ("sums", "DAVENPORT_ORDER_CAP"),
        ("quad", "CLASS_GROUP_DISC_CAP"),
        ("verify", "POOL_MIN_INSTANCES"),
        ("verify", "SCAN_LEAF_CAP"),
    }, stated
    for (module, name), value in stated.items():
        assert getattr(importlib.import_module(f"zerosum.{module}"), name) == value, name
