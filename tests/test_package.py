"""The package surface: every public name is importable from `zerosum`,
and each entry point loads only the submodules it runs."""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import zerosum
from zerosum import cli, verify

# the public names of `zerosum`, by the submodule that defines each
PUBLIC = {
    "errors": [
        "ArityError", "BudgetExceededError", "DomainError", "InvalidElementError",
        "InvalidIdealError", "ParseError", "StructureError", "ZerosumError",
    ],
    "groups": [
        "AbelianGroup", "ZSequence", "element_add", "element_neg", "format_element",
        "groups_of_order", "parse_element", "parse_entries", "parse_group", "units",
    ],
    "sums": [
        "INFINITY", "DavenportResult", "MZResult", "SumSet", "davenport",
        "has_zero_sum_of_size", "mz", "sumset", "support_size",
    ],
    "quad": [
        "ClassGroup", "QuadIdeal", "QuadOrder", "ShortPrincipalProduct", "class_group",
        "find_short_principal_product", "ideal_class", "ideal_mul", "ideal_pow",
        "is_irreducible", "is_principal", "principal_ideal", "reduce_form",
        "reduced_class_ideal", "reduced_forms",
    ],
    "verify": [
        "VerificationReport", "clear_caches", "reports_to_json", "verify_all",
        "verify_corollary_short_zero_sum", "verify_davenport_table", "verify_egz",
        "verify_extremal_structure", "verify_prop_all_equal", "verify_sumset_lemmas",
        "verify_thm_main",
    ],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_all_lists_the_public_names():
    assert len(NAMES) == 53
    assert sorted(zerosum.__all__) == NAMES


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_submodule_object(module):
    mod = importlib.import_module(f"zerosum.{module}")
    assert getattr(zerosum, module) is mod
    for name in PUBLIC[module]:
        assert getattr(zerosum, name) is getattr(mod, name), name


def test_star_import_dir_and_unknown_names():
    namespace: dict = {}
    exec("from zerosum import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert set(NAMES) <= set(dir(zerosum))
    from zerosum import verify as by_from

    assert by_from is verify
    with pytest.raises(AttributeError, match="no_such_name"):
        zerosum.no_such_name


def test_cli_statement_ids_are_verify_statements():
    assert cli.VERIFY_STATEMENTS == ("all", *verify.STATEMENTS)


def _loaded_submodules(code: str) -> set[str]:
    code += "\nprint(' '.join(m for m in sys.modules if m.startswith('zerosum.')))\n"
    src = str(Path(zerosum.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={"PYTHONPATH": src}, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _cli_code(*argv: str) -> str:
    return (
        "import contextlib, io, sys\n"
        "from zerosum import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({list(argv)!r}) == 0\n"
    )


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import sys, zerosum", set()),
        ("import sys\nfrom zerosum import mz", {"errors", "groups", "sums"}),
        (_cli_code("mz", "--group", "Z6", "--seq", "2,2,3,1,1,1"), {"cli", "errors", "groups", "sums"}),
        (
            _cli_code("verify", "all", "--n-max", "6", "--shards", "1"),
            {"cli", "errors", "groups", "sums", "verify"},
        ),
        (
            _cli_code("quad-demo51", "-d", "26", "--ideals", "5,2;5,2;5,2;2,0;3,1;3,1"),
            {"cli", "errors", "groups", "sums", "quad"},
        ),
    ],
    ids=["import", "from-import-mz", "cli-mz", "cli-verify-all", "cli-quad-demo51"],
)
def test_each_entry_point_loads_only_its_submodules(code, loaded):
    # a fresh interpreter per case: `import zerosum` loads no submodule,
    # the CLI's mz needs no verify or quad, verify no quad, quad no verify
    assert _loaded_submodules(code) == {f"zerosum.{m}" for m in loaded}
