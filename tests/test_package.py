"""The package surface: every public name is importable from `zerosum`,
each entry point loads only the submodules it runs, and the record
classes behave as the dataclasses they replaced did."""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import zerosum
from zerosum import cli, groups, quad, sums, verify
from zerosum.errors import DomainError, InvalidIdealError

# the public names of `zerosum`, by the submodule that defines each
PUBLIC = {
    "errors": [
        "ArityError", "BudgetExceededError", "DomainError", "InvalidElementError",
        "InvalidIdealError", "ParseError", "StructureError", "ZerosumError",
    ],
    "groups": [
        "AbelianGroup", "ZSequence", "element_add", "element_neg", "format_element",
        "groups_of_order", "parse_element", "parse_entries", "parse_group",
    ],
    "sums": [
        "INFINITY", "DavenportResult", "MZResult", "SumSet", "davenport",
        "has_zero_sum_of_size", "mz", "sumset", "support_size",
    ],
    "quad": [
        "ClassGroup", "QuadIdeal", "QuadOrder", "ShortPrincipalProduct", "class_group",
        "find_short_principal_product", "ideal_class", "ideal_mul", "is_irreducible",
        "is_principal", "principal_ideal", "reduce_form", "reduced_forms",
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
    assert len(NAMES) == 50
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


def _loaded_modules(code: str) -> set[str]:
    """The zerosum submodules a fresh interpreter running code loads, and
    dataclasses and inspect if it loads them."""
    code += (
        "\nprint(' '.join(m for m in sys.modules"
        " if m.startswith('zerosum.') or m in ('dataclasses', 'inspect')))\n"
    )
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
        (_cli_code("quad-class-group", "-d", "26"), {"cli", "errors", "groups", "sums", "quad"}),
    ],
    ids=["import", "from-import-mz", "cli-mz", "cli-verify-all", "cli-quad-demo51", "cli-quad-class-group"],
)
def test_each_entry_point_loads_only_its_submodules(code, loaded):
    # a fresh interpreter per case: `import zerosum` loads no submodule,
    # the CLI's mz needs no verify or quad, verify no quad, quad no verify;
    # and none loads dataclasses or inspect, a large share of start-up
    assert _loaded_modules(code) == {f"zerosum.{m}" for m in loaded}


# ---------------------------------------------------------------------------
# the record classes

Z24 = groups.AbelianGroup((2, 4))
SEQ = groups.ZSequence(Z24, ((0, 1), (1, 0)))
O26 = quad.QuadOrder(26)
P5 = quad.QuadIdeal(5, 2)


@pytest.mark.parametrize(
    "cls, fields, shown, other, bad",
    [
        pytest.param(
            groups.AbelianGroup, {"factors": (2, 4)}, "AbelianGroup(factors=(2, 4))",
            {"factors": (4, 2)}, ({"factors": ()}, ValueError), id="AbelianGroup",
        ),
        pytest.param(
            groups.ZSequence, {"group": Z24, "entries": ((0, 1), (1, 0))},
            "ZSequence(group=AbelianGroup(factors=(2, 4)), entries=((0, 1), (1, 0)))",
            {"entries": ((0, 1),)}, ({"entries": ((1, 0), (0, 1))}, ValueError), id="ZSequence",
        ),
        pytest.param(
            sums.SumSet, {"group": Z24, "lengths": (((0, 1), 1), ((1, 1), 2))},
            "SumSet(group=AbelianGroup(factors=(2, 4)), lengths=(((0, 1), 1), ((1, 1), 2)))",
            {"lengths": ()}, None, id="SumSet",
        ),
        pytest.param(
            sums.MZResult, {"value": 2, "witness": SEQ},
            f"MZResult(value=2, witness={SEQ!r})", {"value": 3}, None, id="MZResult",
        ),
        pytest.param(
            sums.DavenportResult, {"value": 5, "witness": SEQ},
            f"DavenportResult(value=5, witness={SEQ!r})", {"value": 6}, None, id="DavenportResult",
        ),
        pytest.param(
            quad.QuadOrder, {"d": 26}, "QuadOrder(d=26)", {"d": 5}, ({"d": 4}, DomainError), id="QuadOrder",
        ),
        pytest.param(
            quad.QuadIdeal, {"a": 5, "b": 2, "scale": 3}, "QuadIdeal(a=5, b=2, scale=3)",
            {"scale": 1}, ({"b": 5}, InvalidIdealError), id="QuadIdeal",
        ),
        pytest.param(
            quad.ClassGroup,
            {
                "base": quad.QuadOrder(1), "order_h": 1, "element_reps": ((1, 0, 1),),
                "structure": (), "generator_index": 0, "powers": ((1, 0, 1),),
            },
            "ClassGroup(base=QuadOrder(d=1), order_h=1, element_reps=((1, 0, 1),), structure=(),"
            " generator_index=0, powers=((1, 0, 1),))",
            {"order_h": 2}, None, id="ClassGroup",
        ),
        pytest.param(
            quad.ShortPrincipalProduct,
            {"indices": (0,), "classes": (0,), "support": 1, "bound": 1, "product": P5, "generator": (7, 1)},
            "ShortPrincipalProduct(indices=(0,), classes=(0,), support=1, bound=1,"
            " product=QuadIdeal(a=5, b=2, scale=1), generator=(7, 1))",
            {"bound": 2}, None, id="ShortPrincipalProduct",
        ),
        pytest.param(
            verify.VerificationReport,
            {
                "statement_id": "egz", "parameters": {"n": 4}, "instances_checked": 1,
                "orbit_reduced": False, "violations": [], "violations_total": 0,
                "details": {"k": 1}, "elapsed_ms": 3,
            },
            "VerificationReport(statement_id='egz', parameters={'n': 4}, instances_checked=1,"
            " orbit_reduced=False, violations=[], violations_total=0, details={'k': 1}, elapsed_ms=3)",
            {"elapsed_ms": 4}, None, id="VerificationReport",
        ),
    ],
)
def test_record_class_behaves_as_its_dataclass_did(cls, fields, shown, other, bad):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword and not by_position != by_keyword
    assert repr(by_keyword) == shown
    for name, value in fields.items():
        assert getattr(by_keyword, name) is value
    # equal by value, and only to an instance of its own class
    assert cls(**{**fields, **other}) != by_keyword
    assert by_keyword.__eq__(tuple(fields.values())) is NotImplemented
    assert by_keyword != type("Other", (), dict(fields))()
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=1)
    if bad is not None:
        changed, error = bad
        with pytest.raises(error):
            cls(**{**fields, **changed})
    if cls is verify.VerificationReport:
        # frozen, but its fields hold dicts and lists, so it has no hash
        with pytest.raises(TypeError):
            hash(by_keyword)
    else:
        assert hash(by_position) == hash(by_keyword) == hash(tuple(fields.values()))
        assert {by_position: 1}[by_keyword] == 1
    first = next(iter(fields))
    for name in (first, "no_such_field"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(by_keyword, name, 1)
    with pytest.raises(AttributeError, match=f"cannot delete field '{first}'"):
        delattr(by_keyword, first)
    assert getattr(by_keyword, first) is fields[first]


def test_record_defaults():
    assert quad.QuadIdeal(5, 2) == quad.QuadIdeal(5, 2, 1) == P5
    assert P5.scale == 1
    assert verify.VerificationReport("egz", {}, 0, False, [], 0, {}).elapsed_ms == 0
    # details has no default
    with pytest.raises(TypeError):
        verify.VerificationReport("egz", {}, 0, False, [], 0)


def test_record_without_fields_fails_when_defined():
    # no annotations of its own (as under lazy annotations without the
    # future import): refused at once, not a record that equals anything
    with pytest.raises(TypeError, match="Empty has no annotated fields"):

        @groups.record
        class Empty:
            x = 1


def test_class_group_keeps_its_lookup_table_out_of_equality_hash_and_repr():
    cg = quad.class_group(O26)
    # h = 6, cyclic: powers is generator^0 .. generator^5, a visible field
    assert cg.powers[1] == cg.generator and sorted(cg.powers) == list(cg.element_reps)
    assert f"powers={cg.powers!r}" in repr(cg)
    assert "_exponents" not in cg.__dict__
    assert quad.ideal_class(cg, P5) == 5
    assert cg.__dict__["_exponents"] == {p: e for e, p in enumerate(cg.powers)}
    # the table is no field: equality, hash and repr ignore it
    fresh = quad.ClassGroup(cg.base, cg.order_h, cg.element_reps, cg.structure, cg.generator_index, cg.powers)
    assert fresh == cg and hash(fresh) == hash(cg) and repr(fresh) == repr(cg)
    assert "_exponents" not in repr(cg)


def test_sum_set_caches_its_lookup_table_in_its_dict():
    ss = sums.sumset(SEQ)
    assert "_by_value" not in ss.__dict__
    assert ss.min_length_of((1, 1)) == 2 and (0, 0) not in ss
    assert ss.__dict__["_by_value"] == dict(ss.lengths)
    # the cache is no field: equality and repr ignore it
    assert ss == sums.SumSet(ss.group, ss.lengths)
    assert "_by_value" not in repr(ss)
