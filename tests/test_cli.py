"""End-to-end CLI behavior: output text, JSON documents, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import zerosum
from zerosum import cli, verify

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
needs_pyproject = pytest.mark.skipif(
    not PYPROJECT.is_file(), reason=f"no pyproject.toml at {PYPROJECT}"
)


@pytest.fixture(autouse=True)
def fresh_caches():
    verify.clear_caches()
    yield
    verify.clear_caches()


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mz_text_worked_example(capsys):
    code, out, _ = run_cli(capsys, "mz", "--group", "Z6", "--seq", "2,2,3,1,1,1")
    assert code == 0
    assert "mz: 3" in out
    assert "witness: 2+3+1=0" in out
    assert "supp: 3" in out


def test_mz_json_matches_text(capsys):
    code, out, _ = run_cli(
        capsys, "mz", "--group", "Z6", "--seq", "2,2,3,1,1,1", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mz"] == 3
    assert doc["witness"] == [2, 3, 1]
    assert doc["supp"] == 3
    assert doc["sequence"] == [2, 2, 3, 1, 1, 1]


def test_mz_infinity_serialization(capsys):
    code, out, _ = run_cli(capsys, "mz", "--group", "Z5", "--seq", "1,3,3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mz"] == "infinity"
    assert doc["witness"] is None
    code, out, _ = run_cli(capsys, "mz", "--group", "Z5", "--seq", "1,3,3")
    assert code == 0
    assert "infinity" in out


def test_mz_rank_two_group(capsys):
    code, out, _ = run_cli(
        capsys, "mz", "--group", "Z2xZ2", "--seq", "(0,1),(0,1)", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mz"] == 2
    assert doc["witness"] == [[0, 1], [0, 1]]


def test_sigma_worked_example(capsys):
    code, out, _ = run_cli(capsys, "sigma", "--group", "Z5", "--seq", "1,1,4")
    assert code == 0
    assert "sigma: {0, 1, 2, 4}" in out
    code, out, _ = run_cli(capsys, "sigma", "--group", "Z5", "--seq", "1,1,4", "--json")
    doc = json.loads(out)
    assert doc["values"] == [0, 1, 2, 4]
    assert doc["min_lengths"] == {"0": 2, "1": 1, "2": 2, "4": 1}


def test_supp_command(capsys):
    code, out, _ = run_cli(capsys, "supp", "--group", "Z5", "--seq", "1,3,3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["supp"] == 2
    assert doc["support"] == [1, 3]


def test_davenport_command(capsys):
    code, out, _ = run_cli(capsys, "davenport", "--group", "Z2xZ4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["davenport"] == 5
    assert len(doc["witness"]) == 4


def test_verify_single_statement(capsys):
    code, out, _ = run_cli(capsys, "verify", "support-bound", "--n", "6")
    assert code == 0
    assert "[PASS] support-bound n=6" in out
    assert "instances=462" in out


def test_verify_all_json_document(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--n-max", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    ids = {r["statement_id"] for r in doc["reports"]}
    assert ids == {
        "support-bound",
        "full-length-constant",
        "extremal-structure",
        "short-zero-sum",
        "sumset-growth",
        "egz",
        "davenport-table",
    }


def test_verify_text_and_json_agree(capsys):
    code, text_out, _ = run_cli(capsys, "verify", "egz", "--n", "5")
    assert code == 0
    code, json_out, _ = run_cli(capsys, "verify", "egz", "--n", "5", "--json")
    assert code == 0
    doc = json.loads(json_out)
    report = doc["reports"][0]
    assert f"instances={report['instances_checked']}" in text_out


def test_verify_sumset_growth_over_a_named_group(capsys):
    code, out, _ = run_cli(capsys, "verify", "sumset-growth", "--group", "Z2xZ4")
    assert code == 0
    assert "[PASS] sumset-growth group=Z2xZ4 k_max=6 instances=94" in out
    code, out, _ = run_cli(capsys, "verify", "sumset-growth", "--group", "Z2xZ4", "--json")
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert report["parameters"] == {"group": "Z2xZ4", "k_max": 6}
    assert report["instances_checked"] == 94
    assert report["orbit_reduced"] is False


def test_verify_violations_exit_one(capsys, monkeypatch):
    monkeypatch.setattr(verify, "_leaf_min_zero_length", lambda by_len, limit: None)
    verify.clear_caches()
    code, out, _ = run_cli(capsys, "verify", "short-zero-sum", "--n", "5")
    assert code == 1
    assert "[FAIL]" in out
    assert "violation" in out


def test_usage_errors_exit_two(capsys):
    code, _, err = run_cli(capsys, "mz", "--group", "Z6", "--seq", "2,x,3")
    assert code == 2
    assert "x" in err
    code, _, err = run_cli(capsys, "mz", "--group", "Q8", "--seq", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "quad-class-group", "-d", "12")
    assert code == 2
    assert "squarefree" in err
    code, _, err = run_cli(capsys, "quad-ideal", "-d", "26", "--ideals", "5;2")
    assert code == 2


def test_verify_rejects_n_for_all(capsys):
    code, _, err = run_cli(capsys, "verify", "all", "--n", "6")
    assert code == 2
    assert "--n-max" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("support-bound", "--n", "1"),
        ("all", "--n-max", "1"),
        ("sumset-growth", "--n", "1"),
        ("davenport-table", "--n-max", "0"),
        ("support-bound", "--n-max", "1"),
        ("egz", "--n-max", "1"),
        ("support-bound", "--n", "5", "--group", "Z7"),
        ("all", "--group", "Z7"),
        ("sumset-growth", "--group", "Z7", "--n", "3"),
        ("davenport-table", "--n-max", "6", "--budget", "1"),
        ("sumset-growth", "--group", "Z7", "--n-max", "3"),
        ("support-bound", "--n", "7", "--n-max", "3"),
        ("support-bound", "--n", "6", "--shards", "0"),
        ("support-bound", "--n", "6", "--shards", "-5"),
        ("egz", "--n", "3", "--shards", "-1"),
        ("all", "--n-max", "6", "--shards", "0"),
        ("sumset-growth", "--group", "Z7", "--shards", "0"),
        ("davenport-table", "--n-max", "6", "--shards", "0"),
    ],
)
def test_verify_order_below_floor_exits_two(capsys, argv):
    # exit 1 means violations found; an order out of range, a flag that
    # does not apply, or fewer than one shard is bad input
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in out + err


@pytest.mark.parametrize("statement", ["support-bound", "egz"])
def test_verify_refuses_a_huge_order_at_once(capsys, statement):
    # refused by a lower bound on the leaves, before any count is formed
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", statement, "--n", "100000")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err.startswith("error: ") and "over budget" in err
    assert "Traceback" not in out + err


def test_verify_rejects_a_non_integer_budget(capsys):
    # argparse refuses it: usage error, exit status 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "support-bound", "--n", "5", "--budget", "abc"])
    assert exc.value.code == 2
    assert "--budget: invalid int value: 'abc'" in capsys.readouterr().err


def _without_elapsed(doc: str) -> list[dict]:
    reports = json.loads(doc)["reports"]
    for r in reports:
        del r["elapsed_ms"]
    return reports


def test_verify_statements_match_verify_all(capsys):
    expected = _without_elapsed(verify.reports_to_json(verify.verify_all(11)))
    for statement in cli.VERIFY_STATEMENTS:
        code, out, _ = run_cli(
            capsys, "verify", statement, "--n-max", "11", "--shards", "1", "--json"
        )
        assert code == 0
        got = _without_elapsed(out)
        if statement == "all":
            assert got == expected
        else:
            assert got == [r for r in expected if r["statement_id"] == statement]
    code, out, _ = run_cli(capsys, "verify", "davenport-table", "--n-max", "20", "--json")
    assert code == 0
    assert [r["parameters"] for r in json.loads(out)["reports"]] == [{"max_order": 16}]


def test_quad_class_group_command(capsys):
    code, out, _ = run_cli(capsys, "quad-class-group", "-d", "26", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["h"] == 6
    assert doc["structure"] == [6]
    assert doc["discriminant"] == -104
    assert doc["forms"][0] == [1, 0, 26]
    code, out, _ = run_cli(capsys, "quad-class-group", "-d", "26")
    assert "h: 6" in out and "structure: Z6" in out


def test_quad_ideal_command(capsys):
    code, out, _ = run_cli(
        capsys, "quad-ideal", "-d", "26", "--ideals", "5,2;5,2;3,1", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["hnf"] == {"a": 75, "b": 7, "scale": 1}
    assert doc["norm"] == 75
    assert doc["class"] == 0
    assert doc["principal"] is True
    assert doc["generator"] == [7, 1]


def test_quad_ideal_non_principal(capsys):
    code, out, _ = run_cli(capsys, "quad-ideal", "-d", "26", "--ideals", "5,2")
    assert code == 0
    assert "principal: no" in out


def test_quad_demo_worked_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "quad-demo51",
        "-d",
        "26",
        "--ideals",
        "5,2;5,2;5,2;2,0;3,1;3,1",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["subset_size"] == 3
    assert doc["bound"] == 4
    assert doc["support"] == 3
    assert doc["generator"] == [7, 1]
    assert doc["generator_str"] == "7+sqrt(-26)"
    assert doc["irreducible"] is True


def test_quad_demo_refuses_a_unit_ideal(capsys):
    # the unit ideal has class 0, so it alone is the minimal zero-sum
    code, out, err = run_cli(
        capsys, "quad-demo51", "-d", "26", "--ideals", "5,2;1,0;5,2;2,0;3,1;3,1"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ideal 1 is the unit ideal")


def test_quad_demo_text_output(capsys):
    code, out, _ = run_cli(
        capsys, "quad-demo51", "-d", "26", "--ideals", "5,2;5,2;5,2;2,0;3,1;3,1"
    )
    assert code == 0
    assert "classes: 5,5,5,3,2,2" in out
    assert "at most 4 ideals" in out
    assert "generator: 7+sqrt(-26)" in out


@pytest.fixture
def script_env(tmp_path):
    """Subprocess environment in which ``zerosum`` runs as if installed.

    For each ``[project.scripts]`` entry of pyproject.toml, writes into
    ``tmp_path`` the launcher pip would install and puts ``tmp_path``
    first on PATH, so the suite needs no install. PYTHONPATH is the
    directory holding the ``zerosum`` package this suite imported, so
    subprocesses run the same code as the in-process tests.
    """
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    for name, value in scripts.items():
        entry = EntryPoint(name, value, "console_scripts")
        launcher = tmp_path / name
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {entry.module} import {entry.attr}\n"
            f"sys.exit({entry.attr}())\n"
        )
        launcher.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", os.defpath)])
    env["PYTHONPATH"] = str(Path(zerosum.__file__).resolve().parent.parent)
    return env


def run_subprocess(env, *argv):
    return subprocess.run(list(argv), capture_output=True, text=True, env=env)


@needs_pyproject
def test_installed_console_script(script_env):
    proc = run_subprocess(
        script_env, "zerosum", "mz", "--group", "Z6", "--seq", "2,2,3,1,1,1", "--json"
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["mz"] == 3
    proc = run_subprocess(script_env, "zerosum", "mz", "--group", "Q8", "--seq", "1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


@needs_pyproject
def test_module_invocation_matches_script(script_env):
    argv = ["supp", "--group", "Z5", "--seq", "1,3,3"]
    module = run_subprocess(script_env, sys.executable, "-m", "zerosum.cli", *argv)
    script = run_subprocess(script_env, "zerosum", *argv)
    assert module.returncode == 0
    assert "supp: 2" in module.stdout
    assert script.returncode == 0
    assert script.stdout == module.stdout
