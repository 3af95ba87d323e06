from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compocheck import cli
from compocheck.cli import main

from conftest import ATM, BROKEN, DELEGATION, FIXTURES, LEAF, MIXED_CONCURRENCY
from generators import (
    corrupt_dsl,
    model_to_dsl,
    mutate_json_document,
    relay_chain_model,
    token_soup,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv: str) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def test_check_passes_on_the_delegation_fixture():
    code, out = run_cli("check", str(DELEGATION))
    assert code == 0
    assert "PASSED" in out


def test_check_fails_on_the_concurrency_fixture():
    code, out = run_cli("check", str(MIXED_CONCURRENCY))
    assert code == 1
    assert "W010" in out


def test_check_exits_2_on_parse_errors():
    code, out = run_cli("check", str(BROKEN))
    assert code == 2
    assert "parse error" in out


def test_check_exits_2_on_missing_files(tmp_path):
    code, out = run_cli("check", str(tmp_path / "absent.csm"))
    assert code == 2


def test_check_reports_the_positions_the_parser_sees_in_the_bytes(tmp_path):
    path = tmp_path / "cr.csm"
    path.write_bytes(b"class A {\r  part d:\r}\r")
    code, out = run_cli("check", str(path))
    assert code == 2
    assert out.splitlines() == [f"{path}:1:21: expected type name, found '}}' (expected type name)",
                                f"{path}: 1 parse error(s)"]


def test_check_exits_2_on_input_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.csm"
    path.write_bytes("class Caf\u00e9 {}".encode("latin-1"))
    code, out = run_cli("check", str(path))
    assert code == 2
    assert out.splitlines() == [f"error: cannot read {path}: 'utf-8' codec can't decode byte "
                                f"0xe9 in position 9: invalid continuation byte"]


def test_check_exits_2_on_integrity_errors(tmp_path):
    path = tmp_path / "dangling.csm"
    path.write_text("class A { part d: Missing; }", encoding="utf-8")
    code, out = run_cli("check", str(path))
    assert code == 2
    assert "E001" in out


@pytest.mark.parametrize("text,diagnostic", [
    ("class A active { part a: X; }",
     "E001 error: A.a: part 'a' is typed by undeclared class 'X'"),
    ("interface I {} class deleg_I {}",
     "E004 error: deleg_I: the name 'deleg_I' is reserved for the default forwarding "
     "association of 'I'"),
], ids=["E001", "E004"])
@pytest.mark.parametrize("command", ["check", "simulate"])
def test_inputs_stopped_before_the_rules_keep_the_output_format(tmp_path, command, text,
                                                                diagnostic):
    path = tmp_path / "stopped.csm"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli(command, str(path))
    summary = [f"{path}: 1 integrity error(s)"] if diagnostic.startswith("E001") else []
    assert code == 2
    assert out.splitlines() == [diagnostic] + summary
    code, out = run_cli(command, str(path), "--output", "json")
    assert code == 2
    doc = json.loads(out)
    assert list(doc) == ["formatVersion", "command", "input", "passed", "stats", "notes",
                         "diagnostics"]
    assert (doc["formatVersion"], doc["command"], doc["input"]) == (1, command, str(path))
    assert doc["passed"] is False and doc["notes"] == []
    assert doc["stats"] == {diagnostic[:4]: 1}
    assert [f"{d['code']} {d['severity']}: {d['subject']}: {d['message']}"
            for d in doc["diagnostics"]] == [diagnostic]


def test_check_json_report_shape():
    code, out = run_cli("check", str(MIXED_CONCURRENCY), "--output", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["formatVersion"] == 1
    assert doc["passed"] is False
    assert doc["stats"] == {"W010": 1}
    diag = doc["diagnostics"][0]
    assert set(diag) == {"code", "severity", "subject", "message", "related"}
    assert diag["code"] == "W010" and diag["severity"] == "error"


def test_check_downgrade_turns_errors_into_warnings():
    code, out = run_cli("check", str(MIXED_CONCURRENCY), "--downgrade", "W010")
    assert code == 0
    assert "warning" in out


def test_explain_connector_and_port():
    code, out = run_cli("explain", str(DELEGATION), "A#0")
    assert code == 0
    assert "inbound delegation" in out and "pIJL" in out and "{'I'}" in out.replace('"', "'") \
        or "['I']" in out
    code, out = run_cli("explain", str(DELEGATION), "A.pIJL", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["closure"] == ["I", "J", "L"]
    assert doc["complete"] is True and doc["disjoint"] is True


def test_explain_unknown_path_reports_e005():
    code, out = run_cli("explain", str(DELEGATION), "Nope.x")
    assert code == 1
    assert "E005" in out


def test_simulate_delegation_delivers_everything():
    code, out = run_cli("simulate", str(DELEGATION), "--root", "A")
    assert code == 0
    assert "routing safety: PASSED" in out


def test_simulate_uses_the_model_root_when_present():
    code, out = run_cli("simulate", str(ATM))
    assert code == 0


def test_simulate_requires_a_root():
    code, out = run_cli("simulate", str(DELEGATION))
    assert code == 2
    assert "root" in out


def test_simulate_leaf_root_is_trivially_safe():
    code, out = run_cli("simulate", str(LEAF), "--root", "D")
    assert code == 0
    assert "0 request(s)" in out


def test_simulate_exits_2_on_rule_errors():
    code, out = run_cli("simulate", str(MIXED_CONCURRENCY), "--root", "A")
    assert code == 2


def test_unexpected_errors_exit_2_with_one_line_and_no_traceback(monkeypatch, capsys):
    def crash(args, out):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "check", crash)
    assert main(["check", str(DELEGATION)]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["internal error: RuntimeError: boom"]
    assert captured.err == ""


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_self_containment_is_an_integrity_error(tmp_path, command):
    # A part typed by its own class would make instantiation recurse without end.
    path = tmp_path / "self_part.csm"
    path.write_text("class A active { part a: A; }\n", encoding="utf-8")
    root = ["--root", "A"] if command == "simulate" else []
    proc = subprocess.run([sys.executable, "-m", "compocheck.cli", command, str(path), *root],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 2
    assert proc.stdout.splitlines()[0] == "E010 error: A: containment cycle: A -> A"
    assert "internal error" not in proc.stdout
    assert proc.stderr == ""


def test_simulate_detects_stuck_requests_after_dropping_a_connector(tmp_path):
    text = DELEGATION.read_text(encoding="utf-8").replace(
        "  connector self.pIJL , e.pJL;\n", "")
    path = tmp_path / "dropped.csm"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli("simulate", str(path), "--root", "A")
    assert code == 1
    assert "stuck" in out and "A.pIJL" in out


def test_simulate_explicit_injections():
    code, out = run_cli("simulate", str(DELEGATION), "--root", "A",
                        "--inject", "A.e.rK:K", "--output", "json")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[-1]["summary"]["delivered"] == 1
    assert lines[0]["from"] == "A.e.rK" and lines[0]["via"] == "deleg_K"


def test_simulate_rejects_bad_injections():
    code, out = run_cli("simulate", str(DELEGATION), "--root", "A", "--inject", "A.pIJL:K")
    assert code == 2


def test_simulate_json_trace_lines():
    code, out = run_cli("simulate", str(DELEGATION), "--root", "A", "--output", "json")
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["summary"]["delivered"] == 3
    for line in lines[:-1]:
        event = json.loads(line)
        assert set(event) == {"step", "request", "from", "to", "via"}


def test_color_env_var_controls_ansi(monkeypatch):
    monkeypatch.setenv("COMPOCHECK_COLOR", "always")
    _, colored = run_cli("check", str(DELEGATION))
    assert "\x1b[" in colored
    monkeypatch.setenv("COMPOCHECK_COLOR", "never")
    _, plain = run_cli("check", str(DELEGATION))
    assert "\x1b[" not in plain


def test_format_override(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("interface I {} class D { realizes I }", encoding="utf-8")
    code, _ = run_cli("check", str(path), "--format", "dsl")
    assert code == 0


@pytest.mark.parametrize("fixture,args", [
    (DELEGATION, ("check",)),
    (MIXED_CONCURRENCY, ("check",)),
    (ATM, ("check",)),
    (DELEGATION, ("simulate", "--root", "A")),
    (ATM, ("simulate",)),
])
def test_outputs_are_byte_stable(fixture, args):
    runs = {run_cli(args[0], str(fixture), "--output", "json", *args[1:]) for _ in range(3)}
    assert len(runs) == 1


@pytest.mark.parametrize("command,args,last_line", [
    ("check", (), "check: PASSED (0 error(s), 0 warning(s))"),
    ("explain", ("R1#0",), "association: None"),
    ("simulate", ("--root", "R1"), "routing safety: PASSED"),
])
def test_deep_nesting_runs_under_the_default_recursion_limit(tmp_path, command, args, last_line):
    depth = 3000
    assert sys.getrecursionlimit() < depth
    path = tmp_path / "deep.csm"
    path.write_text(model_to_dsl(random.Random(0), relay_chain_model(depth)), encoding="utf-8")
    code, out = run_cli(command, str(path), *args)
    assert (code, out.splitlines()[-1]) == (0, last_line)


def _fuzzed_input(seed: int) -> tuple[str, str]:
    """A token soup, or a fixture with seeded corruptions: (file name, text)."""
    rng = random.Random(seed)
    fixture = rng.choice([None] + sorted(FIXTURES.iterdir()))
    if fixture is None:
        return "soup.csm", token_soup(rng, rng.randint(0, 80))
    text = fixture.read_text(encoding="utf-8")
    if fixture.name.endswith(".json"):
        return fixture.name, mutate_json_document(rng, text, rng.randint(0, 3))
    return fixture.name, corrupt_dsl(rng, text, rng.randint(0, 3))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       command=st.sampled_from(["check", "explain", "simulate"]),
       output=st.sampled_from(["text", "json"]))
def test_main_never_crashes_on_fuzzed_inputs(tmp_path_factory, seed, command, output):
    name, text = _fuzzed_input(seed)
    path = tmp_path_factory.mktemp("fuzz") / name
    path.write_text(text, encoding="utf-8")
    extra = {"explain": ["A"], "simulate": [] if name.endswith(".json") else ["--root", "A"]}
    argv = [command, str(path), "--output", output, *extra.get(command, [])]
    runs = []
    for _ in range(2):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        runs.append((code, stdout.getvalue(), stderr.getvalue()))
    code, out, err = runs[0]
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    assert runs[1] == runs[0]
