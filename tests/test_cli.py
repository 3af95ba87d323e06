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

from compocheck import cli, parse_dsl, serialize_json
from compocheck.cli import main
from compocheck.model import resolve
from compocheck.rules import prepare as prepare_index, run_rules

from conftest import ATM, BROKEN, DELEGATION, FIXTURES, LEAF, MIXED_CONCURRENCY
from generators import (
    corrupt_dsl,
    model_to_dsl,
    mutate_json_document,
    random_fanout_port_model,
    random_wellformed_model,
    relay_chain_model,
    scramble_typing,
    separate_names,
    token_soup,
)
from mutants import MUTATION_PAIRS

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


@pytest.mark.parametrize("fixture", [DELEGATION, ATM], ids=lambda p: p.name)
def test_check_reads_input_that_starts_with_a_byte_order_mark(tmp_path, fixture):
    path = tmp_path / fixture.name
    path.write_bytes(b"\xef\xbb\xbf" + fixture.read_bytes())
    plain_code, plain = run_cli("check", str(fixture), "--output", "json")
    code, out = run_cli("check", str(path), "--output", "json")
    assert code == plain_code
    report, expected = json.loads(out), json.loads(plain)
    assert report.pop("input") == str(path)
    expected.pop("input")
    assert report == expected


@pytest.mark.parametrize("change, error", [
    ({"interfaces": [{"name": "I", "operations": ["", ""]}], "classes": [{"name": "A"}]},
     ["$.interfaces[0].operations[0]: must not be empty",
      "$.interfaces[0].operations[1]: must not be empty"]),
    ({"classes": [{"name": "A"}], "root": ""}, ["$: field 'root' must not be empty"]),
], ids=["operation", "root"])
def test_check_exits_2_on_an_empty_name_the_dsl_cannot_write(tmp_path, change, error):
    path = tmp_path / "empty.csm.json"
    path.write_text(json.dumps({"formatVersion": 1, **change}), encoding="utf-8")
    code, out = run_cli("check", str(path))
    assert code == 2
    assert out.splitlines() == [f"{path}:1:1: {line}" for line in error] + \
        [f"{path}: {len(error)} parse error(s)"]


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


def test_check_prints_notes_before_the_verdict(tmp_path):
    path = tmp_path / "stub.csm"
    path.write_text("interface I { op f; }\nclass A active { port stub: I; }\n",
                    encoding="utf-8")
    assert run_cli("check", str(path)) == (
        0, "note: port A.stub is not connected to any link\n"
           "check: PASSED (0 error(s), 0 warning(s))\n")


def test_explain_port_in_text_mode():
    code, out = run_cli("explain", str(DELEGATION), "A.pIJL")
    assert code == 0
    assert out.splitlines() == [
        "element: A.pIJL",
        "contract: IJL",
        "reversed: False",
        "closure: ['I', 'J', 'L']",
        "outgoing:",
        "  A#0: self.pIJL -- d [inbound delegation link between part and provided port] "
        "transports {I}",
        "  A#1: self.pIJL -- e.pJL [inbound delegation link between provided ports] "
        "transports {J, L}",
        "disjoint: True",
        "overlap: []",
        "complete: True",
        "missing: []",
    ]


def test_explain_interface_association_and_part():
    code, out = run_cli("explain", str(DELEGATION), "IJL", "--output", "json")
    assert code == 0
    assert json.loads(out) == {"element": "IJL", "group": True, "closure": ["I", "J", "L"],
                               "operations": []}
    assert run_cli("explain", str(DELEGATION), "itsK") == \
        (0, "element: itsK\nkind: association\n")
    assert run_cli("explain", str(DELEGATION), "A.d") == \
        (0, "element: A.d\ntype: D\nmultiplicity: 1\nprovided: ['I']\n")


def test_explain_unknown_path_reports_e005():
    code, out = run_cli("explain", str(DELEGATION), "Nope.x")
    assert code == 1
    assert "E005" in out


def test_explain_unknown_path_in_json_mode_is_a_failed_report():
    code, out = run_cli("explain", str(DELEGATION), "Nope.x", "--output", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["command"] == "explain" and doc["passed"] is False and doc["stats"] == {"E005": 1}
    assert [(d["code"], d["subject"]) for d in doc["diagnostics"]] == [("E005", "Nope.x")]


@pytest.mark.parametrize("output", ["text", "json"])
def test_explain_refuses_an_empty_element_path(output):
    assert run_cli("explain", str(DELEGATION), "", "--output", output) == \
        (2, "error: explain needs a non-empty element path\n")


@pytest.mark.parametrize("output", ["text", "json"])
@pytest.mark.parametrize("path,sep", [("A.", "."), (".pIJL", "."), ("#0", "#"), ("A#", "#")])
def test_explain_refuses_an_element_path_with_an_empty_name(output, path, sep):
    assert run_cli("explain", str(DELEGATION), path, "--output", output) == \
        (2, f"error: explain needs a name on each side of '{sep}' in {path!r}\n")


# Passive composites "C#" and "K." (W009), and an interface "a:b" that A.p
# forwards to the part A.l.
SEPARATOR_NAMES = Path(__file__).parent / "limits" / "separator_names.csm.json"


def test_explain_resolves_a_path_check_prints_before_asking_for_a_name():
    code, out = run_cli("check", str(SEPARATOR_NAMES), "--output", "json")
    paths = {path for diag in json.loads(out)["diagnostics"]
             for path in [diag["subject"], *diag["related"]]}
    assert code == 1 and paths == {"C#", "C#.l", "K.", "K..l"}
    for path in sorted(paths):
        code, out = run_cli("explain", str(SEPARATOR_NAMES), path, "--output", "json")
        assert code == 0 and json.loads(out)["element"] == path, path


def test_explain_of_a_forbidden_link_names_no_origin(tmp_path):
    path = tmp_path / "forbidden.csm"
    path.write_text("interface I { op f; }\nclass P active { realizes I; port p: I; }\n"
                    "class C active { part a: P; part b: P; connector a.p , b.p; }\n",
                    encoding="utf-8")
    assert run_cli("explain", str(path), "C#0") == (0, (
        "element: C#0\nends: ['a.p', 'b.p']\nkind: forbidden\norigin: undirected\n"
        "transported: None\nassociation: None\n"))


@pytest.mark.parametrize("output", ["text", "json"])
def test_fan_out_findings_name_a_class_whose_name_contains_a_hash(tmp_path, output):
    # a JSON model may name a class "C#x"; its connector paths are then "C#x#0"
    model = parse_dsl("interface I { op f; }\ninterface J { op g; }\ninterface IJ : I, J { }\n"
                      "class L active { realizes I; }\n"
                      "class C active { part l: L; port b: IJ; connector self.b , l; }\n")
    model.classes[1].name = "C#x"
    path = tmp_path / "hash.csm.json"
    path.write_text(serialize_json(model), encoding="utf-8")
    code, out = run_cli("check", str(path), "--output", output)
    assert code == 1
    if output == "json":
        assert [(d["code"], d["subject"], d["related"]) for d in json.loads(out)["diagnostics"]] \
            == [("W008", "C#x.b", ["C#x#0"])]
    else:
        assert out.startswith("W008 error: C#x.b: links out of this port transport {I} ") \
            and out.endswith("(related: C#x#0)\ncheck: FAILED (1 error(s), 0 warning(s))\n")


def _separated_models():
    """(case, model) pairs: the violating side of every ``MUTATION_PAIRS``
    entry, well-formed seeds, most with scrambled typing, and fan-out seeds,
    their class, part and port names split by ``#`` or ``.``."""
    for code, (text, _) in sorted(MUTATION_PAIRS.items()):
        yield code, separate_names(random.Random(code), parse_dsl(text))
    for seed in range(80):
        rng = random.Random(seed)
        model = random_wellformed_model(rng)
        if seed % 4:
            scramble_typing(rng, model, rng.randint(1, 6))
        yield f"wellformed-{seed}", separate_names(rng, model)
    for seed in range(10):
        rng = random.Random(seed)
        yield f"fanout-{seed}", separate_names(rng, random_fanout_port_model(rng)[0])


def _elements_by_path(model) -> dict | None:
    """Each element ``resolve`` finds, by the path ``check`` prints for it, or
    None when two elements print the same path."""
    pairs = [(element.name, element)
             for element in model.interfaces + model.classes + model.associations]
    for cls in model.classes:
        pairs += [(f"{cls.name}.{member.name}", member) for member in cls.parts + cls.ports]
        pairs += [(f"{cls.name}#{i}", conn) for i, conn in enumerate(cls.connectors)]
    found = dict(pairs)
    return found if len(found) == len(pairs) else None


def test_every_path_check_prints_resolves_to_its_element(tmp_path):
    codes, split = set(), 0
    for case, model in _separated_models():
        index = prepare_index(model)
        elements = _elements_by_path(index.model)
        assert elements is not None, case  # else a path could name either of two elements
        report = run_rules(index)
        paths = [path for d in report.diagnostics for path in (d.subject, *d.related)]
        paths += [note[len("port "):-len(" is not connected to any link")]
                  for note in report.notes if note.startswith("port ")]
        codes.update(d.code for d in report.diagnostics)
        file = tmp_path / f"{case}.csm.json"
        file.write_text(serialize_json(model), encoding="utf-8")
        for path in dict.fromkeys(paths):
            assert resolve(index.model, path)[0] is elements[path], (case, path)
            code, out = run_cli("explain", str(file), path, "--output", "json")
            assert code == 0 and json.loads(out)["element"] == path, (case, path, out)
            split += path.count("#") + path.count(".") > 1  # more than one way to split
    assert codes == {f"W{code:03d}" for code in range(12)}
    assert split, "no path could be split at more than one place"


@pytest.mark.parametrize("name,path,element", [
    ("C#x", "C#x#0", {"element": "C#x#0", "ends": ["self.b", "l"]}),
    ("C#x", "C#x.b", {"element": "C#x.b", "contract": "IJ"}),
    ("C#x", "C#x", {"element": "C#x", "kind": "active"}),
    ("C.x", "C.x.b", {"element": "C.x.b", "contract": "IJ"}),
    ("C.x", "C.x", {"element": "C.x", "kind": "active"}),
])
def test_explain_names_an_element_of_a_class_whose_name_holds_a_hash_or_a_dot(
        tmp_path, name, path, element):
    model = parse_dsl("interface I { op f; }\ninterface J { op g; }\ninterface IJ : I, J { }\n"
                      "class L active { realizes I; }\n"
                      "class C active { part l: L; port b: IJ; connector self.b , l; }\n")
    model.classes[1].name = name
    file = tmp_path / "named.csm.json"
    file.write_text(serialize_json(model), encoding="utf-8")
    code, out = run_cli("explain", str(file), path, "--output", "json")
    assert code == 0 and element.items() <= json.loads(out).items()


@pytest.mark.parametrize("path", [" ", "A. "])
def test_explain_reports_a_blank_name_as_unknown(path):
    # a JSON model may name an element " ", so a blank name is looked up
    code, out = run_cli("explain", str(DELEGATION), path)
    assert code == 1 and out.startswith(f"E005 error: {path}: ")


def test_simulate_delegation_delivers_everything():
    code, out = run_cli("simulate", str(DELEGATION), "--root", "A")
    assert code == 0
    assert "routing safety: PASSED" in out


def test_simulate_uses_the_model_root_when_present():
    code, out = run_cli("simulate", str(ATM))
    assert code == 0


def test_simulate_rejects_an_empty_root_name():
    code, out = run_cli("simulate", str(ATM), "--root", "")
    assert code == 2
    assert out == "error: root '' is not a class of the model\n"


def test_check_exits_2_on_an_empty_class_name(tmp_path):
    doc = json.loads(ATM.read_text(encoding="utf-8"))
    doc["classes"][1]["name"] = ""
    path = tmp_path / "empty.csm.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_cli("check", str(path))
    assert code == 2
    assert "$.classes[1]: field 'name' must not be empty" in out


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


def test_simulate_refuses_a_huge_multiplicity_before_allocating():
    huge = Path(__file__).parent / "limits" / "huge_multiplicity.csm"
    assert run_cli("check", str(huge))[0] == 0
    code, out = run_cli("simulate", str(huge), "--root", "A")
    assert code == 2
    assert out.splitlines() == ["error: root 'A' would have more than 1000000 component instances"]


def test_simulate_refuses_a_huge_binding_count_before_allocating():
    huge = Path(__file__).parent / "limits" / "huge_bindings.csm"
    assert run_cli("check", str(huge))[0] == 0
    code, out = run_cli("simulate", str(huge), "--root", "A")
    assert code == 2
    assert out.splitlines() == ["error: root 'A' would have more than 1000000 bindings"]


def test_simulate_refuses_an_instance_id_taken_twice(tmp_path):
    # part "p[0]" beside part "p" of multiplicity 2, and port "x.y" beside
    # part "x" with port "y": each model passes check
    colliding = Path(__file__).parent / "limits" / "colliding_ids.csm.json"
    model = parse_dsl("interface I { op f; }\ninterface J { op g; }\n"
                      "class K active { realizes J; port y: J; }\n"
                      "class A active { realizes I; part x: K; port z: I; }\n")
    model.classes[1].ports[0].name = "x.y"
    (tmp_path / "port.csm.json").write_text(serialize_json(model), encoding="utf-8")
    for path, taken in [(colliding, "A.p[0]"), (tmp_path / "port.csm.json", "A.x.y")]:
        assert run_cli("check", str(path))[0] == 0
        code, out = run_cli("simulate", str(path), "--root", "A")
        assert (code, out.splitlines()) == (2, [
            f"error: two instances would get the id '{taken}': rename a part or port whose "
            "name holds '.', '[' or ']'"])


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


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", [["check"], ["simulate", "--root", "A", "--output", "json"]],
                         ids=["check", "simulate-json"])
def test_a_closed_stdout_is_exit_2_without_a_traceback(command, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the child writes
    try:
        proc = subprocess.run([sys.executable, "-m", "compocheck.cli", command[0], str(DELEGATION),
                               *command[1:]], stdout=write_end, stderr=subprocess.PIPE, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": str(SRC),
                                               "PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "")


def test_simulate_detects_stuck_requests_after_dropping_a_connector(tmp_path):
    text = DELEGATION.read_text(encoding="utf-8").replace(
        "  connector self.pIJL , e.pJL;\n", "")
    path = tmp_path / "dropped.csm"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli("simulate", str(path), "--root", "A")
    assert code == 1
    assert "stuck" in out and "A.pIJL" in out


@pytest.mark.parametrize("root", ["environment", "Envx"])
def test_simulate_judges_a_root_named_environment_like_any_other(tmp_path, root):
    """A request the root class does not provide is stuck at the root, whatever
    the root is called; only a required root port hands requests to the
    environment."""
    path = tmp_path / "root.csm"
    path.write_text(f"interface I {{ op f; }}\nclass {root} active {{ port p: I; }}\n",
                    encoding="utf-8")
    code, out = run_cli("simulate", str(path), "--root", root)
    assert code == 1
    assert out.splitlines()[:3] == [
        "simulate: 1 request(s): 0 delivered, 1 stuck, 0 in transit over 1 event(s)",
        f"request 1: not delivered: component '{root}' of class '{root}' does not provide "
        f"interface 'I' (path: {root}.p -> {root})",
        "routing safety: FAILED",
    ]


def test_simulate_delivers_to_the_environment_from_a_root_named_environment(tmp_path):
    path = tmp_path / "root.csm"
    path.write_text("interface I { op f; }\n"
                    "class environment active { uses I; port r: I reversed; }\n", encoding="utf-8")
    code, out = run_cli("simulate", str(path), "--root", "environment",
                        "--inject", "environment.r:I", "--output", "json")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[0]["to"] == "environment"
    assert lines[-1]["summary"]["delivered"] == 1 and lines[-1]["safety"]["passed"]


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


@pytest.mark.parametrize("interface", ["Bogus", "IJL"])
def test_simulate_rejects_injections_of_undeclared_interfaces_at_components(interface):
    assert run_cli("simulate", str(DELEGATION), "--root", "A", "--inject", f"A:{interface}") == \
        (2, f"error: component 'A' cannot take interface '{interface}': the model declares no "
            f"such non-group interface\n")


def test_an_injected_interface_name_may_hold_a_colon():
    # "A.p:a" names no instance, so the spec is split at its earlier ':'
    code, out = run_cli("simulate", str(SEPARATOR_NAMES), "--root", "A", "--downgrade", "W009",
                        "--inject", "A.p:a:b", "--output", "json")
    assert code == 0
    assert json.loads(out.splitlines()[0]) == \
        {"step": 1, "request": 1, "from": "A.p", "to": "A.l", "via": "deleg_a:b"}


@pytest.mark.parametrize("spec", ["A.pIJL", ":I", "A.pIJL:"])
def test_simulate_rejects_malformed_injections(spec):
    assert run_cli("simulate", str(DELEGATION), "--root", "A", "--inject", spec) == \
        (2, f"error: --inject expects LOCATION:INTERFACE, got {spec!r}\n")


@pytest.mark.parametrize("version", ["true", "1.0", "false", "0.0"])
def test_format_version_must_be_the_integer_1(tmp_path, version):
    # True and 1.0 compare equal to 1 in Python; neither is format version 1
    path = tmp_path / "v.csm.json"
    path.write_text(f'{{"formatVersion": {version}, "interfaces": [], "classes": [], '
                    f'"associations": []}}', encoding="utf-8")
    shown = {"true": "True", "false": "False"}.get(version, version)
    assert run_cli("check", str(path)) == (
        2, f"{path}:1:1: $: unsupported formatVersion {shown} (expected 1)\n"
           f"{path}: 1 parse error(s)\n")


def test_simulate_json_trace_lines():
    code, out = run_cli("simulate", str(DELEGATION), "--root", "A", "--output", "json")
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["summary"]["delivered"] == 3
    for line in lines[:-1]:
        event = json.loads(line)
        assert set(event) == {"step", "request", "from", "to", "via"}


def test_simulate_json_summary_carries_the_safety_report(tmp_path):
    path = tmp_path / "unlinked.csm"
    path.write_text(
        "interface I { op opI; }\n"
        "class D active { realizes I; port p: I; }\n"
        "class A active { part d: D; port pin: I; port pout: I; connector self.pin , d.p; }\n",
        encoding="utf-8")
    code, out = run_cli("simulate", str(path), "--root", "A", "--output", "json")
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 3  # two trace events, then the one final object
    assert json.loads(lines[-1]) == {
        "summary": {"inTransit": 0, "delivered": 1, "stuck": 1},
        "safety": {"passed": False, "violations": [{
            "request": 2,
            "reason": "not delivered: no forwarding destination for interface 'I' "
                      "inside composite 'A'",
            "path": ["A.pout"],
        }]},
    }
    _, text = run_cli("simulate", str(path), "--root", "A")
    assert ("request 2: not delivered: no forwarding destination for interface 'I' "
            "inside composite 'A' (path: A.pout)") in text.splitlines()


def test_simulate_flags_a_request_leaving_through_a_port_that_does_not_carry_it(tmp_path):
    path = tmp_path / "exit.csm"
    path.write_text(
        "interface I { op f; }\n"
        "interface J { op g; }\n"
        "class Inner active { uses I; port r: I reversed; }\n"
        "class Root active { part x: Inner; port out: J reversed; "
        "connector x.r , self.out via itsI; }\n"
        "assoc itsI ( I , I nav );\n",
        encoding="utf-8")
    args = ("simulate", str(path), "--root", "Root", "--downgrade", "W004",
            "--inject", "Root.x.r:I")
    code, text = run_cli(*args)
    assert code == 1
    assert text.splitlines()[-2:] == [
        "request 1: left through port 'Root.out' that does not carry 'I' "
        "(path: Root.x.r -> Root.out -> environment)",
        "routing safety: FAILED",
    ]
    code, out = run_cli(*args, "--output", "json")
    assert code == 1
    assert json.loads(out.strip().splitlines()[-1])["safety"] == {
        "passed": False,
        "violations": [{
            "request": 1,
            "reason": "left through port 'Root.out' that does not carry 'I'",
            "path": ["Root.x.r", "Root.out", "environment"],
        }],
    }


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


def test_deeply_nested_json_is_a_parse_error(tmp_path):
    path = tmp_path / "deep.csm.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    code, out = run_cli("check", str(path))
    assert code == 2
    assert out.splitlines()[-1].endswith("1 parse error(s)")
    assert "internal error" not in out


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
