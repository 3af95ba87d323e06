from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compocheck import (
    ClassKind,
    ParseFailure,
    check_model,
    parse_dsl,
    parse_json,
    serialize_json,
    synthesize_deleg_associations,
    without_synthesized,
)

from compocheck.ingest import _tokenize
from conftest import ATM, BROKEN, DELEGATION, FIXTURES
from generators import (corrupt_dsl, model_to_dsl, provided_origin_connectors,
                        random_wellformed_model, token_soup)
from oracles import tokenize_oracle


def test_minimal_realization_parses():
    model = parse_dsl("interface I {} class D { realizes I }")
    assert [i.name for i in model.interfaces] == ["I"]
    assert [c.name for c in model.classes] == ["D"]
    assert model.classes[0].realizes == ["I"]


def test_delegation_fixture_topology():
    model = parse_dsl(DELEGATION.read_text(encoding="utf-8"), "delegation.csm")
    a = model.find_class("A")
    assert [p.name for p in a.parts] == ["d", "e"]
    assert [p.name for p in a.ports] == ["pIJL", "rA_K", "bak_rA_K"]
    assert a.find_port("rA_K").reversed and not a.find_port("pIJL").reversed
    assert len(a.connectors) == 5
    assert a.connectors[3].association == "deleg_backup"
    assert a.connectors[4].end1 == a.connectors[4].end1.__class__(part="d", port=None)
    e = model.find_class("E")
    assert e.realizes == ["J", "L"]
    assert model.find_interface("IJL").is_group
    assert model.find_interface("IJL").generals == ["I", "J", "L"]


def test_kind_and_multiplicity_and_generals():
    model = parse_dsl("""
    interface I { op f; }
    class Base {}
    class W active : Base {
      realizes I;
      part subs: Base x3;
      port p: I reversed;
    }
    class Obs observer {}
    class Shared protected {}
    """)
    w = model.find_class("W")
    assert w.kind is ClassKind.ACTIVE and w.generals == ["Base"]
    assert w.parts[0].multiplicity == 3
    assert w.ports[0].reversed
    assert model.find_class("Obs").kind is ClassKind.OBSERVER
    assert model.find_class("Shared").kind is ClassKind.PROTECTED
    assert model.find_class("Base").kind is ClassKind.PASSIVE


def test_missing_part_type_is_a_positioned_error():
    with pytest.raises(ParseFailure) as err:
        parse_dsl("class A {\n  part d:\n}", "f.csm")
    failure = err.value
    assert len(failure.errors) == 1
    assert failure.errors[0].span.file == "f.csm"
    assert failure.errors[0].span.line == 3
    assert "type name" in (failure.errors[0].expected or "")


def test_multiplicity_beyond_int_conversion_is_a_positioned_error():
    text = "class L {}\nclass A {\n  part a: L x" + "9" * 5000 + ";\n}\n"
    with pytest.raises(ParseFailure) as err:
        parse_dsl(text, "f.csm")
    assert [e.render() for e in err.value.errors] == [
        "f.csm:3:13: multiplicity has too many digits"]


def test_recovery_collects_multiple_errors():
    text = """
    class A {
      part d: ;
      port p I;
      part ok: A;
    }
    class B {}
    """
    with pytest.raises(ParseFailure) as err:
        parse_dsl(text)
    assert len(err.value.errors) >= 2


def test_parse_is_deterministic():
    text = DELEGATION.read_text(encoding="utf-8")
    assert parse_dsl(text) == parse_dsl(text)
    bad = "class A { part d: }"
    with pytest.raises(ParseFailure) as e1:
        parse_dsl(bad)
    with pytest.raises(ParseFailure) as e2:
        parse_dsl(bad)
    assert e1.value.errors == e2.value.errors


def test_empty_model_serialization_envelope():
    from compocheck import Model
    doc = json.loads(serialize_json(Model()))
    assert doc == {"formatVersion": 1, "interfaces": [], "classes": [], "associations": []}


def test_serialized_delegation_marks_reversed_ports():
    model = parse_dsl(DELEGATION.read_text(encoding="utf-8"))
    doc = json.loads(serialize_json(model))
    ports = {p["name"]: p for c in doc["classes"] for p in c["ports"]}
    assert ports["rK"]["reversed"] is True
    assert ports["rA_K"]["reversed"] is True
    assert ports["pIJL"]["reversed"] is False


def test_atm_fixture_has_six_parts():
    model = parse_json(ATM.read_text(encoding="utf-8"), "atm.csm.json")
    atm = model.find_class("ATM")
    assert len(atm.parts) == 6
    assert {p.type for p in atm.parts} == {
        "Keypad", "Display", "CashUnit", "CardUnit", "Controller", "BankTransactionBroker"}
    assert model.root == "ATM"


def test_malformed_json_is_a_single_error():
    with pytest.raises(ParseFailure) as err:
        parse_json("{not json", "x.csm.json")
    assert len(err.value.errors) == 1


def test_json_schema_violations_are_collected():
    bad = json.dumps({
        "formatVersion": 1,
        "interfaces": [{"generals": []}, {"name": 3}],
        "classes": [{"name": "A", "kind": "bogus"}],
        "associations": [],
    })
    with pytest.raises(ParseFailure) as err:
        parse_json(bad)
    assert len(err.value.errors) >= 3


def test_json_multiplicity_beyond_int_conversion_is_a_positioned_error():
    doc = {"classes": [{"name": "L"},
                       {"name": "A", "parts": [{"name": "a", "type": "L", "multiplicity": 0}]}]}
    text = json.dumps(doc).replace('"multiplicity": 0', '"multiplicity": ' + "9" * 5000)
    with pytest.raises(ParseFailure) as err:
        parse_json(text, "x.csm.json")
    assert [e.render() for e in err.value.errors] == [
        "x.csm.json:1:1: $.classes[1].parts[0]: field 'multiplicity' has too many digits"]


def _atm_document() -> dict:
    doc = json.loads(ATM.read_text(encoding="utf-8"))
    doc["classes"][0]["attributes"] = [{"name": "itsDisplay", "type": "Display"}]
    return doc


@pytest.mark.parametrize("path", [
    ("interfaces", 0), ("classes", 0), ("classes", 0, "attributes", 0),
    ("classes", 6, "parts", 0), ("classes", 4, "ports", 0), ("associations", 0),
], ids=lambda path: path[-2])
def test_json_rejects_an_empty_element_name(path):
    doc = _atm_document()
    parse_json(json.dumps(doc), "atm.csm.json")
    element = doc
    for step in path:
        element = element[step]
    element["name"] = ""
    with pytest.raises(ParseFailure) as err:
        parse_json(json.dumps(doc), "atm.csm.json")
    where = "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in path)
    assert [e.render() for e in err.value.errors] == [
        f"atm.csm.json:1:1: ${where}: field 'name' must not be empty"]


def test_round_trip_of_fixtures():
    for path in (DELEGATION,):
        model = parse_dsl(path.read_text(encoding="utf-8"), path.name)
        assert parse_json(serialize_json(model)) == model
    atm = parse_json(ATM.read_text(encoding="utf-8"), "atm.csm.json")
    assert parse_json(serialize_json(atm)) == atm


def test_serialize_parse_serialize_is_a_fixpoint():
    model = parse_json(ATM.read_text(encoding="utf-8"))
    once = serialize_json(model)
    assert serialize_json(parse_json(once)) == once


def test_synthesized_associations_round_trip_as_omittable():
    model = synthesize_deleg_associations(parse_dsl(DELEGATION.read_text(encoding="utf-8")))
    doc = json.loads(serialize_json(model))
    synthesized = [a for a in doc["associations"] if a.get("synthesized")]
    assert {a["name"] for a in synthesized} >= {"deleg_I", "deleg_J", "deleg_K", "deleg_L"}
    reparsed = parse_json(serialize_json(model))
    assert reparsed == without_synthesized(model)
    # re-synthesis restores them
    assert synthesize_deleg_associations(reparsed) == model


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_round_trip_on_generated_models(seed):
    rng = random.Random(seed)
    model = random_wellformed_model(rng)
    origins = provided_origin_connectors(model)
    if origins and rng.random() < 0.5:  # a missing delivery path gives the check findings
        cls, idx = rng.choice(origins)
        del cls.connectors[idx]
    reparsed = parse_json(serialize_json(model))
    assert reparsed == model
    assert check_model(reparsed).to_dict() == check_model(model).to_dict()


def test_broken_fixture_fails_to_parse():
    with pytest.raises(ParseFailure):
        parse_dsl(BROKEN.read_text(encoding="utf-8"), "broken_syntax.csm")


def _scanner_inputs():
    for path in sorted(FIXTURES.iterdir()):
        yield path.read_text(encoding="utf-8")
    for seed in range(2000):
        rng = random.Random(seed)
        yield token_soup(rng, rng.randint(0, 60))
    for seed in range(300):
        rng = random.Random(seed)
        yield corrupt_dsl(rng, model_to_dsl(rng, random_wellformed_model(rng)), rng.randint(1, 5))
    # ends with comments and blanks (eof position), and the line breaks
    # str.splitlines knows but the DSL does not
    yield from ["", "//", "a //", "a\n  // c", "a \t\r", "a\x0bb\x1cc\u2028d\x85e", "\r\n\r"]


def test_scanner_matches_the_character_walk_oracle():
    for text in _scanner_inputs():
        assert _tokenize(text, "f.csm") == tokenize_oracle(text, "f.csm"), repr(text)
