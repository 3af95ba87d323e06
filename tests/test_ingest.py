from __future__ import annotations

import ast
import contextlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compocheck import (
    Attribute,
    ClassKind,
    Model,
    ParseFailure,
    check_model,
    parse_dsl,
    parse_json,
    serialize_json,
    synthesize_deleg_associations,
    without_synthesized,
)

from compocheck import ingest
from compocheck.ingest import _Parser, _read_statements, _tokenize
from conftest import ATM, BROKEN, DELEGATION, FIXTURES
from generators import (corrupt_dsl, model_to_dsl, model_to_line_dsl, mutate_json_document,
                        provided_origin_connectors, random_wellformed_model, token_soup)
from golden import dsl_parse_cases, element_spans
from mutants import MUTATION_PAIRS, dropped_operands, dropped_tests
from oracles import JSON_TABLES, table_build, tokenize_oracle

README = Path(__file__).resolve().parent.parent / "README.md"
LINE_SEEDS = range(200)


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
        "classes": [{"name": "A", "kind": "bogus", "generals": ["B", 2],
                     "ports": [{"name": "", "contract": 3, "reversed": 1}],
                     "connectors": [{"end2": {"port": 4}, "association": False}]}],
        "associations": [{"name": "a", "end1": {"navigable": 1}, "end2": {"type": "B"}}],
        "root": 5,
    })
    with pytest.raises(ParseFailure) as err:
        parse_json(bad)
    assert [e.render() for e in err.value.errors] == [
        "<json>:1:1: $.interfaces[0]: missing required field 'name'",
        "<json>:1:1: $.interfaces[1]: field 'name' must be a string",
        "<json>:1:1: $.classes[0]: unknown class kind 'bogus'",
        "<json>:1:1: $.classes[0].generals[1]: must be a string",
        "<json>:1:1: $.classes[0].ports[0]: field 'name' must not be empty",
        "<json>:1:1: $.classes[0].ports[0]: field 'contract' must be a string",
        "<json>:1:1: $.classes[0].ports[0]: field 'reversed' must be a boolean",
        "<json>:1:1: $.classes[0].connectors[0]: field 'end1' must be an object",
        "<json>:1:1: $.classes[0].connectors[0]: 'end2.port' must be a string",
        "<json>:1:1: $.classes[0].connectors[0]: 'association' must be a string",
        "<json>:1:1: $.associations[0].end1: missing required field 'type'",
        "<json>:1:1: $.associations[0]: 'end1.navigable' must be a boolean",
        "<json>:1:1: $: field 'root' must be a string",
    ]


def test_json_multiplicity_beyond_int_conversion_is_a_positioned_error():
    doc = {"classes": [{"name": "L"},
                       {"name": "A", "parts": [{"name": "a", "type": "L", "multiplicity": 0}]}]}
    text = json.dumps(doc).replace('"multiplicity": 0', '"multiplicity": ' + "9" * 5000)
    with pytest.raises(ParseFailure) as err:
        parse_json(text, "x.csm.json")
    assert [e.render() for e in err.value.errors] == [
        "x.csm.json:1:1: $.classes[1].parts[0]: field 'multiplicity' has too many digits"]


@pytest.mark.parametrize("text, message", [
    ("[]", "top level must be an object"),
    ('{"formatVersion": 1' + "0" * 5000 + "}",
     "$: unsupported formatVersion <integer with too many digits> (expected 1)"),
], ids=["array", "long-version"])
def test_json_document_that_is_no_model_is_one_error(text, message):
    with pytest.raises(ParseFailure) as err:
        parse_json(text, "x.csm.json")
    assert [e.render() for e in err.value.errors] == [f"x.csm.json:1:1: {message}"]


def _atm_document() -> dict:
    doc = json.loads(ATM.read_text(encoding="utf-8"))
    doc["classes"][0]["attributes"] = [{"name": "itsDisplay", "type": "Display"}]
    return doc


_ATM_ELEMENTS = [
    ("interfaces", 0), ("classes", 0), ("classes", 0, "attributes", 0),
    ("classes", 6, "parts", 0), ("classes", 4, "ports", 0), ("associations", 0),
]


def _rejected_atm(path: tuple, key: str, value) -> list[str]:
    """The errors of the ATM document whose element at ``path`` has ``key``
    set to ``value``, or deleted when ``value`` is ``KeyError``."""
    doc = _atm_document()
    parse_json(json.dumps(doc), "atm.csm.json")
    element = doc
    for step in path:
        element = element[step]
    if value is KeyError:
        del element[key]
    else:
        element[key] = value
    with pytest.raises(ParseFailure) as err:
        parse_json(json.dumps(doc), "atm.csm.json")
    return [e.render() for e in err.value.errors]


def _where(path: tuple) -> str:
    return "$" + "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in path)


@pytest.mark.parametrize("path", _ATM_ELEMENTS, ids=lambda path: path[-2])
def test_json_rejects_an_empty_element_name(path):
    assert _rejected_atm(path, "name", "") == [
        f"atm.csm.json:1:1: {_where(path)}: field 'name' must not be empty"]


@pytest.mark.parametrize("value, message", [
    (None, "field '{}' must be a string"),
    (3, "field '{}' must be a string"),
    (KeyError, "missing required field '{}'"),
], ids=["null", "number", "deleted"])
@pytest.mark.parametrize("path, key", [
    *[(path, "name") for path in _ATM_ELEMENTS],
    (("classes", 0, "attributes", 0), "type"), (("classes", 6, "parts", 0), "type"),
    (("classes", 4, "ports", 0), "contract"), (("associations", 0, "end1"), "type"),
], ids=lambda item: item if isinstance(item, str) else ".".join(map(str, item[::2])))
def test_json_reports_each_required_string_field(path, key, value, message):
    # A null is a value of the wrong type here, not an absent field.
    assert _rejected_atm(path, key, value) == [
        f"atm.csm.json:1:1: {_where(path)}: {message.format(key)}"]


@pytest.mark.parametrize("seed", [1396, 2601])
def test_json_mutations_insert_values_no_two_places_share(seed):
    # At these seeds one junk list lands in two places and then inside itself,
    # unless each insertion is a copy; json.dumps then finds a cycle.
    rng = random.Random(seed)
    text = mutate_json_document(rng, serialize_json(random_wellformed_model(rng)),
                                rng.randint(1, 4))
    assert isinstance(text, str)
    with contextlib.suppress(ParseFailure):
        parse_json(text)


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


# A model with every field shape the JSON format has: an attribute, a group
# interface with generals, an interface with operations, a non-default class
# kind, a multiplicity, a reversed port, the three connector end shapes, an
# untyped and a typed connector, a synthesized association and a root.
EVERY_FIELD_DSL = """
interface I { op ping; op pong; }
interface IG group : I {}
class Worker active {
  realizes I;
  port pIn: I;
  port rOut: I reversed;
}
class Sys observer {
  part w: Worker x2;
  port p: I;
  connector self.p , w.pIn;
  connector w , self.p via link;
}
assoc link ( Worker , I nav );
"""

EVERY_FIELD_JSON = """{
  "formatVersion": 1,
  "interfaces": [
    {
      "name": "I",
      "group": false,
      "generals": [],
      "operations": [
        "ping",
        "pong"
      ]
    },
    {
      "name": "IG",
      "group": true,
      "generals": [
        "I"
      ],
      "operations": []
    }
  ],
  "classes": [
    {
      "name": "Worker",
      "kind": "active",
      "generals": [],
      "realizes": [
        "I"
      ],
      "uses": [],
      "attributes": [
        {
          "name": "count",
          "type": "int"
        }
      ],
      "parts": [],
      "ports": [
        {
          "name": "pIn",
          "contract": "I",
          "reversed": false
        },
        {
          "name": "rOut",
          "contract": "I",
          "reversed": true
        }
      ],
      "connectors": []
    },
    {
      "name": "Sys",
      "kind": "observer",
      "generals": [],
      "realizes": [],
      "uses": [],
      "attributes": [],
      "parts": [
        {
          "name": "w",
          "type": "Worker",
          "multiplicity": 2
        }
      ],
      "ports": [
        {
          "name": "p",
          "contract": "I",
          "reversed": false
        }
      ],
      "connectors": [
        {
          "end1": {
            "port": "p"
          },
          "end2": {
            "part": "w",
            "port": "pIn"
          }
        },
        {
          "end1": {
            "part": "w"
          },
          "end2": {
            "port": "p"
          },
          "association": "link"
        }
      ]
    }
  ],
  "associations": [
    {
      "name": "link",
      "end1": {
        "type": "Worker",
        "navigable": false
      },
      "end2": {
        "type": "I",
        "navigable": true
      }
    },
    {
      "name": "deleg_I",
      "end1": {
        "type": "I",
        "navigable": false
      },
      "end2": {
        "type": "I",
        "navigable": true
      },
      "synthesized": true
    }
  ],
  "root": "Sys"
}
"""


def test_serialization_of_every_field_shape_is_pinned():
    model = parse_dsl(EVERY_FIELD_DSL)
    model.classes[0].attributes.append(Attribute("count", "int"))
    model.root = "Sys"
    model = synthesize_deleg_associations(model)
    assert serialize_json(model) == EVERY_FIELD_JSON
    assert parse_json(EVERY_FIELD_JSON) == without_synthesized(model)


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


# Values of every JSON type, put in place of a field or of a whole element:
# among them the empty string, a class kind, and arrays that are empty or hold
# a string, an empty string, a number or an object.
_JUNK = [None, 0, 3, True, False, 2.5, "", "s", "passive", [], [""], ["x"], [1], [{}], {},
         {"name": 1}]
_ABSENT = object()


def _json_elements(doc: dict) -> list[tuple]:
    """``(table, raw)`` for the document and each element in it, wherever the
    containers on the way have the shape the schema gives them."""
    def items(raw, key) -> list:
        value = raw.get(key) if type(raw) is dict else None
        return value if type(value) is list else []

    def ends(raw, table) -> list[tuple]:
        return [(table, raw.get(key, _ABSENT)) for key in ("end1", "end2")
                if type(raw) is dict]

    out = [(ingest._MODEL, doc)]
    out += [(ingest._INTERFACE, raw) for raw in items(doc, "interfaces")]
    for raw in items(doc, "associations"):
        out += [(ingest._ASSOCIATION, raw), *ends(raw, ingest._ASSOCIATION_END)]
    for cls in items(doc, "classes"):
        out.append((ingest._CLASS, cls))
        for key, table in (("attributes", ingest._ATTRIBUTE), ("parts", ingest._PART),
                           ("ports", ingest._PORT), ("connectors", ingest._CONNECTOR)):
            out += [(table, raw) for raw in items(cls, key)]
        for raw in items(cls, "connectors"):
            out += ends(raw, ingest._END_REF)
    return [(table, raw) for table, raw in out if raw is not _ABSENT]


def _substitution_bases() -> list[str]:
    """The ATM document with an attribute, and the delegation one with its
    synthesized associations: between them, every kind of element."""
    return [json.dumps(_atm_document()), serialize_json(synthesize_deleg_associations(
        parse_dsl(DELEGATION.read_text(encoding="utf-8"))))]


def _base_json_texts() -> list[str]:
    """Canonical JSON texts: the fixtures, the substitution bases and
    generated models."""
    texts = [ATM.read_text(encoding="utf-8"), *_substitution_bases()]
    for path in (DELEGATION, FIXTURES / "mixed_concurrency.csm", FIXTURES / "leaf.csm"):
        texts.append(serialize_json(parse_dsl(path.read_text(encoding="utf-8"))))
    for seed in range(40):
        texts.append(serialize_json(random_wellformed_model(random.Random(seed))))
    return texts


def _substituted_documents():
    """``(doc, [(table, element)])``: the ATM document (with an attribute) and
    the delegation one (with synthesized associations), with one field of the
    first element of each kind set to each junk value, or deleted, at a time."""
    for text in _substitution_bases():
        firsts = {}
        for n, (table, raw) in enumerate(_json_elements(json.loads(text))):
            if type(raw) is dict:
                firsts.setdefault(table, n)
        for table, n in firsts.items():
            for key in [field[0] for field in table.fields] + ["synthesized"]:
                for value in (_ABSENT, *_JUNK):
                    doc = json.loads(text)
                    element = _json_elements(doc)[n][1]
                    if value is _ABSENT:
                        element.pop(key, None)
                    else:
                        element[key] = value
                    yield doc, [(table, element)]


def _json_documents():
    """``(doc, its elements)`` for the base texts and seeded mutations of
    them, then the substituted documents."""
    texts = _base_json_texts()
    docs = list(map(json.loads, texts))
    for seed in range(400):
        rng = random.Random(seed)
        with contextlib.suppress(ValueError):  # a document cut short
            docs.append(json.loads(mutate_json_document(rng, rng.choice(texts), rng.randint(1, 4))))
    yield from ((doc, _json_elements(doc)) for doc in docs)
    yield from _substituted_documents()


def _outcome(build, raw):
    """What ``build`` makes of ``raw``: the record, ``"rejected"``, or the
    type of any other exception."""
    try:
        return build(raw)
    except ingest._Rejected:
        return "rejected"
    except Exception as exc:  # a mutant may fail in a way the reader never does
        return type(exc)


def _builder_disagreement(cases) -> tuple | None:
    """The first ``(table, raw)`` of the ``(doc, elements)`` cases whose kind's
    builder, as its table holds it now, makes something else of the element
    than :func:`table_build`, or ``("report", doc)`` for a document the model
    builder accepts although ``report`` finds an error in it, or rejects
    although it finds none. Each kind is also given every junk value in place
    of a whole element."""
    def differs(table, raw) -> bool:
        return _outcome(table.build, raw) != _outcome(lambda raw: table_build(table, raw), raw)

    for table in JSON_TABLES:
        for raw in _JUNK:
            if differs(table, raw):
                return table, raw
    for doc, elements in cases:
        for table, raw in elements:
            if differs(table, raw):
                return table, raw
        reader = ingest._JsonReader("x.csm.json")
        reader.report(ingest._MODEL, doc, ())
        if (_outcome(ingest._MODEL.build, doc) == "rejected") != bool(reader.errors):
            return "report", doc
    return None


def test_json_builders_agree_with_their_schema_tables():
    cases = list(_json_documents())
    accepted = sum(type(_outcome(ingest._MODEL.build, doc)) is Model for doc, _ in cases)
    assert 0 < accepted < len(cases)
    assert _builder_disagreement(cases) is None


def _with_field_test(table, n: int, test):
    """The builder derived from ``table``'s fields with the test of field
    ``n`` replaced by ``test``."""
    fields = list(table.fields)
    fields[n] = (fields[n][0], fields[n][1], test, fields[n][3])
    return ingest._derive_build(table.record, tuple(fields))


def test_a_json_builder_without_one_of_its_type_tests_disagrees(monkeypatch):
    """One mutant per field of every table, its test passing every value
    through, and one per test of the hand-written array test, put in the
    model's associations field, the one array field that also skips items."""
    cases = list(_substituted_documents())
    mutants = [(f"{table.record.__name__}.{field[0]} passed through", table,
                _with_field_test(table, n, lambda value: value))
               for table in JSON_TABLES for n, field in enumerate(table.fields)]
    n = [field[0] for field in ingest._MODEL.fields].index("associations")
    mutants += [(label, ingest._MODEL, _with_field_test(ingest._MODEL, n, mutant))
                for label, mutant in dropped_tests(ingest._MODEL.fields[n][2])]
    for label, table, build in mutants:
        monkeypatch.setattr(table, "build", build)
        assert _builder_disagreement(cases) is not None, label
        monkeypatch.undo()
    assert len(mutants) >= 38


def test_a_json_builder_without_one_operand_of_an_inline_check_disagrees(monkeypatch):
    cases = list(_substituted_documents())
    mutants = 0
    for test, (rejects, value) in list(ingest._INLINE.items()):
        for label, condition in dropped_operands(ast.parse(rejects, mode="eval").body):
            monkeypatch.setitem(ingest._INLINE, test, (ast.unparse(condition), value))
            for table in JSON_TABLES:
                monkeypatch.setattr(table, "build", ingest._derive_build(table.record, table.fields))
            assert _builder_disagreement(cases) is not None, f"{test.__name__} without {label}"
            monkeypatch.undo()
            mutants += 1
    assert mutants >= 12


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
        assert _tokenize(text, "f.csm", 1) == tokenize_oracle(text, "f.csm"), repr(text)


def _readme_example() -> str:
    """The DSL example under README's "The DSL" heading."""
    section = README.read_text(encoding="utf-8").split("## The DSL", 1)[1]
    return section.split("```text\n", 1)[1].split("```", 1)[0]


def _line_dsl(seed: int) -> tuple[str, Model]:
    """A well-formed model written one statement per line, and the model the
    text stands for."""
    rng = random.Random(seed)
    model = random_wellformed_model(rng)
    text = model_to_line_dsl(rng, model)
    model.root = None
    return text, model


def _token_parse(text: str, filename: str) -> Model | list:
    """What the token parser alone makes of the whole of ``text``: the model,
    or the errors in the order :func:`parse_dsl` reports them."""
    tokens, errors = _tokenize(text, filename, 1)
    parser = _Parser(tokens, filename)
    model = Model()
    parser.parse_model(model)
    errors += parser.errors
    return sorted(errors, key=lambda e: (e.span.line, e.span.column)) if errors else model


def _reader_inputs():
    """(text, whether the statement reader must take it)."""
    for _, text, _ in dsl_parse_cases():
        yield text, False
    yield _readme_example(), True
    for pair in MUTATION_PAIRS.values():
        yield from ((text, False) for text in pair)
    for seed in LINE_SEEDS:
        text, _ = _line_dsl(seed)
        yield text, True
        rng = random.Random(seed)
        yield corrupt_dsl(rng, text, rng.randint(1, 4)), False
    for seed in range(1000):
        rng = random.Random(seed)
        yield token_soup(rng, rng.randint(0, 60)), False


def test_statement_reader_declines_or_agrees_with_the_token_parser():
    taken = 0
    for text, must_take in _reader_inputs():
        model, first_line, _ = _read_statements(text, "f.csm")
        if first_line is not None:
            assert not must_take, text
            continue
        taken += 1
        expected = _token_parse(text, "f.csm")
        assert isinstance(expected, Model), text
        # Spans take no part in equality, so they are compared on their own.
        assert model == expected and element_spans(model) == element_spans(expected), text
    assert taken > len(LINE_SEEDS)


def test_statement_reader_takes_line_per_statement_texts_without_the_tokenizer(monkeypatch):
    def refuse(*args):
        raise AssertionError("the token parser ran")

    monkeypatch.setattr(ingest, "_tokenize", refuse)
    for seed in LINE_SEEDS:
        text, model = _line_dsl(seed)
        assert parse_dsl(text, f"l{seed}.csm") == model
    assert [c.name for c in parse_dsl(_readme_example()).classes] == ["Worker", "System"]


@pytest.mark.parametrize("text", [
    "class A {\n  part p: B;\n",                    # a class left open
    "part p: B;\n",                                 # a member outside a class
    "class A {\n  class B {}\n}\n",                 # a declaration inside a class
    "}\n",
    "class A {\n  connector self , p;\n}\n",        # a bare 'self' end
    "class A {\n  part p: B x" + "9" * 5000 + ";\n}\n",
    "class A { part p: B; }\n",                     # two statements on a line
    "class A\n{\n}\n",
    "interface I { op f }\n",
    "class Caf\u00e9 {}\n",
    "class A {}\x0b\n",
])
def test_statement_reader_declines_what_the_token_parser_must_judge(text):
    assert _read_statements(text, "f.csm")[1] is not None


# Statements the statement reader declines, each on a line of its own.
_BAD_STATEMENTS = ["part p: ;", "}", "class {", "class A {", "interface I { op }", "uses ;",
                   "assoc a ( A B );", "connector self , p;", "class A { part p: B; }", ";",
                   "part q: B x" + "9" * 5000 + ";", "realizes I, ;"]


def _resumed_inputs():
    """Line-per-statement texts, corrupted, or with a bad statement or a token
    soup inserted at a seeded line."""
    for seed in LINE_SEEDS:
        text, _ = _line_dsl(seed)
        rng = random.Random(seed)
        yield corrupt_dsl(rng, text, rng.randint(1, 4))
        lines = text.split("\n")
        at = rng.randint(0, len(lines))
        bad = rng.choice(_BAD_STATEMENTS) if seed % 2 else token_soup(rng, rng.randint(1, 8))
        yield "\n".join(lines[:at] + [bad] + lines[at:])


def test_token_parser_resumed_at_the_declined_declaration_agrees_with_a_full_token_parse():
    resumed = 0
    for text in _resumed_inputs():
        resumed += _read_statements(text, "f.csm")[1] not in (None, 1)
        expected = _token_parse(text, "f.csm")
        try:
            model = parse_dsl(text, "f.csm")
        except ParseFailure as failure:
            assert failure.errors == expected, text
        else:
            assert isinstance(expected, Model), text
            assert model == expected and element_spans(model) == element_spans(expected), text
    assert resumed > len(LINE_SEEDS)


@pytest.mark.parametrize("lines, first_line", [
    (["interface I { op f; }", "class A {", "  part p: B;", "}", "class C {", "  part q: ;", "}"], 6),
    (["class A {", "  part p: B;", "}", "", "part q: B;", "class C {}"], 5),
    (["assoc a ( A , B )", ";", "class A {}"], 2),
])
def test_token_parser_reads_only_from_the_declined_declaration(monkeypatch, lines, first_line):
    text = "\n".join(lines) + "\n"
    read = []

    def tokenize(*args):
        tokens, errors = _tokenize(*args)
        read.extend(tokens)
        return tokens, errors

    monkeypatch.setattr(ingest, "_tokenize", tokenize)
    assert _read_statements(text, "f.csm")[1] == first_line
    try:
        outcome = parse_dsl(text, "f.csm")
    except ParseFailure as failure:
        outcome = failure.errors
    assert outcome == _token_parse(text, "f.csm")
    assert read[0][2] == first_line and read[-1][0] == "eof"


@pytest.mark.parametrize("text", ["class A {\n", "class A {\n  part p: B;\n", "class A {\n  part p: B;",
                                  "class A {\n  part p: B; // open",
                                  "interface I {}\nclass A {\n  part p: B;\n\n// end\n"])
def test_a_class_left_open_is_reported_at_the_end_as_by_the_token_parser(text):
    with pytest.raises(ParseFailure) as failure:
        parse_dsl(text, "f.csm")
    assert failure.value.errors == _token_parse(text, "f.csm")
    assert [e.message for e in failure.value.errors] == ["class body is not closed"]
