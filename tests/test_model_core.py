from __future__ import annotations

import random

import pytest

from compocheck import (
    Association,
    AssociationEnd,
    Attribute,
    CheckReport,
    Class,
    Connector,
    DelegConflictError,
    Diagnostic,
    EndRef,
    Interface,
    Model,
    ParseError,
    Part,
    Port,
    Severity,
    SourceSpan,
    UnknownPathError,
    deleg_name,
    parse_dsl,
    resolve,
    serialize_json,
    synthesize_deleg_associations,
    validate_integrity,
)
from compocheck import diagnostics, ingest, rules, simulator
from compocheck import model as model_layer
from compocheck.ingest import ParseFailure
from compocheck.model import _cycles
from compocheck.records import replace
from compocheck.rules import check_model
from compocheck.type_system import TypingIndex

from generators import gen_chain_model
from oracles import has_cycle_dfs


def codes(diagnostics) -> set[str]:
    return {d.code for d in diagnostics}


def test_empty_model_is_valid():
    assert validate_integrity(Model()) == []


def test_part_typed_by_undeclared_class_is_dangling():
    model = Model(classes=[Class(name="A", parts=[Part(name="d", type="X")])])
    diags = validate_integrity(model)
    assert codes(diags) == {"E001"}
    assert diags[0].subject == "A.d"


def test_mutual_generalization_is_a_cycle():
    model = Model(classes=[Class(name="A", generals=["B"]), Class(name="B", generals=["A"])])
    assert codes(validate_integrity(model)) == {"E003"}


@pytest.mark.parametrize("seed", range(40))
def test_cycle_detection_agrees_with_dfs_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    names = [f"C{i}" for i in range(n)]
    pairs = []
    for name in names:
        succs = rng.sample(names, k=rng.randint(0, min(3, n)))
        pairs.append((name, [s for s in succs if s != name]))
    model = Model(classes=[Class(name=name, generals=generals) for name, generals in pairs])
    found = "E003" in codes(validate_integrity(model))
    assert found == has_cycle_dfs(pairs)


@pytest.mark.parametrize("seed", range(300))
def test_cycle_search_agrees_with_dfs_oracle_on_name_graphs(seed):
    # Half the graphs point every edge at an earlier declaration, and each is
    # also read in reverse order: the cases the one-pass proof takes. Names may
    # repeat, loop to themselves and name successors outside the graph.
    rng = random.Random(seed)
    pool = [f"C{i}" for i in range(rng.randint(1, 8))]
    names = [rng.choice(pool) if rng.random() < 0.15 else name for name in pool]
    ordered = rng.random() < 0.5
    pairs = []
    for i, name in enumerate(names):
        candidates = (names[:i] if ordered else names) + ["Out", "Far"]
        pairs.append((name, rng.sample(candidates, k=rng.randint(0, min(3, len(candidates))))))
    for order in (pairs, pairs[::-1]):
        assert bool(_cycles(order)) == has_cycle_dfs(order), order


def test_self_containment_is_one_e010():
    model = Model(classes=[Class(name="A", parts=[Part(name="a", type="A")])])
    diags = validate_integrity(model)
    assert [(d.code, d.subject, d.related) for d in diags] == [("E010", "A", [])]
    assert diags[0].message == "containment cycle: A -> A"


def test_mutual_containment_is_one_e010_and_its_container_none():
    model = Model(classes=[Class(name="A", parts=[Part(name="b", type="B")]),
                           Class(name="B", parts=[Part(name="a", type="A")]),
                           Class(name="C", parts=[Part(name="x", type="A")])])
    diags = validate_integrity(model)
    assert [(d.code, d.subject, d.related) for d in diags] == [("E010", "A", ["B"])]
    assert diags[0].message == "containment cycle: A -> B -> A"


def test_duplicate_classifier_names_clash():
    model = Model(interfaces=[Interface(name="X")], classes=[Class(name="X")])
    assert codes(validate_integrity(model)) == {"E002"}


def test_duplicate_member_names_clash():
    model = Model(
        interfaces=[Interface(name="I")],
        classes=[
            Class(name="B"),
            Class(name="A", parts=[Part(name="m", type="B")],
                  ports=[Port(name="m", contract="I")]),
        ],
    )
    assert codes(validate_integrity(model)) == {"E002"}


def test_connector_end_shapes_are_validated():
    model = Model(classes=[Class(name="A", connectors=[
        Connector(end1=EndRef(), end2=EndRef(part="nope")),
    ])])
    diags = validate_integrity(model)
    assert codes(diags) == {"E001", "E006"}


def test_port_must_exist_on_the_part_type():
    model = Model(
        interfaces=[Interface(name="I")],
        classes=[
            Class(name="B", ports=[Port(name="q", contract="I")]),
            Class(name="A", parts=[Part(name="b", type="B")], connectors=[
                Connector(end1=EndRef(part="b", port="zz"), end2=EndRef(part="b", port="q")),
            ]),
        ],
    )
    assert codes(validate_integrity(model)) == {"E001"}


def test_multiplicity_must_be_positive():
    model = Model(classes=[Class(name="B"), Class(name="A", parts=[Part(name="b", type="B", multiplicity=0)])])
    assert codes(validate_integrity(model)) == {"E007"}


def test_interface_group_needs_two_generals():
    model = Model(interfaces=[Interface(name="I"), Interface(name="G", generals=["I"], is_group=True)])
    assert codes(validate_integrity(model)) == {"E008"}


def test_wrong_kind_references_are_flagged():
    model = Model(
        interfaces=[Interface(name="I")],
        classes=[Class(name="A", parts=[Part(name="x", type="I")], realizes=["A"])],
    )
    found = codes(validate_integrity(model))
    assert found == {"E009"}


def test_untyped_deleg_reference_is_accepted_before_synthesis():
    # connectors may name deleg_I before it is synthesized
    text = """
    interface I { op f; }
    class P active { realizes I; port q: I; }
    class A active {
      part p: P;
      port c: I;
      connector self.c , p.q via deleg_I;
    }
    """
    model = parse_dsl(text)
    assert validate_integrity(model) == []
    model = synthesize_deleg_associations(model)
    assert model.find_association("deleg_I") is not None


def test_synthesis_creates_one_deleg_per_plain_interface():
    model = Model(interfaces=[Interface(name="I"), Interface(name="J"),
                              Interface(name="IJ", generals=["I", "J"], is_group=True)])
    out = synthesize_deleg_associations(model)
    names = [a.name for a in out.associations]
    assert names == ["deleg_I", "deleg_J"]
    assert all(a.is_deleg_default for a in out.associations)
    deleg = out.find_association("deleg_I")
    assert deleg.end1.type == "I" and deleg.end2.type == "I" and deleg.end2.navigable
    # the original model is untouched
    assert model.associations == []


def test_synthesis_is_idempotent():
    model = Model(interfaces=[Interface(name="I"), Interface(name="J")])
    once = synthesize_deleg_associations(model)
    twice = synthesize_deleg_associations(once)
    assert once == twice
    assert serialize_json(once) == serialize_json(twice)


def test_synthesis_keeps_user_written_deleg():
    user = Association(name="deleg_I", end1=AssociationEnd("I"),
                       end2=AssociationEnd("I", navigable=True))
    model = Model(interfaces=[Interface(name="I")], associations=[user])
    out = synthesize_deleg_associations(model)
    assert out == model


def test_synthesis_conflict_on_incompatible_user_association():
    user = Association(name="deleg_I", end1=AssociationEnd("J"),
                       end2=AssociationEnd("K", navigable=True))
    model = Model(interfaces=[Interface(name="I"), Interface(name="J"), Interface(name="K")],
                  associations=[user])
    with pytest.raises(DelegConflictError) as err:
        synthesize_deleg_associations(model)
    assert codes(err.value.diagnostics) == {"E004"}


def test_synthesis_conflict_on_non_association_element():
    model = Model(interfaces=[Interface(name="I")], classes=[Class(name="deleg_I")])
    with pytest.raises(DelegConflictError):
        synthesize_deleg_associations(model)


def test_deleg_name_helper():
    assert deleg_name("I") == "deleg_I"


class TestResolve:
    def test_part_and_port_paths(self, delegation_model):
        owner = delegation_model.find_class("A")
        part, part_owner = resolve(delegation_model, "A.d")
        assert isinstance(part, Part) and part.type == "D" and part_owner is owner
        port, port_owner = resolve(delegation_model, "A.pIJL")
        assert isinstance(port, Port) and port.contract == "IJL" and port_owner is owner

    def test_connector_index(self, delegation_model):
        conn, owner = resolve(delegation_model, "A#0")
        assert isinstance(conn, Connector) and owner is delegation_model.find_class("A")
        assert conn.end1.port == "pIJL" and conn.end2.part == "d"

    def test_classifier_name(self, delegation_model):
        iface, owner = resolve(delegation_model, "IJL")
        assert isinstance(iface, Interface) and iface.is_group and owner is None

    @pytest.mark.parametrize("path", ["Nope.x", "A.zz", "A#99", "A#x", "Zzz", "A# 0", "A#+0",
                                      "A#0_0", "A#-0", "A#\u0660", "A#0 ", "Nope#0",
                                      pytest.param("A#" + "9" * 5000, id="A#9x5000")])
    def test_unknown_paths_raise_e005(self, delegation_model, path):
        with pytest.raises(UnknownPathError) as err:
            resolve(delegation_model, path)
        assert codes(err.value.diagnostics) == {"E005"}

    @pytest.mark.parametrize("path,message", [
        ("Nope.x", "no class named 'Nope'"),
        ("A.zz", "class 'A' has no part or port named 'zz'"),
        ("A#99", "class 'A' has 5 connectors; index 99 is out of range"),
        ("A#x", "'x' is not a connector index"),
        ("Zzz", "no element named 'Zzz'"),
        ("A.d.x", "class 'A' has no part or port named 'd.x'"),
        ("A#0.x", "'0.x' is not a connector index"),
        ("A#0#1", "'0#1' is not a connector index"),
        ("A.pIJL#0", "no class named 'A.pIJL'"),
        ("Nope#x.y", "no class named 'Nope'"),
    ])
    def test_a_failing_path_reports_why_its_first_reading_fails(self, delegation_model, path,
                                                                message):
        with pytest.raises(UnknownPathError) as err:
            resolve(delegation_model, path)
        assert [(d.subject, d.message) for d in err.value.diagnostics] == [(path, message)]

    def test_names_holding_a_hash_or_a_dot_resolve(self):
        model = parse_dsl("interface I { op f; }\nclass L active { realizes I; }\n"
                          "class C active { part l: L; port b: I; connector self.b , l; }\n"
                          "class D active { part l: L; port q: I; connector self.q , l; }\n")
        hashed, dotted = model.classes[1], model.classes[2]
        hashed.name, dotted.name = "C#x", "C.x"
        assert resolve(model, "C#x") == (hashed, None)
        assert resolve(model, "C#x#0") == (hashed.connectors[0], hashed)
        assert resolve(model, "C#x.b") == (hashed.ports[0], hashed)
        assert resolve(model, "C.x") == (dotted, None)
        assert resolve(model, "C.x.q") == (dotted.ports[0], dotted)
        assert resolve(model, "C.x#0") == (dotted.connectors[0], dotted)

    def test_where_two_elements_print_one_path_the_first_reading_wins(self):
        model = parse_dsl("interface I { op f; }\nclass L active { realizes I; }\n"
                          "class A active { part b: L; }\nclass B active { part c: L; }\n")
        a, b = model.classes[1], model.classes[2]
        a.parts[0].name, b.name = "b.c", "A.b"  # both print "A.b.c"
        assert resolve(model, "A.b.c") == (a.parts[0], a)
        b.name = "A.b.c"  # a classifier printing the same path
        assert resolve(model, "A.b.c") == (a.parts[0], a)


@pytest.mark.parametrize("derived_first", [False, True])
def test_deep_generalization_chain_validates_and_checks(derived_first):
    model = gen_chain_model(3000)
    if derived_first:  # the cycle search then walks the whole chain from its first class
        model.classes.reverse()
    assert validate_integrity(model) == []
    report = check_model(synthesize_deleg_associations(model))
    assert report.passed


def test_deep_generalization_cycle_is_one_e003():
    diags = validate_integrity(gen_chain_model(3000, cyclic=True))
    assert [d.code for d in diags] == ["E003"]
    assert diags[0].subject == "K0"
    assert len(diags[0].related) == 2999


# Each record class made by ``compocheck.records.record``: the arguments its
# required fields take here, and the repr of the record they build, in the
# text the dataclasses these classes replaced printed.
RECORDS = {
    Diagnostic: (("W001", Severity.ERROR, "A", "m"),
                 "Diagnostic(code='W001', severity=<Severity.ERROR: 'error'>, subject='A', "
                 "message='m', related=[])"),
    Interface: (("I",), "Interface(name='I', generals=[], is_group=False, operations=[])"),
    Attribute: (("a", "T"), "Attribute(name='a', type='T')"),
    Part: (("p", "P"), "Part(name='p', type='P', multiplicity=1)"),
    Port: (("q", "I"), "Port(name='q', contract='I', reversed=False)"),
    EndRef: ((), "EndRef(part=None, port=None)"),
    Connector: ((EndRef("p"), EndRef(None, "q")),
                "Connector(end1=EndRef(part='p', port=None), end2=EndRef(part=None, port='q'), "
                "association=None)"),
    AssociationEnd: (("I",), "AssociationEnd(type='I', navigable=False)"),
    Association: (("deleg_I", AssociationEnd("I"), AssociationEnd("I", True)),
                  "Association(name='deleg_I', end1=AssociationEnd(type='I', navigable=False), "
                  "end2=AssociationEnd(type='I', navigable=True), is_deleg_default=False)"),
    Class: (("C",), "Class(name='C', kind=<ClassKind.PASSIVE: 'passive'>, generals=[], "
                    "realizes=[], usages=[], attributes=[], parts=[], ports=[], connectors=[])"),
    Model: ((), "Model(interfaces=[], classes=[], associations=[], root=None)"),
    ParseError: ((SourceSpan("f", 1, 2), "m"),
                 "ParseError(span=SourceSpan(file='f', line=1, column=2), message='m', "
                 "expected=None)"),
    CheckReport: (([], {}, True), "CheckReport(diagnostics=[], stats={}, passed=True, notes=[])"),
    simulator.ComponentInstance: (("C", 0), "ComponentInstance(class_name='C', seq=0)"),
    simulator.PortInstance: (("A", Port("q", "I"), 1),
                             "PortInstance(owner='A', declaration=Port(name='q', contract='I', "
                             "reversed=False), seq=1)"),
    simulator.DelegBinding: (("A.p", "deleg_I", "A.x", "I"),
                             "DelegBinding(holder='A.p', association='deleg_I', target='A.x', "
                             "interface='I')"),
    simulator.Request: ((1, "I", "A.p"),
                        "Request(id=1, interface='I', location='A.p', "
                        "status=<RequestStatus.IN_TRANSIT: 'inTransit'>, stuck_reason=None, "
                        "path=[])"),
    simulator.TraceEvent: ((1, 1, "A.p", "A.x", None),
                           "TraceEvent(step=1, request=1, from_='A.p', to='A.x', via=None)"),
    simulator.Trace: (([], {}), "Trace(events=[], final_statuses={})"),
    simulator.SafetyViolation: ((1, "r", ["A.p"]),
                                "SafetyViolation(request=1, reason='r', path=['A.p'])"),
    simulator.SafetyReport: ((True, []), "SafetyReport(passed=True, violations=[])"),
}

# The fields of each record class, in order.
FIELDS = {
    Diagnostic: "code severity subject message related",
    Interface: "name generals is_group operations span",
    Attribute: "name type",
    Part: "name type multiplicity span",
    Port: "name contract reversed span",
    EndRef: "part port",
    Connector: "end1 end2 association span",
    AssociationEnd: "type navigable",
    Association: "name end1 end2 is_deleg_default span",
    Class: "name kind generals realizes usages attributes parts ports connectors span",
    Model: "interfaces classes associations root",
    ParseError: "span message expected",
    CheckReport: "diagnostics stats passed notes",
    simulator.ComponentInstance: "class_name seq",
    simulator.PortInstance: "owner declaration seq",
    simulator.DelegBinding: "holder association target interface",
    simulator.Request: "id interface location status stuck_reason path",
    simulator.TraceEvent: "step request from_ to via",
    simulator.Trace: "events final_statuses",
    simulator.SafetyViolation: "request reason path",
    simulator.SafetyReport: "passed violations",
}


def test_records_are_slotted_and_take_no_other_attributes(delegation_text):
    """Every record class keeps the fields, defaults, ``==`` and ``repr`` of the
    dataclass it replaced. Records, diagnostics, parse errors, source spans and
    the typing records have no per-instance ``__dict__``."""
    record_classes = {value for module in (diagnostics, ingest, model_layer, rules, simulator)
                      for value in vars(module).values()
                      if isinstance(value, type) and value.__module__ == module.__name__
                      and "__match_args__" in vars(value)}
    assert record_classes == set(RECORDS) == set(FIELDS)
    model = synthesize_deleg_associations(parse_dsl(delegation_text))
    cls = model.classes[-1]
    link = TypingIndex(model).links()[0]
    try:
        parse_dsl("class {")
    except ParseFailure as failure:
        parse_error = failure.errors[0]
    records = [model, model.interfaces[0], cls, cls.parts[0], cls.ports[0], cls.connectors[0],
               cls.connectors[0].end1, model.associations[0], model.associations[0].end1,
               validate_integrity(Model(root="Nowhere"))[0], parse_error,
               link, link.ends[0], link.origin, link.transported, link.channels[0],
               cls.parts[0].span, parse_error.span]
    for record_class, (required, text) in RECORDS.items():
        names = tuple(FIELDS[record_class].split())
        assert record_class.__match_args__ == names
        first, second = record_class(*required), record_class(*required)
        assert repr(first) == text and first == second and first != required
        records.append(first)
        for name in names[len(required):]:  # a list default is a new list per record
            if getattr(first, name) == []:
                assert getattr(first, name) is not getattr(second, name), name
        values = [object() for _ in names]
        full = record_class(*values)
        assert [getattr(full, name) for name in names] == values
        assert full == record_class(**dict(zip(names, values)))
        for name in names:
            changed = replace(full, **{name: object()})
            assert [getattr(changed, other) is getattr(full, other) for other in names] \
                == [other != name for other in names]
            # Equality and repr leave out a span, except the one a parse error is at.
            compared = name != "span" or record_class is ParseError
            assert (changed == full) is not compared, (record_class.__name__, name)
            assert (repr(changed) == repr(full)) is not compared, (record_class.__name__, name)
        if record_class is not ParseError:
            with pytest.raises(TypeError):
                hash(first)
    with pytest.raises(TypeError):
        replace(model, nothing=1)
    assert hash(parse_error) == hash(ParseError(*(getattr(parse_error, name)
                                                  for name in FIELDS[ParseError].split())))
    for refuse in (lambda: setattr(parse_error, "message", "x"),
                   lambda: delattr(parse_error, "message")):
        with pytest.raises(AttributeError):
            refuse()
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
        with pytest.raises(AttributeError):
            record.note = "x"


def test_value_records_are_named_tuples(delegation_text):
    """Spans and the typing records equal plain tuples of their fields."""
    model = synthesize_deleg_associations(parse_dsl(delegation_text, "d.csm"))
    span = model.classes[-1].span
    assert span == ("d.csm", 22, 7) and str(span) == "d.csm:22:7"
    link = TypingIndex(model).links()[0]
    assert link == (link.connector, link.path, link.kind, link.ends, link.origin, link.far,
                    link.association, link.transported, link.channels)
    assert link.channels[0] == (link.origin, link.far, link.channels[0].pairs)
    assert link.ends[0] == (link.connector.end1, None, link.ends[0].port, True)
