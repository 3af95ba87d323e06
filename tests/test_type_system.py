from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compocheck import (
    Association,
    AssociationEnd,
    Class,
    ClassKind,
    Connector,
    EndRef,
    Interface,
    LinkKind,
    Model,
    Part,
    Port,
    TypingIndex,
    parents_of,
    validate_integrity,
)
from compocheck.ingest import parse_auto

import oracles
from generators import (
    corrupt_names,
    random_classifier_dag,
    random_fanout_port_model,
    random_wellformed_model,
)
from conftest import ATM, DELEGATION, LEAF, MIXED_CONCURRENCY, prepare, prepare_model
from mutants import MUTATION_PAIRS


# --- closures ---------------------------------------------------------------

def test_parents_of_empty_and_bundled(delegation_model):
    assert parents_of(delegation_model, "I") == set()
    assert parents_of(delegation_model, "IJL") == {"I", "J", "L"}


def test_parents_of_chain():
    model = Model(interfaces=[
        Interface(name="I0"),
        Interface(name="I1", generals=["I0"]),
        Interface(name="I2", generals=["I1"]),
    ])
    assert parents_of(model, "I2") == {"I1", "I0"}


def test_class_interfaces_on_delegation_model(delegation_model):
    assert TypingIndex(delegation_model).class_interfaces("D") == {"I"}
    assert TypingIndex(delegation_model).class_interfaces("E") == {"J", "L"}


def test_class_realizing_group_keeps_members_only():
    model = Model(
        interfaces=[Interface(name="I"), Interface(name="J"), Interface(name="L"),
                    Interface(name="IJL", generals=["I", "J", "L"], is_group=True)],
        classes=[Class(name="C", realizes=["IJL"])],
    )
    assert TypingIndex(model).class_interfaces("C") == {"I", "J", "L"}


def test_class_interfaces_follow_class_generalization():
    model = Model(
        interfaces=[Interface(name="I")],
        classes=[Class(name="Base", realizes=["I"]), Class(name="Sub", generals=["Base"])],
    )
    assert TypingIndex(model).class_interfaces("Sub") == {"I"}


def test_port_interfaces(delegation_model):
    a = delegation_model.find_class("A")
    e = delegation_model.find_class("E")
    assert TypingIndex(delegation_model).port_interfaces(a.find_port("pIJL")) == {"I", "J", "L"}
    assert TypingIndex(delegation_model).port_interfaces(e.find_port("rK")) == {"K"}
    assert TypingIndex(delegation_model).port_interfaces(e.find_port("pJL")) == {"J", "L"}


@pytest.mark.parametrize("seed", range(60))
def test_closures_match_fixpoint_oracle(seed):
    model = random_classifier_dag(random.Random(seed))
    for iface in model.interfaces:
        assert parents_of(model, iface.name) == oracles.parents_fixpoint(model, iface.name)
        assert TypingIndex(model).interface_closure(iface.name) == \
            oracles.interface_closure_oracle(model, iface.name)
    for cls in model.classes:
        assert parents_of(model, cls.name) == oracles.parents_fixpoint(model, cls.name)
        assert TypingIndex(model).class_interfaces(cls.name) == \
            oracles.class_interfaces_oracle(model, cls.name)
        for port in cls.ports:
            assert TypingIndex(model).port_interfaces(port) == \
                oracles.port_interfaces_oracle(model, port)


# --- link classification ----------------------------------------------------

def link_fixture(shape: str, rev1: bool, rev2: bool):
    """One connector of the requested end shape and directions, inside a
    well-shaped model; returns (model, owner class, connector)."""
    model = Model(interfaces=[Interface(name="X", operations=["x"])])
    p1 = Class(name="P1", kind=ClassKind.ACTIVE, realizes=["X"],
               ports=[Port(name="q1", contract="X", reversed=rev1)])
    p2 = Class(name="P2", kind=ClassKind.ACTIVE, realizes=["X"],
               ports=[Port(name="q2", contract="X", reversed=rev2)])
    model.classes.extend([p1, p2])
    comp = Class(name="Comp", kind=ClassKind.ACTIVE,
                 parts=[Part(name="a", type="P1"), Part(name="b", type="P2")],
                 ports=[Port(name="c", contract="X", reversed=rev1)])
    if shape == "composite_port__part_port":
        conn = Connector(end1=EndRef(port="c"), end2=EndRef(part="b", port="q2"))
    elif shape == "part_port__part_port":
        conn = Connector(end1=EndRef(part="a", port="q1"), end2=EndRef(part="b", port="q2"))
    elif shape == "part__part_port":
        conn = Connector(end1=EndRef(part="a"), end2=EndRef(part="b", port="q2"))
    elif shape == "part__composite_port":
        conn = Connector(end1=EndRef(part="a"), end2=EndRef(port="c"))
        comp.ports[0] = Port(name="c", contract="X", reversed=rev2)
    elif shape == "part__part":
        conn = Connector(end1=EndRef(part="a"), end2=EndRef(part="b"))
    else:
        raise AssertionError(shape)
    comp.connectors.append(conn)
    model.classes.append(comp)
    return model, comp, conn


CLASSIFICATION_TABLE = [
    # composite port (direction = rev1) to part port (direction = rev2)
    ("composite_port__part_port", True, True, LinkKind.OUTBOUND_DELEGATION_PORT_PORT),
    ("composite_port__part_port", False, True, LinkKind.FORBIDDEN),
    ("composite_port__part_port", True, False, LinkKind.FORBIDDEN),
    ("composite_port__part_port", False, False, LinkKind.INBOUND_DELEGATION_PORT_PORT),
    # two part ports
    ("part_port__part_port", True, True, LinkKind.FORBIDDEN),
    ("part_port__part_port", False, True, LinkKind.ASSEMBLY_PORT_PORT),
    ("part_port__part_port", True, False, LinkKind.ASSEMBLY_PORT_PORT),
    ("part_port__part_port", False, False, LinkKind.FORBIDDEN),
    # part to a port on a part
    ("part__part_port", False, False, LinkKind.ASSEMBLY_PART_PROVIDED_PORT),
    ("part__part_port", False, True, LinkKind.ASSEMBLY_PART_REQUIRED_PORT),
    # part to a port on the composite
    ("part__composite_port", False, False, LinkKind.INBOUND_DELEGATION_PART_PORT),
    ("part__composite_port", False, True, LinkKind.OUTBOUND_DELEGATION_PART_PORT),
    # two bare parts
    ("part__part", False, False, LinkKind.ASSEMBLY_PART_PART),
]


@pytest.mark.parametrize("shape,rev1,rev2,expected", CLASSIFICATION_TABLE)
def test_classification_table(shape, rev1, rev2, expected):
    model, comp, conn = link_fixture(shape, rev1, rev2)
    assert TypingIndex(model).connector(comp, conn).kind is expected


@pytest.mark.parametrize("shape,rev1,rev2,expected", CLASSIFICATION_TABLE)
def test_classification_ignores_end_order(shape, rev1, rev2, expected):
    model, comp, conn = link_fixture(shape, rev1, rev2)
    conn.end1, conn.end2 = conn.end2, conn.end1
    assert TypingIndex(model).connector(comp, conn).kind is expected


def origin_kind(origin) -> str:
    """What requests enter a link through, as its origin end implies it."""
    if origin is None:
        return "undirected"
    if origin.port is None:
        return "part"
    return "required port" if origin.port.reversed else "provided port"


@pytest.mark.parametrize("shape,rev1,rev2,expected", CLASSIFICATION_TABLE)
def test_origin_is_undirected_exactly_for_forbidden(shape, rev1, rev2, expected):
    model, comp, conn = link_fixture(shape, rev1, rev2)
    origin = TypingIndex(model).connector(comp, conn).origin
    assert (origin_kind(origin) == "undirected") == (expected is LinkKind.FORBIDDEN)


# The origin of each CLASSIFICATION_TABLE row: its kind and the end it sits at,
# written as that end describes itself (None for undirected links). "first"
# stands for the connector's first end, where a part-part link starts.
ORIGIN_TABLE = {
    ("composite_port__part_port", True, True): ("required port", "b.q2"),
    ("composite_port__part_port", False, True): ("undirected", None),
    ("composite_port__part_port", True, False): ("undirected", None),
    ("composite_port__part_port", False, False): ("provided port", "self.c"),
    ("part_port__part_port", True, True): ("undirected", None),
    ("part_port__part_port", False, True): ("required port", "b.q2"),
    ("part_port__part_port", True, False): ("required port", "a.q1"),
    ("part_port__part_port", False, False): ("undirected", None),
    ("part__part_port", False, False): ("part", "a"),
    ("part__part_port", False, True): ("required port", "b.q2"),
    ("part__composite_port", False, False): ("provided port", "self.c"),
    ("part__composite_port", False, True): ("part", "a"),
    ("part__part", False, False): ("part", "first"),
}


def test_origin_table_covers_the_classification_table():
    assert set(ORIGIN_TABLE) == {(shape, rev1, rev2) for shape, rev1, rev2, _ in CLASSIFICATION_TABLE}


@pytest.mark.parametrize("swapped", [False, True])
@pytest.mark.parametrize("shape,rev1,rev2,expected", CLASSIFICATION_TABLE)
def test_origin_table(shape, rev1, rev2, expected, swapped):
    model, comp, conn = link_fixture(shape, rev1, rev2)
    if swapped:
        conn.end1, conn.end2 = conn.end2, conn.end1
    link = TypingIndex(model).connector(comp, conn)
    kind, end = ORIGIN_TABLE[shape, rev1, rev2]
    if end == "first":
        end = conn.end1.describe()
    assert link.kind is expected
    assert origin_kind(link.origin) == kind
    if end is None:
        assert link.origin is None and link.far is None
    else:
        assert link.origin.describe() == end
        s1, s2 = link.ends
        assert link.far is (s2 if link.origin is s1 else s1)
        assert link.far.describe() != end


def test_link_origins_on_delegation_model(delegation_model):
    a = delegation_model.find_class("A")
    origins = [TypingIndex(delegation_model).connector(a, conn).origin for conn in a.connectors]
    assert origin_kind(origins[0]) == "provided port"
    assert origins[0].port.name == "pIJL"
    assert origin_kind(origins[1]) == "provided port"
    assert origin_kind(origins[2]) == "required port"
    assert origins[2].port.name == "rK"
    assert origin_kind(origins[3]) == "required port"
    assert origin_kind(origins[4]) == "part"
    assert origins[4].part.name == "d"


# --- transported sets -------------------------------------------------------

def test_transported_sets_on_delegation_model(delegation_model):
    a = delegation_model.find_class("A")
    sets = [TypingIndex(delegation_model).connector(a, conn).transported for conn in a.connectors]
    assert sets[0] == frozenset({"I"})
    assert sets[1] == frozenset({"J", "L"})
    assert sets[2] == frozenset({"K"})
    assert sets[3] == frozenset({"K"})
    assert all(isinstance(s, frozenset) for s in sets)


def test_part_part_links_have_no_computable_set():
    model = Model(classes=[
        Class(name="B"),
        Class(name="A", parts=[Part(name="x", type="B"), Part(name="y", type="B")],
              connectors=[Connector(end1=EndRef(part="x"), end2=EndRef(part="y"))]),
    ])
    ts = TypingIndex(model).connector(model.find_class("A"),
                                      model.find_class("A").connectors[0]).transported
    assert ts is None


def test_typed_link_narrows_to_the_pointed_closure():
    text_model = Model(
        interfaces=[Interface(name="I"), Interface(name="J"),
                    Interface(name="IJ", generals=["I", "J"], is_group=True)],
        classes=[
            Class(name="P", realizes=["I", "J"], ports=[Port(name="q", contract="IJ")]),
            Class(name="A", parts=[Part(name="p", type="P")],
                  ports=[Port(name="c", contract="IJ")],
                  connectors=[Connector(end1=EndRef(port="c"), end2=EndRef(part="p", port="q"),
                                        association="chanJ")]),
        ],
        associations=[
            Association(name="chanJ", end1=AssociationEnd("J"),
                        end2=AssociationEnd("J", navigable=True)),
        ],
    )
    a = text_model.find_class("A")
    ts = TypingIndex(text_model).connector(a, a.connectors[0]).transported
    assert ts == frozenset({"J"})


@pytest.mark.parametrize("seed", range(30))
def test_untyped_sets_match_the_enumeration_oracle(seed):
    model = prepare_model(random_wellformed_model(random.Random(seed)))
    for cls, idx, conn in model.iter_connectors():
        if conn.association is not None:
            continue
        ts = TypingIndex(model).connector(cls, conn).transported
        if ts is None:
            continue
        s1, s2 = TypingIndex(model).connector(cls, conn).ends

        def end_set(site):
            if site.port is not None:
                return oracles.port_interfaces_oracle(model, site.port)
            return oracles.class_interfaces_oracle(model, site.part.type)

        expected = oracles.intersection_by_enumeration(model, end_set(s1), end_set(s2))
        assert set(ts) == expected


@pytest.mark.parametrize("seed", range(30))
def test_no_transported_set_contains_a_group(seed):
    model = prepare_model(random_wellformed_model(random.Random(seed)))
    groups = {i.name for i in model.interfaces if i.is_group}
    for cls, _, conn in model.iter_connectors():
        ts = TypingIndex(model).connector(cls, conn).transported
        assert not (set(ts or ()) & groups)


# --- connector records -------------------------------------------------------

def _record_models():
    """(case id, model) pairs: the classification table's links (forbidden ones
    included), the parseable fixtures, well-formed and fan-out seeds (all
    synthesized), and ``corrupt_names`` seeds that still pass integrity,
    unsynthesized, so some connectors name undeclared associations."""
    for shape, rev1, rev2, _ in CLASSIFICATION_TABLE:
        yield f"{shape}-{rev1}-{rev2}", link_fixture(shape, rev1, rev2)[0]
    for fixture in (DELEGATION, MIXED_CONCURRENCY, ATM, LEAF):
        yield fixture.name, prepare_model(parse_auto(fixture.read_text(encoding="utf-8"),
                                                     fixture.name))
    for seed in range(40):
        yield f"wellformed-{seed}", prepare_model(random_wellformed_model(random.Random(seed)))
        yield f"fanout-{seed}", prepare_model(random_fanout_port_model(random.Random(seed))[0])
    kept = 0
    for seed in range(200):
        rng = random.Random(seed)
        model = random_classifier_dag(rng) if seed % 4 == 3 else random_wellformed_model(rng)
        corrupt_names(rng, model, rng.randint(1, 4))
        if not validate_integrity(model):
            kept += 1
            yield f"corrupt-{seed}", model
    assert kept >= 10


def test_connector_records_match_the_linear_lookups():
    for case, model in _record_models():
        index = TypingIndex(model)
        links = index.links()
        triples = list(model.iter_connectors())
        assert len(links) == len(triples), case
        for link, (cls, idx, conn) in zip(links, triples):
            assert link.connector is conn and index.connector(cls, conn) is link, case
            assert link.path == model.connector_path(cls, idx), case
            expected = None if conn.association is None else model.find_association(conn.association)
            assert link.association is expected, case
            s1, s2 = link.ends
            assert s1.ref is conn.end1 and s2.ref is conn.end2, case
            if link.kind is LinkKind.FORBIDDEN:
                assert link.far is None, case
            else:
                others = [site for site in link.ends if site is not link.origin]
                assert len(others) == 1 and link.far is others[0], case
        for cls in model.classes:
            for port in cls.ports:
                expected = [link for link in links if link.origin is not None
                            and link.origin.port is port]
                got = index.fanout(port)[0]
                assert len(got) == len(expected), (case, cls.name, port.name)
                assert all(a is b for a, b in zip(got, expected)), (case, cls.name, port.name)


def _port_origin_models():
    """A typed link whose pointed type only its far end carries, synthesized
    well-formed and fan-out seeds, both sides of every ``MUTATION_PAIRS``
    entry, and ``corrupt_names`` seeds that still pass integrity
    (unsynthesized)."""
    yield "pointed-at-far-end-only", prepare("""
    interface I { op f; }
    interface J { op g; }
    class Inner active { uses J; port r: J reversed; }
    class Root active { part x: Inner; port out: I reversed; connector x.r , self.out via itsI; }
    assoc itsI ( I , I nav );
    """)
    for seed in range(200):
        yield f"wellformed-{seed}", prepare_model(random_wellformed_model(random.Random(seed)))
    for seed in range(100):
        yield f"fanout-{seed}", prepare_model(random_fanout_port_model(random.Random(seed))[0])
    for code, texts in sorted(MUTATION_PAIRS.items()):
        for side, text in zip(("violating", "fixed"), texts):
            yield f"{code}-{side}", prepare(text, f"{code}-{side}.csm")
    for seed in range(1000):
        rng = random.Random(seed)
        model = random_classifier_dag(rng) if seed % 4 == 3 else random_wellformed_model(rng)
        corrupt_names(rng, model, rng.randint(0, 4))
        if not validate_integrity(model):
            yield f"corrupt-{seed}", model


def test_links_out_of_a_port_stay_inside_its_closure():
    # W008 reports only missing interfaces: no link out of a port, typed or
    # untyped, transports an interface outside the port's contract closure
    links = 0
    for case, model in _port_origin_models():
        index = TypingIndex(model)
        for link in index.links():
            if link.origin is not None and link.origin.port is not None:
                links += 1
                closure = index.port_interfaces(link.origin.port)
                assert (link.transported or frozenset()) <= closure, (case, link.path)
    assert links > 2000


# --- compatibility ----------------------------------------------------------

def test_compatibility_examples(delegation_model):
    assert TypingIndex(delegation_model).classifier_compatible("D", "I")
    assert TypingIndex(delegation_model).classifier_compatible("I", "I")
    assert not TypingIndex(delegation_model).classifier_compatible("D", "K")
    assert not TypingIndex(delegation_model).classifier_compatible("I", "D")  # no class governs an interface


def test_class_class_compatibility_direction():
    model = Model(classes=[Class(name="C1"), Class(name="C2", generals=["C1"])])
    assert TypingIndex(model).classifier_compatible("C2", "C1")
    assert not TypingIndex(model).classifier_compatible("C1", "C2")


def test_port_compatibility(delegation_model):
    a = delegation_model.find_class("A")
    pijl = a.find_port("pIJL")
    rak = a.find_port("rA_K")
    assert TypingIndex(delegation_model).port_compatible(pijl, "J")
    assert not TypingIndex(delegation_model).port_compatible(rak, "J")
    assert TypingIndex(delegation_model).port_compatible(rak, "K")
    assert TypingIndex(delegation_model).port_compatible(pijl, "IJL")  # group closure is covered
    assert not TypingIndex(delegation_model).port_compatible(pijl, "D")  # a class, not an interface


def test_class_closures_survive_a_generalization_cycle():
    # integrity refuses the cycle (E003), but an index may be built without it
    model = Model(interfaces=[Interface("I"), Interface("J")],
                  classes=[Class("A", generals=["B"], realizes=["I"]),
                           Class("B", generals=["A"], realizes=["J"])])
    index = TypingIndex(model)
    assert index.class_interfaces("A") == index.class_interfaces("B") == {"I", "J"}


@settings(max_examples=50, deadline=None)
@given(length=st.integers(min_value=1, max_value=8),
       lower=st.integers(min_value=0, max_value=7))
def test_interface_compatibility_is_reflexive_and_transitive(length, lower):
    model = Model(interfaces=[
        Interface(name=f"I{i}", generals=[f"I{i - 1}"] if i else []) for i in range(length)
    ])
    top = f"I{length - 1}"
    assert TypingIndex(model).classifier_compatible(top, top)
    anchor = f"I{min(lower, length - 1)}"
    assert TypingIndex(model).classifier_compatible(top, anchor)
