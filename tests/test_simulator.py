from __future__ import annotations

import random
from collections import Counter

import pytest

from compocheck import simulator
from compocheck import (
    DelegConflictError,
    RequestStatus,
    SimError,
    TypingIndex,
    check_model,
    check_type_safety,
    default_injection_suite,
    inject,
    instantiate,
    parse_dsl,
    run_to_quiescence,
    step,
)
from compocheck.rules import prepare as prepare_index, run_rules
from compocheck.simulator import ENVIRONMENT, build_graph

import oracles
from conftest import DELEGATION, prepare, prepare_model
from generators import (
    across_links,
    bidirectional_part_links,
    drop_connector,
    flat_model,
    provided_origin_connectors,
    random_wellformed_model,
    relay_chain_model,
    scramble_typing,
)
from mutants import MUTATION_PAIRS


def binding_tuples(graph):
    return [(b.holder, b.association, b.target, b.interface) for b in graph.bindings]


def test_instantiate_builds_the_documented_bindings(delegation_model):
    graph = instantiate(delegation_model, "A")
    assert sorted(graph.components) == ["A", "A.d", "A.e"]
    assert sorted(graph.ports) == ["A.bak_rA_K", "A.e.pJL", "A.e.rK", "A.pIJL", "A.rA_K"]
    got = set(binding_tuples(graph))
    assert ("A.pIJL", "deleg_I", "A.d", "I") in got
    assert ("A.pIJL", "deleg_J", "A.e.pJL", "J") in got
    assert ("A.pIJL", "deleg_L", "A.e.pJL", "L") in got
    assert ("A.e.rK", "deleg_K", "A.rA_K", "K") in got
    assert ("A.e.rK", "deleg_backup", "A.bak_rA_K", "K") in got
    assert ("A.d", "itsK", "A.rA_K", "K") in got
    assert len(got) == 6


def test_leaf_root_is_a_single_component_without_bindings():
    model = prepare("class D {}")
    graph = instantiate(model, "D")
    assert list(graph.components) == ["D"]
    assert graph.ports == {} and graph.bindings == []
    trace = run_to_quiescence(graph)
    assert trace.events == [] and trace.final_statuses == {}


def test_instantiate_rejects_non_class_roots(delegation_model):
    with pytest.raises(SimError):
        instantiate(delegation_model, "IJL")


def test_instantiate_rejects_models_with_rule_errors():
    model = prepare(MUTATION_PAIRS["W010"][0])
    with pytest.raises(SimError):
        instantiate(model, "A")


def test_inject_validates_port_contracts(delegation_model):
    graph = instantiate(delegation_model, "A")
    inject(graph, "A.pIJL", "I")
    with pytest.raises(SimError):
        inject(graph, "A.pIJL", "K")
    with pytest.raises(SimError):
        inject(graph, "A.zzz", "I")
    for interface in ("Bogus", "IJL"):  # undeclared, and a group
        with pytest.raises(SimError, match="declares no such non-group interface"):
            inject(graph, "A.e", interface)
    assert len(graph.requests) == 1  # the refused injections queued nothing


def test_single_step_delivery_through_deleg_i(delegation_model):
    graph = instantiate(delegation_model, "A")
    rid = inject(graph, "A.pIJL", "I")
    events = step(graph)
    assert len(events) == 1
    assert events[0].from_ == "A.pIJL" and events[0].to == "A.d" and events[0].via == "deleg_I"
    assert graph.requests[rid].status is RequestStatus.DELIVERED


def test_two_hop_delivery_through_a_relay_port(delegation_model):
    graph = instantiate(delegation_model, "A")
    rid = inject(graph, "A.pIJL", "J")
    first = step(graph)[0]
    assert (first.from_, first.to) == ("A.pIJL", "A.e.pJL")
    second = step(graph)[0]
    assert (second.from_, second.to) == ("A.e.pJL", "A.e")
    assert graph.requests[rid].status is RequestStatus.DELIVERED
    assert graph.requests[rid].hops == 2


def test_component_injection_routes_through_its_attribute(delegation_model):
    graph = instantiate(delegation_model, "A")
    rid = inject(graph, "A.d", "K")
    trace = run_to_quiescence(graph)
    assert graph.requests[rid].status is RequestStatus.DELIVERED
    assert graph.requests[rid].path == ["A.d", "A.rA_K", ENVIRONMENT]
    assert trace.events[0].via == "itsK"


def test_full_injection_suite_is_delivered(delegation_model, atm_model):
    # every (port instance, interface in its closure) pair must be delivered,
    # with every component receiver providing the request's interface
    for model, root in ((delegation_model, "A"), (atm_model, "ATM")):
        graph = instantiate(model, root)
        for pid, port_instance in sorted(graph.ports.items()):
            for iface in sorted(TypingIndex(model).port_interfaces(port_instance.declaration)):
                inject(graph, pid, iface)
        trace = run_to_quiescence(graph)
        counts = trace.status_counts()
        assert counts["delivered"] == len(graph.requests) and counts["stuck"] == 0
        report = check_type_safety(trace, graph)
        assert report.passed


def test_empty_pending_set_yields_an_empty_trace(delegation_model):
    graph = instantiate(delegation_model, "A")
    trace = run_to_quiescence(graph)
    assert trace.events == []
    assert step(graph) == []
    assert check_type_safety(trace, graph).passed


def test_dropped_connector_strands_requests(delegation_model):
    mutated = prepare_model(drop_connector(delegation_model, "A", 1))
    # the binding oracle predicts there is no deleg_J route at pIJL any more
    expected = oracles.expected_bindings(mutated, "A")
    assert not any(h == "A.pIJL" and a == "deleg_J" for h, a, _, _ in expected)
    graph = instantiate(mutated, "A", downgrade={"W008"})
    rid = inject(graph, "A.pIJL", "J")
    trace = run_to_quiescence(graph)
    assert graph.requests[rid].status is RequestStatus.STUCK
    assert graph.requests[rid].location == "A.pIJL"
    assert not check_type_safety(trace, graph).passed


def test_untyped_bindings_match_the_oracle_table(delegation_model, atm_model):
    for model, root in ((delegation_model, "A"), (atm_model, "ATM")):
        graph = instantiate(model, root)
        assert binding_tuples(graph) == oracles.expected_bindings(model, root)


@pytest.mark.parametrize("seed", range(25))
def test_generated_models_route_safely(seed):
    model = prepare_model(random_wellformed_model(random.Random(seed)))
    graph = instantiate(model, model.root)
    assert binding_tuples(graph) == oracles.expected_bindings(model, model.root)
    for pid, iface in default_injection_suite(graph):
        inject(graph, pid, iface)
    trace = run_to_quiescence(graph)
    assert check_type_safety(trace, graph).passed
    port_count = len(graph.ports)
    for request in graph.requests.values():
        assert request.hops <= port_count


EVERY_RULE = frozenset(f"W{code:03d}" for code in range(12))


def _generated(family: str, seed: int):
    """(model, root) of one seed of a generator family, unprepared."""
    rng = random.Random(seed)
    if family == "bidirectional":
        return bidirectional_part_links(rng), "C"
    if family == "across":
        return across_links(rng), "A"
    model = random_wellformed_model(rng)
    if family == "scrambled":
        scramble_typing(rng, model, rng.randint(1, 6))
    return model, model.root


@pytest.mark.parametrize("family,seeds", [("wellformed", 40), ("scrambled", 300),
                                          ("bidirectional", 40), ("across", 60)])
def test_bindings_match_the_reference_with_every_rule_downgraded(family, seeds):
    # Forbidden and misfit links reach instantiation too; typed part-part
    # links must bind their pointed type from their first end, and a
    # bidirectional one the other end's type back.
    part_part = 0
    for seed in range(seeds):
        model, root = _generated(family, seed)
        try:
            model = prepare_model(model)
        except DelegConflictError:
            continue
        graph = instantiate(model, root, downgrade=EVERY_RULE)
        assert binding_tuples(graph) == oracles.expected_bindings(model, root), seed
        part_part += sum(b.holder in graph.components and b.target in graph.components
                         for b in graph.bindings)
    # well-formed and across models link no two parts
    assert (part_part > 0) == (family in ("scrambled", "bidirectional"))


def _w008_gap_models():
    """Well-formed seeds, each also with every connector dropped in turn, and
    well-formed seeds with scrambled typing, unprepared."""
    for seed in range(60):
        model = random_wellformed_model(random.Random(seed))
        yield model
        for cls in model.classes:
            for idx in range(len(cls.connectors)):
                yield drop_connector(model, cls.name, idx)
    for seed in range(300):
        rng = random.Random(seed)
        yield scramble_typing(rng, random_wellformed_model(rng), rng.randint(1, 6))


def test_every_stuck_request_sits_at_a_port_check_points_at_or_at_the_stated_limit():
    # simulate downgrades W008, so it runs every model that passes check with
    # W008 downgraded. Each request its default suite leaves stuck must sit at
    # a port check points at (a W008 finding missing the request's interface,
    # or a note), or at a composite's provided port that links touch only as a
    # far end, the limit README states.
    sits = Counter()
    for model in _w008_gap_models():
        try:
            index = prepare_index(model)
        except DelegConflictError:
            continue
        report = run_rules(index, {"W008"})
        if not report.passed:
            continue
        graph = build_graph(index, model.root, {"W008"})
        for location, interface in default_injection_suite(graph):
            inject(graph, location, interface)
        run_to_quiescence(graph)
        w008 = {d.subject for d in report.diagnostics if d.code == "W008"}
        noted = {note[len("port "):-len(" is not connected to any link")]
                 for note in report.notes if note.startswith("port ")}
        far_ends = {id(link.far.port) for link in index.links()
                    if link.far is not None and link.far.port is not None}
        for request in graph.requests.values():
            if request.status is not RequestStatus.STUCK:
                continue
            held = graph.ports.get(request.location)
            assert held is not None, request.stuck_reason
            port, cls = held.declaration, graph.component_class(held.owner)
            path = f"{cls.name}.{port.name}"
            if path in w008 and request.interface in index.fanout(port)[4]:
                sits["W008"] += 1
            elif path in noted:
                sits["note"] += 1
            else:
                assert not port.reversed and cls.is_composite and id(port) in far_ends \
                    and id(port) not in index.port_origins(), (path, request.stuck_reason)
                sits["far end only"] += 1
    assert sits["W008"] and sits["note"] and sits["far end only"], sits


@pytest.mark.parametrize("length", [1, 2, 3, 7, 12])
def test_relay_chain_produces_one_event_per_port(length):
    model = prepare_model(relay_chain_model(length))
    graph = instantiate(model, "R1")
    inject(graph, "R1.p", "X")
    trace = run_to_quiescence(graph)
    assert len(trace.events) == length
    assert trace.final_statuses == {1: "delivered"}


def test_identical_runs_produce_identical_traces(delegation_model):
    def run():
        graph = instantiate(delegation_model, "A")
        for pid, iface in default_injection_suite(graph):
            inject(graph, pid, iface)
        trace = run_to_quiescence(graph)
        return [e.to_dict() for e in trace.events], trace.final_statuses

    assert run() == run()


def test_multiplicity_duplicates_forwarded_requests():
    text = """
    interface I { op f; }
    class W active { realizes I; }
    class Pool active {
      part w: W x3;
      port p: I;
      connector self.p , w;
    }
    """
    model = prepare(text)
    graph = instantiate(model, "Pool")
    assert sorted(graph.components) == ["Pool", "Pool.w[0]", "Pool.w[1]", "Pool.w[2]"]
    inject(graph, "Pool.p", "I")
    trace = run_to_quiescence(graph)
    assert len(graph.requests) == 3
    assert all(status == "delivered" for status in trace.final_statuses.values())
    assert {e.to for e in trace.events} == {"Pool.w[0]", "Pool.w[1]", "Pool.w[2]"}


def test_priority_order_follows_instantiation_order(delegation_model):
    graph = instantiate(delegation_model, "A")
    late = inject(graph, "A.e.rK", "K")   # rK was instantiated after pIJL
    early = inject(graph, "A.pIJL", "I")
    first = step(graph)[0]
    assert first.request == early  # the earlier-created holder wins, not the earlier request


def test_bidirectional_part_part_link_binds_both_directions():
    model = prepare("""
    interface I { op f; }
    interface J { op g; }
    class P active { realizes I; uses J; }
    class R active { realizes J; uses I; }
    class C active { part p: P; part r: R; connector p , r via chan; }
    assoc chan ( P nav , R nav );
    """)
    graph = instantiate(model, "C")
    assert [(b.holder, b.association, b.target, b.interface) for b in graph.bindings] == \
        [("C.p", "chan", "C.r", "J"), ("C.r", "chan", "C.p", "I")]
    inject(graph, "C.p", "J")
    inject(graph, "C.r", "I")
    trace = run_to_quiescence(graph)
    assert [(e.from_, e.to, e.via) for e in trace.events] == \
        [("C.p", "C.r", "chan"), ("C.r", "C.p", "chan")]
    assert trace.status_counts()["delivered"] == 2
    assert check_type_safety(trace, graph).passed


def test_non_navigable_typed_connector_binds_nothing():
    model = prepare("""
    interface I { op f; }
    class P active { realizes I; }
    class C active { port c: I; part p: P; connector self.c , p via nn; }
    assoc nn ( I , I );
    """)
    graph = instantiate(model, "C", downgrade={"W003", "W006", "W008"})
    assert graph.bindings == []


@pytest.mark.parametrize("code,members", [
    ("W002", "part b: P; connector a.p , b.p;"),  # an assembly of two provided ports
    ("W001", "port r: I reversed; connector self.r , a.p;"),  # a delegation of mixed ports
])
def test_a_forbidden_link_binds_nothing(code, members):
    model = prepare(f"""
    interface I {{ op f; }}
    class P active {{ realizes I; port p: I; }}
    class C active {{ part a: P; {members} }}
    """)
    assert [d.code for d in check_model(model).diagnostics] == [code]
    assert instantiate(model, "C", downgrade={code}).bindings == []


def test_a_part_class_with_connectors_and_no_parts_binds_in_each_instance():
    model = prepare("""
    interface I { op f; }
    class L active { realizes I; port p: I; port q: I reversed; connector self.p , self.q; }
    class T active { part l: L x2; }
    """)
    report = check_model(model)
    assert report.passed and report.diagnostics == []
    graph = instantiate(model, "T")
    assert binding_tuples(graph) == [("T.l[0].q", "deleg_I", "T.l[0].p", "I"),
                                     ("T.l[1].q", "deleg_I", "T.l[1].p", "I")]
    assert binding_tuples(graph) == oracles.expected_bindings(model, "T")


def test_required_port_without_an_outgoing_channel_strands_the_request():
    model = prepare("""
    interface I { op f; }
    class Leaf active { uses I; port r: I reversed; }
    class Mid active { part l: Leaf; port out: I reversed; connector l.r , self.out; }
    class Top active { part m: Mid; }
    """)
    graph = instantiate(model, "Top")
    rid = inject(graph, "Top.m.l.r", "I")
    trace = run_to_quiescence(graph)
    request = graph.requests[rid]
    assert request.status is RequestStatus.STUCK
    assert request.stuck_reason == "required port has no outgoing channel for interface 'I'"
    assert request.path == ["Top.m.l.r", "Top.m.out"] and request.hops == 1
    assert not check_type_safety(trace, graph).passed


def test_hops_are_read_from_the_path(delegation_model):
    graph = instantiate(delegation_model, "A")
    for location, interface in default_injection_suite(graph):
        inject(graph, location, interface)
    run_to_quiescence(graph)
    for request in graph.requests.values():
        assert request.hops == len(request.path) - 1
    with pytest.raises(AttributeError):
        request.hops = 0


def test_run_to_quiescence_calls_the_module_step_once_per_step(monkeypatch, delegation_model):
    # perfbench's tracer wraps simulator.step and divides by its call count
    graph = instantiate(delegation_model, "A")
    for location, interface in default_injection_suite(graph):
        inject(graph, location, interface)
    calls = []

    def counted(g):
        events = step(g)
        calls.append(len(events))
        return events

    monkeypatch.setattr(simulator, "step", counted)
    trace = run_to_quiescence(graph)
    assert len(calls) == 5 and sum(calls) == len(trace.events) == 5


@pytest.mark.parametrize("text, count", [
    # 1 + 3 * (1 + 2 + 2)
    ("class D active {} class B active { part d: D x2; part e: D x2; }"
     " class A active { part b: B x3; }", 16),
    # D is a part of B, of C and of A: 1 + (1 + 2) + (1 + 2) + 3
    ("class D active {} class B active { part d: D x2; } class C active { part d: D x2; }"
     " class A active { part b: B; part c: C; part d: D x3; }", 10),
], ids=["nested", "shared"])
def test_instance_count_is_a_product_along_containment(monkeypatch, text, count):
    model = prepare(text)
    monkeypatch.setattr(simulator, "MAX_INSTANCES", count)
    assert len(instantiate(model, "A").components) == count
    monkeypatch.setattr(simulator, "MAX_INSTANCES", count - 1)
    with pytest.raises(SimError, match=f"^root 'A' would have more than {count - 1} component instances$"):
        instantiate(model, "A")


@pytest.mark.parametrize("text, count", [
    # per A: 3 x 2 holder-target pairs of one connector; per B: 2 x 1; A holds 2 B
    ("interface I { op f; } class X { uses I; port r: I reversed; }"
     " class Y { realizes I; port p: I; } class P { uses I; port r: I reversed; }"
     " class B { part x: P x2; part y: Y; connector x.r , y.p; }"
     " class A { part x: X x3; part y: Y x2; part b: B x2; connector x.r , y.p; }", 10),
    # a bidirectional association binds both directions: 2 x 3 each way
    ("interface I { op f; } class X { realizes I; } class Y { realizes I; }"
     " class A { part x: X x2; part y: Y x3; connector x , y via both; }"
     " assoc both ( X nav , Y nav );", 12),
], ids=["nested", "bidirectional"])
def test_binding_count_is_summed_along_containment(monkeypatch, text, count):
    model = prepare(text)
    monkeypatch.setattr(simulator, "MAX_BINDINGS", count)
    assert len(instantiate(model, "A").bindings) == count
    monkeypatch.setattr(simulator, "MAX_BINDINGS", count - 1)
    with pytest.raises(SimError, match=f"^root 'A' would have more than {count - 1} bindings$"):
        instantiate(model, "A")


def test_stuck_at_component_when_receiver_lacks_the_interface():
    # the association mis-types the link (W004): it sends I to a part that
    # provides only J
    model = prepare("""
    interface I { op f; }
    interface J { op g; }
    class WJ active { realizes J; }
    class Duo active {
      part wj: WJ;
      port pi: I;
      port pj: J;
      connector self.pi , wj via a;
      connector self.pj , wj;
    }
    assoc a ( I , I nav );
    """)
    assert [d.code for d in check_model(model).diagnostics] == ["W004"]
    graph = instantiate(model, "Duo", downgrade={"W004"})
    rid = inject(graph, "Duo.pi", "I")
    trace = run_to_quiescence(graph)
    assert graph.requests[rid].status is RequestStatus.STUCK
    assert graph.requests[rid].stuck_reason == \
        "component 'Duo.wj' of class 'WJ' does not provide interface 'I'"
    assert not check_type_safety(trace, graph).passed


# A part or port name holding '.', '[' or ']' can repeat another instance's id:
# (DSL text, (kind of A's element, its index, its new name), the id taken twice).
COLLIDING_IDS = {
    "part beside a part's instance": (
        "class L active { realizes I; }\nclass M active { }\n"
        "class A active { part p: L x2; part q: M; port b: I; connector self.b , p; }\n",
        ("parts", 1, "p[0]"), "A.p[0]"),
    "port beside a part's port": (
        "class K active { realizes J; port y: J; }\n"
        "class A active { realizes I; part x: K; port z: I; }\n",
        ("ports", 0, "x.y"), "A.x.y"),
    "part beside a part's port": (
        "class K active { realizes J; port y: J; }\nclass L active { realizes I; }\n"
        "class A active { part x: K; part z: L; }\n",
        ("parts", 1, "x.y"), "A.x.y"),
    "part's port beside a part": (
        "class K active { realizes J; port y: J; }\nclass L active { realizes I; }\n"
        "class A active { part z: L; part x: K; }\n",
        ("parts", 0, "x.y"), "A.x.y"),
}


@pytest.mark.parametrize("case", sorted(COLLIDING_IDS))
def test_an_instance_id_taken_twice_is_refused(case):
    text, (kind, idx, name), taken = COLLIDING_IDS[case]
    model = parse_dsl("interface I { op f; }\ninterface J { op g; }\n" + text)
    getattr(model.find_class("A"), kind)[idx].name = name
    assert check_model(model).passed
    with pytest.raises(SimError) as err:
        instantiate(model, "A")
    assert str(err.value) == (f"two instances would get the id '{taken}': rename a part or "
                              "port whose name holds '.', '[' or ']'")


def _grafted_delegation_text() -> str:
    """The delegation fixture with its two ``e.rK`` links swapped, so that the
    typed link precedes the untyped one on the same port and interface, and
    with a mistyped link grafted on (W004) that sends J to ``d``, whose class
    does not provide it."""
    text = DELEGATION.read_text(encoding="utf-8")
    untyped = "  connector e.rK , self.rA_K;\n"
    typed = "  connector e.rK , self.bak_rA_K via deleg_backup;\n"
    assert untyped + typed in text
    return text.replace(untyped + typed, typed + untyped).replace(
        "  port pIJL: IJL;\n",
        "  port pIJL: IJL;\n  port pJ: J;\n  connector self.pJ , d via toD;\n",
    ) + "assoc toD ( J , J nav );\n"


# Out of A.a, a typed link and two untyped ones carry I: the untyped ones win
# and share the hop. Each t[k] binds I under two names: the first wins. Each
# p[k].r is bound in P, across to p[k].q, and again by A, up to A.o (W007).
SHARED = """
interface I { op f; }
class T active { realizes I; }
class U active { realizes I; }
class P active { realizes I; port r: I reversed; port q: I; connector self.r , self.q; }
class A active {
  part p: P x2; part t: T x2; part u: U;
  port a: I; port o: I reversed;
  connector self.a , p.q via toQ; connector self.a , t; connector self.a , u;
  connector p.r , self.o;
  connector t , u via first; connector t , u via second;
}
assoc toQ ( I , I nav );
assoc first ( T , U nav );
assoc second ( T , U nav );
"""


def _stepping_graph(case: str, seed: int):
    """A well-formed model, the same model with one connector dropped so that
    some requests get stuck, a scrambled or an across-links model with every
    rule downgraded, a flat fan-out, the delegation fixture, its grafted form
    (:func:`_grafted_delegation_text`), or :data:`SHARED`."""
    if case == "flat":
        return instantiate(prepare_model(flat_model(30)), "Flat")
    if case == "delegation":
        return instantiate(prepare(DELEGATION.read_text(encoding="utf-8")), "A")
    if case == "grafted":
        return instantiate(prepare(_grafted_delegation_text()), "A", downgrade={"W004"})
    if case == "shared":
        return instantiate(prepare(SHARED), "A", downgrade={"W007"})
    if case in ("scrambled", "across"):
        model, root = _generated(case, seed)
        return instantiate(prepare_model(model), root, downgrade=EVERY_RULE)
    model = prepare_model(random_wellformed_model(random.Random(seed)))
    if case == "dropped":
        cls, index = random.Random(seed).choice(provided_origin_connectors(model))
        model = prepare_model(drop_connector(model, cls.name, index))
    return instantiate(model, model.root, downgrade={"W008"})


def _inner_injections(graph) -> list[tuple[str, str]]:
    """Every port instance with each interface of its closure, and every
    component with every interface of the model that is not a group (which
    :func:`inject` refuses at a component)."""
    index = graph.typing
    return [(pid, iface) for pid, port in graph.ports.items()
            for iface in sorted(index.port_interfaces(port.declaration))] + \
        [(cid, iface) for cid in graph.components for iface in sorted(index.interfaces)
         if not index.interfaces[iface].is_group]


# Hops of every kind between ports: up from m.s.r to m.r, across from m.r to
# n.p and from l.q to l.p, down from n.p to n.t.p.
ASSEMBLY = """
interface I { op f; }
class S active { uses I; port r: I reversed; }
class T active { realizes I; port p: I; }
class L active { realizes I; port p: I; port q: I reversed; connector self.p , self.q; }
class M active { part s: S; port r: I reversed; connector s.r , self.r; }
class N active { part t: T; port p: I; connector self.p , t.p; }
class A active { part m: M; part n: N; part l: L; connector m.r , n.p; }
"""


def _direction_graphs(family: str, count: int = 60):
    """``count`` instance graphs of a generator family, every rule downgraded;
    a seed whose model takes a ``deleg_`` name is skipped. The assembly
    family is the one graph of :data:`ASSEMBLY`."""
    if family == "assembly":
        return [instantiate(prepare(ASSEMBLY), "A", downgrade=EVERY_RULE)]
    graphs = []
    for seed in range(10 * count):
        if family == "dropped":
            model = prepare_model(random_wellformed_model(random.Random(seed)))
            cls, index = random.Random(seed).choice(provided_origin_connectors(model))
            model, root = drop_connector(model, cls.name, index), model.root
        else:
            model, root = _generated(family, seed)
        try:
            graphs.append(instantiate(prepare_model(model), root, downgrade=EVERY_RULE))
        except DelegConflictError:
            continue
        if len(graphs) == count:
            return graphs
    raise AssertionError(f"{family}: fewer than {count} seeds prepare")


@pytest.mark.parametrize("family,kinds_seen", [
    # of the generators, only across_links links a required port to a provided one
    ("wellformed", {"up", "down"}),
    ("dropped", {"up", "down"}),
    ("scrambled", {"up", "down"}),
    ("bidirectional", set()),  # part-part links only
    ("assembly", {"up", "across", "down"}),
    ("across", {"up", "across", "down"}),
])
def test_every_hop_between_ports_goes_up_across_or_down(family, kinds_seen):
    """The direction argument that makes every run end: out of a required port
    a request goes up one level, or across to a provided port at its own
    level; out of a provided port it goes down one level. So no path repeats
    a port."""
    kinds = {"up": 0, "across": 0, "down": 0}
    for graph in _direction_graphs(family):
        for location, interface in _inner_injections(graph):
            inject(graph, location, interface)
        trace = run_to_quiescence(graph)
        ports = graph.ports
        for event in trace.events:
            source, target = ports.get(event.from_), ports.get(event.to)
            if source is None or target is None:
                continue
            rise = source.owner.count(".") - target.owner.count(".")  # ids are dotted paths
            if source.declaration.reversed:
                kind = "up" if rise == 1 else "across"
                assert rise == 1 or (rise == 0 and not target.declaration.reversed), event
            else:
                kind = "down"
                assert rise == -1, event
            kinds[kind] += 1
        for request in graph.requests.values():
            visited = [holder for holder in request.path if holder in ports]
            assert len(set(visited)) == len(visited), request.path
    assert {kind for kind, count in kinds.items() if count} == kinds_seen, kinds


def _outcome(arrival) -> tuple[str, str | None]:
    """The hop oracle's (status, stuck reason) for a hop table arrival."""
    if arrival is RequestStatus.DELIVERED:
        return "delivered", None
    return ("stuck", arrival) if isinstance(arrival, str) else ("inTransit", None)


@pytest.mark.parametrize("case,seed", [("wellformed", s) for s in range(60)]
                         + [("dropped", s) for s in range(60)]
                         + [("scrambled", s) for s in range(40)]
                         + [("across", s) for s in range(30)]
                         + [("flat", 0), ("delegation", 0), ("grafted", 0), ("shared", 0)])
def test_each_step_moves_the_oracles_pick(case, seed):
    """Instantiation routes exactly the bound hops, as the hop oracle derives
    them. Each step moves the request the scheduler oracle picks, along the
    hop the hop oracle derives, with the statuses, stuck reasons and paths it
    predicts."""
    graph = _stepping_graph(case, seed)
    rng = random.Random(seed)
    assert graph._hops.keys() == {(b.holder, b.interface) for b in graph.bindings}
    for (holder, interface), (via, arrivals) in graph._hops.items():
        at = oracles.hop_oracle(graph, simulator.Request(0, interface, holder))
        assert at == (via, [target for target, _ in arrivals],
                      [_outcome(arrival) for _, arrival in arrivals])

    def checked_step() -> bool:
        expected = oracles.next_request_oracle(graph)
        if expected is None:
            assert step(graph) == []
            return False
        request = graph.requests[expected]
        source, path = request.location, list(request.path)
        via, targets, outcomes = oracles.hop_oracle(graph, request)
        movers = [expected] + list(range(graph._next_request,
                                         graph._next_request + len(targets) - 1))
        events = step(graph)
        assert [(e.request, e.from_, e.to, e.via) for e in events] == \
            [(rid, source, target, via) for rid, target in zip(movers, targets)]
        if not targets:  # stuck where it is
            assert (request.status.value, request.stuck_reason, request.path) == \
                (*outcomes[0], path)
        for rid, target, (status, reason) in zip(movers, targets, outcomes):
            mover = graph.requests[rid]
            assert (mover.status.value, mover.stuck_reason, mover.location, mover.path) == \
                (status, reason, target, path + [target])
        return True

    for location, interface in default_injection_suite(graph) * 2 + _inner_injections(graph):
        inject(graph, location, interface)
        for _ in range(rng.randint(0, 3)):
            checked_step()
    while checked_step():
        pass
    assert step(graph) == []
