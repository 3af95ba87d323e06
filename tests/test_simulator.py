from __future__ import annotations

import random

import pytest

from compocheck import simulator
from compocheck import (
    DelegBinding,
    RequestStatus,
    SimError,
    TypingIndex,
    check_type_safety,
    default_injection_suite,
    deleg_name,
    inject,
    instantiate,
    run_to_quiescence,
    step,
)
from compocheck.simulator import ENVIRONMENT

import oracles
from conftest import DELEGATION, prepare, prepare_model, regraft
from generators import (
    drop_connector,
    flat_model,
    provided_origin_connectors,
    random_wellformed_model,
    relay_chain_model,
)
from mutants import MUTATION_PAIRS


def binding_tuples(graph, deleg_only=False):
    out = set()
    for b in graph.bindings:
        if deleg_only and b.association != deleg_name(b.interface):
            continue
        out.add((b.holder, b.association, b.target, b.interface))
    return out


def test_instantiate_builds_the_documented_bindings(delegation_model):
    graph = instantiate(delegation_model, "A")
    assert sorted(graph.components) == ["A", "A.d", "A.e"]
    assert sorted(graph.ports) == ["A.bak_rA_K", "A.e.pJL", "A.e.rK", "A.pIJL", "A.rA_K"]
    got = binding_tuples(graph)
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
    expected = oracles.expected_untyped_bindings(mutated, "A")
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
        assert binding_tuples(graph, deleg_only=True) == \
            oracles.expected_untyped_bindings(model, root)


@pytest.mark.parametrize("seed", range(25))
def test_generated_models_route_safely(seed):
    model = prepare_model(random_wellformed_model(random.Random(seed)))
    graph = instantiate(model, model.root)
    assert binding_tuples(graph, deleg_only=True) == \
        oracles.expected_untyped_bindings(model, model.root)
    for pid, iface in default_injection_suite(graph):
        inject(graph, pid, iface)
    trace = run_to_quiescence(graph)
    assert check_type_safety(trace, graph).passed
    port_count = len(graph.ports)
    for request in graph.requests.values():
        assert request.hops <= port_count


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


def test_delegation_cycle_is_detected_by_the_guard(delegation_model):
    graph = instantiate(delegation_model, "A")
    # graft a looping binding table: pJL sends J back to pIJL
    graph.add_binding(DelegBinding("A.e.pJL", "deleg_J", "A.pIJL", "J"))
    inject(graph, "A.pIJL", "J")
    with pytest.raises(SimError, match="cycle"):
        run_to_quiescence(graph)


def test_a_binding_added_after_routing_takes_effect(delegation_model):
    graph = instantiate(delegation_model, "A")
    inject(graph, "A.pIJL", "I")
    assert [e.to for e in step(graph)] == ["A.d"]
    # the hop (A.pIJL, I) has been routed; the new binding must still count
    graph.add_binding(DelegBinding("A.pIJL", "deleg_I", "A.e.pJL", "I"))
    inject(graph, "A.pIJL", "I")
    assert [e.to for e in step(graph)] == ["A.d", "A.e.pJL"]


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


def test_a_delegation_cycle_raises_when_a_request_revisits_a_port():
    model = prepare("""
    interface I { op f; }
    class X active { realizes I; port p: I; }
    class A active { part x: X; port p: I; connector self.p , x.p; }
    """)
    graph = instantiate(model, "A")
    graph.add_binding(DelegBinding("A.x.p", "deleg_I", "A.p", "I"))
    inject(graph, "A.p", "I")
    with pytest.raises(SimError, match=r"^delegation cycle: request 1 revisited port 'A\.p'$"):
        run_to_quiescence(graph)


def test_a_delegation_cycle_reached_by_a_fan_out_clone_raises():
    model = prepare("""
    interface I { op f; }
    class X active { realizes I; port p: I; }
    class A active { part x: X x2; port p: I; connector self.p , x.p; }
    """)
    graph = instantiate(model, "A")
    graph.add_binding(DelegBinding("A.x[1].p", "deleg_I", "A.p", "I"))
    inject(graph, "A.p", "I")
    with pytest.raises(SimError, match=r"^delegation cycle: request 2 revisited port 'A\.p'$"):
        run_to_quiescence(graph)
    assert graph.requests[1].path == ["A.p", "A.x[0].p", "A.x[0]"]
    assert graph.requests[2].path == ["A.p", "A.x[1].p", "A.p"]


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
    # the leaf provides nothing that matches the boundary port contract of its
    # sibling channel: force it by grafting a binding to the wrong component
    text = """
    interface I { op f; }
    interface J { op g; }
    class WI active { realizes I; }
    class WJ active { realizes J; }
    class Duo active {
      part wi: WI;
      part wj: WJ;
      port pi: I;
      port pj: J;
      connector self.pi , wi;
      connector self.pj , wj;
    }
    """
    model = prepare(text)
    graph = instantiate(model, "Duo")
    regraft(graph, [DelegBinding("Duo.pi", "deleg_I", "Duo.wj", "I")])
    rid = inject(graph, "Duo.pi", "I")
    trace = run_to_quiescence(graph)
    assert graph.requests[rid].status is RequestStatus.STUCK
    assert "does not provide" in graph.requests[rid].stuck_reason
    assert not check_type_safety(trace, graph).passed


def _stepping_graph(case: str, seed: int):
    """A well-formed model, the same model with one connector dropped so that
    some requests get stuck, a flat fan-out, or the delegation fixture. The
    grafted fixture has its binding table reversed, so that a typed binding
    precedes the ``deleg_K`` one at ``A.e.rK``, and a binding that also sends J
    to a component that does not provide it."""
    if case == "flat":
        return instantiate(prepare_model(flat_model(30)), "Flat")
    if case in ("delegation", "grafted"):
        graph = instantiate(prepare(DELEGATION.read_text(encoding="utf-8")), "A")
        if case == "grafted":
            regraft(graph, graph.bindings[::-1] + [DelegBinding("A.pIJL", "deleg_J", "A.d", "J")])
        return graph
    model = prepare_model(random_wellformed_model(random.Random(seed)))
    if case == "dropped":
        cls, index = random.Random(seed).choice(provided_origin_connectors(model))
        model = prepare_model(drop_connector(model, cls.name, index))
    return instantiate(model, model.root, downgrade={"W008"})


def _inner_injections(graph) -> list[tuple[str, str]]:
    """Every port instance with each interface of its closure, and every
    component with every interface of the model."""
    index = graph.typing
    return [(pid, iface) for pid, port in graph.ports.items()
            for iface in sorted(index.port_interfaces(port.declaration))] + \
        [(cid, iface) for cid in graph.components for iface in sorted(index.interfaces)]


@pytest.mark.parametrize("case,seed", [("wellformed", s) for s in range(60)]
                         + [("dropped", s) for s in range(60)]
                         + [("flat", 0), ("delegation", 0), ("grafted", 0)])
def test_each_step_moves_the_oracles_pick(case, seed):
    """Each step moves the request the scheduler oracle picks, along the hop
    the hop oracle derives, with the statuses, stuck reasons and paths it
    predicts."""
    graph = _stepping_graph(case, seed)
    rng = random.Random(seed)

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
