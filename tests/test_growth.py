"""Work done on the check path and by routing grows near-linearly with model size.

The bounds are on call counts, which are deterministic, rather than on time,
which is not on shared hosts: linear name scans (``Model.find_*`` and
``Class.find_*``), of which integrity validation, deleg synthesis and
``check_model`` make none, connector records read by instantiation and
the classes whose channels they read, links looked up per port by the
fan-out rules (W007, W008), ancestors walked for interface closures, reads
of a holder's creation order (``InstanceGraph.holder_seq``), hop derivations
(``simulator._route``, left only for hops no binding covers, since
instantiation routes the bound ones), attribute reads of bindings, of which
routing makes none, comparisons against request paths for routing, and runs
of the front stages, which each command makes once per verdict.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout

import pytest

from compocheck import cli, rules, simulator
from compocheck import model as model_layer
from compocheck.rules import check_model
from compocheck.simulator import (
    DelegBinding,
    InstanceGraph,
    default_injection_suite,
    inject,
    instantiate,
    run_to_quiescence,
)
from compocheck.type_system import TypingIndex

from conftest import DELEGATION, prepare, prepare_model
from generators import flat_model, gen_chain_model, interface_chain_model, relay_chain_model

FINDERS = [(model_layer.Model, name) for name in
           ("find_interface", "find_class", "find_association", "find_classifier")]
FINDERS += [(model_layer.Class, name) for name in ("find_part", "find_port")]


class Counter:
    def __init__(self):
        self.calls = 0

    def wrap(self, original):
        def wrapper(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)
        return wrapper


def find_calls(monkeypatch, model) -> int:
    """``find_*`` calls while ``model`` is validated, synthesized and checked."""
    counter = Counter()
    with monkeypatch.context() as patch:
        for owner, name in FINDERS:
            patch.setattr(owner, name, counter.wrap(getattr(owner, name)))
        check_model(model)
    return counter.calls


def holder_seq_calls(monkeypatch, model) -> int:
    """``holder_seq`` calls while the default suite is injected and routed."""
    graph = instantiate(model, model.root)
    counter = Counter()
    with monkeypatch.context() as patch:
        patch.setattr(InstanceGraph, "holder_seq", counter.wrap(InstanceGraph.holder_seq))
        for location, interface in default_injection_suite(graph):
            inject(graph, location, interface)
        run_to_quiescence(graph)
    return counter.calls


POOL = """
interface I { op f; }
class W active { realizes I; }
class Group active { part w: W x5; port p: I; connector self.p , w; }
class Pool active { part g: Group x8; port p: I; connector self.p , g.p; }
"""


def routed_hops(monkeypatch, model, root: str, rounds: int) -> int:
    """``_route`` calls while the default suite, injected ``rounds`` times, is routed."""
    graph = instantiate(model, root)
    counter = Counter()
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "_route", counter.wrap(simulator._route))
        for _ in range(rounds):
            for location, interface in default_injection_suite(graph):
                inject(graph, location, interface)
        run_to_quiescence(graph)
    return counter.calls


def connector_calls(monkeypatch, model) -> int:
    """``TypingIndex.connector`` calls while ``model`` is instantiated."""
    counter = Counter()
    with monkeypatch.context() as patch:
        patch.setattr(TypingIndex, "connector", counter.wrap(TypingIndex.connector))
        instantiate(model, "Pool")
    return counter.calls


def test_binding_plans_are_derived_once_per_class_not_per_instance(monkeypatch):
    small = connector_calls(monkeypatch, prepare(POOL))
    large = connector_calls(monkeypatch, prepare(POOL.replace("Group x8", "Group x64")))
    assert 0 < small and large == small


def test_binding_plans_are_built_only_for_classes_with_connectors(monkeypatch):
    read = []  # the owner of each connector record whose channels a plan reads
    monkeypatch.setattr(TypingIndex, "connector",
                        lambda index, owner, conn, connector=TypingIndex.connector:
                        read.append(owner.name) or connector(index, owner, conn))
    instantiate(prepare(POOL), "Pool")
    assert sorted(read) == ["Group", "Pool"]  # the leaf W binds nothing


def test_fan_out_rules_look_up_only_ports_that_originate_a_link(monkeypatch):
    model = prepare(DELEGATION.read_text(encoding="utf-8"))
    index = TypingIndex(model)
    originating = {id(link.origin.port) for link in index.links()
                   if link.origin is not None and link.origin.port is not None}
    assert len(originating) < sum(len(cls.ports) for cls in model.classes)
    calls = []  # (id of the port asked about, the fan-out returned)
    monkeypatch.setattr(index, "fanout", lambda port, fanout=index.fanout:
                        calls.append((id(port), fanout(port))) or calls[-1][1])
    rules.rule_pairwise_disjoint(index)
    w007 = dict(calls)
    assert len(calls) == len(w007) and w007.keys() == originating  # each originating port once
    calls.clear()
    rules.rule_completeness(index)
    assert [port for port, _ in calls] == list(w007)
    assert all(found is w007[port] for port, found in calls)  # derived once: W008 reads W007's


def ancestors_walked(monkeypatch, n: int) -> int:
    """The summed size of the ancestor sets ``TypingIndex.parents`` returns
    while an ``n``-deep interface chain model is prepared and checked."""
    walked = 0
    parents = TypingIndex.parents

    def counted(index, name):
        nonlocal walked
        found = parents(index, name)
        walked += len(found)
        return found

    with monkeypatch.context() as patch:
        patch.setattr(TypingIndex, "parents", counted)
        report = rules.run_rules(rules.prepare(interface_chain_model(n)))
    assert report.stats == {"W000": n}
    return walked


def test_interface_closures_grow_at_most_linearly_with_chain_depth(monkeypatch):
    # an ancestor walk per port's interface would return ~n²/2 names in all
    small, large = ancestors_walked(monkeypatch, 100), ancestors_walked(monkeypatch, 400)
    assert large <= 5 * small


ROUTED = {"Flat": lambda: prepare_model(flat_model(50)), "Pool": lambda: prepare(POOL),
          "A": lambda: prepare(DELEGATION.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("root", sorted(ROUTED))
def test_each_hop_is_routed_once_however_many_requests_take_it(monkeypatch, root):
    model = ROUTED[root]()
    # instantiation routes every bound hop, so only the delegation fixture's
    # hand-offs to an owner and to the environment are derived while routing
    once = routed_hops(monkeypatch, model, root, 1)
    assert (once > 0) == (root == "A")
    assert routed_hops(monkeypatch, model, root, 3) == once


@pytest.mark.parametrize("n", [50, 200])
@pytest.mark.parametrize("family", [flat_model, gen_chain_model])
def test_check_path_makes_no_linear_lookups(monkeypatch, family, n):
    assert find_calls(monkeypatch, family(n)) == 0


def test_routing_reads_creation_order_near_linearly(monkeypatch):
    small = holder_seq_calls(monkeypatch, prepare_model(flat_model(50)))
    large = holder_seq_calls(monkeypatch, prepare_model(flat_model(200)))
    assert large <= 5 * small


class CountingPath(list):
    """A request path that counts the items each membership test compares."""

    def __init__(self, items):
        super().__init__(items)
        self.compared = 0

    def __contains__(self, item):
        self.compared += len(self)
        return super().__contains__(item)


def path_comparisons(depth: int) -> int:
    """Items compared against the path of one request routed down a relay
    chain of ``depth`` levels."""
    graph = instantiate(prepare_model(relay_chain_model(depth)), "R1")
    request = graph.requests[inject(graph, "R1.p", "X")]
    request.path = path = CountingPath(request.path)
    run_to_quiescence(graph)
    assert request.status.value == "delivered" and len(path) == depth + 1
    return path.compared


def test_path_comparisons_grow_at_most_linearly_with_depth():
    # a scan of the path at each hop would compare ~depth²/2 items in all
    small, large = path_comparisons(100), path_comparisons(200)
    assert large <= 2 * small


def binding_reads(monkeypatch, model, root: str) -> int:
    """Attribute reads on bindings while the default suite is routed."""
    graph = instantiate(model, root)
    for location, interface in default_injection_suite(graph):
        inject(graph, location, interface)
    reads = 0
    read = DelegBinding.__getattribute__

    def counted(binding, name):
        nonlocal reads
        reads += 1
        return read(binding, name)

    with monkeypatch.context() as patch:
        patch.setattr(DelegBinding, "__getattribute__", counted)
        run_to_quiescence(graph)
    return reads


def test_routing_reads_each_hops_bindings_only(monkeypatch):
    # instantiation routes every bound hop: routing reads no binding at all
    for root, model in ROUTED.items():
        assert binding_reads(monkeypatch, model(), root) == 0, root


@pytest.mark.parametrize("argv", [
    ["check", str(DELEGATION)],
    ["explain", str(DELEGATION), "A#0"],
    ["simulate", str(DELEGATION), "--root", "A"],
], ids=["check", "explain", "simulate"])
def test_each_verdict_runs_the_front_stages_once(monkeypatch, argv):
    counters = {"validate_integrity": Counter(), "synthesize_deleg_associations": Counter()}
    for module in (cli, model_layer, rules, simulator):
        for name, counter in counters.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counter.wrap(getattr(module, name)))
    counters["TypingIndex"] = Counter()
    monkeypatch.setattr(TypingIndex, "__init__", counters["TypingIndex"].wrap(TypingIndex.__init__))
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert {name: counter.calls for name, counter in counters.items()} == {
        "validate_integrity": 1, "synthesize_deleg_associations": 1, "TypingIndex": 1}
