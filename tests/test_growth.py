"""Work done on the check path and by routing grows near-linearly with model size.

The bounds are on call counts, which are deterministic, rather than on time,
which is not on shared hosts: linear name scans (``Model.find_*`` and
``Class.find_*``), of which integrity validation, deleg synthesis and
``check_model`` make none, reads of a holder's creation order
(``InstanceGraph.holder_seq``) for routing, and runs of the front stages,
which each command makes once per verdict.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout

import pytest

from compocheck import cli, rules, simulator
from compocheck import model as model_layer
from compocheck.rules import check_model
from compocheck.simulator import (
    InstanceGraph,
    default_injection_suite,
    inject,
    instantiate,
    run_to_quiescence,
)
from compocheck.type_system import TypingIndex

from conftest import DELEGATION, prepare_model
from generators import flat_model, gen_chain_model

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


@pytest.mark.parametrize("n", [50, 200])
@pytest.mark.parametrize("family", [flat_model, gen_chain_model])
def test_check_path_makes_no_linear_lookups(monkeypatch, family, n):
    assert find_calls(monkeypatch, family(n)) == 0


def test_routing_reads_creation_order_near_linearly(monkeypatch):
    small = holder_seq_calls(monkeypatch, prepare_model(flat_model(50)))
    large = holder_seq_calls(monkeypatch, prepare_model(flat_model(200)))
    assert large <= 5 * small


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
