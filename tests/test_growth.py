"""Work done on the check path and by routing grows near-linearly with model size.

The bounds are on call counts, which are deterministic, rather than on time,
which is not on shared hosts: linear name scans (``Model.find_*`` and
``Class.find_*``), of which integrity validation, deleg synthesis and
``check_model`` make none, and reads of a holder's creation order
(``InstanceGraph.holder_seq``) for routing.
"""

from __future__ import annotations

import pytest

from compocheck import model as model_layer
from compocheck.model import synthesize_deleg_associations, validate_integrity
from compocheck.rules import check_model
from compocheck.simulator import (
    InstanceGraph,
    default_injection_suite,
    inject,
    instantiate,
    run_to_quiescence,
)

from conftest import prepare_model
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
        assert validate_integrity(model) == []
        check_model(synthesize_deleg_associations(model))
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
