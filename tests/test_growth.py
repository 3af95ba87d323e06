"""Work done by ``check_model`` grows near-linearly with model size.

The bound is on name-lookup calls (``Model.find_*`` and ``Class.find_*``),
which are deterministic, rather than on time, which is not on shared hosts.
"""

from __future__ import annotations

import pytest

from compocheck import model as model_layer
from compocheck.rules import check_model

from conftest import prepare_model
from generators import flat_model, gen_chain_model

FINDERS = [(model_layer.Model, name) for name in
           ("find_interface", "find_class", "find_association", "find_classifier")]
FINDERS += [(model_layer.Class, name) for name in ("find_part", "find_port")]


def find_calls(monkeypatch, model) -> int:
    calls = 0

    def counting(original):
        def wrapper(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        for owner, name in FINDERS:
            patch.setattr(owner, name, counting(getattr(owner, name)))
        check_model(model)
    return calls


@pytest.mark.parametrize("family", [flat_model, gen_chain_model])
def test_lookups_grow_at_most_linearly(monkeypatch, family):
    small = find_calls(monkeypatch, prepare_model(family(50)))
    large = find_calls(monkeypatch, prepare_model(family(200)))
    assert large <= 5 * small
