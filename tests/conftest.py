from __future__ import annotations

from pathlib import Path

import pytest

from compocheck import Model, parse_dsl, parse_json
from compocheck.rules import prepare as prepare_index

FIXTURES = Path(__file__).parent / "fixtures"

DELEGATION = FIXTURES / "delegation.csm"
MIXED_CONCURRENCY = FIXTURES / "mixed_concurrency.csm"
ATM = FIXTURES / "atm.csm.json"
LEAF = FIXTURES / "leaf.csm"
BROKEN = FIXTURES / "broken_syntax.csm"


def prepare(text: str, filename: str = "<test>") -> Model:
    """Parse DSL text and run it through integrity + deleg synthesis."""
    return prepare_model(parse_dsl(text, filename))


def prepare_model(model: Model) -> Model:
    """The synthesized model; raises IntegrityError with every diagnostic."""
    return prepare_index(model).model


@pytest.fixture(scope="session")
def delegation_text() -> str:
    return DELEGATION.read_text(encoding="utf-8")


@pytest.fixture()
def delegation_model(delegation_text) -> Model:
    return prepare(delegation_text, "delegation.csm")


@pytest.fixture()
def atm_model() -> Model:
    model = parse_json(ATM.read_text(encoding="utf-8"), "atm.csm.json")
    return prepare_model(model)


@pytest.fixture()
def mixed_concurrency_model() -> Model:
    model = parse_dsl(MIXED_CONCURRENCY.read_text(encoding="utf-8"), "mixed_concurrency.csm")
    return prepare_model(model)
