from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compocheck import Model, Severity, TypingIndex, check_model, parse_dsl, rules
from compocheck.cli import _describe_port
from compocheck.model import DelegConflictError, validate_integrity
from compocheck.rules import prepare as prepare_index, rule_pairwise_disjoint, run_rules
from compocheck.type_system import pairwise_disjoint_by_cardinality

import oracles
from conftest import prepare
from generators import (
    bidirectional_part_links,
    corrupt_names,
    drop_connector,
    random_classifier_dag,
    random_fanout_port_model,
    random_wellformed_model,
    scramble_typing,
)
from mutants import MUTATION_PAIRS, dropped_tests


def test_delegation_model_checks_clean(delegation_model):
    report = check_model(delegation_model)
    assert report.passed
    assert report.diagnostics == []
    assert report.stats == {}


def test_atm_model_checks_clean(atm_model):
    report = check_model(atm_model)
    assert report.passed and report.diagnostics == []


def test_mixed_concurrency_fires_w010(mixed_concurrency_model):
    report = check_model(mixed_concurrency_model)
    assert not report.passed
    assert set(report.stats) == {"W010"}
    diag = report.diagnostics[0]
    assert diag.subject == "A"
    assert "A.d" in diag.related


@pytest.mark.parametrize("code", sorted(MUTATION_PAIRS))
def test_each_code_has_an_isolating_mutant(code):
    violating_text, fixed_text = MUTATION_PAIRS[code]
    violating = prepare(violating_text, f"{code}-violating")
    report = check_model(violating)
    assert set(report.stats) == {code}, report.stats
    assert not report.passed


@pytest.mark.parametrize("code", sorted(MUTATION_PAIRS))
def test_each_prescribed_fix_is_clean(code):
    _, fixed_text = MUTATION_PAIRS[code]
    fixed = prepare(fixed_text, f"{code}-fixed")
    report = check_model(fixed)
    assert report.passed
    assert report.diagnostics == []


def test_w007_fix_restores_the_secondary_typed_link(delegation_model):
    # the overlapping-link fixture differs from the clean model only by the
    # explicit typing of the second K link
    violating = prepare(MUTATION_PAIRS["W007"][0])
    report = check_model(violating)
    assert report.diagnostics[0].subject == "E.rK"
    assert "K" in report.diagnostics[0].message
    assert check_model(delegation_model).passed


def test_w008_lists_the_missing_interfaces():
    report = check_model(prepare(MUTATION_PAIRS["W008"][0]))
    diag = report.diagnostics[0]
    assert diag.subject == "A.pIJL"
    assert "{J, L}" in diag.message


def test_forbidden_combinations_split_into_w001_and_w002():
    w001 = check_model(prepare(MUTATION_PAIRS["W001"][0])).diagnostics[0]
    assert "delegation" in w001.message
    w002 = check_model(prepare(MUTATION_PAIRS["W002"][0])).diagnostics[0]
    assert "assembly" in w002.message and "required" in w002.message


def test_typed_relay_link_pointing_inside_its_set_satisfies_w004(delegation_text):
    from compocheck.rules import rule_typed_from_port

    text = delegation_text.replace("connector self.pIJL , e.pJL;",
                                   "connector self.pIJL , e.pJL via jchan;")
    text += "assoc jchan ( J , J nav );\n"
    model = prepare(text)
    assert rule_typed_from_port(TypingIndex(model)) == []

    # pointing outside the transported set of the same link is rejected
    off = delegation_text.replace("connector self.pIJL , e.pJL;",
                                  "connector self.pIJL , e.pJL via kchan;")
    off += "assoc kchan ( K , K nav );\n"
    bad = prepare(off)
    findings = rule_typed_from_port(TypingIndex(bad))
    assert [d.code for d in findings] == ["W004"]
    assert findings[0].subject == "A#1"


def test_untyped_part_origin_link_needs_an_association(delegation_text):
    from compocheck.rules import rule_typed_from_part

    text = delegation_text.replace("connector d , self.rA_K via itsK;",
                                   "connector d , self.rA_K;")
    model = prepare(text)
    findings = rule_typed_from_part(TypingIndex(model))
    assert [d.code for d in findings] == ["W005"]
    assert findings[0].subject == "A#4"


def test_part_port_link_rejects_class_class_association():
    text = """
    interface K { op k; }
    class DD {}
    class D active {}
    class A active {
      part d: D;
      port rA_K: K reversed;
      connector d , self.rA_K via bogus;
    }
    assoc bogus ( D , DD nav );
    """
    report = check_model(prepare(text))
    assert "W003" in report.stats


def test_bidirectional_association_is_rejected_off_part_part_links():
    text = """
    interface I { op f; }
    class P active { realizes I; port q: I; }
    class A active {
      part p: P;
      port c: I;
      connector self.c , p.q via both;
    }
    assoc both ( I nav , I nav );
    """
    report = check_model(prepare(text))
    assert set(report.stats) == {"W003"}


def test_bidirectional_class_class_accepts_either_orientation():
    text = """
    class P1 active {}
    class P2 active {}
    class Comp active {
      part a: P1;
      part b: P2;
      connector b , a via chan;
    }
    assoc chan ( P1 nav , P2 nav );
    """
    report = check_model(prepare(text))
    assert report.passed and not report.diagnostics


_PART_PART = """
class P active { realizes I; }
class R active { realizes I; }
class C active { part p: P; part r: R; connector p , r via %s; }
"""

_PORT_TO_PART = """
class P active { realizes I; }
class C active { port c: %s; part p: P; connector self.c , p via cp; }
"""

# Each model starts with "interface I { op f; }"; each pins the exact
# findings of a rule branch no other test reaches.
BRANCH_PINS = {
    "w003-start-and-pointed-ends-misfit": (
        """
        class P active { realizes I; }
        interface J { op g; }
        class Q active { realizes J; port q: J; }
        class C active { part p: P; part x: Q; connector p , x.q via pq; }
        assoc pq ( Q , I nav );
        """,
        ["W003 error: C#0: association 'pq' does not fit the link: start end 'Q' does not "
         "match part 'p' of type 'P'; pointed end 'I' is not covered by port 'x.q' "
         "(contract closure {J}) (related: pq)",
         "W006 error: C#0: link p -- x.q transports no interfaces: the interface sets at "
         "its two ends are disjoint"]),
    "w003-bidirectional-not-between-classes": (
        _PART_PART % "both" + "assoc both ( I nav , P nav );",
        ["W003 error: C#0: bidirectional association 'both' must connect two classes "
         "(related: both)"]),
    "w003-pointed-end-misses-the-far-part": (
        "class S active { }" + _PART_PART % "pr" + "assoc pr ( P , S nav );",
        ["W003 error: C#0: association 'pr' does not fit the link: pointed end 'S' does not "
         "match part 'r' of type 'R' (related: pr)"]),
    "w003-bidirectional-matches-neither-orientation": (
        "class S active { }" + _PART_PART % "both" + "assoc both ( S nav , S nav );",
        ["W003 error: C#0: neither orientation of bidirectional association 'both' "
         "(S -- S) matches the part types (P, R) (related: both)"]),
    "w003-port-to-part-admits-only-interface-ends": (
        _PORT_TO_PART % "I" + "assoc cp ( I , C nav );",
        ["W003 error: C#0: association 'cp' cannot type this inbound delegation link "
         "between part and provided port: a link from a port to a part accepts only an "
         "association between two interfaces (class ends cannot govern the port side) "
         "(accepted here in no other form; a port-to-part link admits only interface ends) "
         "(related: cp)",
         "W006 error: C#0: link self.c -- p transports no interfaces: the interface sets "
         "at its two ends are disjoint",
         "W008 error: C.c: links out of this port transport {} but its contract closure is "
         "{I}: missing {I} (related: C#0)"]),
    "w004-pointed-type-misses-the-far-part": (
        "interface K : I { op h; }" + _PORT_TO_PART % "K" + "assoc cp ( K , K nav );",
        ["W004 error: C#0: association 'cp' mis-types this link: pointed type 'K' does not "
         "match the far part 'p' of type 'P' (related: cp)"]),
}


@pytest.mark.parametrize("case", sorted(BRANCH_PINS))
def test_rule_branch_messages(case):
    body, expected = BRANCH_PINS[case]
    report = check_model(prepare("interface I { op f; }\n" + body))
    assert [d.render() for d in report.diagnostics] == expected
    assert not report.passed


def test_downgraded_codes_become_warnings():
    model = prepare(MUTATION_PAIRS["W008"][0])
    report = check_model(model, downgrade={"W008"})
    assert report.passed
    assert report.diagnostics[0].severity is Severity.WARNING
    assert report.stats == {"W008": 1}


def test_unconnected_port_yields_a_note_not_a_diagnostic():
    text = """
    interface I { op f; }
    class A active {
      port stub: I;
    }
    """
    report = check_model(prepare(text))
    assert report.passed and not report.diagnostics
    assert any("A.stub" in note for note in report.notes)


def test_protected_composites_are_noted_and_exempt():
    text = """
    class W active {}
    class Shared protected {
      part w: W;
    }
    """
    report = check_model(prepare(text))
    assert report.passed
    assert any("Shared" in note for note in report.notes)


def test_check_model_refuses_broken_models():
    from compocheck import Class, Part
    broken = Model(classes=[Class(name="A", parts=[Part(name="x", type="Missing")])])
    with pytest.raises(ValueError):
        check_model(broken)


def test_reports_are_deterministic(delegation_model):
    first = check_model(delegation_model)
    second = check_model(delegation_model)
    assert first.to_dict() == second.to_dict()
    violating = prepare(MUTATION_PAIRS["W002"][0])
    assert check_model(violating).to_dict() == check_model(violating).to_dict()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.frozensets(st.sampled_from([f"N{i}" for i in range(8)]), max_size=5),
                min_size=0, max_size=6))
def test_cardinality_identity_equals_direct_pairwise_check(sets):
    disjoint, overlap = pairwise_disjoint_by_cardinality(list(sets))
    assert disjoint == oracles.pairwise_disjoint_direct(sets)
    assert disjoint == (not overlap)


@pytest.mark.parametrize("seed", range(80))
def test_w007_agrees_with_direct_oracle_through_real_models(seed):
    model, _, _, subsets = random_fanout_port_model(random.Random(seed))
    fired = any(d.code == "W007" for d in rule_pairwise_disjoint(TypingIndex(model)))
    assert fired == (not oracles.pairwise_disjoint_direct(subsets))


# --- the rule reference ---------------------------------------------------------

def _reference_models():
    """(case id, model) pairs, unprepared: well-formed and fan-out seeds, the
    well-formed seeds with each connector dropped in turn, both sides of every
    ``MUTATION_PAIRS`` entry, the rule branch pins, well-formed seeds with
    scrambled typing, part-part links typed by bidirectional associations, and
    ``corrupt_names`` seeds that pass integrity."""
    for seed in range(40):
        yield f"wellformed-{seed}", random_wellformed_model(random.Random(seed))
        yield f"fanout-{seed}", random_fanout_port_model(random.Random(seed))[0]
    for seed in range(12):
        model = random_wellformed_model(random.Random(seed))
        for cls in model.classes:
            for idx in range(len(cls.connectors)):
                yield f"dropped-{seed}-{cls.name}#{idx}", drop_connector(model, cls.name, idx)
    for code, texts in sorted(MUTATION_PAIRS.items()):
        for side, text in zip(("violating", "fixed"), texts):
            yield f"{code}-{side}", parse_dsl(text)
    for case, (body, _) in sorted(BRANCH_PINS.items()):
        yield case, parse_dsl("interface I { op f; }\n" + body)
    for seed in range(500):
        rng = random.Random(seed)
        yield f"scrambled-{seed}", scramble_typing(rng, random_wellformed_model(rng),
                                                   rng.randint(1, 6))
    for seed in range(40):
        yield f"bidirectional-{seed}", bidirectional_part_links(random.Random(seed))
    for seed in range(200):
        rng = random.Random(seed)
        model = random_classifier_dag(rng) if seed % 4 == 3 else random_wellformed_model(rng)
        corrupt_names(rng, model, rng.randint(1, 4))
        if not validate_integrity(model):
            yield f"corrupt-{seed}", model


@functools.cache
def _reference_cases() -> list:
    """(case id, index, the reference's findings by code) of every reference
    model that passes the front stages."""
    cases = []
    for case, model in _reference_models():
        try:
            index = prepare_index(model)
        except DelegConflictError:
            continue
        cases.append((case, index, oracles.rule_reference(index.model)))
    return cases


def _triples(report, code: str) -> list[tuple[str, str, tuple[str, ...]]]:
    return sorted((d.code, d.subject, tuple(d.related)) for d in report.diagnostics
                  if d.code == code)


def _disagreements(code: str) -> list[str]:
    return [case for case, index, expected in _reference_cases()
            if _triples(run_rules(index), code) != sorted(expected[code])]


@pytest.mark.parametrize("code", sorted(oracles.RULE_REFERENCE))
def test_rules_agree_with_the_reference(code):
    assert sum(bool(expected[code]) for _, _, expected in _reference_cases()) >= 3, code
    assert _disagreements(code) == []


# The function whose mutants each code's comparison must catch.
_RULE_CODE = {
    "W000": rules.rule_unidirectional, "W001": rules.rule_link_type,
    "W002": rules.rule_link_type, "W003": rules._association_finding,
    "W004": rules._association_finding, "W005": rules.rule_typed_from_part,
    "W006": rules.rule_nonvoid, "W007": rules.rule_pairwise_disjoint,
    "W008": rules.rule_completeness, "W009": rules._composite_finding,
    "W010": rules._composite_finding, "W011": rules._composite_finding,
}


@pytest.mark.parametrize("code", sorted(_RULE_CODE))
def test_the_reference_catches_a_mutant_of_each_rule(code, monkeypatch):
    function = _RULE_CODE[code]
    caught = []
    for label, mutant in dropped_tests(function):
        with monkeypatch.context() as patch:
            patch.setattr(rules, function.__name__, mutant)
            patch.setattr(rules, "RULES", [mutant if r is function else r for r in rules.RULES])
            try:
                if _disagreements(code):
                    caught.append(label)
                    break
            except (AttributeError, TypeError):  # a mutant that crashes shows nothing here
                continue
    assert caught, f"no mutant of {function.__name__} changes the {code} findings"


@pytest.mark.parametrize("label", ["assoc.end2.type not in index.classes",
                                   "compatible(t1, assoc.end1.type)",
                                   "compatible(t1, assoc.end2.type)"])
def test_bidirectional_typings_catch_each_weakened_orientation_check(label, monkeypatch):
    mutants = dict(dropped_tests(rules._association_finding))
    monkeypatch.setattr(rules, "_association_finding",
                        mutants[f"_association_finding without {label}"])
    assert [case for case, index, expected in _reference_cases()
            if case.startswith("bidirectional-")
            and _triples(run_rules(index), "W003") != sorted(expected["W003"])]


@pytest.mark.parametrize("seed", range(60))
def test_explain_agrees_with_w007_and_w008_at_every_originating_port(seed):
    index = prepare_index(random_fanout_port_model(random.Random(seed))[0])
    fired = {(d.code, d.subject) for d in run_rules(index).diagnostics}
    for path, port, _ in index.port_origins().values():
        view = _describe_port(index, index.classes[path.partition(".")[0]], port)
        assert view["element"] == path
        assert view["disjoint"] == (("W007", path) not in fired)
        assert view["complete"] == (("W008", path) not in fired)
