"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdicts.
"""

from __future__ import annotations

import io
import random
import time
from contextlib import redirect_stdout


from compocheck import (
    TypingIndex,
    check_model,
    check_type_safety,
    default_injection_suite,
    inject,
    instantiate,
    parents_of,
    parse_dsl,
    run_to_quiescence,
    synthesize_deleg_associations,
    validate_integrity,
)
from compocheck.cli import main
from compocheck.rules import rule_pairwise_disjoint
from compocheck.simulator import ENVIRONMENT

import oracles
from conftest import ATM, DELEGATION, LEAF, MIXED_CONCURRENCY, prepare_model
from generators import (
    drop_connector,
    provided_origin_connectors,
    random_classifier_dag,
    random_fanout_port_model,
    random_wellformed_model,
    relay_chain_model,
)
from mutants import MUTATION_PAIRS
from test_type_system import CLASSIFICATION_TABLE, link_fixture


def report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {verdict}: {detail}")
    assert ok, detail


def test_criterion_1_delegation_fixture_sets_and_runtime(delegation_text):
    started = time.perf_counter()
    model = parse_dsl(delegation_text, "delegation.csm")
    assert validate_integrity(model) == []
    model = synthesize_deleg_associations(model)
    a = model.find_class("A")
    sets = [TypingIndex(model).connector(a, conn).transported for conn in a.connectors[:3]]
    passed = check_model(model).passed
    elapsed = time.perf_counter() - started
    ok = (sets == [frozenset({"I"}), frozenset({"J", "L"}), frozenset({"K"})]
          and passed and elapsed < 1.0)
    report(1, ok, f"transported sets {[sorted(s) for s in sets]}, check passed={passed}, "
                  f"runtime {elapsed * 1000:.1f} ms")


def test_criterion_2_classification_table_is_exhaustive():
    directed_rows = 0
    forbidden_rows = 0
    for shape, rev1, rev2, expected in CLASSIFICATION_TABLE:
        model, comp, conn = link_fixture(shape, rev1, rev2)
        got = TypingIndex(model).connector(comp, conn).kind
        assert got is expected, (shape, rev1, rev2, got)
        if shape != "part__part":
            directed_rows += 1
        if expected.name == "FORBIDDEN":
            forbidden_rows += 1
            codes = set(check_model(prepare_model(model)).stats)
            is_delegation_shape = shape == "composite_port__part_port"
            assert codes == ({"W001"} if is_delegation_shape else {"W002"}), (shape, codes)
    ok = directed_rows == 12 and forbidden_rows == 4
    report(2, ok, f"{directed_rows} directed rows reproduced, "
                  f"{forbidden_rows} forbidden rows flagged as W001/W002")


def test_criterion_3_mutation_suite_isolates_every_code():
    checked = []
    for code, (violating_text, fixed_text) in sorted(MUTATION_PAIRS.items()):
        violating = prepare_model(parse_dsl(violating_text, f"{code}-violating"))
        verdict = check_model(violating)
        assert set(verdict.stats) == {code}, (code, verdict.stats)
        fixed = prepare_model(parse_dsl(fixed_text, f"{code}-fixed"))
        clean = check_model(fixed)
        assert clean.passed and not clean.diagnostics, (code, clean.stats)
        checked.append(code)
    ok = checked == [f"W{i:03d}" for i in range(12)]
    report(3, ok, f"{len(checked)} codes each isolated by one fixture and cleaned by its fix")


def test_criterion_4_w007_agrees_with_the_pairwise_oracle():
    rng = random.Random(20260810)
    disagreements = 0
    for _ in range(1000):
        model, _, _, subsets = random_fanout_port_model(rng, universe=10)
        fired = any(d.code == "W007" for d in rule_pairwise_disjoint(TypingIndex(model)))
        if fired != (not oracles.pairwise_disjoint_direct(subsets)):
            disagreements += 1
    report(4, disagreements == 0,
           f"1000 random ports with 2-5 links over a 10-interface universe, "
           f"{disagreements} disagreements")


def test_criterion_5_closures_match_the_fixpoint_oracle():
    rng = random.Random(42)
    disagreements = 0
    for _ in range(500):
        model = random_classifier_dag(rng, max_classifiers=20)
        for iface in model.interfaces:
            if parents_of(model, iface.name) != oracles.parents_fixpoint(model, iface.name):
                disagreements += 1
            if TypingIndex(model).interface_closure(iface.name) != \
                    oracles.interface_closure_oracle(model, iface.name):
                disagreements += 1
        for cls in model.classes:
            if TypingIndex(model).class_interfaces(cls.name) != \
                    oracles.class_interfaces_oracle(model, cls.name):
                disagreements += 1
            for port in cls.ports:
                if TypingIndex(model).port_interfaces(port) != \
                        oracles.port_interfaces_oracle(model, port):
                    disagreements += 1
    report(5, disagreements == 0, f"500 random DAGs (max 20 classifiers), "
                                  f"{disagreements} disagreements")


def _routing_safe(model, root) -> tuple[bool, int]:
    graph = instantiate(model, root, downgrade={"W008"})
    suite = default_injection_suite(graph)
    for pid, iface in suite:
        inject(graph, pid, iface)
    trace = run_to_quiescence(graph)
    counts = trace.status_counts()
    all_delivered = counts["delivered"] == len(graph.requests) and counts["stuck"] == 0
    receivers_ok = True
    for request in graph.requests.values():
        if request.location == ENVIRONMENT:
            continue
        cls = graph.component_class(request.location)
        if request.interface not in TypingIndex(model).class_interfaces(cls.name):
            receivers_ok = False
    return all_delivered and receivers_ok and check_type_safety(trace, graph).passed, len(suite)


def _one_drop_strands_a_request(model, root, rng) -> bool:
    candidates = provided_origin_connectors(model)
    cls, idx = candidates[rng.randrange(len(candidates))]
    mutated = prepare_model(drop_connector(model, cls.name, idx))
    graph = instantiate(mutated, root, downgrade={"W008"})
    for pid, iface in default_injection_suite(graph):
        inject(graph, pid, iface)
    trace = run_to_quiescence(graph)
    return trace.status_counts()["stuck"] >= 1


def test_criterion_6_routing_type_safety(delegation_model, atm_model):
    rng = random.Random(99)
    injected_total = 0
    models = [(delegation_model, "A"), (atm_model, "ATM")]
    for seed in range(100):
        model = prepare_model(random_wellformed_model(random.Random(seed)))
        models.append((model, model.root))
    for model, root in models:
        safe, injected = _routing_safe(model, root)
        assert safe, f"unsafe routing on {root}"
        injected_total += injected
    stranded = all(_one_drop_strands_a_request(model, root, rng) for model, root in models)
    report(6, stranded, f"{len(models)} well-formed models, {injected_total} requests all "
                        f"delivered to providers; one dropped connector strands >= 1 request "
                        f"in every model")


def test_criterion_7_linear_transit_on_relay_chains():
    lengths = []
    for k in range(1, 21):
        model = prepare_model(relay_chain_model(k))
        graph = instantiate(model, "R1")
        inject(graph, "R1.p", "X")
        trace = run_to_quiescence(graph)
        assert trace.final_statuses == {1: "delivered"}
        lengths.append(len(trace.events))
    ok = lengths == list(range(1, 21))
    report(7, ok, f"chains 1..20 produced event counts {lengths[:5]}...{lengths[-3:]}")


def test_criterion_8_byte_identical_outputs_across_runs():
    def capture(*argv: str) -> tuple[int, str]:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(list(argv))
        return code, buffer.getvalue()

    commands = [
        ("check", str(DELEGATION), "--output", "json"),
        ("check", str(MIXED_CONCURRENCY), "--output", "json"),
        ("check", str(ATM), "--output", "json"),
        ("check", str(LEAF), "--output", "json"),
        ("simulate", str(DELEGATION), "--root", "A", "--output", "json"),
        ("simulate", str(ATM), "--output", "json"),
        ("simulate", str(LEAF), "--root", "D", "--output", "json"),
    ]
    stable = True
    for argv in commands:
        outputs = {capture(*argv) for _ in range(5)}
        if len(outputs) != 1:
            stable = False
    report(8, stable, f"{len(commands)} command lines x 5 runs, all byte-identical")
