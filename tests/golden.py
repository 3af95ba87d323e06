"""Byte-identity digests of compocheck's observable outputs.

Each entry maps a case name to the sha256 of a canonical JSON rendering of
what the package produced for it:

* ``check/...``: ``CheckReport.to_dict()`` for the parseable fixtures, both
  sides of every ``MUTATION_PAIRS`` entry, 200 ``random_wellformed_model``
  seeds and 100 ``random_fanout_port_model`` seeds;
* ``explain/...``: ``compocheck explain --output json`` (exit code and
  standard output) for every connector and port of the fixtures and of both
  sides of every ``MUTATION_PAIRS`` entry;
* ``simulate/...``: the trace events, final statuses and
  ``SafetyReport.to_dict()`` of the default injection suite on the
  well-formed seeds;
* ``bindings/...``: the ordered (holder, association, target, interface)
  tuples of ``InstanceGraph.bindings`` and the sorted component ids of the
  well-formed seeds;
* ``integrity/...``: ``validate_integrity`` diagnostics of models with
  ``corrupt_names`` applied and, where those pass, the E004 conflicts that
  ``synthesize_deleg_associations`` raises or the association names it leaves;
* ``parse/...``: what ``parse_dsl`` makes of the fixtures, of 200
  ``random_wellformed_model`` seeds written by ``model_to_dsl``, of 600
  ``corrupt_dsl`` corruptions of such texts and of 300 token soups: the
  ``serialize_json`` text and every element span of the model, or the full
  ``ParseError`` list as (file, line, column, message, expected);
* ``parse-json/...``: the same for ``parse_json`` on the JSON fixture and on
  500 ``mutate_json_document`` mutations of well-formed models.

``golden_digests.json`` holds the ``check``, ``explain`` and ``simulate``
digests recorded before connector typing moved into one index per check, the
``bindings`` digests recorded before the simulator kept its part-instance
table and run queue, and the ``integrity`` digests recorded while integrity
checks and deleg synthesis still looked names up with ``Model.find_*``, and
the ``parse`` and ``parse-json`` digests recorded with the character-by-character
DSL scanner and the JSON reader that formatted every element path up front,
except ``parse-json/183``: it was recorded again when a required string set
to ``null`` became an error, where that reader had dropped the part
``$.classes[1].parts[1]`` unreported. The ``explain/mutant/...`` digests were
recorded while a connector's origin was a record of an origin kind and an end,
and its transported set a record of a set and a computable flag.
``test_golden.py`` recomputes them. To record them again, only when an output
change is intended::

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

from compocheck import cli
from compocheck.ingest import ParseFailure, parse_dsl, parse_json, serialize_json
from compocheck.model import (
    DelegConflictError,
    Model,
    synthesize_deleg_associations,
    validate_integrity,
)
from compocheck.rules import check_model
from compocheck.simulator import (
    InstanceGraph,
    check_type_safety,
    default_injection_suite,
    inject,
    instantiate,
    run_to_quiescence,
)
from generators import (
    corrupt_dsl,
    corrupt_names,
    model_to_dsl,
    mutate_json_document,
    random_classifier_dag,
    random_fanout_port_model,
    random_wellformed_model,
    token_soup,
)
from mutants import MUTATION_PAIRS

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden_digests.json"
WELLFORMED_SEEDS = range(200)
FANOUT_SEEDS = range(100)
INTEGRITY_SEEDS = range(1000)
PARSE_CORRUPT_SEEDS = range(600)
PARSE_SOUP_SEEDS = range(300)
PARSE_JSON_SEEDS = range(500)


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _prepared(model: Model) -> Model:
    problems = validate_integrity(model)
    assert problems == [], [d.render() for d in problems]
    return synthesize_deleg_associations(model)


def _fixture_models() -> dict[str, Model]:
    """The fixtures that parse, keyed by file name, in name order."""
    out = {}
    for path in sorted(FIXTURES.iterdir()):
        text = path.read_text(encoding="utf-8")
        try:
            model = parse_json(text, path.name) if path.name.endswith(".json") \
                else parse_dsl(text, path.name)
        except ParseFailure:
            continue
        out[path.name] = _prepared(model)
    return out


def _explain(path: Path, element: str) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["explain", str(path), element, "--output", "json"])
    return {"exit": code, "stdout": buffer.getvalue()}


def _explain_elements(model: Model) -> list[str]:
    """The element path of every connector and port of a model."""
    elements = []
    for cls in model.classes:
        elements += [f"{cls.name}#{i}" for i in range(len(cls.connectors))]
        elements += [f"{cls.name}.{p.name}" for p in cls.ports]
    return elements


def _bindings(graph: InstanceGraph) -> dict:
    return {
        "bindings": [[b.holder, b.association, b.target, b.interface] for b in graph.bindings],
        "components": sorted(graph.components),
    }


def _simulate(graph: InstanceGraph) -> dict:
    for location, interface in default_injection_suite(graph):
        inject(graph, location, interface)
    trace = run_to_quiescence(graph)
    safety = check_type_safety(trace, graph)
    return {
        "events": [e.to_dict() for e in trace.events],
        "statuses": {str(k): v for k, v in trace.final_statuses.items()},
        "safety": safety.to_dict(),
    }


def _corrupted_model(seed: int) -> Model:
    """A well-formed model (every fourth seed a classifier DAG) with 0-4 name corruptions."""
    rng = random.Random(seed)
    model = random_classifier_dag(rng) if seed % 4 == 3 else random_wellformed_model(rng)
    return corrupt_names(rng, model, rng.randint(0, 4))


def _integrity(model: Model) -> dict:
    problems = validate_integrity(model)
    out: dict = {"integrity": [d.to_dict() for d in problems]}
    if not problems:
        try:
            synthesized = synthesize_deleg_associations(model)
        except DelegConflictError as exc:
            out["conflicts"] = [d.to_dict() for d in exc.diagnostics]
        else:
            out["associations"] = [a.name for a in synthesized.associations]
    return out


def element_spans(model: Model) -> list:
    def at(path: str, element) -> list:
        span = element.span
        return [path, None] if span is None else [path, span.file, span.line, span.column]

    out = [at(i.name, i) for i in model.interfaces] + [at(a.name, a) for a in model.associations]
    for cls in model.classes:
        out.append(at(cls.name, cls))
        out += [at(f"{cls.name}.{m.name}", m) for m in cls.parts + cls.ports]
        out += [at(f"{cls.name}#{k}", c) for k, c in enumerate(cls.connectors)]
    return out


def _parsed(parse, text: str, filename: str) -> dict:
    """The model a parser builds, with its spans, or every error it reports."""
    try:
        model = parse(text, filename)
    except ParseFailure as failure:
        return {"errors": [[e.span.file, e.span.line, e.span.column, e.message, e.expected]
                           for e in failure.errors]}
    return {"model": serialize_json(model), "spans": element_spans(model)}


def _dsl_text(seed: int) -> str:
    rng = random.Random(seed)
    return model_to_dsl(rng, random_wellformed_model(rng))


def dsl_parse_cases():
    """The ``parse/`` cases: (case name, text, file name) of each text that
    ``parse_dsl`` reads, JSON fixtures included."""
    for path in sorted(FIXTURES.iterdir()):
        yield f"parse/fixture/{path.name}", path.read_text(encoding="utf-8"), path.name
    for seed in WELLFORMED_SEEDS:
        yield f"parse/wellformed/{seed}", _dsl_text(seed), f"w{seed}.csm"
    for seed in PARSE_CORRUPT_SEEDS:
        rng = random.Random(seed)
        text = corrupt_dsl(rng, _dsl_text(seed % 200), rng.randint(1, 4))
        yield f"parse/corrupt/{seed}", text, f"c{seed}.csm"
    for seed in PARSE_SOUP_SEEDS:
        rng = random.Random(seed)
        yield f"parse/soup/{seed}", token_soup(rng, rng.randint(0, 60)), f"s{seed}.csm"


def _parse_digests() -> dict[str, str]:
    digests = {name: _digest(_parsed(parse_dsl, text, filename))
               for name, text, filename in dsl_parse_cases()}
    for path in sorted(FIXTURES.glob("*.json")):
        digests[f"parse-json/fixture/{path.name}"] = \
            _digest(_parsed(parse_json, path.read_text(encoding="utf-8"), path.name))
    for seed in PARSE_JSON_SEEDS:
        rng = random.Random(seed)
        text = mutate_json_document(rng, serialize_json(random_wellformed_model(rng)),
                                    rng.randint(1, 4))
        digests[f"parse-json/{seed}"] = _digest(_parsed(parse_json, text, f"j{seed}.csm.json"))
    return digests


def compute_digests() -> dict[str, str]:
    digests: dict[str, str] = {}
    for name, model in _fixture_models().items():
        digests[f"check/fixture/{name}"] = _digest(check_model(model).to_dict())
        for element in _explain_elements(model):
            digests[f"explain/{name}/{element}"] = _digest(_explain(FIXTURES / name, element))
    with tempfile.TemporaryDirectory() as scratch:
        for code, (violating, fixed) in MUTATION_PAIRS.items():
            for side, text in (("violating", violating), ("fixed", fixed)):
                path = Path(scratch) / f"{code}-{side}.csm"
                path.write_text(text, encoding="utf-8")
                model = _prepared(parse_dsl(text, path.name))
                digests[f"check/mutant/{code}/{side}"] = _digest(check_model(model).to_dict())
                for element in _explain_elements(model):
                    digests[f"explain/mutant/{code}/{side}/{element}"] = \
                        _digest(_explain(path, element))
    for seed in WELLFORMED_SEEDS:
        model = _prepared(random_wellformed_model(random.Random(seed)))
        digests[f"check/wellformed/{seed}"] = _digest(check_model(model).to_dict())
        graph = instantiate(model, model.root)
        digests[f"bindings/wellformed/{seed}"] = _digest(_bindings(graph))
        digests[f"simulate/wellformed/{seed}"] = _digest(_simulate(graph))
    for seed in FANOUT_SEEDS:
        model = _prepared(random_fanout_port_model(random.Random(seed))[0])
        digests[f"check/fanout/{seed}"] = _digest(check_model(model).to_dict())
    for seed in INTEGRITY_SEEDS:
        digests[f"integrity/{seed}"] = _digest(_integrity(_corrupted_model(seed)))
    digests.update(_parse_digests())
    return digests


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
