"""Span recorder that times compocheck's layers from outside the package.

:class:`Tracer` replaces public functions of each module with wrappers for
the duration of a ``with`` block and puts the originals back on exit:

* ``ingest``: ``parse_dsl`` and ``parse_json`` (``parse_auto`` calls them);
* ``model``: ``validate_integrity`` and ``synthesize_deleg_associations``
  wherever they are bound, plus call counters on ``Model.find_*``,
  ``Class.find_part`` and ``Class.find_port``;
* ``type_system``: every function ``rules``, ``simulator`` and ``cli``
  import from it (only the outermost call is timed), plus a counter on
  ``parents_of`` that also sees the calls ``type_system`` makes itself;
* ``rules``: ``check_model``, each entry of ``rules.RULES`` and the report
  notes;
* ``simulator``: ``instantiate``, ``step``, ``run_to_quiescence`` and
  ``check_type_safety``;
* ``cli``: ``main``.

Coarse boundaries become spans (name, start, end, parent span, operation
id). Calls that happen tens of thousands of times per model (type_system
functions and ``simulator.step``) are folded into one aggregate per
(parent span, function) holding the call count, total and self time. Every
wrapper charges its duration to the frame below it, so a span's self time
is its duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import inspect
import io
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

SPAN_KEYS = ("id", "name", "start", "end", "parent", "op", "self")


class Recorder:
    """In-memory spans, aggregates and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.aggregates: dict[tuple[int | None, str], list] = {}
        self.counters: Counter[str] = Counter()
        self.op: str | None = None
        # frames: [span id used as parent, seconds covered by children]
        self._stack: list[list] = []
        self._next_id = 0
        self._ts_depth = 0

    def _parent(self) -> int | None:
        return self._stack[-1][0] if self._stack else None

    def span(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = self._parent()
            frame = [sid, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append((sid, name, start, end, parent, self.op, end - start - frame[1]))
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def aggregate(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._parent()
            frame = [parent, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                entry = self.aggregates.get((parent, name))
                if entry is None:
                    entry = self.aggregates[(parent, name)] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def outermost(self, name: str, fn):
        """Aggregate a type_system call unless another one is already open."""
        timed = self.aggregate(name, fn)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters["type_system.calls"] += 1
            if self._ts_depth:
                return fn(*args, **kwargs)
            self._ts_depth += 1
            try:
                return timed(*args, **kwargs)
            finally:
                self._ts_depth -= 1
        return wrapper

    def count(self, key: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # --- reading the trace ----------------------------------------------------

    def seconds(self, name: str) -> float:
        """Total duration of every span and aggregate with this name."""
        total = sum(s[3] - s[2] for s in self.spans if s[1] == name)
        return total + sum(v[1] for (_, n), v in self.aggregates.items() if n == name)

    def self_seconds(self, layer: str) -> float:
        prefix = layer + "."
        total = sum(s[6] for s in self.spans if s[1].startswith(prefix))
        return total + sum(v[2] for (_, n), v in self.aggregates.items() if n.startswith(prefix))

    def seconds_under(self, name: str, parent_name: str) -> float:
        """Duration of ``name`` spans whose parent span is a ``parent_name`` span."""
        parents = {s[0] for s in self.spans if s[1] == parent_name}
        return sum(s[3] - s[2] for s in self.spans if s[1] == name and s[4] in parents)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(SPAN_KEYS, span))) + "\n")
            for (parent, name), (count, total, self_s) in self.aggregates.items():
                out.write(json.dumps({"aggregate": name, "parent": parent, "count": count,
                                      "total": total, "self": self_s}) + "\n")
            out.write(json.dumps({"counters": dict(sorted(self.counters.items()))}) + "\n")


class Tracer:
    """Installs a :class:`Recorder`'s wrappers on the compocheck modules."""

    def __init__(self, recorder: Recorder) -> None:
        self.rec = recorder
        self._saved: list[tuple[object, str, object]] = []
        self._rules_list: list | None = None

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_all(self, owners, attr: str, wrapper) -> None:
        """Bind the same wrapper under ``attr`` in every owner."""
        for owner in owners:
            self._patch(owner, attr, wrapper)

    def __enter__(self) -> Recorder:
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self.rec

    def _install(self) -> None:
        from compocheck import cli, ingest, model, rules, simulator, type_system

        rec = self.rec
        counters = rec.counters

        def parsed(args, _result):
            counters["ingest.bytes"] += len(args[0].encode("utf-8"))

        for attr in ("parse_dsl", "parse_json"):
            self._patch(ingest, attr, rec.span("ingest.parse", getattr(ingest, attr), parsed))

        for attr in ("find_interface", "find_class", "find_association", "find_classifier"):
            self._patch(model.Model, attr, rec.count("model.find_calls", getattr(model.Model, attr)))
        for attr in ("find_part", "find_port"):
            self._patch(model.Class, attr, rec.count("model.find_calls", getattr(model.Class, attr)))
        self._patch_all((model, rules, cli), "validate_integrity",
                        rec.span("model.integrity", model.validate_integrity))
        self._patch_all((model, cli), "synthesize_deleg_associations",
                        rec.span("model.synth", model.synthesize_deleg_associations))

        # parents_of is counted where type_system itself looks it up, so the
        # timed wrappers below wrap the counting one.
        self._patch(type_system, "parents_of",
                    rec.count("type_system.parents_of_calls", type_system.parents_of))
        for owner in (rules, simulator, cli):
            for attr, fn in list(vars(owner).items()):
                if inspect.isfunction(fn) and fn.__module__ == type_system.__name__:
                    self._patch(owner, attr, rec.outermost(
                        f"type_system.{fn.__name__}", getattr(type_system, fn.__name__)))

        def checked(_args, report):
            counters["rules.diagnostics"] += len(report.diagnostics)

        self._patch_all((rules, simulator, cli), "check_model",
                        rec.span("rules.check", rules.check_model, checked))
        self._patch(rules, "_report_notes", rec.span("rules.notes", rules._report_notes))
        self._rules_list = list(rules.RULES)
        rules.RULES[:] = [rec.span(f"rules.{fn.__name__}", fn) for fn in self._rules_list]

        def instantiated(_args, graph):
            counters["simulator.instances"] += len(graph.components)
            counters["simulator.bindings"] += len(graph.bindings)

        def stepped(_args, events):
            counters["simulator.steps"] += 1
            counters["simulator.events"] += len(events)
            counters["simulator.idle_steps"] += not events

        def routed(_args, trace):
            counters["simulator.requests"] += len(trace.final_statuses)

        self._patch(simulator, "step", rec.aggregate("simulator.step", simulator.step, stepped))
        self._patch_all((simulator, cli), "instantiate",
                        rec.span("simulator.instantiate", simulator.instantiate, instantiated))
        self._patch_all((simulator, cli), "run_to_quiescence",
                        rec.span("simulator.route", simulator.run_to_quiescence, routed))
        self._patch_all((simulator, cli), "check_type_safety",
                        rec.span("simulator.safety", simulator.check_type_safety))

        def printed(_args, _code):
            # In-process callers capture stdout in a StringIO; its size is the output.
            if isinstance(sys.stdout, io.StringIO):
                counters["cli.output_bytes"] += len(sys.stdout.getvalue().encode("utf-8"))

        self._patch(cli, "main", rec.span("cli.main", cli.main, printed))

    def __exit__(self, *exc) -> None:
        from compocheck import rules

        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        if self._rules_list is not None:
            rules.RULES[:] = self._rules_list
            self._rules_list = None
