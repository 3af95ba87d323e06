"""Command line front end: ``check``, ``explain`` and ``simulate``.

Exit codes: 0 when the command's verdict is clean, 1 when rule violations or
unsafe routing were found, 2 when the input could not be parsed, failed
integrity validation, or the command could not run at all (an unexpected
exception is reported as one ``internal error`` line, without a traceback; a
standard output closed by its reader ends the command with no report).
With ``--output json``, integrity errors and deleg conflicts (E004) are printed
as a failed check report, and so is an ``explain`` path that does not resolve
(E005, exit 1); parse and read failures carry no diagnostic code and stay text.

Only ``simulate`` imports :mod:`compocheck.simulator`, when it runs, so a
``check`` or ``explain`` call never loads it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module
from pathlib import Path

from . import __version__
from .diagnostics import Severity
from .ingest import ParseFailure, parse_auto
from .model import (
    Class,
    Connector,
    DelegConflictError,
    IntegrityError,
    Interface,
    Model,
    Part,
    Port,
    UnknownPathError,
    resolve,
    split_path,
)
from .rules import CheckReport, _fmt_set, code_counts, prepare, run_rules
from .type_system import ConnectorTyping, TypingIndex

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_INPUT = 2

# The functions perfbench's tracer wraps on this module besides ``main``, by
# the module that defines each. No command calls them by these names: they
# resolve on first read (a module ``__getattr__``), so that ``check`` and
# ``explain`` need not import the simulator. ``simulate`` calls the
# simulator through its module's attributes, which the tracer wraps too.
_TRACED = {
    "check_model": ".rules",
    "validate_integrity": ".model",
    "synthesize_deleg_associations": ".model",
    "instantiate": ".simulator",
    "run_to_quiescence": ".simulator",
    "check_type_safety": ".simulator",
}


def __getattr__(name: str):
    if name not in _TRACED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_TRACED[name], __package__), name)


class _Palette:
    def __init__(self, enabled: bool):
        self.enabled = enabled

    def paint(self, text: str, code: str) -> str:
        if not self.enabled:
            return text
        return f"\x1b[{code}m{text}\x1b[0m"

    def red(self, text: str) -> str:
        return self.paint(text, "31")

    def yellow(self, text: str) -> str:
        return self.paint(text, "33")

    def green(self, text: str) -> str:
        return self.paint(text, "32")


def _palette(stream) -> _Palette:
    mode = os.environ.get("COMPOCHECK_COLOR", "auto")
    if mode == "always":
        return _Palette(True)
    if mode == "never":
        return _Palette(False)
    return _Palette(hasattr(stream, "isatty") and stream.isatty())


def _print_parse_failure(path: str, failure: ParseFailure, out) -> None:
    for err in failure.errors:
        print(err.render(), file=out)
    print(f"{path}: {len(failure.errors)} parse error(s)", file=out)


def _load(path: str, fmt: str) -> Model:
    # Decoded bytes, not read_text: its newline translation turns a lone "\r"
    # into a line break, and the parsers would report other positions.
    # "utf-8-sig" drops a leading byte-order mark.
    return parse_auto(Path(path).read_bytes().decode("utf-8-sig"), path, fmt)


def _print_report_json(args, report: CheckReport, out) -> None:
    doc = {"formatVersion": 1, "command": args.command, "input": args.input}
    doc.update(report.to_dict())
    print(json.dumps(doc, indent=2), file=out)


def _reject(args, diagnostics: list, out, summary: str | None = None) -> tuple[None, int]:
    """Print diagnostics that stopped the command, as a failed check report with
    ``--output json``; returns (None, exit code 2)."""
    if args.output == "json":
        report = CheckReport(diagnostics=diagnostics, stats=code_counts(diagnostics), passed=False)
        _print_report_json(args, report, out)
    else:
        for diag in diagnostics:
            print(diag.render(), file=out)
        if summary is not None:
            print(summary, file=out)
    return None, EXIT_INPUT


def _prepare(args, out) -> tuple[TypingIndex, None] | tuple[None, int]:
    """Parse and run the front stages; returns (index, None) or (None, exit code)."""
    try:
        model = _load(args.input, args.format)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.input}: {getattr(exc, 'strerror', None) or exc}",
              file=out)
        return None, EXIT_INPUT
    except ParseFailure as failure:
        _print_parse_failure(args.input, failure, out)
        return None, EXIT_INPUT
    try:
        return prepare(model), None
    except IntegrityError as exc:
        return _reject(args, exc.diagnostics, out,
                       f"{args.input}: {len(exc.diagnostics)} integrity error(s)")
    except DelegConflictError as exc:
        return _reject(args, exc.diagnostics, out)


def _downgrade_codes(args) -> set[str]:
    codes: set[str] = set()
    for chunk in args.downgrade or []:
        codes.update(c.strip() for c in chunk.split(",") if c.strip())
    return codes


def _render_check_text(report: CheckReport, out, palette: _Palette) -> None:
    for note in report.notes:
        print(f"note: {note}", file=out)
    for diag in report.diagnostics:
        line = diag.render()
        if diag.severity is Severity.ERROR:
            line = palette.red(line)
        else:
            line = palette.yellow(line)
        print(line, file=out)
    errors = sum(1 for d in report.diagnostics if d.severity is Severity.ERROR)
    warnings = len(report.diagnostics) - errors
    verdict = palette.green("PASSED") if report.passed else palette.red("FAILED")
    print(f"check: {verdict} ({errors} error(s), {warnings} warning(s))", file=out)


def cmd_check(args, out) -> int:
    index, code = _prepare(args, out)
    if index is None:
        return code
    report = run_rules(index, downgrade=_downgrade_codes(args))
    if args.output == "json":
        _print_report_json(args, report, out)
    else:
        _render_check_text(report, out, _palette(out))
    return EXIT_OK if report.passed else EXIT_FINDINGS


def _describe_connector(link: ConnectorTyping) -> dict:
    return {
        "element": link.path,
        "ends": [site.describe() for site in link.ends],
        "kind": link.kind.value,
        "origin": "undirected" if link.origin is None else link.origin.describe(),
        "transported": None if link.transported is None else sorted(link.transported),
        "association": link.connector.association,
    }


def _describe_port(index: TypingIndex, cls: Class, port: Port) -> dict:
    links, _, overlap, _, missing = index.fanout(port)
    return {
        "element": index.model.member_path(cls, port.name),
        "contract": port.contract,
        "reversed": port.reversed,
        "closure": sorted(index.port_interfaces(port)),
        "outgoing": [_describe_connector(link) for link in links],
        "disjoint": not overlap,
        "overlap": sorted(overlap),
        "complete": not missing if links else None,
        "missing": sorted(missing) if links else [],
    }


def _describe_element(index: TypingIndex, path: str, element, owner: Class | None) -> dict:
    if isinstance(element, Connector):
        return _describe_connector(index.connector(owner, element))
    if isinstance(element, Port):
        return _describe_port(index, owner, element)
    if isinstance(element, Part):
        return {
            "element": path,
            "type": element.type,
            "multiplicity": element.multiplicity,
            "provided": sorted(index.class_interfaces(element.type)),
        }
    if isinstance(element, Class):
        return {
            "element": path,
            "kind": element.kind.value,
            "provided": sorted(index.class_interfaces(element.name)),
            "parts": [p.name for p in element.parts],
            "ports": [p.name for p in element.ports],
        }
    if isinstance(element, Interface):
        return {
            "element": path,
            "group": element.is_group,
            "closure": sorted(index.interface_closure(element.name)),
            "operations": list(element.operations),
        }
    return {"element": path, "kind": "association"}


def cmd_explain(args, out) -> int:
    path = args.element
    index, code = _prepare(args, out)
    if index is None:
        return code
    try:
        element, owner = resolve(index.model, path)
    except UnknownPathError as exc:
        name, sep, member = split_path(path)
        if name and (member or not sep):
            _reject(args, exc.diagnostics, out)
            return EXIT_FINDINGS
        print(f"error: explain needs a name on each side of '{sep}' in {path!r}" if path
              else "error: explain needs a non-empty element path", file=out)
        return EXIT_INPUT
    info = _describe_element(index, path, element, owner)
    if args.output == "json":
        print(json.dumps(info, indent=2), file=out)
    else:
        for key, value in info.items():
            if isinstance(value, list) and value and isinstance(value[0], dict):
                print(f"{key}:", file=out)
                for entry in value:
                    ends = " -- ".join(entry.get("ends", []))
                    ts = entry.get("transported")
                    ts_text = _fmt_set(ts) if ts is not None else "(not computable)"
                    print(f"  {entry['element']}: {ends} [{entry['kind']}] "
                          f"transports {ts_text}", file=out)
            else:
                print(f"{key}: {value}", file=out)
    return EXIT_OK


def _parse_injections(graph, specs: list[str]) -> list[tuple[str, str]]:
    """Split each spec at its last ':' that follows an instance id, else at its
    last ':'; names may hold ':' too."""
    from . import simulator

    pairs = []
    for spec in specs:
        cuts = [i for i in reversed(range(len(spec))) if spec[i] == ":"]
        cut = next((i for i in cuts if spec[:i] in graph.ports or spec[:i] in graph.components),
                   spec.rfind(":"))
        location, interface = spec[:cut], spec[cut + 1:]
        if cut < 0 or not location or not interface:
            raise simulator.SimError(f"--inject expects LOCATION:INTERFACE, got {spec!r}")
        pairs.append((location, interface))
    return pairs


def cmd_simulate(args, out) -> int:
    index, code = _prepare(args, out)
    if index is None:
        return code
    root = args.root if args.root is not None else index.model.root
    if root is None:
        print("error: simulate needs a root class (--root NAME or a 'root' in the model)",
              file=out)
        return EXIT_INPUT
    # Completeness findings (W008) surface at run time as stuck requests, so
    # they are downgraded here and the simulation is allowed to demonstrate them.
    downgrade = _downgrade_codes(args) | {"W008"}
    from . import simulator

    try:
        graph = simulator.build_graph(index, root, downgrade=downgrade)
        injections = (_parse_injections(graph, args.inject) if args.inject
                      else simulator.default_injection_suite(graph))
        for location, interface in injections:
            simulator.inject(graph, location, interface)
        trace = simulator.run_to_quiescence(graph)
    except simulator.SimError as exc:
        print(f"error: {exc}", file=out)
        return EXIT_INPUT
    safety = simulator.check_type_safety(trace, graph)
    if args.output == "json":
        for event in trace.events:
            print(json.dumps(event.to_dict()), file=out)
        print(json.dumps({"summary": trace.status_counts(), "safety": safety.to_dict()}), file=out)
    else:
        palette = _palette(out)
        counts = trace.status_counts()
        print(f"simulate: {len(graph.requests)} request(s): "
              f"{counts['delivered']} delivered, {counts['stuck']} stuck, "
              f"{counts['inTransit']} in transit over {len(trace.events)} event(s)", file=out)
        for violation in safety.violations:
            print(palette.red(f"request {violation.request}: {violation.reason} "
                              f"(path: {' -> '.join(violation.path)})"), file=out)
        verdict = palette.green("PASSED") if safety.passed else palette.red("FAILED")
        print(f"routing safety: {verdict}", file=out)
    return EXIT_OK if safety.passed else EXIT_FINDINGS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compocheck",
        description="Validate hierarchical component models and simulate their "
                    "port-forwarding behaviour.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="model file (.csm DSL or .csm.json)")
        p.add_argument("--format", choices=["auto", "dsl", "json"], default="auto")
        p.add_argument("--output", choices=["text", "json"], default="text")
        p.add_argument("--downgrade", action="append", metavar="CODE[,CODE...]",
                       help="treat the listed rule codes as warnings")

    p_check = sub.add_parser("check", help="run the well-formedness rules")
    common(p_check)

    p_explain = sub.add_parser("explain", help="show derived typing for one element")
    common(p_explain)
    p_explain.add_argument("element", help="element path: Name, Class.member or Class#index")

    p_sim = sub.add_parser("simulate", help="instantiate a composite and route requests")
    common(p_sim)
    p_sim.add_argument("--root", help="composite class to instantiate")
    p_sim.add_argument("--inject", action="append", metavar="LOCATION:INTERFACE",
                       help="inject one request (repeatable); default: one request per "
                            "provided boundary port and interface")
    return parser


COMMANDS = {"check": cmd_check, "explain": cmd_explain, "simulate": cmd_simulate}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
        code = COMMANDS[args.command](args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone. Point stdout at devnull, so that the
        # flush at interpreter exit fails no more, and report nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    except Exception as exc:  # exit 1 means findings; a command that crashed found nothing
        print(f"internal error: {type(exc).__name__}: {exc}", file=out)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
