"""The benchmark's workloads: seeded inputs, the timed operation, its check.

Each workload is a closed loop with one client: the next input goes in only
after the previous verdict. ``build`` makes the inputs from the seed, with
the expected answers known by construction (see ``models``). ``execute`` is
the timed operation and returns what compocheck produced; ``judge`` compares
it with the expectation and returns the canonical bytes the run digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from compocheck import cli, ingest, rules, simulator
from compocheck import model as model_layer

import models as M

FIXTURES = Path(__file__).parent / "fixtures"
CLI_TIMEOUT_S = 30
# Completeness findings surface as stranded requests, as in `compocheck simulate`.
SIMULATE_DOWNGRADE = frozenset({"W008"})


@dataclass
class Case:
    name: str
    filename: str
    text: str
    expected: M.Expected
    elements: int
    argv: tuple[str, ...] = ()
    exit_code: int = 0


@dataclass
class Judged:
    ok: bool
    digest: bytes
    problem: str = ""


def count_elements(text: str, filename: str) -> int:
    """Interfaces, classes, parts, ports, connectors and associations declared
    in a model's text, counted without compocheck."""
    if filename.endswith(".json"):
        doc = json.loads(text)
        return (len(doc["interfaces"]) + len(doc["classes"]) + len(doc["associations"])
                + sum(len(c["parts"]) + len(c["ports"]) + len(c["connectors"])
                      for c in doc["classes"]))
    return len(re.findall(r"^\s*(?:interface|class|assoc|part|port|connector)\b", text, re.M))


def log_sizes(lo: int, hi: int, count: int) -> list[int]:
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


def stratified(rng: random.Random, count: int, every: int) -> set[int]:
    """One index out of each consecutive block of ``every``, so the picks
    spread evenly over a size-ordered list whatever the seed."""
    return {start + rng.randrange(every) for start in range(0, count, every)} & set(range(count))


def _case(index: int, built: M.Built, as_json: bool) -> Case:
    filename = f"c{index:03d}.csm" + (".json" if as_json else "")
    text = built.spec.to_json() if as_json else built.spec.to_dsl()
    return Case(built.label, filename, text, built.expected, count_elements(text, filename))


def _digest(*parts: object) -> bytes:
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode("utf-8")).digest()


def _prepare(case: Case):
    parsed = ingest.parse_auto(case.text, case.filename)
    problems = model_layer.validate_integrity(parsed)
    if problems:
        raise ValueError("integrity: " + "; ".join(d.render() for d in problems))
    return model_layer.synthesize_deleg_associations(parsed)


class Workload:
    name = ""
    why = ""

    def build(self, seed: int) -> list[Case]:
        raise NotImplementedError

    def prepare(self, cases: list[Case], workdir: Path) -> None:
        """Write whatever the operation reads from disk."""

    def warm_up(self, cases: list[Case]) -> None:
        for case in sorted(cases, key=lambda c: len(c.text))[:3]:
            self.execute(case)

    def execute(self, case: Case):
        raise NotImplementedError

    def judge(self, case: Case, raw) -> Judged:
        raise NotImplementedError


class CheckScale(Workload):
    name = "check-scale"
    why = ("static check of ~120 large models per pass (parse, integrity, deleg synthesis, "
           "check_model): rules and type_system do the work, the simulator never runs")

    # Hubs and random composites stay below the cheapest of the other
    # families, so the median model is always one of the seed-independent
    # sizes and the seed's random composites cannot move verdict_p50_ms.
    PLAN = (
        (M.flat, log_sizes(40, 160, 26), M.FLAT_DEFECTS),
        (M.nested, log_sizes(40, 160, 16), M.NESTED_DEFECTS),
        (M.gen_chain, log_sizes(70, 250, 26), M.GEN_CHAIN_DEFECTS),
        (M.hub, [2 + 6 * i // 25 for i in range(26)], M.HUB_DEFECTS),
        (M.composite, log_sizes(3, 6, 26), M.COMPOSITE_DEFECTS),
    )

    def build(self, seed: int) -> list[Case]:
        rng = random.Random(seed)
        built: list[tuple[M.Built, bool]] = []
        for family, sizes, defects in self.PLAN:
            flawed = stratified(rng, len(sizes), 4)   # a quarter carry one defect
            as_json = stratified(rng, len(sizes), 3)  # a third are .csm.json
            for i, size in enumerate(sizes):
                defect = rng.choice(defects) if i in flawed else None
                built.append((family(size, defect, rng), i in as_json))
        rng.shuffle(built)
        return [_case(i, item, as_json) for i, (item, as_json) in enumerate(built)]

    def execute(self, case: Case):
        return rules.check_model(_prepare(case))

    def judge(self, case: Case, report) -> Judged:
        codes = set(report.stats)
        ok = report.passed == case.expected.passed and codes == case.expected.codes
        problem = "" if ok else f"{case.name}: codes {sorted(codes)}, expected {sorted(case.expected.codes)}"
        return Judged(ok, _digest(report.to_dict()), problem=problem)


def simulate(case: Case):
    """Instantiate, inject ``rounds`` times, route to quiescence, check safety."""
    expected = case.expected
    graph = simulator.instantiate(_prepare(case), expected.root, downgrade=SIMULATE_DOWNGRADE)
    injections = expected.injections or simulator.default_injection_suite(graph)
    for _ in range(expected.rounds):
        for location, interface in injections:
            simulator.inject(graph, location, interface)
    trace = simulator.run_to_quiescence(graph)
    return trace, simulator.check_type_safety(trace, graph)


class RouteFanout(Workload):
    name = "route-fanout"
    why = ("simulate ~76 models with few classes but up to ~2000 instances (fan-out, relay "
           "and outbound chains): the simulator does the work, check_model stays cheap")

    # Many distinct sizes, so that neighbouring models differ little in cost
    # and the median and tail do not jump between far-apart models.
    ROUNDS = 3
    FAN2_INSTANCES = log_sizes(60, 2000, 32)
    RELAY_SHAPES = [(bits, bits + extra) for bits in range(3, 9) for extra in (2, 3, 4, 5)]
    OUTCHAIN_SHAPES = [(bits, depth) for bits in range(3, 8) for depth in (2, 3, 4, 5)]

    def families(self):
        """Per family, one builder per size taking ``drop``, smallest first."""
        def fan2(n):
            k1 = max(2, round(math.sqrt(n)))
            return lambda drop: M.fan2(k1, max(1, k1 // 2), drop, self.ROUNDS)

        def relay(bits, depth):
            # the doublings spread evenly over all but the last level
            mults = [2 if (i * bits) // (depth - 1) != ((i + 1) * bits) // (depth - 1) else 1
                     for i in range(depth - 1)] + [1]
            return lambda drop: M.relay(mults, drop, self.ROUNDS)

        def outchain(bits, depth):
            mults = [2 ** (bits // depth + (i < bits % depth)) for i in range(depth)]
            return lambda drop: M.outchain(mults, drop, self.ROUNDS)

        return ([fan2(n) for n in self.FAN2_INSTANCES],
                [relay(*shape) for shape in self.RELAY_SHAPES],
                [outchain(*shape) for shape in self.OUTCHAIN_SHAPES])

    def build(self, seed: int) -> list[Case]:
        rng = random.Random(seed)
        built = []
        for builders in self.families():
            dropped = stratified(rng, len(builders), 4)  # a quarter lose one connector
            as_json = stratified(rng, len(builders), 3)
            built += [(make(i in dropped), i in as_json) for i, make in enumerate(builders)]
        rng.shuffle(built)
        return [_case(i, item, as_json) for i, (item, as_json) in enumerate(built)]

    def execute(self, case: Case):
        return simulate(case)

    def judge(self, case: Case, raw) -> Judged:
        trace, safety = raw
        counts = trace.status_counts()
        exp = case.expected
        got = (counts["delivered"], counts["stuck"], counts["inTransit"], len(trace.events),
               safety.passed)
        want = (exp.delivered, exp.stuck, 0, exp.events, exp.stuck == 0)
        ok = got == want
        digest = _digest([e.to_dict() for e in trace.events], trace.final_statuses,
                         safety.to_dict())
        return Judged(ok, digest, "" if ok else f"{case.name}: got {got}, expected {want}")


# Expected answers for the fixtures, read off the files themselves:
# delegation routes I to d and J, L through e.pJL to e (5 events);
# atm routes IControl from pCtl to the controller; leaf has no ports;
# mixed_concurrency mixes a passive part with active ones (W010);
# broken_syntax has a part without a type.
FIXTURE_EXPECTATIONS = (
    ("delegation.csm", M.Expected(root="A", delivered=3, events=5), "A.pIJL"),
    ("atm.csm.json", M.Expected(root="ATM", delivered=1, events=1), "ATM#0"),
    ("leaf.csm", M.Expected(root="D"), "D"),
    ("mixed_concurrency.csm", M.Expected(codes=frozenset({"W010"}), root="A"), "A"),
    ("broken_syntax.csm", M.Expected(input_error=True), "A"),
)


def expected_exit(command: str, exp: M.Expected) -> int:
    if exp.input_error:
        return 2
    if command == "check":
        return 1 if exp.codes else 0
    if command == "simulate":
        return 2 if exp.codes - SIMULATE_DOWNGRADE else (1 if exp.stuck else 0)
    return 0


def cli_case(command: str, label: str, filename: str, text: str, exp: M.Expected,
             element: str, output: str) -> Case:
    argv = [command, filename]
    if command == "explain":
        argv.append(element)
    elif command == "simulate":
        argv += ["--root", exp.root or "Missing"]
        for location, interface in exp.injections:
            argv += ["--inject", f"{location}:{interface}"]
    argv += ["--output", output]
    return Case(f"{command}:{label}:{output}", filename, text, exp,
                count_elements(text, filename), tuple(argv), expected_exit(command, exp))


def run_in_process(case: Case) -> tuple[int, bytes]:
    """A CLI call's ``main`` in this process, stdout captured."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = cli.main(list(case.argv))
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buffer.getvalue().encode("utf-8")


@contextlib.contextmanager
def inside(directory: Path):
    """Run in-process CLI calls as a subprocess would: from ``directory``, uncoloured."""
    previous_dir, previous_color = Path.cwd(), os.environ.get("COMPOCHECK_COLOR")
    os.chdir(directory)
    os.environ["COMPOCHECK_COLOR"] = "never"
    try:
        yield
    finally:
        os.chdir(previous_dir)
        if previous_color is None:
            os.environ.pop("COMPOCHECK_COLOR", None)
        else:
            os.environ["COMPOCHECK_COLOR"] = previous_color


def cli_env() -> dict:
    """The environment of a CLI subprocess: this compocheck first on the path, no colour."""
    env = dict(os.environ, COMPOCHECK_COLOR="never")
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def judge_cli(case: Case, raw) -> Judged:
    code, out = raw
    ok = verdict_matches(case, code, out)
    return Judged(ok, _digest(list(case.argv), code, out.decode("utf-8")),
                  problem="" if ok else f"{case.name}: exit {code}, expected {case.exit_code}")


_SIM_TEXT = re.compile(r"simulate: (\d+) request\(s\): (\d+) delivered, (\d+) stuck, "
                       r"(\d+) in transit over (\d+) event\(s\)")


def verdict_matches(case: Case, code: int, out: bytes) -> bool:
    """Whether a CLI call's exit code and output agree with the construction."""
    if code != case.exit_code:
        return False
    if code == 2:
        return True
    exp, command, as_json = case.expected, case.argv[0], case.argv[-1] == "json"
    text = out.decode("utf-8")
    lines = text.splitlines()
    if command == "check":
        if as_json:
            doc = json.loads(text)
            return doc["passed"] == exp.passed and set(doc["stats"]) == exp.codes
        codes = {line.split()[0] for line in lines if re.match(r"W\d{3} ", line)}
        verdict = "check: PASSED" if exp.passed else "check: FAILED"
        return codes == exp.codes and lines[-1].startswith(verdict)
    if command == "simulate":
        if as_json:
            summary = json.loads(lines[-1])["summary"]
            got = (summary["delivered"], summary["stuck"], len(lines) - 1)
        else:
            match = _SIM_TEXT.match(lines[0])
            got = (int(match[2]), int(match[3]), int(match[5])) if match else None
        return got == (exp.delivered, exp.stuck, exp.events)
    element = case.argv[2]
    return json.loads(text)["element"] == element if as_json else lines[0] == f"element: {element}"


class CliSmall(Workload):
    name = "cli-small"
    why = ("one `python -m compocheck.cli` subprocess per call (check, simulate, explain; "
           "text and JSON) on 5 fixtures and 15 small models: import and rendering dominate")

    COMMANDS = ("check", "simulate", "explain")

    def __init__(self) -> None:
        self.env = cli_env()
        self.workdir: Path | None = None

    @staticmethod
    def models(rng: random.Random) -> list[tuple[str, str, M.Expected, str]]:
        """(label, text, expectation, element to explain) for the generated models."""
        # Composite shapes come from a fixed stream, so the element count of a
        # pass, and with it elements_per_s, does not depend on the seed.
        composite = M.composite(5, None, random.Random(0), depth=2)
        broken_composite = M.composite(5, rng.choice(M.COMPOSITE_DEFECTS), random.Random(1),
                                       depth=2)
        items = [
            (M.flat(4, None, rng), "Flat.p"),
            (M.flat(5, "W008", rng), "Flat.p"),
            (M.nested(4, None, rng), "R1#0"),
            (M.nested(5, rng.choice(M.NESTED_DEFECTS), rng), "R1#0"),
            (M.gen_chain(6, None, rng), "K0"),
            (M.gen_chain(6, "W000", rng), "K1"),
            (M.hub(3, None, rng), "Hub.r"),
            (M.hub(3, "W007", rng), "Hub.r"),
            (composite, f"{composite.spec.root}.b0"),
            (broken_composite, f"{broken_composite.spec.root}.b0"),
            (M.fan2(2, 3, False, 1), "Mid.p"),
            (M.relay([2, 1, 2, 1], False, 1), "R1.p"),
            (M.outchain([2, 2], rng.random() < 0.5, 1), "O1#0"),
        ]
        out = []
        for built, element in items:
            text = built.spec.to_json() if rng.random() < 1 / 3 else built.spec.to_dsl()
            out.append((built.label, text, built.expected, element))
        ghost = M.flat(3, None, rng)  # a part typed by an undeclared class: E001
        ghost.spec.find("Flat").parts.append(("ghost", "Missing", 1))
        out.append(("integrity-error", ghost.spec.to_dsl(), M.Expected(input_error=True), "Flat"))
        untyped = M.flat(3, None, rng).spec.to_dsl().replace("part l0: Leaf0;", "part l0: ;")
        out.append(("parse-error", untyped, M.Expected(input_error=True), "Flat"))
        return out

    def build(self, seed: int) -> list[Case]:
        rng = random.Random(seed)
        sources = [(name, (FIXTURES / name).read_text(encoding="utf-8"), exp, element)
                   for name, exp, element in FIXTURE_EXPECTATIONS]
        sources += self.models(rng)
        cases = []
        for index, (label, text, exp, element) in enumerate(sources):
            if index < len(FIXTURE_EXPECTATIONS):
                filename = label
            else:
                suffix = ".csm.json" if text.startswith("{") else ".csm"
                filename = f"m{index:02d}{suffix}"
            cases += [cli_case(command, label, filename, text, exp, element,
                               rng.choice(("text", "json"))) for command in self.COMMANDS]
        rng.shuffle(cases)
        return cases

    def prepare(self, cases: list[Case], workdir: Path) -> None:
        self.workdir = workdir
        for case in cases:
            (workdir / case.filename).write_text(case.text, encoding="utf-8")

    def warm_up(self, cases: list[Case]) -> None:
        self.execute(cases[0])

    def execute(self, case: Case):
        proc = subprocess.run([sys.executable, "-m", "compocheck.cli", *case.argv],
                              cwd=self.workdir, env=self.env, capture_output=True,
                              timeout=CLI_TIMEOUT_S, check=False)
        return proc.returncode, proc.stdout

    def judge(self, case: Case, raw) -> Judged:
        return judge_cli(case, raw)


WORKLOADS = {w.name: w for w in (CheckScale, RouteFanout, CliSmall)}


def probe_calls() -> list[Case]:
    """check, simulate and explain on every fixture, as JSON; run in-process
    from the fixture directory."""
    return [cli_case(command, "probe", name, (FIXTURES / name).read_text(encoding="utf-8"),
                     exp, element, "json")
            for name, exp, element in FIXTURE_EXPECTATIONS for command in CliSmall.COMMANDS]
