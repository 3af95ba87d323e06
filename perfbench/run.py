"""compocheck benchmark: one seeded workload, one closed loop, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload check-scale --seed 1 --seconds 30 --trace 0

The run imports compocheck from ``src/`` and sets up five times, reporting
the median as ``setup_s``: import compocheck in a fresh interpreter, build
the workload's inputs from the seed, write them out and warm up. It then
runs whole passes over the inputs until the next pass would overrun
``--seconds`` (at least one). Every verdict is checked against the answer
known by construction, and every pass must produce the same sha256 digest
of canonical outputs.

With ``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``.
With ``--trace 1`` it runs the same passes untraced and then traced, checks
that both give the same digest, and prints the per-layer metrics, including
``trace_overhead_ratio``. Details and spans go to ``.bench_out/``. The last
line of standard output is always the result object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
INTERPRETER_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99, 95, 90, 85, 80, 75, 50)


@dataclass
class Measurement:
    times: list[float] = field(default_factory=list)
    elements: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.times)

    @property
    def consistent(self) -> bool:
        return len(set(self.digests)) == 1


def measure(judge, cases, execute, seconds: float = 0.0, passes: int = 0,
            recorder=None) -> Measurement:
    """Run whole passes: ``passes`` of them, or as many as fit in ``seconds``."""
    result = Measurement()
    start = perf_counter()
    while True:
        gc.collect()
        pass_start = perf_counter()
        digest = hashlib.sha256()
        for index, case in enumerate(cases):
            if recorder is not None:
                recorder.op = f"{len(result.digests)}:{index}"
            result.attempted += 1
            began = perf_counter()
            try:
                raw = execute(case)
            except Exception as exc:  # a crash or timeout is a failed operation
                result.failed += 1
                result.problems.append(f"{case.name}: {type(exc).__name__}: {exc}")
                digest.update(b"failed")
                continue
            result.times.append(perf_counter() - began)
            judged = judge(case, raw)
            digest.update(judged.digest)
            result.elements += case.elements
            if not judged.ok:
                result.failed += 1
                result.problems.append(judged.problem)
        result.digests.append(digest.hexdigest())
        pass_seconds = perf_counter() - pass_start
        if passes:
            if len(result.digests) >= passes:
                break
        elif perf_counter() - start + pass_seconds > seconds:
            break
    return result


def tail_percentile(per_pass: int) -> float:
    """The highest listed percentile with at least ten samples of one pass beyond it."""
    for pct in TAIL_PERCENTILES:
        if per_pass - math.ceil(pct / 100 * per_pass) >= 10:
            return pct
    return 50


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def interpreter_ms(code: str) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    import workloads

    times = []
    for _ in range(INTERPRETER_REPEATS):
        began = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=workloads.cli_env(), check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append(perf_counter() - began)
    return statistics.median(times) * 1000


def layer_metrics(rec, ops: int, rule_names: list[str], interp_ms: float,
                  import_ms: float) -> dict[str, float]:
    """Per-layer metrics from a traced run; times and counts are per operation,
    cli metrics per in-process ``main`` call."""
    c = rec.counters

    def ms(name: str) -> float:
        return rec.seconds(name) * 1000 / ops

    sim_check_s = rec.seconds_under("rules.check", "simulator.instantiate")
    sim_s = sum(rec.seconds(n) for n in ("simulator.instantiate", "simulator.route",
                                         "simulator.safety"))
    route_s = rec.seconds("simulator.route")
    main_calls = sum(1 for s in rec.spans if s[1] == "cli.main")
    metrics = {
        "ingest.parse_ms": ms("ingest.parse"),
        "ingest.kb_per_s": c["ingest.bytes"] / 1024 / rec.seconds("ingest.parse"),
        "ingest.self_ms": rec.self_seconds("ingest") * 1000 / ops,
        "model.integrity_ms": ms("model.integrity"),
        "model.synth_ms": ms("model.synth"),
        "model.find_calls": c["model.find_calls"] / ops,
        "model.self_ms": rec.self_seconds("model") * 1000 / ops,
        "type_system.calls": c["type_system.calls"] / ops,
        "type_system.ms": sum(v[1] for (_, n), v in rec.aggregates.items()
                              if n.startswith("type_system.")) * 1000 / ops,
        "type_system.parents_of_calls": c["type_system.parents_of_calls"] / ops,
        "type_system.self_ms": rec.self_seconds("type_system") * 1000 / ops,
        "rules.check_ms": ms("rules.check"),
        "rules.self_ms": rec.self_seconds("rules") * 1000 / ops,
        "rules.notes_ms": ms("rules.notes"),
        "rules.diagnostics": c["rules.diagnostics"] / ops,
        "simulator.check_ms": sim_check_s * 1000 / ops,
        "simulator.instantiate_ms": (rec.seconds("simulator.instantiate") - sim_check_s) * 1000 / ops,
        "simulator.instances": c["simulator.instances"] / ops,
        "simulator.bindings": c["simulator.bindings"] / ops,
        "simulator.route_ms": route_s * 1000 / ops,
        "simulator.steps": c["simulator.steps"] / ops,
        "simulator.events": c["simulator.events"] / ops,
        "simulator.events_per_s": c["simulator.events"] / route_s,
        "simulator.idle_step_ratio": c["simulator.idle_steps"] / c["simulator.steps"],
        "simulator.safety_ms": ms("simulator.safety"),
        "simulator.requests_per_s": c["simulator.requests"] / sim_s,
        "simulator.self_ms": rec.self_seconds("simulator") * 1000 / ops,
        "cli.interp_ms": interp_ms,
        "cli.import_ms": import_ms,
        "cli.main_ms": rec.seconds("cli.main") * 1000 / main_calls,
        "cli.output_kb": c["cli.output_bytes"] / 1024 / main_calls,
        "cli.self_ms": rec.self_seconds("cli") * 1000 / main_calls,
    }
    for name in rule_names:
        metrics[f"rules.{name}_ms"] = ms(f"rules.{name}")
    return metrics


def emit(spec: dict, kind: str, values: dict[str, float], correct: bool, attempted: int,
         failed: int) -> None:
    metrics = {}
    for entry in spec[kind]:
        if entry["name"] not in values:
            raise SystemExit(f"metric {entry['name']} was not measured")
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "compocheck" / "__init__.py").is_file():
        print(f"error: no compocheck sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    sys.path[:0] = [str(SRC), str(HERE)]
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setups, texts = [], set()
        for _ in range(SETUP_REPEATS):
            started = perf_counter()
            # A fresh interpreter's import, since this process has imported already.
            subprocess.run([sys.executable, "-c", "import compocheck.cli"],
                           env=workloads.cli_env(), check=True, timeout=60)
            cases = workload.build(args.seed)
            workload.prepare(cases, workdir)
            workload.warm_up(cases)
            setups.append(perf_counter() - started)
            texts.add(hashlib.sha256("".join(c.text + repr(c.argv) for c in cases).encode()).hexdigest())
        setup_s = statistics.median(setups)
        report: dict = {"workload": args.workload, "seed": args.seed, "cases": len(cases),
                        "inputs_digest": sorted(texts)}
        correct = len(texts) == 1  # the same seed must give the same inputs

        if not args.trace:
            run = measure(workload.judge, cases, workload.execute, seconds=args.seconds)
            pct = tail_percentile(len(cases))
            values = {
                "verdict_p50_ms": statistics.median(run.times) * 1000,
                "verdict_tail_ms": percentile(run.times, pct) * 1000,
                "elements_per_s": run.elements / run.seconds,
                "peak_rss_mb": peak_rss_mb(),
                "setup_s": setup_s,
            }
            beyond = len(run.times) - math.ceil(pct / 100 * len(run.times))
            report.update(passes=len(run.digests), digest=run.digests[0],
                          tail=f"p{pct:g} of {len(run.times)} samples, {beyond} beyond it",
                          problems=run.problems, metrics=values)
            correct = correct and run.consistent and run.failed == 0
            runs = [run]
            kind = "end_to_end"
        else:
            execute = workload.execute
            runs = []
            if isinstance(workload, workloads.CliSmall):
                # Wrappers cannot reach a subprocess, so the traced comparison runs
                # main() in-process; one subprocess pass ties it to the real CLI.
                runs.append(measure(workload.judge, cases, workload.execute, passes=1))
                execute = workloads.run_in_process
            with workloads.inside(workdir):
                untraced = measure(workload.judge, cases, execute, seconds=args.seconds / 2)
                recorder = tracing.Recorder()
                with tracing.Tracer(recorder):
                    traced = measure(workload.judge, cases, execute,
                                     passes=len(untraced.digests), recorder=recorder)
            # The probe runs the CLI in-process on the fixtures, so every layer
            # reports a measured value on every workload, however small.
            with workloads.inside(workloads.FIXTURES), tracing.Tracer(recorder):
                probe = measure(workloads.judge_cli, workloads.probe_calls(),
                                workloads.run_in_process, passes=1, recorder=recorder)
            runs += [untraced, traced, probe]
            interp = interpreter_ms("pass")
            values = layer_metrics(recorder, traced.attempted,
                                   [fn.__name__ for fn in sys.modules["compocheck.rules"].RULES],
                                   interp, interpreter_ms("import compocheck.cli") - interp)
            values["trace_overhead_ratio"] = traced.seconds / untraced.seconds
            digests = {d for r in runs[:-1] for d in r.digests}
            correct = correct and len(digests) == 1 and probe.consistent and all(
                r.failed == 0 for r in runs)
            report.update(passes=len(untraced.digests), digest=sorted(digests),
                          problems=[p for r in runs for p in r.problems], metrics=values)
            spans_path = out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl"
            recorder.write(spans_path)
            report["spans"] = str(spans_path.relative_to(ROOT))
            kind = "per_layer"

        for problem in report["problems"][:20]:
            print(f"problem: {problem}")
        print(f"{args.workload} seed {args.seed}: {report['passes']} pass(es) of "
              f"{len(cases)} operations, digest {report['digest']}"
              + (f", tail {report['tail']}" if "tail" in report else ""))
        (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=1) + "\n", encoding="utf-8")
        emit(spec, kind, values, correct, sum(r.attempted for r in runs),
             sum(r.failed for r in runs))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
