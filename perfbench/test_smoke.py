"""Smoke check of the benchmark itself, at tiny sizes.

Every generator's construction-time answer must match compocheck's verdict,
and each workload must print a result line whose metrics are exactly the
ones ``BENCHMARK.json`` declares, in both modes. No assertion depends on how
long anything took. Run from the repository root::

    python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import models as M  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
CHECK_FAMILIES = [(M.flat, 5, M.FLAT_DEFECTS), (M.nested, 4, M.NESTED_DEFECTS),
                  (M.gen_chain, 5, M.GEN_CHAIN_DEFECTS), (M.hub, 3, M.HUB_DEFECTS),
                  (M.composite, 6, M.COMPOSITE_DEFECTS)]


@pytest.mark.parametrize("family,size,defect", [
    (family, size, defect) for family, size, defects in CHECK_FAMILIES
    for defect in (None, *defects)])
def test_check_verdicts_match_construction(family, size, defect):
    workload = workloads.CheckScale()
    for seed in range(4):
        built = family(size, defect, random.Random(seed))
        for as_json in (False, True):
            case = workloads._case(0, built, as_json)
            judged = workload.judge(case, workload.execute(case))
            assert judged.ok, judged.problem


@pytest.mark.parametrize("drop", [False, True])
def test_routing_counts_match_construction(drop):
    workload = workloads.RouteFanout()
    for built in (M.fan2(3, 2, drop, 2), M.relay([2, 1, 2, 1], drop, 2),
                  M.outchain([2, 1, 3], drop, 2)):
        case = workloads._case(0, built, False)
        judged = workload.judge(case, workload.execute(case))
        assert judged.ok, judged.problem


@pytest.fixture()
def tiny(monkeypatch):
    monkeypatch.setattr(workloads.CheckScale, "PLAN",
                        tuple((family, [4, 6], defects)
                              for family, _, defects in workloads.CheckScale.PLAN))
    monkeypatch.setattr(workloads.RouteFanout, "FAN2_INSTANCES", [10, 30])
    monkeypatch.setattr(workloads.RouteFanout, "RELAY_SHAPES", [(1, 3), (2, 4)])
    monkeypatch.setattr(workloads.RouteFanout, "OUTCHAIN_SHAPES", [(1, 2), (2, 3)])
    generated = workloads.CliSmall.models
    monkeypatch.setattr(workloads.CliSmall, "models", staticmethod(lambda rng: generated(rng)[-4:]))
    monkeypatch.setattr(workloads, "FIXTURE_EXPECTATIONS", workloads.FIXTURE_EXPECTATIONS[:2])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_schema(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)) and metric["value"] == metric["value"]


def test_refuses_to_run_without_sources(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "cli-small", "--seed", "1", "--seconds", "1"]) != 0
