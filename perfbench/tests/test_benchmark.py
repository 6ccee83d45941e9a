"""Tests of the benchmark itself: its inputs, its tracer and the metric
names it promises in BENCHMARK.json.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import branetile as bt  # noqa: E402

import calibrate  # noqa: E402
import documents  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_documents_validate(workload):
    for op in workloads.plan(workload, seed=7, round_no=0, root=ROOT):
        workloads.set_up(bt, op)


def test_renamed_document_differs_but_keeps_its_invariants():
    original = documents.orbifold(2, 2)
    renamed = documents.rename(original, random.Random(3))
    shuffled = documents.shuffle_faces(renamed, random.Random(4))
    assert renamed != original
    assert renamed["vertices"] == sorted(renamed["vertices"])
    assert shuffled["faces"] != renamed["faces"]
    assert sorted(map(str, shuffled["faces"])) == sorted(
        map(str, renamed["faces"]))
    results = []
    for doc in (original, renamed, shuffled):
        tiling = bt.load_document(documents.text(doc))
        matchings = bt.enumerate_perfect_matchings(tiling)
        results.append((
            tiling,
            len(matchings),
            bt.toric_diagram(tiling, None, matchings).canonical,
            len(bt.chamber_decomposition(tiling, matchings)),
        ))
    assert results[0][0] != results[1][0]
    assert [r[1:] for r in results] == [(9, results[0][2], 32)] * 3


def test_matchings_oracles_on_the_generator_document():
    tiling = bt.load_document(documents.text(documents.orbifold(4, 4)))
    diagram = bt.toric_diagram(tiling)
    assert len(diagram.points) == workloads.MATCHINGS[4, 4]
    assert workloads.doubled_area(diagram.hull) == 16
    assert (workloads.canonical_digest(diagram.canonical)
            == workloads.load_goldens()["canonical"]["4x4"])


def test_sampler_scales_by_passes_and_keeps_their_time_apart():
    assert calibrate.scale(3.0, [2 * calibrate.REFERENCE_S] * 2) == 1.5
    sampler = calibrate.Sampler()
    with sampler.measure() as reading:
        start = time.process_time()
        while time.process_time() - start < 2.5 * calibrate.PERIOD_S:
            pass
        total = time.process_time() - start
    # Three passes at the start, at least two while the loop ran, one
    # after it.
    assert len(sampler.passes) >= 6
    assert 0 < reading.cpu_s < total
    assert reading.seconds == calibrate.scale(reading.cpu_s,
                                              sampler.passes[2:])


def test_self_time_of_a_synthetic_nested_call():
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 9.0, 10.0, 11.0, 11.5])
    tracer = Tracer(clock=lambda: next(ticks))

    def inner():
        return None

    def failing():
        raise ValueError

    inner_t = tracer.wrap("m.inner", inner)
    outer_t = tracer.wrap("m.outer", lambda: (inner_t(), inner_t()))
    failing_t = tracer.wrap("m.failing", failing)
    with tracer.op(0):          # 0 .. 10
        outer_t()               # 1 .. 9, children 2..5 and 6..7
    with pytest.raises(ValueError):
        failing_t()             # 11 .. 11.5, outside any op
    functions = summarize(tracer.spans)["functions"]
    assert functions["op"] == {"calls": 1, "self_s": 2.0, "raised": 0}
    assert functions["m.outer"] == {"calls": 1, "self_s": 4.0, "raised": 0}
    assert functions["m.inner"] == {"calls": 2, "self_s": 4.0, "raised": 0}
    assert functions["m.failing"] == {"calls": 1, "self_s": 0.5, "raised": 1}
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1, -1]


def test_tail_keeps_ten_samples_above_it():
    values = list(range(168))
    p, value = run.tail(values)
    assert (p, sum(v > value for v in values)) == (94, 10)
    assert run.tail([3.0, 1.0, 2.0, 4.0]) == (50, 2.0)


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_units())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_named_layer_is_called_on_some_workload(tmp_path):
    """One small op of each library kind, traced in process, plus every
    verb on one fixture through the traced command line."""
    goldens = workloads.load_goldens()
    tracer = Tracer()
    tracer.install()
    try:
        for workload, labels in (("orbifold-chambers",
                                  {"2x2 chambers", "3x3 fans"}),
                                 ("fan-routes", {"spp routes"})):
            for op in workloads.plan(workload, 1, 0, ROOT):
                if op.label in labels:
                    labels.discard(op.label)
                    with tracer.op(0):
                        workloads.run(bt, op)
    finally:
        tracer.uninstall()
    called = {name for name, entry in summarize(tracer.spans)["functions"]
              .items() if entry["calls"]}
    for call in goldens["cli"]:
        if call["argv"][1] != "fixtures/spp.json":
            continue
        trace_file = tmp_path / f"{call['argv'][0]}.json"
        child = run.spawn(run.cli_command(call["argv"], trace_file), ROOT)
        assert child.code == call["exit"]
        assert run.sha256(child.stdout) == call["stdout_sha256"]
        summary = json.loads(Path(f"{trace_file}.summary").read_text("utf-8"))
        called |= {name for name, entry in summary["functions"].items()
                   if entry["calls"]}
    assert set(run.LAYER_FUNCTIONS) <= called


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fan-routes",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
