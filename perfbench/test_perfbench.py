"""The benchmark's own checks, on its reduced-size mode.

Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import PINNED_ENV, SRC  # noqa: E402

os.environ.update(PINNED_ENV)
sys.path.insert(0, SRC)

from tracing import Tracer, accounting, layer_metrics  # noqa: E402
from workloads import (WORKLOADS, LinkCanonical, record_matches,  # noqa: E402
                       same_outputs)

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    CONTRACT = json.load(handle)


def run_bench(workload, trace, cwd=ROOT, seed=5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--small"], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_small_mode_prints_every_metric_and_passes_its_checks(workload,
                                                              trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_contract_lists_exactly_the_three_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert CONTRACT["paths"] == ["perfbench"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_op_reproduces_the_untraced_op_row_exactly(name):
    workload = WORKLOADS[name](small=True)
    state = workload.build(workload.inputs(7))
    untraced = workload.op(state, 1)
    traced, replay_matches_op, _ = workload.traced_op(state, 1, Tracer())
    assert replay_matches_op
    assert same_outputs(workload.view(untraced), workload.view(traced))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_child_spans_and_self_residual_account_for_the_op_wall(name):
    workload = WORKLOADS[name](small=True)
    state = workload.build(workload.inputs(7))
    tracer = Tracer()
    for i in range(2):
        workload.traced_op(state, i, tracer)
    rows = accounting(tracer)
    assert len(rows) == 2
    for row in rows:
        assert row["nested"]
        assert row["children_s"] + row["self_s"] == pytest.approx(
            row["wall_s"], rel=1e-12)
    # The per-layer table adds up too: the busy time of the op's direct
    # children plus the self residual is the mean op wall; nested spans
    # (stages inside pulse_response) are not counted twice.
    metrics = layer_metrics(tracer)
    direct = {s.name for s in tracer.spans if s.parent is not None
              and tracer.spans[s.parent].parent is None}
    op = rows[0]["op"]
    total = sum(metrics[f"{layer}.busy_s"] for layer in direct)
    assert total + metrics[f"{op}.self_s"] == pytest.approx(
        sum(r["wall_s"] for r in rows) / len(rows), rel=1e-9)


def test_seeded_inputs_repeat_and_differ_across_seeds():
    for cls in WORKLOADS.values():
        workload = cls(small=True)
        a, b, c = (workload.inputs(s) for s in (3, 3, 4))
        assert same_outputs(a, b)
        assert not same_outputs(a, c)


def test_reference_comparison():
    tolerances = LinkCanonical.tolerances
    want = {"eye_height": float("-inf"), "cdr_locked_at_bit": 40,
            "cdr_decisions": "00ff", "dfe_inner_eye_height": 0.2}
    assert record_matches(dict(want), want, tolerances)
    assert record_matches(dict(want, dfe_inner_eye_height=0.2 * (1 + 1e-12)),
                          want, tolerances)
    assert not record_matches(dict(want, dfe_inner_eye_height=0.2001),
                              want, tolerances)
    assert not record_matches(dict(want, eye_height=0.0), want, tolerances)
    assert not record_matches(dict(want, cdr_decisions="00fe"), want,
                              tolerances)
    assert not record_matches(dict(want, cdr_locked_at_bit=41), want,
                              tolerances)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("link_canonical", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
