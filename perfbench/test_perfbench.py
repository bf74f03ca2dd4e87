"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They run small slices of each workload in-process, so they take seconds.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from stablesq import qlinalg, subspace  # noqa: E402
from run import PROBE_S, normalized, normalized_setup, per_op, percentile, verdict  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _slice(name: str, seed: int = 7) -> list:
    """A few cheap groups of each workload, including every kind of group."""
    groups = WORKLOADS[name].make(seed, Counter())
    if name == "table":
        return groups[:4]
    if name == "mono-squares":
        return groups[:3] + groups[12:14]
    if name == "rational-squares":
        return [groups[0], groups[-1]]
    return groups[:2] + groups[16:18]


class _WrongAnswer:
    """Delegates to a workload but returns a wrong answer for one group."""

    def __init__(self, inner, bad_group):
        self.inner = inner
        self.bad_group = bad_group

    def run(self, group, call):
        answers = self.inner.run(group, call)
        if group is self.bad_group:
            answers[0] = answers[0] + 1
        return answers

    def check(self, group, answers):
        return self.inner.check(group, answers)


def test_planted_wrong_answer_is_counted_as_failure():
    table = WORKLOADS["table"]
    groups = _slice("table")
    clean = run_pass(table, groups)
    assert (clean["attempted"], clean["failed"]) == (4, 0)
    planted = run_pass(_WrongAnswer(table, groups[2]), groups)
    assert (planted["attempted"], planted["failed"]) == (4, 1)


def test_raising_operation_is_counted_as_failure():
    class Raises:
        def run(self, group, call):
            call(lambda: None)
            call(lambda: 1 / 0)

        def check(self, group, answers):
            raise AssertionError("a group that raised is not checked")

    result = run_pass(Raises(), [0])
    assert (result["attempted"], result["failed"]) == (2, 2)
    assert result["errors"] and result["errors"][0].startswith("ZeroDivisionError")


def test_verdict_rejects_empty_and_incomplete_runs():
    ok = {"attempted": 288, "failed": 0, "errors": [], "answers_sha256": "a"}
    assert verdict("table", [ok, ok]) == []
    assert verdict("power-scan", [dict(ok, attempted=0)])
    assert verdict("table", [dict(ok, attempted=287)])
    assert verdict("table", [ok, dict(ok, answers_sha256="b")])


def test_latencies_are_scaled_by_neighbouring_probe_times():
    # the host runs at half speed for the last 15 operations; one probe
    # reading among them is an outlier that the median ignores
    probes = [PROBE_S] * 20 + [2 * PROBE_S] * 15
    probes[-2] = 9 * PROBE_S
    latencies = [0.01] * 20 + [0.02] * 15
    out = normalized({"probes_s": probes, "latencies_s": latencies})
    assert len(out) == 35
    assert out[:10] == pytest.approx([0.01] * 10)
    assert out[-5:] == pytest.approx([0.01] * 5)
    # an operation's latency is its median over the passes
    steady = {"probes_s": [PROBE_S] * 3, "latencies_s": [0.01, 0.02, 0.03]}
    disturbed = {"probes_s": [PROBE_S] * 3, "latencies_s": [0.05, 0.02, 0.09]}
    assert per_op([steady, disturbed, steady]) == pytest.approx([0.01, 0.02, 0.03])
    setup = {"setup_s": 0.3, "setup_probes_s": [3 * PROBE_S, 3 * PROBE_S, 50 * PROBE_S]}
    assert normalized_setup(setup) == pytest.approx(0.1)


def test_percentile_counts_samples_above():
    values = [float(i) for i in range(1, 221)]
    assert percentile(values, 95) == (209.0, 11)
    assert percentile(values, 50) == (110.0, 110)


def _bindings() -> dict:
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "stablesq" or name.startswith("stablesq."):
            found.update({(name, k): v for k, v in vars(module).items()})
    for cls in (subspace.SquareIndex, qlinalg.RationalSubspace):
        found.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return found


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_restores_library_and_keeps_answers(name):
    workload = WORKLOADS[name]
    groups = _slice(name)
    before = _bindings()
    plain = run_pass(workload, groups)
    traced = run_pass(workload, groups, Tracer("stablesq"))
    after = _bindings()
    assert before.keys() == after.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
    assert traced["answers"] == plain["answers"]
    assert traced["failed"] == plain["failed"] == 0
    layers = traced["layers"]
    calls = {
        "table": "search.compute_m_calls",
        "mono-squares": "subspace.square_calls",
        "rational-squares": "qlinalg.product_calls",
        "power-scan": "qlinalg.power_in_span_calls",
    }[name]
    assert layers[calls] > 0


def test_iterator_steps_are_timed_as_the_producing_layer():
    tracer = Tracer("stablesq")
    produce = tracer.timed(lambda: iter([1, 2, 3]), "test.produce")
    consume = tracer.timed(lambda: sum(produce()), "test.consume")
    assert consume() == 6
    assert tracer.counts["test.produce:calls"] == 1
    assert tracer.counts["test.produce:items"] == 3
    # one consume span, one produce call, four next() calls (the last stops)
    assert tracer.span_count == 6
    times = tracer.layer_times()
    consume_total, consume_self = times["test.consume"]
    produce_total, _ = times["test.produce"]
    assert consume_self == pytest.approx(consume_total - produce_total, abs=1e-9)


def test_run_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
