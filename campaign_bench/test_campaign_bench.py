"""Tests of the campaign benchmark itself.

Run from the repository root:

    python3 -m pytest campaign_bench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import harness
import run
from tracer import Tracer, instrument, package_modules
from workloads import WORKLOADS, JobSpec, round_jobs

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def program():
    harness.pin_blas_threads()
    return harness.load_program()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_jobs(name):
    workload = WORKLOADS[name]
    first = [round_jobs(workload, 7, r) for r in range(5)]
    again = [round_jobs(workload, 7, r) for r in range(5)]
    assert first == again
    assert [jobs[0].campaign for jobs in first] == [workload.campaigns[0]] * 5
    assert len({jobs[0].seed for jobs in first}) == 5  # rounds differ
    assert round_jobs(workload, 8, 0) != first[0]  # seeds differ


def test_self_time_of_nested_spans():
    now = [0]
    tracer = Tracer(clock=lambda: now[0])

    def leaf(cost):
        now[0] += cost

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        now[0] += 3
        traced_leaf(20)
        now[0] += 4

    traced_middle = tracer.wrap("middle", middle)

    def outer():
        now[0] += 10
        traced_middle()
        traced_leaf(5)
        now[0] += 1

    tracer.wrap("outer", outer)()
    assert tracer.total_ns == Counter(outer=43, middle=27, leaf=25)
    assert tracer.self_ns == Counter(outer=11, middle=7, leaf=25)
    assert tracer.calls == Counter(outer=1, middle=1, leaf=2)
    assert sum(tracer.self_ns.values()) == tracer.total_ns["outer"]


def test_span_closes_when_the_call_raises():
    now = [0]
    tracer = Tracer(clock=lambda: now[0])

    def fails():
        now[0] += 2
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("fails", fails)()
    assert tracer.self_ns["fails"] == 2
    assert tracer.wrap("after", lambda: None)() is None
    assert tracer.self_ns["after"] == 0 and tracer.calls["after"] == 1


def _bindings(program):
    campaigns = program.campaigns
    return (
        {(m.__name__, attr): value for m in package_modules(program)
         for attr, value in vars(m).items()},
        dict(campaigns._SAMPLERS),
        program.linalg.RngStream.__init__,
        program.bipartite.MixedUnitaryChannel.__post_init__,
    )


def test_wrappers_are_removed_after_a_traced_run(program, tmp_path):
    before = _bindings(program)
    spec = JobSpec("C3", 2, 2, 3, 5)
    tracer = Tracer()
    with tracer:
        instrument(tracer, program)
        assert program.eigh is not before[0][("entropygap", "eigh")]
        traced = harness.run_job(program, spec, tmp_path / "traced.json")
    assert tracer.calls["campaigns.run_campaign"] == 1
    assert tracer.calls["linalg.RngStream"] >= spec.samples
    after = _bindings(program)
    assert after[0] == before[0]
    assert after[1:] == before[1:]
    assert not any(hasattr(value, "traced_span") for value in after[0].values())

    calls = Counter(tracer.calls)
    plain = harness.run_job(program, spec, tmp_path / "plain.json")
    assert tracer.calls == calls  # the originals ran
    assert plain.margins == traced.margins and plain.round_trip and traced.round_trip


def test_gate_flags_violations_failures_and_round_trips():
    good = harness.Job(JobSpec("C1", 2, 2, 4, 1), round_trip=True)
    assert run.check([good]) == []
    exploratory = harness.Job(JobSpec("C9", 2, 2, 4, 1), violations=2, round_trip=True)
    assert run.check([exploratory]) == []
    bad = [
        harness.Job(JobSpec("C2", 2, 2, 4, 1), violations=1, round_trip=True),
        harness.Job(JobSpec("C3", 2, 2, 4, 1), round_trip=False),
        harness.Job(JobSpec("C4", 2, 2, 4, 1), error_types=Counter(NumericError=1),
                    round_trip=True),
        harness.Job(JobSpec("C5", 2, 2, 4, 1), failure="OSError: disk full"),
    ]
    assert len(run.check(bad)) == 4
    assert [job.failed_samples for job in bad] == [0, 0, 1, 4]


def test_metric_names_and_units_match_the_benchmark_file():
    declared = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert end_to_end == dict(run.END_TO_END)
    assert per_layer == run.per_layer_units()
    names = list(end_to_end) + list(per_layer) + [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for workload in declared["workloads"]:
        assert set(run.SHARED_CAMPAIGNS) <= set(WORKLOADS[workload["name"]].campaigns)


@pytest.mark.parametrize("trace", [0, 1])
def test_a_short_run_prints_the_declared_metrics(program, capsys, trace):
    argv = ["--workload", "sweep-2x2", "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    expected = run.per_layer_units() if trace else dict(run.END_TO_END)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_fails_without_the_program(tmp_path):
    shutil.copytree(harness.ROOT / "campaign_bench", tmp_path / "campaign_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "campaign_bench/run.py", "--workload", "sweep-2x2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
