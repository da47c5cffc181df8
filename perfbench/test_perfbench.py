"""Tests of the benchmark itself.  Run with `python3 -m pytest perfbench` (about a minute)."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _kinds(text: str) -> list:
    """Cogenerator lines with the name dropped, in sorted order."""
    return sorted(
        (line.split()[0], *line.split()[2:]) for line in text.splitlines()[1:]
    )


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """Two traced replays of every workload, on one seed."""
    out = {}
    for workload in workloads.WORKLOADS:
        runs = []
        for attempt in range(2):
            invs = workloads.make_invocations(
                workload, 7, tmp_path_factory.mktemp(f"{workload}-{attempt}")
            )
            runs.append((invs, *run.traced_replay(invs, run.Deadline(170))))
        out[workload] = runs
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(traces, workload):
    (invs, a, summaries_a, failures_a), (_, b, summaries_b, failures_b) = traces[workload]
    assert failures_a == failures_b == []
    assert a.counts and a.counts == b.counts
    assert summaries_a == summaries_b
    for inv, summary in zip(invs, summaries_a):
        assert workloads.check_summary(workload, inv, summary) == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_spans_cover_each_invocation(traces, workload):
    _, tr, _, _ = traces[workload][0]
    own = tr.self_times()
    roots = [(i, s) for i, s in enumerate(tr.spans) if s.parent < 0]
    assert len(roots) == len(traces[workload][0][0])
    for i, span in roots:
        assert own[i] <= 0.10 * (span.end - span.start), span.name


def test_every_per_layer_metric_is_produced(traces):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    produced = set()
    for runs in traces.values():
        _, tr, _, _ = runs[0]
        produced |= set(run.layer_metrics(tr, untraced_wall=100.0, setup=0.1, n_invocations=1))
    assert {m["name"] for m in spec["per_layer"]} <= produced


def test_wrong_golden_dim_counts_as_a_failure(monkeypatch, capsys):
    golden = copy.deepcopy(workloads.GOLDEN)
    golden["workloads"]["structure"]["hz"]["dims"][0][2] += 1
    monkeypatch.setattr(workloads, "GOLDEN", golden)
    code = run.main(["--workload", "structure", "--seed", "3", "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == len(golden["workloads"]["structure"])   # one pass, no probes


def test_seed_renames_and_shuffles_without_changing_dimensions(tmp_path):
    one = workloads.make_invocations("structure", 1, tmp_path / "one")
    again = workloads.make_invocations("structure", 1, tmp_path / "again")
    two = workloads.make_invocations("structure", 2, tmp_path / "two")
    for a, b, c in zip(one, again, two):
        assert a.text == b.text
        if a.text is not None:
            assert a.text != c.text
            assert _kinds(a.text) == _kinds(c.text)


def test_closed_forms_match_golden_tables(tmp_path):
    for workload in ("lambda35-f3", "structure"):
        for inv in workloads.make_invocations(workload, 0, tmp_path / workload):
            if inv.closed_form is not None:
                assert workloads.GOLDEN["workloads"][workload][inv.label]["dims"] == inv.closed_form


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kw2-f3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_times_are_scaled_by_the_samples_near_each_process():
    host = run.HostSpeed()
    nominal = run.REFERENCE_NOMINAL_S
    host.samples = [(0.0, 2 * nominal), (1.0, nominal), (50.0, 4 * nominal)]
    assert host.factor(0.2, 0.8) == pytest.approx(2 / 3)
    assert host.factor(49.9, 50.0) == pytest.approx(1 / 4)
    assert host.factor(20.0, 21.0) == pytest.approx(1.0)   # none near: the nearest one
    process = run.Spawned(code=0, start=0.2, wall=0.6, cpu=0.3, maxrss_kb=1,
                          timed_out=False, stdout="")
    assert host.scaled([process, process]) == pytest.approx((0.8, 0.4))


def test_sampler_runs_while_open_and_stops_on_close():
    with run.HostSpeed() as host:
        time.sleep(5 * run.SAMPLE_PERIOD_S)
    count = len(host.samples)
    time.sleep(2 * run.SAMPLE_PERIOD_S)
    assert count >= 2
    assert len(host.samples) == count
