"""Self-tests of the benchmark.  Run from the root of the checkout:

    python3 -m pytest perfbench -q

The traced tests run su(2) sphere verifies, a few seconds each.
"""

from __future__ import annotations

import json
import statistics
import types

import probe
import pytest
import run

SU2 = run.Verify("su2_sphere", 7)


@pytest.fixture(scope="module", autouse=True)
def work_dir():
    run.WORK.mkdir(exist_ok=True)


@pytest.fixture(scope="module")
def traced_twice():
    return [run.run_verify(SU2, run_id=i, traced=True) for i in range(2)]


def test_inputs_follow_the_workload_seed():
    def inputs(workload, seed):
        return [run.generate_unit(workload, seed, index) for index in range(4)]

    for workload in run.WORKLOADS:
        assert inputs(workload, 3) == inputs(workload, 3)
        assert inputs(workload, 3) != inputs(workload, 4)
        assert len({verify.seed for unit in inputs(workload, 3) for verify in unit}) == 4


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.end_to_end_metrics()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_operation_counts_repeat_exactly(traced_twice):
    first, second = traced_twice
    assert not run.Gate().check(first)
    assert first.stdout == second.stdout
    counts = [o.sidecar["trace"]["counts"] for o in traced_twice]
    assert counts[0] == counts[1]
    assert counts[0]["kernels.svd.calls"] > 0 and counts[0]["kernels.expm.calls"] > 0
    calls = [run.span_totals(o.sidecar["trace"])[0] for o in traced_twice]
    assert calls[0] == calls[1]
    assert not first.sidecar["trace"]["absent"]


def test_stage_spans_agree_with_report_timing(traced_twice):
    untraced = [run.run_verify(SU2, run_id=0, traced=False).wall_s for _ in range(3)]
    traced = [o.wall_s for o in traced_twice] + [run.run_verify(SU2, run_id=2, traced=True).wall_s]
    overhead_ms = (statistics.median(traced) - statistics.median(untraced)) * 1e3
    # Host noise can push a three-sample estimate below zero; the gap it bounds is microseconds
    # per row, so a 1 ms floor still leaves the check two orders of magnitude to spare.
    allowed_ms = max(overhead_ms, 1.0)
    trace = traced_twice[0].sidecar["trace"]
    spans = run.unit_layers([traced_twice[0]])
    for stage in run.STAGES:
        timed = trace["report_timing"][stage]
        summed = spans[f"workbench.stage.{stage}.ms"]
        # The report times each row around the wrapped check function, so it holds the span.
        assert 0.0 <= timed - summed <= allowed_ms, (stage, timed, summed, overhead_ms)


def test_setup_probe_stops_after_prepare_context():
    outcome = run.run_verify(SU2, run_id=0, traced=False, setup_only=True)
    assert run.Gate().check(outcome) == []
    assert outcome.stdout == b""
    assert 0.0 < outcome.setup_s <= outcome.wall_s


def test_gate_flags_every_kind_of_failure():
    def outcome(stdout: bytes, exit_code: int = 0) -> run.Outcome:
        return run.Outcome(verify=SU2, run_id=0, traced=False, exit_code=exit_code, wall_s=1.0,
                           setup_s=0.5, peak_rss_mb=60.0, stdout=stdout, stderr=b"", sidecar={})

    rows = [{"name": "a", "pass": True}, {"name": "b", "pass": True}]
    good = json.dumps({"verdict": "pass", "checks": rows, "negative_controls": []}).encode()
    gate = run.Gate()
    first = outcome(good)
    assert gate.check(first) == []
    assert gate.check(outcome(good), repeat_of=first) == []
    assert gate.check(outcome(good + b" "), repeat_of=first)
    assert gate.check(outcome(good, exit_code=1))
    assert gate.check(outcome(json.dumps({"verdict": "fail", "checks": rows}).encode()))
    failing = [{"name": "a", "pass": True}, {"name": "b", "pass": False}]
    assert gate.check(outcome(json.dumps({"verdict": "pass", "checks": failing}).encode()))
    assert gate.check(outcome(json.dumps({"verdict": "pass", "checks": rows[:1]}).encode()))
    assert gate.check(outcome(b"not json"))
    setup = outcome(b"")
    setup.setup_only = True
    assert gate.check(setup) == []
    setup.stdout = good
    assert gate.check(setup)
    setup.stdout, setup.setup_s = b"", None
    assert gate.check(setup)


def test_gated_times_are_host_normalised():
    assert run.host_ref_s() > 0.0

    def metrics(references):
        workload_run = run.WorkloadRun("reduce_su4", 0, traced=False, host_ref_s=references)
        workload_run.outcomes = [run.Outcome(verify=SU2, run_id=0, traced=False, exit_code=0, wall_s=2.0,
                                             setup_s=0.5, peak_rss_mb=60.0, stdout=b"", stderr=b"",
                                             sidecar={})]
        return run.end_to_end(workload_run)

    slow, fast = metrics([1.2, 1.2, 1.5]), metrics([0.6, 0.6, 0.75])
    assert slow["verify_s"] == pytest.approx(2.0 * run.REF_S / 1.2)
    assert slow["setup_s"] == pytest.approx(0.5 * run.REF_S / 1.2)
    assert fast["verify_s"] == pytest.approx(2.0 * slow["verify_s"])
    assert fast["peak_rss_mb"] == slow["peak_rss_mb"] == 60.0


def test_missing_names_are_reported_absent():
    tracer = probe.Tracer()
    module = types.ModuleType("orbitpencil_stub")
    module.present = lambda: 1
    assert not probe._replace(tracer, module, "chart_pushforward", lambda fn: fn)
    assert not probe._replace(tracer, module, "Chart.pushforward", lambda fn: fn)
    assert probe._replace(tracer, module, "present", lambda fn: tracer.count("present.calls", fn))
    assert module.present() == 1
    assert tracer.absent == ["orbitpencil_stub.chart_pushforward", "orbitpencil_stub.Chart.pushforward"]
    assert tracer.counts == {"present.calls": 1}


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) == (None, 0.0)
    value, pct = run.tail([float(i) for i in range(20)])
    assert value == 9.0 and pct == 50.0
