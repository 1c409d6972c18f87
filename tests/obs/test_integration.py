"""End-to-end observability: CLI --trace, supervisor adoption, sidecar."""

import json
import os

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.obs.export import read_jsonl


def test_cli_trace_covers_the_whole_optimizer_span_tree(tmp_path):
    """The acceptance criterion: ``icbe ... --trace out.jsonl`` on
    li_like yields valid JSONL whose span tree covers
    parse -> lower -> analysis -> restructure -> verify."""
    trace = str(tmp_path / "out.jsonl")
    assert cli_main(["optimize", "suite:li_like@1", "--trace", trace]) == 0
    data = read_jsonl(trace)
    names = {record["name"] for record in data["spans"]}
    assert {"cli.optimize", "frontend.parse", "ir.lower",
            "analysis.correlation", "pass.restructure",
            "ir.verify"} <= names
    # Well-formed tree: every parent id exists, the root is cli.optimize.
    ids = {record["id"] for record in data["spans"]}
    roots = [r for r in data["spans"] if r["parent"] == 0]
    assert [r["name"] for r in roots] == ["cli.optimize"]
    assert all(r["parent"] in ids for r in data["spans"]
               if r["parent"] != 0)
    assert data["metrics"]["counters"]["optimize.runs"] == 1


def test_cli_run_traces_and_uses_suite_reference_workload(tmp_path):
    trace = str(tmp_path / "run.jsonl")
    assert cli_main(["run", "suite:li_like@1", "--trace", trace]) == 0
    names = {record["name"] for record in read_jsonl(trace)["spans"]}
    assert {"cli.run", "frontend.parse", "ir.lower", "ir.verify",
            "interp.run"} <= names


def test_trace_file_written_even_when_the_command_fails(tmp_path):
    trace = str(tmp_path / "fail.jsonl")
    missing = str(tmp_path / "nope.mc")
    assert cli_main(["optimize", missing, "--trace", trace]) == 2
    data = read_jsonl(trace)
    assert data["meta"]["command"] == "optimize"


@pytest.mark.parametrize("command, args, span", [
    ("optimize", ["suite:li_like@1"], "pass.restructure"),
    ("run", ["suite:li_like@1"], "interp.run"),
    ("batch", ["suite:compress_like@1", "--run-dir", "{tmp}/run",
               "--seed", "3"], "batch.run"),
], ids=["optimize", "run", "batch"])
def test_trace_given_before_the_subcommand(tmp_path, command, args, span):
    trace = str(tmp_path / "before.jsonl")
    args = [arg.format(tmp=tmp_path) for arg in args]
    assert cli_main(["--trace", trace, command] + args) == 0
    data = read_jsonl(trace)
    assert data["meta"]["command"] == command
    names = {record["name"] for record in data["spans"]}
    assert {f"cli.{command}", span} <= names


def test_profile_given_before_the_subcommand(capsys):
    assert cli_main(["--profile", "optimize", "suite:li_like@1"]) == 0
    assert "pass.restructure" in capsys.readouterr().err


#: The EXPERIMENTS.md supervisor drill's strict fault job: it fails at
#: full and intra and lands on parse-through, three attempts in all.
DRILL_FAULTED = dict(source="suite:go_like@1", name="drill-faulted",
                     faults=({"site": "transform:split", "hit": 1,
                              "action": "raise"},), strict=True)


def _batch(run_dir, trace=False, faulted=False):
    from repro.robustness.supervisor import (BatchSupervisor, JobSpec,
                                             SupervisorOptions)

    specs = [JobSpec("suite:compress_like@1")]
    if faulted:
        specs.append(JobSpec(**DRILL_FAULTED))
    supervisor = BatchSupervisor(
        specs, run_dir, options=SupervisorOptions(
            jobs=2, timeout_s=60, seed=3, backoff_base_s=0.0))
    if not trace:
        return supervisor.run(), None
    with obs.session() as active:
        report = supervisor.run()
    return report, active


def test_supervisor_adopts_worker_spans_and_keeps_journal_bytes(tmp_path):
    plain_dir = str(tmp_path / "plain")
    traced_dir = str(tmp_path / "traced")
    _batch(plain_dir, faulted=True)
    report, active = _batch(traced_dir, trace=True, faulted=True)

    # Tracing must not perturb the journal or report bytes.
    for name in ("journal.jsonl", "report.txt"):
        plain = open(os.path.join(plain_dir, name), "rb").read()
        traced = open(os.path.join(traced_dir, name), "rb").read()
        assert plain == traced, name

    # Worker spans crossed the subprocess boundary and re-parented.
    spans = active.export_spans()
    by_id = {record["id"]: record for record in spans}
    adopted = [record for record in spans
               if (record.get("attrs") or {}).get("origin")]
    assert adopted, "expected spans adopted from the worker"
    for record in adopted:
        parent = record["parent"]
        assert parent in by_id
        chain = set()
        while parent:
            chain.add(by_id[parent]["name"])
            parent = by_id[parent]["parent"]
        assert "batch.attempt" in chain
    assert {"batch.run", "batch.attempt", "worker.attempt",
            "optimize"} <= {record["name"] for record in spans}

    # One retroactive batch.attempt span per attempt, each adopting the
    # worker.attempt root of its own worker.
    faulted = report.outcomes[1]
    assert (faulted.status, len(faulted.attempts)) == ("DEGRADED", 3)
    attempts = [record for record in spans
                if record["name"] == "batch.attempt"]
    assert sorted((record["attrs"]["job"], record["attrs"]["tier"])
                  for record in attempts) == [
        ("compress_like", 0), ("drill-faulted", 0), ("drill-faulted", 1),
        ("drill-faulted", 2)]
    for attempt in attempts:
        children = [record["name"] for record in spans
                    if record["parent"] == attempt["id"]]
        assert children == ["worker.attempt"], attempt

    # Worker metrics merged into the supervisor's registry, and one
    # batch.attempts count per journaled attempt.
    counters = active.metrics.snapshot()["counters"]
    assert counters.get("optimize.runs", 0) >= 1
    journaled = [json.loads(line) for line in
                 open(os.path.join(traced_dir, "journal.jsonl"), "rb")]
    assert counters.get("batch.attempts") == sum(
        len(record["outcome"]["attempts"]) for record in journaled
        if record["type"] == "job") == 4


def test_telemetry_sidecar_and_rollup(tmp_path):
    run_dir = str(tmp_path / "run")
    report, _ = _batch(run_dir)
    sidecar = os.path.join(run_dir, "telemetry.jsonl")
    records = [json.loads(line) for line in open(sidecar, encoding="utf-8")]
    assert len(records) == 1
    record = records[0]
    assert record["job"] == "compress_like"
    assert record["result"] == "ok"
    assert record["wall_s"] > 0
    assert record["peak_rss_kb"] > 0
    rollup = report.job_telemetry()
    assert rollup["compress_like"]["attempts"] == 1
    assert rollup["compress_like"]["peak_rss_kb"] == record["peak_rss_kb"]
    # The report and the sidecar hold the telemetry; the journal never.
    assert report.telemetry == records
    assert "wall_s" not in report.outcomes[0].attempts[0].to_json()
