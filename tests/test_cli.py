import os

import pytest

from repro.cli import main


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text("""
        proc classify(v) {
            if (v <= 0) { return -1; }
            return (unsigned) v;
        }
        proc main() {
            var r = classify(input());
            if (r == -1) { print 0; } else { print r; }
            return 0;
        }
    """)
    return str(path)


def test_run_prints_output_and_exit(program_file, capsys):
    code = main(["run", program_file, "--input", "5"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == "5"
    assert "status: ok" in captured.err


def test_run_reports_fault_status(tmp_path, capsys):
    path = tmp_path / "bad.mc"
    path.write_text("proc main() { var x = load(0); }")
    assert main(["run", str(path)]) == 1
    assert "fault" in capsys.readouterr().err


def test_dump_text_and_dot(program_file, capsys):
    assert main(["dump", program_file]) == 0
    out = capsys.readouterr().out
    assert "proc main" in out and "call classify" in out
    assert main(["dump", program_file, "--dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_analyze_lists_conditionals(program_file, capsys):
    assert main(["analyze", program_file]) == 0
    out = capsys.readouterr().out
    assert "r == -1" in out
    assert "TRUE" in out and "FALSE" in out


def test_analyze_intra_flag(program_file, capsys):
    assert main(["analyze", program_file, "--intra"]) == 0
    out = capsys.readouterr().out
    assert "UNDEF" in out


def test_optimize_reports_reduction(program_file, capsys):
    assert main(["optimize", program_file, "--input", "3"]) == 0
    out = capsys.readouterr().out
    assert "conditionals optimized:" in out
    assert "identical" in out
    assert "bug" not in out


def test_optimize_emit_dumps_graph(program_file, capsys):
    assert main(["optimize", program_file, "--emit"]) == 0
    assert "proc classify" in capsys.readouterr().out


def test_unknown_experiment_rejected(capsys):
    assert main(["experiment", "nonsense"]) == 2


def test_inline_subcommand(program_file, capsys):
    assert main(["inline", program_file, "--input", "4"]) == 0
    out = capsys.readouterr().out
    assert "inlined 1 call sites" in out
    assert "identical" in out


def test_inline_emit_has_no_calls_left(program_file, capsys):
    assert main(["inline", program_file, "--emit"]) == 0
    out = capsys.readouterr().out
    assert "call classify" not in out


def test_predict_subcommand(program_file, capsys):
    assert main(["predict", program_file]) == 0
    out = capsys.readouterr().out
    assert "predict" in out
    assert "r == -1" in out


def test_analyze_dot_overlay(program_file, capsys):
    assert main(["analyze", program_file, "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "palegreen" in out  # the fully correlated re-check


# -- operator errors: exit code 2, one-line diagnostic, no traceback ------


def test_parse_error_exits_2_with_one_line_diagnostic(tmp_path, capsys):
    path = tmp_path / "broken.mc"
    path.write_text("proc main() {\n  print 1\n}")  # missing ';'
    assert main(["optimize", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("icbe: error: ")
    assert "Traceback" not in captured.err
    # The ParseError's structured .context rides along.
    assert "icbe: context:" in captured.err
    assert "line=3" in captured.err


def test_semantic_error_exits_2_and_names_the_procedure(tmp_path, capsys):
    path = tmp_path / "sema.mc"
    path.write_text("proc main() {\n  ghost = 1;\n}")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("icbe: error: ")
    assert "proc=main" in err
    assert "Traceback" not in err


def test_missing_file_exits_2(capsys):
    assert main(["dump", "/no/such/file.mc"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("icbe: error: ")
    assert "Traceback" not in err


def test_traceback_flag_reraises(tmp_path):
    path = tmp_path / "broken.mc"
    path.write_text("proc main() { print 1 }")
    from repro.errors import ParseError
    with pytest.raises(ParseError):
        main(["--traceback", "analyze", str(path)])


# -- icbe batch -----------------------------------------------------------


def test_batch_runs_jobs_and_writes_journal(program_file, tmp_path, capsys):
    run_dir = tmp_path / "run"
    code = main(["batch", program_file, "--run-dir", str(run_dir),
                 "--seed", "1", "--backoff", "0"])
    captured = capsys.readouterr()
    assert code == 0
    assert "prog.mc: OK" in captured.out
    assert "1 ok, 0 degraded, 0 failed" in captured.out
    assert "journal:" in captured.err
    assert os.path.exists(run_dir / "journal.jsonl")
    assert os.path.exists(run_dir / "report.txt")


def test_batch_resume_skips_completed_jobs(program_file, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["batch", program_file, "--run-dir", str(run_dir),
                 "--seed", "4", "--backoff", "0"]) == 0
    capsys.readouterr()
    assert main(["batch", program_file, "--resume", str(run_dir)]) == 0
    assert "resumed 1 from journal" in capsys.readouterr().out


def test_batch_failed_job_exits_1(program_file, tmp_path, capsys):
    bad = tmp_path / "bad.mc"
    bad.write_text("proc main() { print 1 }")
    code = main(["batch", program_file, str(bad),
                 "--run-dir", str(tmp_path / "run"), "--backoff", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "bad.mc: FAILED" in out
    assert "prog.mc: OK" in out  # the good job still completed


def test_batch_bad_inject_spec_exits_2(program_file, tmp_path, capsys):
    assert main(["batch", program_file, "--run-dir", str(tmp_path / "run"),
                 "--inject", "explode:prog.mc"]) == 2
    assert "icbe: error:" in capsys.readouterr().err


def test_batch_inject_naming_no_job_exits_2(program_file, tmp_path, capsys):
    # The job is named prog.mc: a drill aimed at "prog" would run
    # without its fault.
    run_dir = tmp_path / "run"
    assert main(["batch", program_file, "--run-dir", str(run_dir),
                 "--inject", "crash:prog"]) == 2
    err = capsys.readouterr().err
    assert "icbe: error: injection names no job: prog (jobs: prog.mc)" in err
    assert not run_dir.exists()


def test_batch_resume_without_journal_exits_2(tmp_path, capsys):
    assert main(["batch", "--resume", str(tmp_path / "nothing")]) == 2
    err = capsys.readouterr().err
    assert "no journal to resume" in err
    assert "Traceback" not in err
    # A journal line that parses but is no record is corruption, too:
    # a meta without the batch's options, or a list among the jobs.
    meta = '{"type":"meta","version":2,"seed":0,"jobs":[]'
    for body, offset in ((meta + '}\n', 0),
                         (meta + ',"options":{}}\n[1, 2]\n{"type":"job"}\n',
                          len(meta) + 15)):
        malformed = tmp_path / f"malformed-{offset}"
        malformed.mkdir()
        (malformed / "journal.jsonl").write_text(body)
        assert main(["batch", "--resume", str(malformed)]) == 2
        err = capsys.readouterr().err
        assert f"corrupt journal record at byte {offset} " in err
        assert "Traceback" not in err
