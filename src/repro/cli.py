"""The ``icbe`` command line tool.

Subcommands::

    icbe run <file.mc> [--input N ...]        execute a MiniC program
    icbe dump <file.mc> [--dot]               print the ICFG
    icbe analyze <file.mc> [--intra]          correlation per conditional
    icbe optimize <file.mc> [options]         run ICBE and report
    icbe predict <file.mc> [--intra]          static prediction hints
    icbe inline <file.mc> [options]           exhaustive pre-pass inlining
    icbe batch <job>... [--jobs N] [--resume DIR]  crash-isolated batch runs
    icbe serve [--port N] [--workers K]       long-lived optimization daemon
    icbe experiment <name>                    run a paper experiment

Every subcommand accepts ``suite:<name>[@scale]`` benchmark references
wherever it accepts a ``.mc`` file, and the top-level ``--trace
FILE.jsonl`` / ``--profile`` flags run it under an observability
session: ``--trace`` writes the hierarchical span tree plus the metrics
snapshot as JSONL (convert with ``python -m repro.obs.export``),
``--profile`` prints a pstats-style per-span aggregate to stderr.  See
docs/OBSERVABILITY.md.

Frontend, semantic, and IO errors exit with code 2 and a one-line
diagnostic on stderr — never a traceback (``--traceback`` re-enables
the stack for debugging).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import AnalysisConfig, analyze_branch
from repro.analysis.cost import duplication_upper_bound
from repro.interp import Workload, run_icfg
from repro.ir import dump_icfg, verify_icfg
from repro.ir.printer import to_dot
from repro.transform import ICBEOptimizer, OptimizerOptions


def _load(source: str):
    """Load a job source: a ``.mc`` path or ``suite:<name>[@scale]``."""
    from repro.robustness.worker import load_job_icfg
    icfg, _ = load_job_icfg(source)
    return icfg


def _config(args: argparse.Namespace) -> AnalysisConfig:
    return AnalysisConfig(interprocedural=not args.intra,
                          budget=args.budget)


def cmd_run(args: argparse.Namespace) -> int:
    """``icbe run``: execute a program over a workload.

    Suite references run their deterministic reference workload when no
    ``--input`` is given; ``.mc`` files default to an empty workload.
    """
    from repro.robustness.worker import load_job_icfg
    icfg, ref_workload = load_job_icfg(args.file)
    workload = (ref_workload if not args.input and ref_workload is not None
                else Workload(args.input))
    result = run_icfg(icfg, workload)
    for value in result.output:
        print(value)
    print(f"-- status: {result.status}  exit: {result.exit_value}  "
          f"conditionals executed: {result.profile.executed_conditionals}  "
          f"operations: {result.profile.executed_operations}",
          file=sys.stderr)
    return 0 if result.status == "ok" else 1


def cmd_dump(args: argparse.Namespace) -> int:
    """``icbe dump``: print the ICFG as text or DOT."""
    icfg = _load(args.file)
    print(to_dot(icfg) if args.dot else dump_icfg(icfg))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """``icbe analyze``: correlation results per conditional."""
    icfg = _load(args.file)
    config = _config(args)
    results = {branch.id: analyze_branch(icfg, branch.id, config)
               for branch in icfg.branch_nodes()}
    if args.dot:
        from repro.ir.printer import correlation_fills
        print(to_dot(icfg, fills=correlation_fills(icfg, results)))
        return 0
    for branch in icfg.branch_nodes():
        result = results[branch.id]
        line = result.describe()
        if result.has_correlation:
            line += f"  [duplication bound {duplication_upper_bound(result)}]"
        print(f"{branch.label():40s} {line}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    """``icbe optimize``: run ICBE and report the effect."""
    icfg = _load(args.file)
    optimizer = ICBEOptimizer(OptimizerOptions(
        config=_config(args), duplication_limit=args.limit,
        strict=args.strict, diff_check=args.diff_check,
        deadline_s=args.deadline, guard_growth_factor=args.guard_growth,
        diagnostics_dir=args.diagnostics))
    report = optimizer.optimize(icfg)
    print(f"conditionals optimized: {report.optimized_count} / "
          f"{report.conditionals_before}")
    print(f"nodes: {report.nodes_before} -> {report.nodes_after} "
          f"({report.growth_percent:+.1f}%)")
    if report.failed_count or report.rolled_back_count:
        print(f"transactions rolled back: {report.failed_count} failed, "
              f"{report.rolled_back_count} differential")
    if args.diff_check:
        clean = not any(b.phase in ("diff-check", "final-diff")
                        for b in report.diagnostics)
        print(f"differential validation: "
              f"{'clean' if clean else 'mismatches rolled back'}")
    if args.input is not None:
        workload = Workload(args.input)
        before = run_icfg(icfg, workload)
        after = run_icfg(report.optimized, workload)
        match = "identical" if after.observable == before.observable \
            else "DIFFERENT (bug!)"
        print(f"executed conditionals: "
              f"{before.profile.executed_conditionals} -> "
              f"{after.profile.executed_conditionals}  (output {match})")
    if args.emit:
        print(dump_icfg(report.optimized))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    """``icbe predict``: static prediction with correlation hints."""
    from repro.analysis.prediction import predict_all
    icfg = _load(args.file)
    predictions = predict_all(icfg, _config(args))
    for branch in icfg.branch_nodes():
        prediction = predictions[branch.id]
        direction = "taken" if prediction.taken else "not-taken"
        confidence = "certain" if prediction.certain else prediction.source
        print(f"{branch.label():40s} predict {direction:9s} [{confidence}]")
    return 0


def cmd_inline(args: argparse.Namespace) -> int:
    """``icbe inline``: exhaustive pre-pass inlining."""
    from repro.transform.inline import inline_exhaustively
    icfg = _load(args.file)
    nodes_before = icfg.node_count()
    working = icfg.clone()
    inlined = inline_exhaustively(working, node_budget=args.node_budget)
    verify_icfg(working)
    print(f"inlined {inlined} call sites; nodes {nodes_before} -> "
          f"{working.node_count()}")
    if args.input is not None:
        workload = Workload(args.input)
        before = run_icfg(icfg, workload)
        after = run_icfg(working, workload)
        match = "identical" if after.observable == before.observable \
            else "DIFFERENT (bug!)"
        print(f"output {match}")
    if args.emit:
        print(dump_icfg(working))
    return 0


def _parse_injections(specs) -> dict:
    """``--inject KIND:JOB[:TIERS]`` options -> {job name: inject dict}."""
    from repro.errors import SupervisorError
    injections = {}
    for text in specs or ():
        parts = text.split(":")
        if len(parts) < 2 or parts[0] not in ("hang", "crash", "oom"):
            raise SupervisorError(
                f"bad --inject spec {text!r} "
                f"(expected hang|crash|oom:JOB[:TIERS])", spec=text)
        tiers = ([int(t) for t in parts[2].split(",")]
                 if len(parts) > 2 else [0])
        injections[parts[1]] = {"kind": parts[0], "tiers": tiers}
    return injections


def _job_options(args: argparse.Namespace) -> dict:
    """The :class:`~repro.robustness.degrade.JobOptions` fields set by
    the flags :func:`build_parser` gives both ``batch`` and ``serve``."""
    return dict(timeout_s=args.timeout, memory_mb=args.memory_mb,
                seed=args.seed, budget=args.budget,
                duplication_limit=args.limit,
                diff_check=not args.no_diff_check,
                breaker_threshold=args.breaker)


def cmd_batch(args: argparse.Namespace) -> int:
    """``icbe batch``: supervised, crash-isolated batch optimization."""
    from repro.robustness.supervisor import (BatchSupervisor,
                                             SupervisorOptions, job_specs)

    specs = job_specs(args.files, _parse_injections(args.inject))
    run_dir = args.resume if args.resume else args.run_dir
    options = SupervisorOptions(jobs=args.jobs, backoff_base_s=args.backoff,
                                **_job_options(args))
    supervisor = BatchSupervisor(specs, run_dir, options=options,
                                 resume=args.resume is not None)
    report = supervisor.run()
    for outcome in report.outcomes:
        print(outcome.describe())
    tiers = report.tier_counts()
    statuses = report.status_counts()
    print("-- tiers: " + "  ".join(f"{k}={v}" for k, v in tiers.items()))
    print(f"-- {statuses['OK']} ok, {statuses['DEGRADED']} degraded, "
          f"{statuses['FAILED']} failed; {report.total_retries} retries, "
          f"{report.total_kills} kills"
          + (f"; resumed {report.resumed_jobs} from journal"
             if report.resumed_jobs else ""))
    for name, entry in sorted(report.job_telemetry().items()):
        print(f"-- telemetry: {name}: {entry['attempts']} attempt(s), "
              f"{entry['wall_s']:.2f}s wall, "
              f"peak rss {entry['peak_rss_kb']} KiB", file=sys.stderr)
    print(f"-- journal: {supervisor.journal.path}  "
          f"wall: {report.wall_s:.2f}s", file=sys.stderr)
    return 1 if report.failed_jobs else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``icbe serve``: the long-lived optimization daemon."""
    from repro.serve.app import run_daemon
    from repro.serve.config import ServeOptions

    options = ServeOptions(
        host=args.host, port=args.port, run_dir=args.run_dir,
        workers=args.workers, max_jobs_per_worker=args.max_jobs_per_worker,
        rss_watermark_kb=args.rss_watermark_kb,
        heartbeat_timeout_s=args.heartbeat_timeout,
        queue_limit=args.queue_limit,
        rate_capacity=args.rate_burst, rate_refill_per_s=args.rate,
        default_deadline_s=args.deadline, drain_grace_s=args.drain_grace,
        **_job_options(args))
    return run_daemon(options)


def cmd_experiment(args: argparse.Namespace) -> int:
    """``icbe experiment``: run one paper experiment."""
    from repro.harness.__main__ import main as harness_main
    return harness_main([args.name])


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    # Observability flags parse both before and after the subcommand
    # (``icbe --trace f optimize x`` and ``icbe optimize x --trace f``).
    # The subcommands' copies default to SUPPRESS: a subparser writes
    # its defaults over the top-level values, so any other default
    # would discard a flag given before the subcommand.
    def obs_flags(p: argparse.ArgumentParser, **default) -> None:
        p.add_argument(
            "--trace", metavar="FILE.jsonl", **default,
            help="run under an observability session and write the span "
                 "tree + metrics snapshot as JSONL (convert to Chrome "
                 "trace-viewer format with python -m repro.obs.export)")
        p.add_argument(
            "--profile", action="store_true", **default,
            help="print a pstats-style per-span aggregate of the "
                 "invocation to stderr")

    obs_parent = argparse.ArgumentParser(add_help=False)
    obs_flags(obs_parent, default=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="icbe",
        description="Interprocedural Conditional Branch Elimination "
                    "(PLDI 1997 reproduction)")
    obs_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[obs_parent], **kwargs)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="MiniC source file")
        p.add_argument("--intra", action="store_true",
                       help="intraprocedural baseline analysis")
        p.add_argument("--budget", type=int, default=1000,
                       help="node-query-pair analysis budget")

    def job_flags(p: argparse.ArgumentParser) -> None:
        """The job knobs ``batch`` and ``serve`` share (read back by
        :func:`_job_options`)."""
        from repro.robustness.degrade import JobOptions
        defaults = JobOptions()
        p.add_argument("--seed", type=int, default=defaults.seed,
                       help="the single seed every randomized component "
                            "(backoff jitter, differential workloads, "
                            "chaos points) derives from")
        p.add_argument("--timeout", type=float, default=defaults.timeout_s,
                       metavar="S",
                       help="per-attempt wall clock; a longer attempt is "
                            "killed and the job descends the ladder")
        p.add_argument("--memory-mb", type=int, default=defaults.memory_mb,
                       metavar="MB", help="per-worker address-space cap "
                                          "(resource.setrlimit)")
        p.add_argument("--budget", type=int, default=defaults.budget,
                       help="node-query-pair analysis budget")
        p.add_argument("--limit", type=int,
                       default=defaults.duplication_limit,
                       help="per-conditional duplication limit")
        p.add_argument("--breaker", type=int,
                       default=defaults.breaker_threshold, metavar="K",
                       help="open a job class's circuit breaker after K "
                            "consecutive hard worker deaths")
        p.add_argument("--no-diff-check", action="store_true",
                       help="skip the optimizer's differential checks "
                            "(per transaction and at the end); each "
                            "job's final program is still diffed "
                            "against its input once")

    run_p = add_parser("run", help="execute a program")
    run_p.add_argument("file")
    run_p.add_argument("--input", type=int, nargs="*", default=[],
                       help="workload values for input()")
    run_p.set_defaults(func=cmd_run)

    dump_p = add_parser("dump", help="print the ICFG")
    dump_p.add_argument("file")
    dump_p.add_argument("--dot", action="store_true",
                        help="Graphviz output")
    dump_p.set_defaults(func=cmd_dump)

    analyze_p = add_parser("analyze", help="correlation per conditional")
    common(analyze_p)
    analyze_p.add_argument("--dot", action="store_true",
                           help="Graphviz output with correlation overlay")
    analyze_p.set_defaults(func=cmd_analyze)

    optimize_p = add_parser("optimize", help="run the ICBE optimizer")
    common(optimize_p)
    optimize_p.add_argument("--limit", type=int, default=None,
                            help="per-conditional duplication limit")
    optimize_p.add_argument("--input", type=int, nargs="*", default=None,
                            help="workload to measure dynamic reduction")
    optimize_p.add_argument("--emit", action="store_true",
                            help="dump the optimized ICFG")
    optimize_p.add_argument("--diff-check", action="store_true",
                            help="differentially validate every accepted "
                                 "transform against the original program")
    optimize_p.add_argument("--strict", action="store_true",
                            help="re-raise the first transactional failure "
                                 "instead of rolling back")
    optimize_p.add_argument("--deadline", type=float, default=None,
                            help="per-conditional wall-clock deadline "
                                 "in seconds")
    optimize_p.add_argument("--guard-growth", type=float, default=None,
                            help="abort one conditional when its working "
                                 "graph exceeds this multiple of its size")
    optimize_p.add_argument("--diagnostics", default=None, metavar="DIR",
                            help="write a diagnostics bundle per rolled-back "
                                 "transform into DIR")
    optimize_p.set_defaults(func=cmd_optimize)

    predict_p = add_parser(
        "predict", help="correlation-assisted static branch prediction")
    common(predict_p)
    predict_p.set_defaults(func=cmd_predict)

    inline_p = add_parser(
        "inline", help="exhaustively inline non-recursive call sites")
    inline_p.add_argument("file")
    inline_p.add_argument("--node-budget", type=int, default=100_000,
                          help="stop when the graph exceeds this many nodes")
    inline_p.add_argument("--input", type=int, nargs="*", default=None,
                          help="workload to verify behaviour is unchanged")
    inline_p.add_argument("--emit", action="store_true",
                          help="dump the inlined ICFG")
    inline_p.set_defaults(func=cmd_inline)

    batch_p = add_parser(
        "batch", help="optimize many programs under the crash-isolated "
                      "batch supervisor (checkpoint/resume, degradation "
                      "ladder; see docs/ROBUSTNESS.md)")
    batch_p.add_argument("files", nargs="*", metavar="JOB",
                         help="MiniC files, or suite:<name>[@scale] "
                              "benchmark references; may be empty with "
                              "--resume (jobs come from the journal)")
    batch_p.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="parallel worker subprocesses")
    batch_p.add_argument("--resume", default=None, metavar="DIR",
                         help="resume an interrupted run from DIR's "
                              "journal, skipping completed jobs")
    batch_p.add_argument("--run-dir", default="icbe-batch", metavar="DIR",
                         help="directory for the journal and report "
                              "(default: ./icbe-batch)")
    job_flags(batch_p)
    batch_p.add_argument("--backoff", type=float, default=0.05, metavar="S",
                         help="base retry backoff (grows exponentially, "
                              "seeded jitter)")
    batch_p.add_argument("--inject", action="append", metavar="SPEC",
                         help="chaos drill: hang|crash|oom:JOB[:TIERS] "
                              "(repeatable; deterministic given --seed)")
    batch_p.set_defaults(func=cmd_batch)

    serve_p = add_parser(
        "serve", help="run the long-lived optimization service "
                      "(HTTP/JSON API, resident worker pool, admission "
                      "control, graceful drain; see docs/SERVING.md)")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="listen address (default: 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8420,
                         help="listen port; 0 binds an ephemeral port, "
                              "published in <run-dir>/serve.json")
    serve_p.add_argument("--workers", type=int, default=2, metavar="K",
                         help="resident optimization workers")
    serve_p.add_argument("--run-dir", default="icbe-serve", metavar="DIR",
                         help="journal, result cache, program spool, and "
                              "discovery file (default: ./icbe-serve); "
                              "restarting here recovers journaled jobs")
    serve_p.add_argument("--queue-limit", type=int, default=64,
                         help="refuse submissions beyond this queue depth "
                              "(HTTP 429 + Retry-After)")
    serve_p.add_argument("--rate", type=float, default=10.0, metavar="R",
                         help="sustained per-client submissions/second")
    serve_p.add_argument("--rate-burst", type=float, default=30.0,
                         metavar="B", help="per-client burst capacity")
    serve_p.add_argument("--deadline", type=float, default=300.0,
                         metavar="S", help="default per-request deadline "
                         "(queue wait + all attempts)")
    serve_p.add_argument("--drain-grace", type=float, default=10.0,
                         metavar="S", help="how long in-flight attempts "
                         "may finish after SIGTERM before checkpointing")
    serve_p.add_argument("--max-jobs-per-worker", type=int, default=64,
                         help="recycle a worker after this many jobs")
    serve_p.add_argument("--rss-watermark-kb", type=int, default=1_048_576,
                         help="recycle a worker whose peak RSS crossed "
                              "this watermark (KiB)")
    serve_p.add_argument("--heartbeat-timeout", type=float, default=10.0,
                         metavar="S", help="kill + respawn a worker "
                         "silent for this long")
    job_flags(serve_p)
    serve_p.set_defaults(func=cmd_serve)

    exp_p = add_parser("experiment", help="run a paper experiment")
    exp_p.add_argument("name",
                       help="table1|table2|fig9|fig10|fig11|headline|all")
    exp_p.set_defaults(func=cmd_experiment)

    parser.add_argument("--traceback", action="store_true",
                        help="debugging: re-raise errors instead of the "
                             "one-line exit-code-2 diagnostic")
    return parser


def _invoke(args: argparse.Namespace) -> int:
    """Dispatch one parsed invocation, honouring ``--trace``/``--profile``.

    With either flag the whole subcommand runs under an observability
    session rooted at a ``cli.<command>`` span; the trace file and the
    profile table are emitted even when the command fails, so a slow or
    crashing run still leaves its evidence behind.
    """
    if not args.trace and not args.profile:
        return args.func(args)
    from repro import obs
    with obs.session() as active:
        try:
            with obs.span(f"cli.{args.command}"):
                return args.func(args)
        finally:
            if args.trace:
                active.write_jsonl(args.trace,
                                   meta={"command": args.command})
                print(f"-- trace: {args.trace} "
                      f"({len(active.export_spans())} spans)",
                      file=sys.stderr)
            if args.profile:
                print(active.render_profile(), file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``icbe`` executable.

    Operator errors — bad source programs, missing files, unusable run
    directories — exit with code 2 and a single diagnostic line on
    stderr (plus the exception's structured context, if any), never a
    traceback.  Internal bugs still raise so they stay loud.
    """
    from repro.errors import ReproError, SupervisorDrained, error_context

    args = build_parser().parse_args(argv)
    try:
        return _invoke(args)
    except SupervisorDrained as drained:
        # A graceful signal-initiated drain is not an operator error:
        # exit with the conventional 128+signum so process managers see
        # a clean signal exit (130 for SIGINT, 143 for SIGTERM).
        print(f"icbe: {drained}", file=sys.stderr)
        return drained.exit_code
    except (ReproError, OSError) as failure:
        if getattr(args, "traceback", False):
            raise
        print(f"icbe: error: {failure}", file=sys.stderr)
        context = error_context(failure)
        if context:
            detail = ", ".join(f"{k}={v}" for k, v in sorted(context.items()))
            print(f"icbe: context: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
