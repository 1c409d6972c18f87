"""CI gate: deterministic disk chaos against every durable surface.

Arms seeded :class:`~repro.utils.durafs.FsFaultPlan` faults — ENOSPC,
torn writes, a crash before the atomic rename — under the batch
journal, the batch report, and the serve result cache, then fails the
build unless the durability contract holds:

- **batch journal ENOSPC**: the CLI exits 2 with structured context
  (definite operator error, not a DEGRADED limp-on), and ``--resume``
  on a healed disk produces a journal and report byte-identical to an
  uninterrupted run;
- **report crash-before-rename**: the half-written report never
  occupies the report name, and the resume regenerates it
  byte-identically;
- **cache torn write**: a restarted cache reads the entry as a miss,
  never garbage, and the orphan sweep reclaims the debris.

Everything is in-process and seeded — no timing, no real subprocess
kills (``ci_chaos_batch.py`` covers real SIGKILL) — so a failure here
reproduces locally with no flake margin.

Run:  PYTHONPATH=src python benchmarks/ci_chaos_disk.py
"""

import os
import sys
import tempfile

from repro.cli import main as icbe_main
from repro.robustness.journal import JOURNAL_NAME
from repro.robustness.supervisor import REPORT_NAME
from repro.serve.cache import ResultCache
from repro.utils import durafs
from repro.utils.durafs import Filesystem, FsFaultPlan, SimulatedCrash

SEED = 311
FINGERPRINT = {"budget": 1000}

PROGRAM = """
proc classify(v) {
    if (v <= 0) { return 0; }
    return v;
}
proc main() {
    var r = classify(input());
    if (r == 0) { print 0; } else { print r; }
    return 0;
}
"""


def _run_batch_cli(prog, run_dir, resume=False):
    if resume:
        return icbe_main(["batch", prog, "--resume", run_dir])
    return icbe_main(["batch", prog, "--run-dir", run_dir,
                      "--seed", str(SEED), "--backoff", "0"])


def check_batch_journal_enospc(scratch, failures):
    print("== batch journal ENOSPC mid-run, then --resume")
    prog = os.path.join(scratch, "prog.mc")
    with open(prog, "w", encoding="utf-8") as handle:
        handle.write(PROGRAM)
    clean_dir = os.path.join(scratch, "clean")
    if _run_batch_cli(prog, clean_dir) != 0:
        failures.append("uninterrupted batch run failed")
        return
    cut_dir = os.path.join(scratch, "cut")
    durafs.DEFAULT_FS = Filesystem(FsFaultPlan.erroring(
        "batch.journal", op="write", hit=2))   # hit 1 is the meta header
    try:
        code = _run_batch_cli(prog, cut_dir)
    finally:
        durafs.DEFAULT_FS = Filesystem()
    if code != 2:
        failures.append(f"journal ENOSPC exited {code}, expected the "
                        f"definite operator-error exit 2")
    if _run_batch_cli(prog, cut_dir, resume=True) != 0:
        failures.append("--resume after the disk healed failed")
        return
    for name in (JOURNAL_NAME, REPORT_NAME):
        with open(os.path.join(clean_dir, name), "rb") as handle:
            reference = handle.read()
        with open(os.path.join(cut_dir, name), "rb") as handle:
            resumed = handle.read()
        if reference != resumed:
            failures.append(f"resumed {name} diverges from the "
                            f"uninterrupted run")
    print("exit 2 on ENOSPC; resumed journal and report byte-identical")


def check_report_crash_before_rename(scratch, failures):
    print("\n== report crash-before-rename, then --resume")
    prog = os.path.join(scratch, "prog2.mc")
    with open(prog, "w", encoding="utf-8") as handle:
        handle.write(PROGRAM)
    run_dir = os.path.join(scratch, "crashed")
    durafs.DEFAULT_FS = Filesystem(FsFaultPlan.crashing(
        "batch.report", op="rename"))
    try:
        _run_batch_cli(prog, run_dir)
        failures.append("the armed report crash never fired")
        return
    except SimulatedCrash:
        pass
    finally:
        durafs.DEFAULT_FS = Filesystem()
    report_path = os.path.join(run_dir, REPORT_NAME)
    if os.path.exists(report_path):
        failures.append("a crash before the rename still published "
                        "a report")
    if _run_batch_cli(prog, run_dir, resume=True) != 0:
        failures.append("--resume after the report crash failed")
        return
    if not os.path.exists(report_path):
        failures.append("--resume did not regenerate the report")
    debris = [name for name in os.listdir(run_dir) if ".tmp." in name]
    print(f"no torn report published; resume regenerated it "
          f"({len(debris)} temp orphan(s) left for the sweeper)")


def check_cache_torn_write(scratch, failures):
    print("\n== serve cache torn write, restart, orphan sweep")
    run_dir = os.path.join(scratch, "serve")
    sick = ResultCache(run_dir, fingerprint=FINGERPRINT,
                       fs=Filesystem(FsFaultPlan.tearing("serve.cache",
                                                         keep_bytes=11)))
    try:
        sick.put("deadbeef" * 8, {"status": "OK", "tier": 0})
        failures.append("the armed torn cache write never fired")
    except SimulatedCrash:
        pass
    cache_dir = os.path.join(run_dir, "cache")
    debris = [name for name in os.listdir(cache_dir) if ".tmp." in name]
    if not debris:
        failures.append("torn write left no debris to sweep")
    for name in debris:                       # age past the orphan TTL
        os.utime(os.path.join(cache_dir, name), (1, 1))
    fresh = ResultCache(run_dir, fingerprint=FINGERPRINT)
    if fresh.get("deadbeef" * 8) is not None:
        failures.append("a torn cache entry was served instead of missing")
    if fresh.orphans_swept < 1:
        failures.append("the reopened cache did not sweep the torn debris")
    print(f"torn entry read as a miss; {fresh.orphans_swept} orphan(s) "
          f"swept at reopen")


def main():
    failures = []
    with tempfile.TemporaryDirectory(prefix="icbe-ci-disk-") as scratch:
        check_batch_journal_enospc(scratch, failures)
        check_report_crash_before_rename(scratch, failures)
        check_cache_torn_write(scratch, failures)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("\ndisk chaos: every surface recovered; zero wrong answers: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
