"""The durable-I/O layer: atomic writes, journal appends, fault gates."""

import errno
import json
import os

import pytest

from repro import obs
from repro.utils import durafs
from repro.utils.durafs import (AppendFile, Filesystem, FsFaultPlan,
                                FsFaultSpec, SimulatedCrash,
                                atomic_write_bytes, atomic_write_json,
                                atomic_write_text, sweep_orphans)

SITE = "test.site"


def _no_debris(directory):
    """No temp files survive outside a crash."""
    return [name for name in os.listdir(directory)
            if ".tmp." in name] == []


# ---------------------------------------------------------------------------
# Happy paths.
# ---------------------------------------------------------------------------


def test_atomic_write_roundtrip(tmp_path):
    path = str(tmp_path / "sub" / "entry.json")   # parent dir auto-created
    assert atomic_write_json(path, {"b": 2, "a": 1}, site=SITE)
    with open(path, encoding="utf-8") as handle:
        assert json.load(handle) == {"a": 1, "b": 2}
    # Canonical bytes: sorted keys, compact separators.
    assert open(path, "rb").read() == b'{"a":1,"b":2}'
    assert _no_debris(str(tmp_path / "sub"))


def test_atomic_write_overwrites_atomically(tmp_path):
    path = str(tmp_path / "entry.txt")
    assert atomic_write_text(path, "first", site=SITE)
    assert atomic_write_text(path, "second", site=SITE)
    assert open(path, encoding="utf-8").read() == "second"
    assert _no_debris(str(tmp_path))


def test_append_file_accumulates_and_survives_reopen(tmp_path):
    path = str(tmp_path / "log.jsonl")
    handle = AppendFile(path, site=SITE, fresh=True)
    handle.append("one\n")
    handle.append("two\n")
    handle.close()
    assert handle.closed
    reopened = AppendFile(path, site=SITE)        # append mode
    reopened.append("three\n")
    reopened.close()
    assert open(path, encoding="utf-8").read() == "one\ntwo\nthree\n"
    fresh = AppendFile(path, site=SITE, fresh=True)   # truncates
    fresh.close()
    assert open(path, encoding="utf-8").read() == ""


def test_obs_counters_track_writes_and_appends(tmp_path):
    with obs.session() as active:
        atomic_write_text(str(tmp_path / "a"), "x", site=SITE)
        handle = AppendFile(str(tmp_path / "log"), site=SITE, fresh=True)
        handle.append("y\n")
        handle.close()
        counters = active.metrics.snapshot()["counters"]
    assert counters["fsio.writes"] == 1
    assert counters["fsio.appends"] == 1
    assert "fsio.write_errors" not in counters


# ---------------------------------------------------------------------------
# The fault plan.
# ---------------------------------------------------------------------------


def test_fault_spec_validates_op_and_action():
    with pytest.raises(ValueError):
        FsFaultSpec(SITE, op="chmod")
    with pytest.raises(ValueError):
        FsFaultSpec(SITE, action="explode")


def test_errno_fault_is_best_effort_false_and_cleans_up(tmp_path):
    plan = FsFaultPlan.erroring(SITE, op="write")
    fs = Filesystem(plan)
    path = str(tmp_path / "entry.json")
    with obs.session() as active:
        assert not atomic_write_json(path, {"k": 1}, site=SITE, fs=fs)
        counters = active.metrics.snapshot()["counters"]
    assert counters["fsio.write_errors"] == 1
    assert not os.path.exists(path)
    assert _no_debris(str(tmp_path))              # temp file reclaimed
    assert [f.action for f in plan.fired] == ["errno"]


def test_must_write_reraises_the_original_errno(tmp_path):
    fs = Filesystem(FsFaultPlan.erroring(SITE, op="fsync",
                                         err=errno.EIO))
    path = str(tmp_path / "entry.json")
    with pytest.raises(OSError) as caught:
        atomic_write_json(path, {"k": 1}, site=SITE, fs=fs, must=True)
    assert caught.value.errno == errno.EIO
    assert not os.path.exists(path)
    assert _no_debris(str(tmp_path))


def test_faults_key_on_site_and_op(tmp_path):
    # A write fault at another site never fires here.
    fs = Filesystem(FsFaultPlan.erroring("other.site", op="write"))
    assert atomic_write_text(str(tmp_path / "a"), "x", site=SITE, fs=fs)
    # A rename fault does not trip the write that precedes it.
    fs = Filesystem(FsFaultPlan.erroring(SITE, op="rename"))
    assert not atomic_write_text(str(tmp_path / "b"), "x", site=SITE,
                                 fs=fs)
    assert not os.path.exists(str(tmp_path / "b"))


def test_exact_hit_counts(tmp_path):
    # hit=2: the first write succeeds, the second fails, the third
    # succeeds again (the spec fired and is spent).
    fs = Filesystem(FsFaultPlan([FsFaultSpec(SITE, "write", hit=2)]))
    results = [atomic_write_text(str(tmp_path / f"f{i}"), "x",
                                 site=SITE, fs=fs) for i in range(3)]
    assert results == [True, False, True]


def test_hit_zero_fires_forever(tmp_path):
    # hit=0 models a persistently failing device: every hit fires.
    fs = Filesystem(FsFaultPlan([FsFaultSpec(SITE, "write", hit=0)]))
    results = [atomic_write_text(str(tmp_path / f"f{i}"), "x",
                                 site=SITE, fs=fs) for i in range(4)]
    assert results == [False] * 4
    assert len(fs.plan.fired) == 4


def test_plan_reset_rearms(tmp_path):
    plan = FsFaultPlan.erroring(SITE, op="write")
    fs = Filesystem(plan)
    assert not atomic_write_text(str(tmp_path / "a"), "x", site=SITE,
                                 fs=fs)
    assert atomic_write_text(str(tmp_path / "b"), "x", site=SITE, fs=fs)
    plan.reset()
    assert not atomic_write_text(str(tmp_path / "c"), "x", site=SITE,
                                 fs=fs)


# ---------------------------------------------------------------------------
# Crash faults: SimulatedCrash is unswallowable and leaves real debris.
# ---------------------------------------------------------------------------


def test_crash_before_rename_leaves_orphan_and_no_target(tmp_path):
    fs = Filesystem(FsFaultPlan.crashing(SITE, op="rename"))
    path = str(tmp_path / "entry.json")
    with pytest.raises(SimulatedCrash):
        atomic_write_json(path, {"k": 1}, site=SITE, fs=fs)
    assert not os.path.exists(path)               # target never appeared
    orphans = [name for name in os.listdir(str(tmp_path))
               if ".tmp." in name]
    assert len(orphans) == 1                      # the debris a real
    assert orphans[0].startswith("entry.json.tmp.")   # crash leaves


def test_simulated_crash_is_not_an_oserror():
    # No `except OSError` recovery path may swallow a crash.
    assert not issubclass(SimulatedCrash, Exception)
    assert issubclass(SimulatedCrash, BaseException)


def test_torn_write_persists_prefix_then_crashes(tmp_path):
    path = str(tmp_path / "log.jsonl")
    handle = AppendFile(path, site=SITE,
                        fs=Filesystem(FsFaultPlan.tearing(SITE,
                                                          keep_bytes=3)),
                        fresh=True)
    with pytest.raises(SimulatedCrash):
        handle.append('{"type":"job"}\n')
    assert open(path, "rb").read() == b'{"t'      # the classic torn tail


def test_lying_fsync_loses_bytes_at_the_next_crash(tmp_path):
    path = str(tmp_path / "log.jsonl")
    plan = FsFaultPlan([FsFaultSpec(SITE, "fsync", hit=2,
                                    action="lying-fsync"),
                        FsFaultSpec(SITE, "write", hit=3,
                                    action="crash")])
    handle = AppendFile(path, site=SITE, fs=Filesystem(plan), fresh=True)
    handle.append("durable\n")                    # honest fsync
    handle.append("volatile\n")                   # fsync lies
    with pytest.raises(SimulatedCrash):
        handle.append("never\n")                  # crash: cache lost
    assert open(path, "rb").read() == b"durable\n"


def test_honest_fsync_clears_a_previous_lie(tmp_path):
    path = str(tmp_path / "log.jsonl")
    plan = FsFaultPlan([FsFaultSpec(SITE, "fsync", hit=1,
                                    action="lying-fsync"),
                        FsFaultSpec(SITE, "write", hit=3,
                                    action="crash")])
    handle = AppendFile(path, site=SITE, fs=Filesystem(plan), fresh=True)
    handle.append("one\n")                        # fsync lies...
    handle.append("two\n")                        # ...then syncs honestly
    with pytest.raises(SimulatedCrash):
        handle.append("never\n")
    assert open(path, "rb").read() == b"one\ntwo\n"


# ---------------------------------------------------------------------------
# Orphan sweeping.
# ---------------------------------------------------------------------------


def test_sweep_respects_the_ttl(tmp_path):
    fresh = tmp_path / "entry.json.tmp.12345"
    stale = tmp_path / "old.json.tmp.99"
    for f in (fresh, stale):
        f.write_text("debris")
    now = os.stat(str(stale)).st_mtime + durafs.ORPHAN_TTL_S + 1
    os.utime(str(fresh), (now - 10, now - 10))    # 10s old: a live writer
    swept = sweep_orphans(str(tmp_path), site=SITE, now=now)
    assert swept == 1
    assert fresh.exists() and not stale.exists()


def test_sweep_counts_in_obs(tmp_path):
    stale = 1_000_000.0
    for name in ("a.json.tmp.1", "b.json.tmp.2"):
        (tmp_path / name).write_text("x")
        os.utime(str(tmp_path / name), (stale, stale))
    with obs.session() as active:
        assert sweep_orphans(str(tmp_path), site=SITE,
                             now=stale + durafs.ORPHAN_TTL_S + 1) == 2
        counters = active.metrics.snapshot()["counters"]
    assert counters["fsio.orphans_swept"] == 2


def test_sweep_of_a_missing_directory_is_zero(tmp_path):
    assert sweep_orphans(str(tmp_path / "nope"), site=SITE) == 0

