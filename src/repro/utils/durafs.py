"""The durable-I/O layer: every byte this package persists goes here.

Before this module existed, each durable surface — the batch and
serve journals, the serve result cache, the telemetry sidecar,
diagnostics bundles — hand-rolled its own tmp+fsync+rename,
swallowed write-side ``OSError`` in ad-hoc ways, and leaked orphaned
``*.tmp.<pid>`` files whenever a writer crashed between the write and
the rename.  None of those recovery paths could be tested, because the
in-optimizer :class:`~repro.robustness.faults.FaultPlan` only injects
at analysis/transform sites, not at I/O sites.

This module centralizes the discipline and makes it injectable:

- :func:`atomic_write_bytes` / :func:`atomic_write_json` /
  :func:`atomic_write_text` — write to ``<path>.tmp.<pid>``, fsync,
  atomically rename.  ``must=True`` surfaces failures as the original
  errno-carrying ``OSError`` (journal-grade: the caller needs a
  definite error); ``must=False`` is best-effort (cache-grade: the
  entry is simply not persisted) and returns ``False``.
- :class:`AppendFile` — the journal discipline: every append is
  write+flush+fsync before the caller may act on the record.
- :func:`sweep_orphans` — reclaim crashed writers' temp files.  The
  ``.tmp.<pid>`` suffix is *not* trusted as ownership (PIDs are
  recycled, so "is that pid alive?" can hold a fresh process hostage
  for a dead one's garbage); instead any temp file older than
  ``ttl_s`` is fair game — a live writer holds its temp file for
  milliseconds, never an hour.

All of it routes through an injectable :class:`Filesystem` adapter.  A
deterministic :class:`FsFaultPlan` (same idiom as the seeded
:class:`~repro.robustness.faults.FaultPlan`: named sites, exact hit
counts, fires once) arms errno-carrying faults at named I/O sites —
``ENOSPC``/``EIO``/``EROFS`` on open/write/fsync/rename, a torn write
that persists only the first N bytes, a crash before the rename, an
fsync that lies — so tests can simulate a crash at *every* fault point
of every durable surface and prove the recovery invariants: journals
replay byte-identically, caches read "miss, never wrong".

Observability counters (all deterministic given the fault plan):
``fsio.writes``, ``fsio.appends``, ``fsio.write_errors``,
``fsio.orphans_swept``.
"""

from __future__ import annotations

import errno as _errno
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs

#: Age (seconds) past which a ``*.tmp.<pid>`` file is presumed to be a
#: crashed writer's orphan.  Live writers hold their temp file for the
#: duration of one write+fsync — milliseconds — so an hour is safe by
#: five orders of magnitude.
ORPHAN_TTL_S = 3600.0

#: The gated operations a fault can arm on.
FS_OPS = ("open", "write", "fsync", "rename", "remove", "scan", "truncate")

#: The actions :class:`FsFaultSpec` understands.
FS_ACTIONS = ("errno", "torn", "crash", "lying-fsync")


class SimulatedCrash(BaseException):
    """An :class:`FsFaultPlan` ``crash``/``torn`` fault fired.

    Deliberately a ``BaseException`` (not :class:`OSError`, not
    :class:`~repro.errors.ReproError`): no recovery path may swallow
    it, exactly as no ``except`` clause survives a real SIGKILL.  Tests
    catch it at the point where a real crash would have ended the
    process, then assert on what the filesystem was left holding.
    """


@dataclass
class FsFaultSpec:
    """One armed I/O fault: fire on the ``hit``-th ``op`` at ``site``
    (``hit=0`` fires on *every* hit — a persistently failing device).

    Actions:

    - ``errno`` — raise ``OSError(err)`` instead of performing the op.
    - ``torn`` — (write only) persist the first ``keep_bytes`` bytes,
      then crash: the classic half-written record.
    - ``crash`` — crash *before* the op runs (armed on ``rename``,
      this is the crash-before-rename window that orphans temp files).
      Any data a lying fsync pretended to persist is dropped first.
    - ``lying-fsync`` — (fsync only) report success without syncing;
      a later ``crash`` fault rolls the file back to its last honestly
      synced length, modelling a volatile write cache losing power.
    """

    site: str
    op: str = "write"
    hit: int = 1
    action: str = "errno"
    err: int = _errno.ENOSPC
    keep_bytes: int = 0

    def __post_init__(self) -> None:
        if self.op not in FS_OPS:
            raise ValueError(f"unknown fs op {self.op!r}")
        if self.action not in FS_ACTIONS:
            raise ValueError(f"unknown fs fault action {self.action!r}")


@dataclass
class FiredFsFault:
    """Record of an I/O fault that actually fired."""

    site: str
    op: str
    hit: int
    action: str
    detail: str = ""


class FsFaultPlan:
    """A deterministic schedule of I/O faults, keyed by (site, op).

    Same contract as :class:`~repro.robustness.faults.FaultPlan`: every
    gated operation counts a hit for its (site, op) pair, and a spec
    armed for that pair fires on its exact hit count — reproducibly,
    with no randomness and no timing dependence.  ``fired`` records
    what happened, for assertions.
    """

    def __init__(self, specs: Sequence[FsFaultSpec] = ()) -> None:
        self.specs: List[FsFaultSpec] = list(specs)
        self.hits: Dict[Tuple[str, str], int] = {}
        self.fired: List[FiredFsFault] = []

    @classmethod
    def erroring(cls, site: str, op: str = "write", hit: int = 1,
                 err: int = _errno.ENOSPC) -> "FsFaultPlan":
        """A single errno-raising fault (default: disk full on write)."""
        return cls([FsFaultSpec(site, op, hit, "errno", err=err)])

    @classmethod
    def crashing(cls, site: str, op: str = "rename",
                 hit: int = 1) -> "FsFaultPlan":
        """A single crash fault (default: crash-before-rename)."""
        return cls([FsFaultSpec(site, op, hit, "crash")])

    @classmethod
    def tearing(cls, site: str, keep_bytes: int = 0,
                hit: int = 1) -> "FsFaultPlan":
        """A single torn-write-then-crash fault."""
        return cls([FsFaultSpec(site, "write", hit, "torn",
                                keep_bytes=keep_bytes)])

    @classmethod
    def lying(cls, site: str, hit: int = 1) -> "FsFaultPlan":
        """A single fsync-that-lies fault (pair with a later crash)."""
        return cls([FsFaultSpec(site, "fsync", hit, "lying-fsync")])

    def reset(self) -> "FsFaultPlan":
        """Forget hit counts and fired records so the plan can rerun."""
        self.hits.clear()
        self.fired.clear()
        return self

    def match(self, site: str, op: str) -> Optional[FsFaultSpec]:
        """Count a hit of (site, op); return the spec due to fire, if any."""
        key = (site, op)
        count = self.hits.get(key, 0) + 1
        self.hits[key] = count
        for spec in self.specs:
            if spec.site == site and spec.op == op \
                    and spec.hit in (0, count):
                return spec
        return None


class GatedFile:
    """A writable file whose write/fsync/truncate pass the fault gate.

    Tracks ``durable_pos`` — the byte length the file would have after
    a crash: advanced by honest fsyncs, left behind by lying ones.
    Always binary; callers encode.
    """

    def __init__(self, fs: "Filesystem", raw, path: str, site: str) -> None:
        self._fs = fs
        self._raw = raw
        self.path = path
        self.site = site
        self.durable_pos = raw.tell()

    def write(self, data: bytes) -> None:
        self._fs._write(self, data)

    def flush(self) -> None:
        self._raw.flush()

    def fsync(self) -> None:
        self._fs._fsync(self)

    def tell(self) -> int:
        return self._raw.tell()

    def fileno(self) -> int:
        return self._raw.fileno()

    def close(self) -> None:
        if not self._raw.closed:
            self._raw.close()

    @property
    def closed(self) -> bool:
        return self._raw.closed

    def __enter__(self) -> "GatedFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Filesystem:
    """The injectable adapter every durable operation routes through.

    With no plan attached it is a thin veneer over ``os``; with an
    :class:`FsFaultPlan` it deterministically injects errno failures,
    torn writes, crashes, and lying fsyncs at named sites.  One
    instance may gate any number of surfaces — sites keep them apart.
    """

    def __init__(self, plan: Optional[FsFaultPlan] = None) -> None:
        self.plan = plan
        #: path -> durable watermark of files whose fsync lied (bytes
        #: past the watermark are lost when a crash fault fires).
        self._lying: Dict[str, int] = {}

    # -- the gate ----------------------------------------------------------

    def _gate(self, site: str, op: str, path: str) -> Optional[FsFaultSpec]:
        """Consult the plan; raise for errno/crash, hand back the spec
        for actions the calling op must carry out itself."""
        if self.plan is None:
            return None
        spec = self.plan.match(site, op)
        if spec is None:
            return None
        if spec.action == "errno":
            self.plan.fired.append(FiredFsFault(
                site, op, spec.hit, "errno",
                detail=os.strerror(spec.err)))
            raise OSError(spec.err, os.strerror(spec.err), path)
        if spec.action == "crash":
            self._lose_unsynced()
            self.plan.fired.append(FiredFsFault(
                site, op, spec.hit, "crash", detail=path))
            raise SimulatedCrash(
                f"simulated crash at {site}:{op} (hit {spec.hit})")
        return spec

    def _lose_unsynced(self) -> None:
        """A crash drops everything a lying fsync pretended to persist."""
        for path, watermark in sorted(self._lying.items()):
            try:
                with open(path, "r+b") as handle:
                    handle.truncate(watermark)
            except OSError:
                continue
        self._lying.clear()

    # -- gated operations --------------------------------------------------

    def open(self, path: str, mode: str, site: str) -> GatedFile:
        """Open ``path`` for writing (binary ``wb``/``ab``/``r+b``)."""
        self._gate(site, "open", path)
        return GatedFile(self, open(path, mode), path, site)

    def _write(self, handle: GatedFile, data: bytes) -> None:
        spec = self._gate(handle.site, "write", handle.path)
        if spec is not None and spec.action == "torn":
            kept = data[:max(0, spec.keep_bytes)]
            handle._raw.write(kept)
            handle._raw.flush()
            self._lose_unsynced()
            self.plan.fired.append(FiredFsFault(
                handle.site, "write", spec.hit, "torn",
                detail=f"kept {len(kept)}/{len(data)} bytes"))
            raise SimulatedCrash(
                f"simulated torn write at {handle.site} "
                f"(kept {len(kept)}/{len(data)} bytes)")
        handle._raw.write(data)

    def _fsync(self, handle: GatedFile) -> None:
        spec = self._gate(handle.site, "fsync", handle.path)
        if spec is not None and spec.action == "lying-fsync":
            # Report success; remember how much was *actually* durable
            # so a later crash fault can lose the difference.
            self._lying.setdefault(handle.path, handle.durable_pos)
            self.plan.fired.append(FiredFsFault(
                handle.site, "fsync", spec.hit, "lying-fsync",
                detail=f"durable up to byte {handle.durable_pos}"))
            return
        handle._raw.flush()
        os.fsync(handle._raw.fileno())
        handle.durable_pos = handle._raw.tell()
        self._lying.pop(handle.path, None)

    def replace(self, src: str, dst: str, site: str) -> None:
        self._gate(site, "rename", dst)
        os.replace(src, dst)

    def remove(self, path: str, site: str) -> None:
        self._gate(site, "remove", path)
        os.remove(path)

    def listdir(self, path: str, site: str) -> List[str]:
        self._gate(site, "scan", path)
        return os.listdir(path)

    def truncate_file(self, path: str, length: int, site: str) -> None:
        """Truncate + fsync (journal torn-tail repair)."""
        self._gate(site, "truncate", path)
        with open(path, "r+b") as handle:
            handle.truncate(length)
            handle.flush()
            os.fsync(handle.fileno())

    # -- ungated conveniences (read-only / idempotent) ---------------------

    @staticmethod
    def makedirs(path: str) -> None:
        if path:
            os.makedirs(path, exist_ok=True)

    @staticmethod
    def exists(path: str) -> bool:
        return os.path.exists(path)

    @staticmethod
    def stat(path: str) -> os.stat_result:
        return os.stat(path)


#: The process-wide default adapter (no faults).  Resolved lazily by
#: every helper, so tests can monkeypatch it to gate an entire
#: subsystem without threading an instance through constructors.
DEFAULT_FS = Filesystem()


def resolve_fs(fs: Optional[Filesystem]) -> Filesystem:
    """``fs`` if given, else the module default (looked up at call time)."""
    return fs if fs is not None else DEFAULT_FS


# ---------------------------------------------------------------------------
# Atomic whole-file writes.
# ---------------------------------------------------------------------------


def atomic_write_bytes(path: str, data: bytes, *, site: str,
                       fs: Optional[Filesystem] = None,
                       must: bool = False, do_fsync: bool = True) -> bool:
    """Write ``data`` to ``path`` atomically (tmp, fsync, rename).

    ``must=False``: best-effort — an ``OSError`` is counted
    (``fsio.write_errors``), the temp file is cleaned up, and ``False``
    is returned; the target is never half-written.  ``must=True``:
    the cleaned-up ``OSError`` re-raises so the caller can produce a
    definite, errno-carrying operator error.  A :class:`SimulatedCrash`
    always propagates and leaves the debris a real crash would — that
    is the point of it.
    """
    fs = resolve_fs(fs)
    fs.makedirs(os.path.dirname(path))
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with fs.open(tmp_path, "wb", site) as handle:
            handle.write(data)
            handle.flush()
            if do_fsync:
                handle.fsync()
        fs.replace(tmp_path, path, site)
    except OSError:
        obs.add("fsio.write_errors")
        try:                       # raw cleanup: must not re-enter the gate
            os.remove(tmp_path)
        except OSError:
            pass
        if must:
            raise
        return False
    obs.add("fsio.writes")
    return True


def atomic_write_json(path: str, payload, *, site: str,
                      fs: Optional[Filesystem] = None,
                      must: bool = False, do_fsync: bool = True) -> bool:
    """Canonical-JSON :func:`atomic_write_bytes` (sorted keys, compact)."""
    data = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return atomic_write_bytes(path, data, site=site, fs=fs, must=must,
                              do_fsync=do_fsync)


def atomic_write_text(path: str, text: str, *, site: str,
                      fs: Optional[Filesystem] = None,
                      must: bool = False, do_fsync: bool = True) -> bool:
    """UTF-8 text :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode("utf-8"), site=site, fs=fs,
                              must=must, do_fsync=do_fsync)


# ---------------------------------------------------------------------------
# Append-with-fsync (the journal discipline).
# ---------------------------------------------------------------------------


class AppendFile:
    """An append-only handle where every append is made durable.

    ``append`` is write+flush+fsync; it either returns with the record
    durable or raises the original errno-carrying ``OSError`` (counted
    as ``fsio.write_errors``) with nothing to hide — journals need
    definite answers, not best effort.  ``do_fsync=False`` relaxes the
    discipline for advisory sidecars (telemetry) that flush but accept
    loss on power failure.
    """

    def __init__(self, path: str, *, site: str,
                 fs: Optional[Filesystem] = None,
                 fresh: bool = False, do_fsync: bool = True) -> None:
        self.path = path
        self.site = site
        self.do_fsync = do_fsync
        self.fs = resolve_fs(fs)
        self.fs.makedirs(os.path.dirname(path))
        self._handle = self.fs.open(path, "wb" if fresh else "ab", site)

    def append(self, text: str) -> None:
        """Durably append ``text`` (caller includes any newline)."""
        try:
            self._handle.write(text.encode("utf-8"))
            self._handle.flush()
            if self.do_fsync:
                self._handle.fsync()
        except OSError:
            obs.add("fsio.write_errors")
            raise
        obs.add("fsio.appends")

    @property
    def closed(self) -> bool:
        return self._handle.closed

    def close(self) -> None:
        self._handle.close()


# ---------------------------------------------------------------------------
# Orphan reclamation.
# ---------------------------------------------------------------------------


def sweep_orphans(directory: str, *, site: str,
                  fs: Optional[Filesystem] = None,
                  ttl_s: float = ORPHAN_TTL_S,
                  now: Optional[float] = None) -> int:
    """Reclaim crashed writers' debris from ``directory``.

    Removes ``*.tmp.<pid>`` files older than ``ttl_s`` (age-based on
    purpose: PID reuse makes the pid suffix unsafe as ownership — a
    recycled pid would pin a dead writer's garbage forever).  Counted
    as ``fsio.orphans_swept``; returns the number removed.
    """
    fs = resolve_fs(fs)
    try:
        names = fs.listdir(directory, site)
    except OSError:
        return 0
    if now is None:
        now = time.time()
    swept = 0
    for name in sorted(names):
        if ".tmp." not in name:
            continue
        path = os.path.join(directory, name)
        try:
            if now - fs.stat(path).st_mtime < ttl_s:
                continue           # possibly a live writer: leave it
            fs.remove(path, site)
        except OSError:
            continue               # raced another sweeper, or unreadable
        swept += 1
    if swept:
        obs.add("fsio.orphans_swept", swept)
    return swept

