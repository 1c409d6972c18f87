"""The write-ahead journals of ``icbe batch`` and ``icbe serve``.

:class:`JsonlJournal` is the one journal discipline both hosts share:
one line of canonical JSON per event, appended and **fsynced** before
the host acts on the event — so any interruption, including SIGKILL
between two bytes, loses at most the line being written.  The first
line is a ``meta`` record (schema version plus the host's
configuration); a reopened journal must match it.  Recovery reads the
records back, reports a torn final line (the SIGKILL-mid-write case)
and truncates it before appending resumes.

:class:`Journal` is the batch supervisor's: ``journal.jsonl`` inside
the run directory, holding

- ``meta`` — schema version, batch seed, the ordered *complete* job
  definitions (sources, chaos injections, fault plans — so ``--resume``
  replays exactly the interrupted batch), and the deterministic option
  fingerprint.  A resume refuses a journal whose meta does not match
  the resumed invocation (different jobs or seed would silently mix two
  batches).
- ``job`` — one per *completed* job, in job-index order: the job's
  definite :class:`~repro.robustness.degrade.JobOutcome`.

Determinism contract: every serialized field is a pure function of the
batch definition and seed — no timestamps, pids, hostnames, or
measured durations — and records are flushed in job-index order even
when workers run in parallel.  Hence an interrupted run finished with
``--resume`` produces a journal **byte-identical** to an uninterrupted
run: the completed prefix is already on disk and the replayed suffix
re-derives the same bytes.

The serve daemon's journal (:mod:`repro.serve.journal`) is the other
:class:`JsonlJournal`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Type

from repro import obs
from repro.errors import ReproError, SupervisorError
from repro.robustness.degrade import JobOutcome
from repro.utils import durafs

JOURNAL_NAME = "journal.jsonl"
SCHEMA_VERSION = 2
#: The durafs fault site of every journal write.
SITE = "batch.journal"


def canonical_json(record: dict) -> str:
    """Stable bytes for one record: sorted keys, no whitespace."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@dataclass
class Recovered:
    """What recovery read back from a journal.  Each journal's subclass
    folds its record types into its own view (:meth:`take`)."""

    meta: Optional[dict] = None
    #: Bytes of the valid prefix (the torn tail, if any, is past this).
    valid_bytes: int = 0
    torn_tail: bool = False

    def take(self, record: dict) -> None:
        """Fold one non-meta record into the view.  Raises
        ``KeyError``/``TypeError``/``ValueError`` for a record that is
        not well formed."""
        raise NotImplementedError

    @staticmethod
    def require(record: dict, **types: type) -> None:
        """Raise unless ``record`` has each named field, of its type."""
        for name, kind in types.items():
            if not isinstance(record[name], kind):
                raise TypeError(f"field {name!r} is not a {kind.__name__}")


class JsonlJournal:
    """Append-only, fsynced JSONL journal whose first line is ``meta``.

    Subclasses name the file, its durafs fault site, the schema
    version, the record types that may follow the meta line, the meta
    fields (and their types) a reopen must match, and the host's error
    type.  All writes
    route through :mod:`repro.utils.durafs`.  A write-side failure —
    ENOSPC on the append, EIO on the fsync — voids the write-ahead
    contract, so the append raises the host's error with structured
    errno/path context rather than limping on unjournaled.
    """

    FILE_NAME = ""
    FS_SITE = ""
    SCHEMA = 0
    KINDS: Tuple[str, ...] = ()
    META_FIELDS: Dict[str, type] = {}
    ERROR: Type[ReproError] = ReproError
    #: Opens the message of a refused reopen.
    REFUSAL = ""
    #: What the operator can do after a failed write.
    WRITE_HINT = ""

    def __init__(self, run_dir: str,
                 fs: Optional["durafs.Filesystem"] = None) -> None:
        self.run_dir = run_dir
        self.path = os.path.join(run_dir, self.FILE_NAME)
        self.fs = durafs.resolve_fs(fs)
        self._handle: Optional[durafs.AppendFile] = None

    # -- writing -----------------------------------------------------------

    def open_fresh(self, meta: dict) -> None:
        """Start a new journal, writing the ``meta`` header record."""
        os.makedirs(self.run_dir, exist_ok=True)
        self._handle = durafs.AppendFile(self.path, site=self.FS_SITE,
                                         fs=self.fs, fresh=True)
        self.append({"type": "meta", "version": self.SCHEMA, **meta})

    def open_recovered(self, recovered: Recovered, meta: dict) -> None:
        """Reopen for appending after recovery: refuse a journal written
        under another configuration, then drop any torn tail so the next
        record starts on a clean line boundary."""
        self.check_meta(recovered, meta)
        if recovered.torn_tail:
            self.fs.truncate_file(self.path, recovered.valid_bytes,
                                  self.FS_SITE)
        self._handle = durafs.AppendFile(self.path, site=self.FS_SITE,
                                         fs=self.fs)

    def append(self, record: dict) -> None:
        """Append one record, fsynced before this returns."""
        assert self._handle is not None, "journal is not open"
        try:
            self._handle.append(canonical_json(record) + "\n")
        except OSError as failure:
            raise self.ERROR(
                f"journal write failed: {failure} ({self.WRITE_HINT})",
                errno=int(failure.errno or 0), path=self.path,
                record_type=str(record.get("type"))) from failure
        obs.add("journal.fsyncs")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- recovery ----------------------------------------------------------

    @classmethod
    def check_meta(cls, recovered: Recovered, meta: dict) -> None:
        """Refuse a journal whose meta differs from ``meta`` in any of
        :attr:`META_FIELDS`, or whose schema is not this one."""
        on_disk = recovered.meta or {}
        for key in cls.META_FIELDS:
            if on_disk.get(key) != meta.get(key):
                raise cls.ERROR(
                    f"{cls.REFUSAL}: journal {key} mismatch "
                    f"({on_disk.get(key)!r} on disk vs {meta.get(key)!r} "
                    f"requested)",
                    key=key, on_disk=repr(on_disk.get(key)),
                    requested=repr(meta.get(key)))
        if on_disk.get("version") != cls.SCHEMA:
            raise cls.ERROR(
                f"{cls.REFUSAL}: journal schema v{on_disk.get('version')} "
                f"!= v{cls.SCHEMA}",
                on_disk_version=on_disk.get("version"))

    @classmethod
    def read_into(cls, run_dir: str, recovered: Recovered) -> bool:
        """Fold the journal in ``run_dir`` into ``recovered``; False
        when there is none.

        An undecodable *final* line is reported as a torn tail (the
        expected SIGKILL artifact).  Every other line that is not a
        record — undecodable with data after it, not a JSON object, of
        an unknown type, or missing a field its type needs (a meta
        record needs :attr:`META_FIELDS`) — is real corruption and
        raises the host's error.
        """
        path = os.path.join(run_dir, cls.FILE_NAME)
        if not os.path.exists(path):
            return False
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
        offset = 0
        for position, line in enumerate(lines):
            if line == b"":
                offset += 1
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                if any(rest.strip() for rest in lines[position + 1:]):
                    raise cls._corrupt(path, offset)
                recovered.torn_tail = True
                break
            if not isinstance(record, dict):
                raise cls._corrupt(path, offset)
            kind = record.get("type")
            if kind == "meta" and recovered.meta is not None:
                raise cls.ERROR(f"duplicate meta record in {path}",
                                path=path)
            if kind != "meta" and kind not in cls.KINDS:
                raise cls.ERROR(
                    f"unknown journal record type {kind!r} in {path}",
                    path=path, record_type=str(kind))
            try:
                if kind == "meta":
                    recovered.require(record, **cls.META_FIELDS)
                    recovered.meta = record
                else:
                    recovered.take(record)
            except (KeyError, TypeError, ValueError) as malformed:
                raise cls._corrupt(path, offset) from malformed
            offset = recovered.valid_bytes = offset + len(line) + 1
        if recovered.meta is None:
            raise cls.ERROR(f"journal {path} has no meta record", path=path)
        return True

    @classmethod
    def _corrupt(cls, path: str, offset: int) -> ReproError:
        return cls.ERROR(f"corrupt journal record at byte {offset} of {path}",
                         path=path, offset=offset)


@dataclass
class RecoveredJournal(Recovered):
    """What :meth:`Journal.recover` found on disk."""

    #: job-index -> outcome, for every completed job on disk.
    completed: Dict[int, JobOutcome] = field(default_factory=dict)

    def take(self, record: dict) -> None:
        self.require(record, index=int, outcome=dict)
        self.completed[record["index"]] = (
            JobOutcome.from_json(record["outcome"]))


class Journal(JsonlJournal):
    """Append-only, fsynced journal of one batch run (durafs site
    ``batch.journal``); a failed write raises
    :class:`~repro.errors.SupervisorError`."""

    FILE_NAME = JOURNAL_NAME
    FS_SITE = SITE
    SCHEMA = SCHEMA_VERSION
    KINDS = ("job",)
    META_FIELDS = {"seed": int, "jobs": list, "options": dict}
    ERROR = SupervisorError
    REFUSAL = "cannot resume"
    WRITE_HINT = ("the write-ahead contract requires durable appends; "
                  "free space or choose another --run-dir, then --resume")

    @classmethod
    def recover(cls, run_dir: str) -> RecoveredJournal:
        """Read back every valid record from ``run_dir``'s journal;
        raises :class:`~repro.errors.SupervisorError` when there is
        none, or when it is corrupt."""
        recovered = RecoveredJournal()
        if not cls.read_into(run_dir, recovered):
            path = os.path.join(run_dir, JOURNAL_NAME)
            raise SupervisorError(f"no journal to resume at {path}",
                                  path=path)
        return recovered

    def append_job(self, index: int, outcome: JobOutcome) -> None:
        """Journal one completed job (write-ahead: fsynced before the
        supervisor reports or schedules anything based on it)."""
        self.append({"type": "job", "index": index,
                     "outcome": outcome.to_json()})


def load_outcomes(run_dir: str) -> List[JobOutcome]:
    """All completed outcomes in a run directory, in job order."""
    recovered = Journal.recover(run_dir)
    return [recovered.completed[i] for i in sorted(recovered.completed)]
