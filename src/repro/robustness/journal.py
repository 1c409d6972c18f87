"""The batch supervisor's write-ahead journal.

One line of canonical JSON per event, appended and **fsynced** before
the supervisor acts on the event — so any interruption, including
SIGKILL between two bytes, loses at most the line being written.  The
file is ``journal.jsonl`` inside the run directory.

Record types:

- ``meta`` — exactly one, the first line: schema version, batch seed,
  the ordered *complete* job definitions (sources, chaos injections,
  fault plans — so ``--resume`` replays exactly the interrupted batch),
  and the deterministic option fingerprint.  A resume refuses a journal
  whose meta does not match the resumed invocation (different jobs or
  seed would silently mix two batches).
- ``job`` — one per *completed* job, in job-index order: the job's
  definite :class:`~repro.robustness.degrade.JobOutcome`.

Determinism contract: every serialized field is a pure function of the
batch definition and seed — no timestamps, pids, hostnames, or
measured durations — and records are flushed in job-index order even
when workers run in parallel.  Hence an interrupted run finished with
``--resume`` produces a journal **byte-identical** to an uninterrupted
run: the completed prefix is already on disk and the replayed suffix
re-derives the same bytes.

Recovery: :meth:`Journal.recover` tolerates a torn final line (the
SIGKILL-mid-write case) by truncating the file back to the last valid
record before appending resumes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import SupervisorError
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
class RecoveredJournal:
    """What :meth:`Journal.recover` found on disk."""

    meta: Optional[dict] = None
    #: job-index -> outcome, for every completed job on disk.
    completed: Dict[int, JobOutcome] = field(default_factory=dict)
    #: Bytes of the valid prefix (the torn tail, if any, is past this).
    valid_bytes: int = 0
    torn_tail: bool = False


class Journal:
    """Append-only, fsynced journal of one batch run.

    All writes route through :mod:`repro.utils.durafs` (site
    ``batch.journal``).  A write-side failure — ENOSPC on the append,
    EIO on the fsync — is a *definite* operator error: the write-ahead
    contract is void without durability, so the append raises
    :class:`~repro.errors.SupervisorError` with structured errno/path
    context rather than limping on with an unjournaled batch.
    """

    def __init__(self, run_dir: str,
                 fs: Optional["durafs.Filesystem"] = None) -> None:
        self.run_dir = run_dir
        self.path = os.path.join(run_dir, JOURNAL_NAME)
        self.fs = durafs.resolve_fs(fs)
        self._handle: Optional[durafs.AppendFile] = None

    # -- writing -----------------------------------------------------------

    def open_fresh(self, meta: dict) -> None:
        """Start a new journal, writing the ``meta`` header record."""
        os.makedirs(self.run_dir, exist_ok=True)
        self._handle = durafs.AppendFile(self.path, site=SITE, fs=self.fs,
                                         fresh=True)
        self._append({"type": "meta", "version": SCHEMA_VERSION, **meta})

    def open_resume(self, recovered: RecoveredJournal) -> None:
        """Reopen for appending after :meth:`recover`, dropping any torn
        tail so the next record starts on a clean line boundary."""
        if recovered.torn_tail:
            self.fs.truncate_file(self.path, recovered.valid_bytes, SITE)
        self._handle = durafs.AppendFile(self.path, site=SITE, fs=self.fs)

    def append_job(self, index: int, outcome: JobOutcome) -> None:
        """Journal one completed job (write-ahead: fsynced before the
        supervisor reports or schedules anything based on it)."""
        self._append({"type": "job", "index": index,
                      "outcome": outcome.to_json()})

    def _append(self, record: dict) -> None:
        from repro import obs
        assert self._handle is not None, "journal is not open"
        try:
            self._handle.append(canonical_json(record) + "\n")
        except OSError as failure:
            raise SupervisorError(
                f"journal write failed: {failure} "
                f"(the write-ahead contract requires durable appends; "
                f"free space or choose another --run-dir, then --resume)",
                errno=int(failure.errno or 0), path=self.path,
                record_type=str(record.get("type"))) from failure
        obs.add("journal.fsyncs")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- recovery ----------------------------------------------------------

    @classmethod
    def recover(cls, run_dir: str) -> RecoveredJournal:
        """Read back every valid record from ``run_dir``'s journal.

        Unparseable *final* lines are reported as a torn tail (the
        expected SIGKILL artifact); an unparseable line followed by more
        data means real corruption and raises
        :class:`~repro.errors.SupervisorError`.
        """
        path = os.path.join(run_dir, JOURNAL_NAME)
        if not os.path.exists(path):
            raise SupervisorError(
                f"no journal to resume at {path}", path=path)
        recovered = RecoveredJournal()
        with open(path, "rb") as handle:
            raw = handle.read()
        offset = 0
        lines = raw.split(b"\n")
        for position, line in enumerate(lines):
            if line == b"":
                offset += 1
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                if any(rest.strip() for rest in lines[position + 1:]):
                    raise SupervisorError(
                        f"corrupt journal record at byte {offset} of {path}",
                        path=path, offset=offset)
                recovered.torn_tail = True
                break
            recovered.valid_bytes = offset + len(line) + 1
            offset = recovered.valid_bytes
            kind = record.get("type")
            if kind == "meta":
                if recovered.meta is not None:
                    raise SupervisorError(
                        f"duplicate meta record in {path}", path=path)
                recovered.meta = record
            elif kind == "job":
                recovered.completed[record["index"]] = (
                    JobOutcome.from_json(record["outcome"]))
            else:
                raise SupervisorError(
                    f"unknown journal record type {kind!r} in {path}",
                    path=path, record_type=str(kind))
        if recovered.meta is None:
            raise SupervisorError(
                f"journal {path} has no meta record", path=path)
        return recovered

    @staticmethod
    def check_meta(recovered: RecoveredJournal, meta: dict) -> None:
        """Refuse to resume a journal that belongs to another batch."""
        assert recovered.meta is not None
        on_disk = recovered.meta
        for key in ("seed", "jobs", "options"):
            if on_disk.get(key) != meta.get(key):
                raise SupervisorError(
                    f"cannot resume: journal {key} mismatch "
                    f"({on_disk.get(key)!r} on disk vs {meta.get(key)!r} "
                    f"requested)",
                    key=key, on_disk=repr(on_disk.get(key)),
                    requested=repr(meta.get(key)))
        if on_disk.get("version") != SCHEMA_VERSION:
            raise SupervisorError(
                f"cannot resume: journal schema v{on_disk.get('version')} "
                f"!= v{SCHEMA_VERSION}",
                on_disk_version=on_disk.get("version"))


def load_outcomes(run_dir: str) -> List[JobOutcome]:
    """All completed outcomes in a run directory, in job order."""
    recovered = Journal.recover(run_dir)
    return [recovered.completed[i] for i in sorted(recovered.completed)]
