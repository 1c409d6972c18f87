"""The serve daemon's write-ahead job journal.

A :class:`~repro.robustness.journal.JsonlJournal`, like the batch
supervisor's, shaped for a long-lived stream instead of a fixed batch:

- ``meta`` — first line: schema version, seed, and the daemon's option
  fingerprint.  A restart on the same run directory refuses a journal
  whose fingerprint differs (results keyed under another option set
  must not be mixed).
- ``submit`` — one per *admitted* job, fsynced **before** the 202
  response is written.  This is the durability contract: once a client
  has a job id, the job survives any daemon death.
- ``done`` — one per finished job: the definite terminal result.

Recovery pairs submits with dones: a submit without a done is an
interrupted job, re-queued by the restarted daemon.

Timings never enter the journal; the serialized fields are pure
functions of the submissions and the daemon's options, so tests can
compare journals structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ServeError
from repro.robustness.journal import JsonlJournal, Recovered

JOURNAL_NAME = "serve-journal.jsonl"
SCHEMA_VERSION = 1
#: The durafs fault site of every serve-journal write.
SITE = "serve.journal"


@dataclass
class RecoveredServeJournal(Recovered):
    """What :meth:`ServeJournal.recover` found on disk."""

    #: Every ``submit`` record, in admission order.
    submits: List[dict] = field(default_factory=list)
    #: job id -> terminal result payload.
    done: Dict[str, dict] = field(default_factory=dict)

    def take(self, record: dict) -> None:
        if record["type"] == "submit":
            self.require(record, id=str, job=str)
            self.submits.append(record)
        else:
            self.require(record, id=str, result=dict)
            self.done[record["id"]] = record["result"]

    @property
    def pending(self) -> List[dict]:
        """Admitted-but-unfinished submits, in admission order."""
        return [record for record in self.submits
                if record["id"] not in self.done]


class ServeJournal(JsonlJournal):
    """Append-only, fsynced journal of one daemon's job stream (durafs
    site ``serve.journal``).  A failed append or fsync voids the
    durability contract — the daemon must not hand out a 202 it cannot
    honor — so it raises :class:`~repro.errors.ServeError`."""

    FILE_NAME = JOURNAL_NAME
    FS_SITE = SITE
    SCHEMA = SCHEMA_VERSION
    KINDS = ("submit", "done")
    META_FIELDS = {"fingerprint": dict, "seed": int}
    ERROR = ServeError
    REFUSAL = "cannot reuse run dir"
    WRITE_HINT = ("jobs are only admitted once journaled; free space or "
                  "restart with another --run-dir")

    @classmethod
    def recover(cls, run_dir: str) -> Optional[RecoveredServeJournal]:
        """Read back the journal, or None when the directory is fresh."""
        recovered = RecoveredServeJournal()
        return recovered if cls.read_into(run_dir, recovered) else None

    def append_submit(self, record: dict) -> None:
        """Journal one admission (fsynced before the 202 goes out)."""
        self.append({"type": "submit", **record})

    def append_done(self, job_id: str, result: dict) -> None:
        """Journal one definite terminal result."""
        self.append({"type": "done", "id": job_id, "result": result})
