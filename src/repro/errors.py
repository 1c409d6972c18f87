"""Exception hierarchy for the ICBE reproduction.

Every layer of the system raises a subclass of :class:`ReproError`, so
callers can catch a single exception type at the API boundary while tests
can assert on precise failure categories.

Every :class:`ReproError` carries a structured ``context`` dict — machine
readable key/value detail (positions, procedure names, budgets, tiers)
that diagnostics bundles and the batch supervisor's journal serialize
verbatim, so a production failure is queryable data rather than a string
to regex.  Subclasses populate it from their own constructors; ad-hoc
keys can be passed to any constructor as keyword arguments.
"""

from __future__ import annotations

from typing import Any, Dict


class ReproError(Exception):
    """Base class for all errors raised by this package.

    ``context`` holds structured detail about the failure.  It is always
    a plain dict of JSON-serializable values (enforced only by
    convention; :func:`error_context` sanitizes on the way out).
    """

    def __init__(self, message: str = "", **context: Any) -> None:
        super().__init__(message)
        self.context: Dict[str, Any] = dict(context)


def error_context(exc: BaseException) -> Dict[str, Any]:
    """The structured context of ``exc``, JSON-sanitized, best-effort.

    Non-Repro exceptions yield an empty dict; values that do not
    round-trip through ``str`` cheaply are stringified so a corrupt
    context never breaks diagnostics serialization.
    """
    raw = getattr(exc, "context", None)
    if not isinstance(raw, dict):
        return {}
    safe: Dict[str, Any] = {}
    for key, value in raw.items():
        if isinstance(value, (str, int, float, bool, type(None))):
            safe[str(key)] = value
        else:
            safe[str(key)] = repr(value)
    return safe


class LexError(ReproError):
    """A malformed token was encountered while scanning MiniC source."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}",
                         line=line, column=column)
        self.line = line
        self.column = column


class ParseError(ReproError):
    """The token stream does not form a valid MiniC program."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}",
                         line=line, column=column)
        self.line = line
        self.column = column


class SemanticError(ReproError):
    """The program parsed but violates a static rule (scope, arity...)."""


class LoweringError(ReproError):
    """The AST could not be translated to the interprocedural CFG."""


class VerificationError(ReproError):
    """An ICFG failed a structural well-formedness check."""


class InterpreterError(ReproError):
    """A runtime fault during ICFG interpretation (e.g. null deref)."""


class AnalysisError(ReproError):
    """Internal inconsistency in the correlation analysis."""


class TransformError(ReproError):
    """The restructuring transformation could not be applied safely."""


class BudgetExceeded(ReproError):
    """A resource guard tripped (per-conditional deadline or node growth).

    Raised cooperatively from instrumented checkpoints inside analysis
    and restructuring, so a runaway conditional is abandoned and rolled
    back instead of hanging or exhausting memory.
    """


class FaultInjected(ReproError):
    """An armed :class:`~repro.robustness.faults.FaultPlan` fired.

    Only ever raised on purpose, by tests and drills that exercise the
    optimizer's recovery paths.
    """


class DifferentialMismatch(ReproError):
    """Original and optimized programs observably diverged on a workload.

    Raised by strict-mode differential validation; non-strict mode rolls
    the offending transform back and records diagnostics instead.
    """


class SupervisorError(ReproError):
    """The batch supervisor could not run or resume a batch.

    Raised for operator-level problems — a resume directory whose
    journal belongs to a different batch or seed, an unreadable run
    directory — never for per-job failures, which become structured
    ``FAILED`` outcomes instead.
    """


class SupervisorDrained(ReproError):
    """A batch run was interrupted by SIGTERM/SIGINT and drained.

    Raised by :meth:`~repro.robustness.supervisor.BatchSupervisor.run`
    *after* the journal was checkpointed and every worker reaped, so
    the caller can exit with the conventional code (130 for SIGINT,
    143 for SIGTERM) knowing a ``--resume`` of the run directory will
    reproduce the uninterrupted run byte-for-byte.
    """

    def __init__(self, message: str, signum: int, **context: Any) -> None:
        super().__init__(message, signum=signum, **context)
        self.signum = signum

    @property
    def exit_code(self) -> int:
        """The shell convention for death-by-signal: 128 + signum."""
        return 128 + self.signum


class ServeError(ReproError):
    """An ``icbe serve`` request or daemon configuration is unusable.

    Raised for operator- and client-level problems — a malformed
    submission body, a run directory journaled by a daemon with a
    different option fingerprint — never for per-job optimization
    failures, which become definite job results instead.
    """
