"""Shared, incrementally-invalidated analysis state across branches.

The demand-driven analysis is cheap *per branch*, but the optimizer
used to throw every derived fact away between branches: each
conditional rebuilt mod/ref summaries and re-interned nothing.  The
:class:`AnalysisContext` keeps those facts for the whole run, keyed to
the graph's mutation *generation*
(:attr:`~repro.ir.icfg.ICFG.generation`), and invalidates them with
procedure-level precision using the graph's dirty sets.

Cached artifacts and their invalidation rules:

``queries``
    Interned :class:`~repro.analysis.query.Query` instances.  A query
    is a value, so interning never goes stale.

``modref``
    The transitive MOD sets (intraprocedural mode).  Any dirty
    procedure drops them (MOD is a whole-program fixpoint; recomputing
    it is cheaper than incrementalising it).

``indices``
    Per-procedure adjacency indices (currently the branch-node index
    the optimizer's pending scan uses).  Any dirty procedure drops
    them.

Answer sets are deliberately *not* cached across branches (paper
§3.3: "maintaining the cache proved counterproductive"); every
conditional's analysis runs from scratch.

Lifecycle: the pass manager calls :meth:`commit` after a transaction's
result is adopted — only then do dirty procedures invalidate entries —
and :meth:`rollback` after rolling a transaction back, which
invalidates *nothing* because every transaction begins at the
context's generation, and rolling back restores that generation.  A
context whose generation disagrees with the graph's simply stands
aside (:meth:`in_sync` is False and every memo recomputes), so a
desynchronised cache can cause a slow path but never a wrong one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set

from repro.analysis.modref import transitive_mod_sets
from repro.analysis.query import Query
from repro.ir.expr import VarId
from repro.ir.icfg import ICFG
from repro.ir.nodes import BranchNode


@dataclass
class CacheStats:
    """Reuse/invalidation accounting for one optimizer run."""

    modref_reuses: int = 0
    modref_invalidated: int = 0
    index_reuses: int = 0
    index_invalidated: int = 0
    analyses_reused: int = 0
    commits: int = 0
    rollbacks: int = 0
    queries_interned: int = 0

    # Read by the benchmark's span hook (perfbench/hook/
    # perfbench_spans.py), which drops every attribute of the
    # ``transform.optimize`` span when one is missing.  There is no
    # cross-branch summary cache and no snapshot to reuse (transactions
    # roll back an undo log), so all three are always zero; they are
    # properties, not fields, so :meth:`publish` does not emit them.
    @property
    def summary_hits(self) -> int:
        return 0

    @property
    def summary_misses(self) -> int:
        return 0

    @property
    def snapshot_reuses(self) -> int:
        return 0

    def publish(self, prefix: str = "cache.") -> None:
        """Feed every counter into the active observability session's
        metrics registry (no-op when observability is off)."""
        from repro import obs
        if not obs.enabled():
            return
        for name, value in vars(self).items():
            obs.add(prefix + name, value)

    def describe(self) -> str:
        return (f"{self.analyses_reused} analyses reused, "
                f"{self.commits} commits, {self.rollbacks} rollbacks")


class AnalysisContext:
    """Cross-branch cache of analysis artifacts for one optimizer run."""

    #: Names passes use to declare which cached analyses they preserve.
    MODREF = "modref"
    INDICES = "indices"
    ALL: FrozenSet[str] = frozenset((MODREF, INDICES))

    def __init__(self) -> None:
        #: Generation of the graph every cached artifact describes, or
        #: None before the context is bound to a run.
        self.generation: Optional[int] = None
        self.stats = CacheStats()
        self._queries: Dict[Query, Query] = {}
        self._mod_sets: Optional[Dict[str, Set[VarId]]] = None
        self._branch_index: Optional[Dict[str, List[int]]] = None
        self._branch_ids: Optional[List[int]] = None

    # -- lifecycle -----------------------------------------------------------

    def bind(self, icfg: ICFG) -> None:
        """Attach to a run's working graph, dropping every cached fact."""
        self.generation = icfg.generation
        self._mod_sets = None
        self._branch_index = None
        self._branch_ids = None

    def in_sync(self, icfg: ICFG) -> bool:
        """True when cached facts describe exactly this graph state."""
        return self.generation == icfg.generation

    def commit(self, icfg: ICFG,
               preserves: FrozenSet[str] = frozenset()) -> None:
        """A transform on ``icfg`` was adopted: invalidate cached facts
        reaching the dirty procedures, except the analyses the
        committing pass declared it preserves."""
        self.stats.commits += 1
        if self.generation is None or icfg.generation < self.generation:
            # Unknown history: be safe and start over.
            self.bind(icfg)
            return
        dirty = icfg.dirty_procs_since(self.generation)
        self.generation = icfg.generation
        if not dirty:
            return
        if self.MODREF not in preserves:
            if self._mod_sets is not None:
                self.stats.modref_invalidated += 1
            self._mod_sets = None
        if self.INDICES not in preserves:
            if self._branch_index is not None:
                self.stats.index_invalidated += 1
            self._branch_index = None
            self._branch_ids = None

    def rollback(self, icfg: ICFG) -> None:
        """A transaction was rolled back.  The rollback also restores
        the generation, so cached facts are valid again and nothing is
        invalidated."""
        self.stats.rollbacks += 1
        if self.generation is not None and icfg.generation != self.generation:
            # The rollback did not land on the cached generation (it
            # reached back past this context's last commit): resync.
            self.bind(icfg)

    # -- interning -----------------------------------------------------------

    def intern_query(self, query: Query) -> Query:
        """The canonical instance of ``query`` (identity-stable across
        branches, which turns dict probes into pointer comparisons)."""
        cached = self._queries.get(query)
        if cached is not None:
            return cached
        self._queries[query] = query
        self.stats.queries_interned += 1
        return query

    # -- memoized whole-program analyses -------------------------------------

    def mod_sets(self, icfg: ICFG) -> Dict[str, Set[VarId]]:
        """Memoized :func:`~repro.analysis.modref.transitive_mod_sets`."""
        if not self.in_sync(icfg):
            return transitive_mod_sets(icfg)
        if self._mod_sets is None:
            self._mod_sets = transitive_mod_sets(icfg)
        else:
            self.stats.modref_reuses += 1
        return self._mod_sets

    def branch_ids(self, icfg: ICFG) -> List[int]:
        """All branch-node ids, ascending, from the per-procedure index."""
        if not self.in_sync(icfg):
            return [b.id for b in icfg.branch_nodes()]
        if self._branch_ids is None:
            per_proc: Dict[str, List[int]] = {}
            for node in icfg.iter_nodes():
                if isinstance(node, BranchNode):
                    per_proc.setdefault(node.proc, []).append(node.id)
            self._branch_index = per_proc
            self._branch_ids = [bid for ids in per_proc.values()
                                for bid in ids]
            self._branch_ids.sort()
        else:
            self.stats.index_reuses += 1
        return self._branch_ids
