"""Cheap structural snapshots of an ICFG, for transactional transforms.

A snapshot captures exactly the mutable structure of a graph — nodes,
edge indices, procedure bookkeeping, globals, and the id allocator —
and can be restored any number of times.  It is *not* a ``deepcopy`` of
the whole world: node objects are duplicated via their own
``copy_with_id`` (sharing the immutable expression trees they point
at), edges are frozen dataclasses and shared outright, and nothing
outside the graph is touched.  Taking a snapshot therefore costs the
same order as :meth:`~repro.ir.icfg.ICFG.clone`, which the optimizer
already pays once per conditional.

The optimizer takes a snapshot before each conditional's restructuring
and rolls back to it when anything goes wrong, so one bad conditional
never poisons the rest of the run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ir.icfg import Edge, ICFG, ProcInfo
from repro.ir.nodes import Node


class ICFGSnapshot:
    """A frozen structural copy of an ICFG at one point in time."""

    __slots__ = ("main", "globals", "procs", "nodes", "succs", "ids",
                 "generation", "proc_touched")

    def __init__(self, main: str, globals_: Dict, procs: Dict[str, ProcInfo],
                 nodes: Dict[int, Node], succs: Dict[int, List[Edge]],
                 ids, generation: int = 0,
                 proc_touched: Optional[Dict[str, int]] = None) -> None:
        self.main = main
        self.globals = globals_
        self.procs = procs
        self.nodes = nodes
        self.succs = succs
        self.ids = ids
        self.generation = generation
        self.proc_touched = proc_touched if proc_touched is not None else {}

    @classmethod
    def take(cls, icfg: ICFG) -> "ICFGSnapshot":
        """Capture ``icfg``'s current structure (the graph is unharmed)."""
        return cls(
            main=icfg.main,
            globals_=dict(icfg.globals),
            procs={name: info.copy() for name, info in icfg.procs.items()},
            nodes={nid: node.copy_with_id(nid)
                   for nid, node in icfg.nodes.items()},
            succs={nid: list(edges) for nid, edges in icfg._succs.items()},
            ids=icfg._ids.clone(),
            generation=icfg.generation,
            proc_touched=dict(icfg._proc_touched))

    @property
    def node_count(self) -> int:
        """How many nodes the snapshotted graph had."""
        return len(self.nodes)

    def restore(self, into: Optional[ICFG] = None) -> ICFG:
        """Materialize the snapshotted state and return the graph.

        With ``into`` the target graph is overwritten in place (its
        object identity survives); otherwise a fresh :class:`ICFG` is
        built.  The snapshot itself stays valid — node objects are
        re-copied on every restore, so later mutation of a restored
        graph cannot corrupt the snapshot.
        """
        target = into if into is not None else ICFG(self.main)
        target.main = self.main
        target.globals = dict(self.globals)
        target.procs = {name: info.copy() for name, info in self.procs.items()}
        target.nodes = {nid: node.copy_with_id(nid)
                        for nid, node in self.nodes.items()}
        succs: Dict[int, List[Edge]] = {nid: list(edges)
                                        for nid, edges in self.succs.items()}
        preds: Dict[int, List[Edge]] = {nid: [] for nid in self.nodes}
        for edges in succs.values():
            for edge in edges:
                preds[edge.dst].append(edge)
        target._succs = succs
        target._preds = preds
        target._ids = self.ids.clone()
        # Restore the mutation clock too: a rolled-back graph is the
        # graph the snapshot saw, so analyses cached against that
        # generation are valid again.
        target.generation = self.generation
        target._proc_touched = dict(self.proc_touched)
        return target
