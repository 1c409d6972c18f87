"""Execution profiles: the dynamic counters the evaluation reports.

The paper's dynamic numbers are (a) executed conditional branches and
(b) execution frequencies of the nodes where analysis queries were
resolved (used to estimate the benefit of eliminating a conditional).
Both come from per-node execution counts, which is what this profile
stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.ir.icfg import ICFG
from repro.ir.nodes import BranchNode


@dataclass
class Profile:
    """Per-node execution counts plus derived aggregates."""

    node_counts: Dict[int, int] = field(default_factory=dict)
    branch_true: Dict[int, int] = field(default_factory=dict)
    branch_false: Dict[int, int] = field(default_factory=dict)
    executed_operations: int = 0
    executed_conditionals: int = 0

    def count_of(self, node_id: int) -> int:
        return self.node_counts.get(node_id, 0)

    def branch_taken(self, node_id: int, taken: bool) -> int:
        table = self.branch_true if taken else self.branch_false
        return table.get(node_id, 0)

    def branch_executions(self, node_id: int) -> int:
        return (self.branch_true.get(node_id, 0)
                + self.branch_false.get(node_id, 0))

    def merge(self, other: "Profile") -> None:
        """Accumulate another run's counters into this profile."""
        for node_id, count in other.node_counts.items():
            self.node_counts[node_id] = self.node_counts.get(node_id, 0) + count
        for node_id, count in other.branch_true.items():
            self.branch_true[node_id] = self.branch_true.get(node_id, 0) + count
        for node_id, count in other.branch_false.items():
            self.branch_false[node_id] = (self.branch_false.get(node_id, 0)
                                          + count)
        self.executed_operations += other.executed_operations
        self.executed_conditionals += other.executed_conditionals


class RemappedProfile:
    """A profile view over a restructured graph.

    Restructuring replaces nodes with copies under fresh ids, so a
    profile collected on the original program no longer matches.  Given
    the accumulated ``origin`` map (copy id -> original id), this view
    answers count queries for copies with their original's counts —
    each copy inherits its original's frequency, which over-approximates
    per-copy frequency but keeps benefit estimates meaningful across a
    whole optimization run.
    """

    def __init__(self, base: Profile, origin: Dict[int, int]) -> None:
        self._base = base
        self._origin = origin

    def _resolve(self, node_id: int) -> int:
        return self._origin.get(node_id, node_id)

    def count_of(self, node_id: int) -> int:
        return self._base.count_of(self._resolve(node_id))

    def branch_taken(self, node_id: int, taken: bool) -> int:
        return self._base.branch_taken(self._resolve(node_id), taken)

    def branch_executions(self, node_id: int) -> int:
        return self._base.branch_executions(self._resolve(node_id))


def executed_conditionals(profile: Profile, icfg: ICFG) -> int:
    """Executed conditional count recomputed from per-node data (sanity)."""
    total = 0
    for node in icfg.iter_nodes():
        if isinstance(node, BranchNode):
            total += profile.count_of(node.id)
    return total
