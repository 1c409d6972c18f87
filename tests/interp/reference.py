"""The reference interpreter: a plain per-node loop over the ICFG.

Test-only.  It re-dispatches every node on every step — an ``isinstance``
chain, ``ICFG.only_succ``, a recursive expression walk over ``VarId``
keys — and stores every allocated heap cell, so it is slow but shares no
execution code with the decoded interpreter in
:mod:`repro.interp.machine`, only the operator semantics of
:mod:`repro.ir.ops`.  The tests compare the two on generated
programs; nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import InterpreterError
from repro.interp.machine import DEFAULT_STEP_LIMIT, ExecutionResult
from repro.interp.profile import Profile
from repro.interp.workload import Workload
from repro.ir import expr as ir
from repro.ir.icfg import EdgeKind, ICFG
from repro.ir.nodes import (AssignNode, BranchNode, CallExitNode, CallNode,
                            EntryNode, ExitNode, Node, NopNode, PrintNode,
                            StoreNode)
from repro.ir.ops import eval_binary, eval_convert, eval_unary


def count_node(profile: Profile, node: Node) -> None:
    profile.node_counts[node.id] = profile.node_counts.get(node.id, 0) + 1
    if node.is_executable:
        profile.executed_operations += 1


def count_branch(profile: Profile, node: BranchNode, taken: bool) -> None:
    profile.executed_conditionals += 1
    table = profile.branch_true if taken else profile.branch_false
    table[node.id] = table.get(node.id, 0) + 1


@dataclass
class Frame:
    """One procedure activation."""

    proc: str
    locals: Dict[ir.VarId, int]
    return_map: Dict[int, int]


class ReferenceMachine:
    """Interpreter for one run over one workload."""

    def __init__(self, icfg: ICFG, workload: Optional[Workload] = None,
                 step_limit: int = DEFAULT_STEP_LIMIT) -> None:
        self.icfg = icfg
        self.workload = workload if workload is not None else Workload([])
        self.step_limit = step_limit
        self.globals: Dict[ir.VarId, int] = dict(icfg.globals)
        self.heap: Dict[int, int] = {}
        self._next_address = 1
        self.frames: List[Frame] = []
        self.output: List[int] = []
        self.profile = Profile()
        self.steps = 0

    # -- value access --------------------------------------------------------

    def read_var(self, var: ir.VarId) -> int:
        if var.is_global:
            return self.globals.get(var, 0)
        return self.frames[-1].locals.get(var, 0)

    def write_var(self, var: ir.VarId, value: int) -> None:
        if var.is_global:
            self.globals[var] = value
        else:
            self.frames[-1].locals[var] = value

    def _alloc(self, size: int) -> int:
        """Allocate ``size`` zeroed cells; sizes <= 0 yield NULL."""
        if size <= 0:
            return 0
        base = self._next_address
        for offset in range(size):
            self.heap[base + offset] = 0
        self._next_address += size
        return base

    def _load(self, address: int) -> int:
        if address == 0:
            raise InterpreterError("null pointer load")
        if address not in self.heap:
            raise InterpreterError(f"wild load at address {address}")
        return self.heap[address]

    def _store(self, address: int, value: int) -> None:
        if address == 0:
            raise InterpreterError("null pointer store")
        if address not in self.heap:
            raise InterpreterError(f"wild store at address {address}")
        self.heap[address] = value

    # -- expression evaluation ---------------------------------------------

    def eval(self, expr: ir.Expr) -> int:
        if isinstance(expr, ir.Const):
            return expr.value
        if isinstance(expr, ir.VarExpr):
            return self.read_var(expr.var)
        if isinstance(expr, ir.BinaryExpr):
            return eval_binary(expr.op, self.eval(expr.left),
                               self.eval(expr.right))
        if isinstance(expr, ir.UnaryExpr):
            return eval_unary(expr.op, self.eval(expr.operand))
        if isinstance(expr, ir.Convert):
            return eval_convert(self.eval(expr.operand))
        if isinstance(expr, ir.InputRead):
            return self.workload.next_value()
        if isinstance(expr, ir.Alloc):
            return self._alloc(self.eval(expr.size))
        if isinstance(expr, ir.Load):
            return self._load(self.eval(expr.address))
        raise InterpreterError(f"cannot evaluate {type(expr).__name__}")

    # -- main loop -----------------------------------------------------------

    def run(self) -> ExecutionResult:
        info = self.icfg.procs[self.icfg.main]
        self.frames.append(Frame(self.icfg.main,
                                 {v: 0 for v in info.locals}, {}))
        current = self.icfg.main_entry()
        pending_return: Optional[int] = None

        try:
            while True:
                if self.steps >= self.step_limit:
                    return self._finish("step-limit", None,
                                        "step limit exceeded")
                self.steps += 1
                node = self.icfg.nodes[current]
                count_node(self.profile, node)

                if isinstance(node, (EntryNode, NopNode)):
                    current = self.icfg.only_succ(node.id, EdgeKind.NORMAL)
                elif isinstance(node, AssignNode):
                    self.write_var(node.target, self.eval(node.rhs))
                    current = self.icfg.only_succ(node.id, EdgeKind.NORMAL)
                elif isinstance(node, BranchNode):
                    taken = self.eval(node.predicate) != 0
                    count_branch(self.profile, node, taken)
                    true_dst, false_dst = self.icfg.branch_targets(node.id)
                    current = true_dst if taken else false_dst
                elif isinstance(node, PrintNode):
                    self.output.append(self.eval(node.value))
                    current = self.icfg.only_succ(node.id, EdgeKind.NORMAL)
                elif isinstance(node, StoreNode):
                    address = self.eval(node.address)
                    value = self.eval(node.value)
                    self._store(address, value)
                    current = self.icfg.only_succ(node.id, EdgeKind.NORMAL)
                elif isinstance(node, CallNode):
                    args = [self.eval(a) for a in node.args]
                    callee = self.icfg.procs[node.callee]
                    frame = Frame(node.callee,
                                  {v: 0 for v in callee.locals},
                                  dict(node.return_map))
                    for param, value in zip(callee.params, args):
                        frame.locals[param] = value
                    self.frames.append(frame)
                    current = node.entry_id
                elif isinstance(node, ExitNode):
                    frame = self.frames[-1]
                    value = frame.locals.get(ir.VarId.ret(node.proc), 0)
                    if len(self.frames) == 1:
                        return self._finish("ok", value, "")
                    if node.id not in frame.return_map:
                        raise InterpreterError(
                            f"no return address for exit {node.id} "
                            f"of {node.proc!r}")
                    target = frame.return_map[node.id]
                    self.frames.pop()
                    pending_return = value
                    current = target
                elif isinstance(node, CallExitNode):
                    if pending_return is None:
                        raise InterpreterError(
                            f"call-exit {node.id} reached without a return")
                    if node.result is not None:
                        self.write_var(node.result, pending_return)
                    pending_return = None
                    current = self.icfg.only_succ(node.id, EdgeKind.NORMAL)
                else:
                    raise InterpreterError(
                        f"cannot execute node {node.id}: {node.label()}")
        except InterpreterError as fault:
            return self._finish("fault", None, str(fault))

    def _finish(self, status: str, exit_value: Optional[int],
                fault_message: str) -> ExecutionResult:
        return ExecutionResult(status=status, exit_value=exit_value,
                               output=self.output, profile=self.profile,
                               fault_message=fault_message, steps=self.steps)


def reference_run(icfg: ICFG, workload: Optional[Workload] = None,
                  step_limit: int = DEFAULT_STEP_LIMIT) -> ExecutionResult:
    """Execute ``icfg`` over a fresh copy of ``workload``."""
    stream = workload.fresh() if workload is not None else None
    return ReferenceMachine(icfg, stream, step_limit).run()
