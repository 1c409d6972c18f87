"""The ICFG interpreter.

Executes one node at a time, maintaining a call stack of frames.  The
key detail for this reproduction is the *return map*: each call node
carries ``{exit_node_id -> call_site_exit_id}``, recorded in the callee's
frame at call time.  When an exit node is reached, control resumes at
the call-site exit the map designates — that is how a procedure with
split exits "returns control to one of several return points in the
caller" (paper §1) without any special casing here.

A node's step depends on the node alone, so :class:`DecodedICFG`
decodes each node the first time a run reaches it — its kind, its
successor ids, its expressions compiled to closures and its variables
as small-int keys — and every later step at that node, in this run or
another run of the same table, reuses the decoded form.  A table lives
exactly as long as one unchanged graph: the optimizer edits its working
graph in place between checks, so a table is built per checked graph
and never kept on the graph, its nodes or across transactions.

Faults (null/wild heap access, missing return address) terminate the run
with a fault status; differential tests compare full results including
fault status, so the optimizer must preserve faults exactly.  A
structurally malformed graph (a node without exactly the successors its
kind needs, a missing node or callee) raises instead of running.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import InterpreterError
from repro.ir import expr as ir
from repro.ir.icfg import EdgeKind, ICFG
from repro.ir.nodes import (AssignNode, BranchNode, CallExitNode, CallNode,
                            EntryNode, ExitNode, NopNode, PrintNode,
                            StoreNode)
from repro.ir.ops import eval_binary, eval_convert, eval_unary
from repro.interp.profile import Profile
from repro.interp.workload import Workload

DEFAULT_STEP_LIMIT = 2_000_000

#: A compiled expression: (current frame's locals, globals, run) -> value.
Evaluator = Callable[[Dict[int, int], Dict[int, int], "Machine"], int]

# Kinds of decoded step, first field of every step tuple:
#   (NEXT, succ)                     entry and nop nodes
#   (ASSIGN_LOCAL|ASSIGN_GLOBAL, succ, key, rhs)
#   (BRANCH, predicate, true_succ, false_succ)
#   (PRINT, succ, value)
#   (STORE, succ, address, value)
#   (CALL, entry, args, param_keys, return_map)
#   (EXIT, ret_key, proc)
#   (CALL_EXIT, succ, result_key or None, result_is_global)
(NEXT, ASSIGN_LOCAL, ASSIGN_GLOBAL, BRANCH, PRINT, STORE, CALL, EXIT,
 CALL_EXIT) = range(9)


@dataclass
class ExecutionResult:
    """Everything observable about a run."""

    status: str                      # "ok" | "fault" | "step-limit"
    exit_value: Optional[int]
    output: List[int]
    profile: Profile
    fault_message: str = ""
    steps: int = 0

    @property
    def observable(self) -> Tuple[str, Optional[int], Tuple[int, ...], str]:
        """The semantics-defining portion (profiles/steps excluded)."""
        return (self.status, self.exit_value, tuple(self.output),
                self.fault_message)


class DecodedICFG:
    """The step table of one unchanged ICFG, filled as runs reach nodes.

    Build one per graph you run (several runs may share it) and drop it
    once the graph may change: nothing here notices an edit.
    """

    def __init__(self, icfg: ICFG) -> None:
        self.icfg = icfg
        #: node id -> decoded step (see the kinds above).
        self.steps: Dict[int, tuple] = {}
        self._keys: Dict[Tuple[Optional[str], str], int] = {}
        #: Initial global values under their keys.
        self.globals = {self._key(var): value
                        for var, value in icfg.globals.items()}

    def _key(self, var: ir.VarId) -> int:
        # Interned by a tuple: hashing a VarId runs its Python __hash__.
        return self._keys.setdefault((var.scope, var.name), len(self._keys))

    def decode(self, node_id: int) -> tuple:
        """Decode ``node_id``'s step and keep it in the table."""
        icfg = self.icfg
        node = icfg.nodes[node_id]
        step: tuple
        if isinstance(node, AssignNode):
            kind = ASSIGN_GLOBAL if node.target.is_global else ASSIGN_LOCAL
            step = (kind, icfg.only_succ(node_id, EdgeKind.NORMAL),
                    self._key(node.target), self._compile(node.rhs))
        elif isinstance(node, BranchNode):
            true_dst, false_dst = icfg.branch_targets(node_id)
            step = (BRANCH, self._compile(node.predicate), true_dst,
                    false_dst)
        elif isinstance(node, (EntryNode, NopNode)):
            step = (NEXT, icfg.only_succ(node_id, EdgeKind.NORMAL))
        elif isinstance(node, CallNode):
            callee = icfg.procs[node.callee]
            step = (CALL, node.entry_id,
                    tuple(self._compile(arg) for arg in node.args),
                    tuple(self._key(param) for param in callee.params),
                    dict(node.return_map))
        elif isinstance(node, ExitNode):
            step = (EXIT, self._key(ir.VarId.ret(node.proc)), node.proc)
        elif isinstance(node, CallExitNode):
            result = node.result
            step = (CALL_EXIT, icfg.only_succ(node_id, EdgeKind.NORMAL),
                    None if result is None else self._key(result),
                    result is not None and result.is_global)
        elif isinstance(node, PrintNode):
            step = (PRINT, icfg.only_succ(node_id, EdgeKind.NORMAL),
                    self._compile(node.value))
        elif isinstance(node, StoreNode):
            step = (STORE, icfg.only_succ(node_id, EdgeKind.NORMAL),
                    self._compile(node.address), self._compile(node.value))
        else:
            raise InterpreterError(
                f"cannot execute node {node.id}: {node.label()}")
        self.steps[node_id] = step
        return step

    def _compile(self, expr: ir.Expr) -> Evaluator:
        """``expr`` as a closure with the semantics of ``repro.ir.ops``."""
        if isinstance(expr, ir.Const):
            value = expr.value
            return lambda L, G, run: value
        if isinstance(expr, ir.VarExpr):
            key = self._key(expr.var)
            if expr.var.is_global:
                return lambda L, G, run: G.get(key, 0)
            return lambda L, G, run: L.get(key, 0)
        if isinstance(expr, ir.BinaryExpr):
            return _binary(expr.op, self._compile(expr.left),
                           self._compile(expr.right))
        if isinstance(expr, ir.UnaryExpr):
            operand = self._compile(expr.operand)
            op = expr.op
            return lambda L, G, run: eval_unary(op, operand(L, G, run))
        if isinstance(expr, ir.Convert):
            operand = self._compile(expr.operand)
            return lambda L, G, run: eval_convert(operand(L, G, run))
        if isinstance(expr, ir.InputRead):
            return lambda L, G, run: run.next_input()
        if isinstance(expr, ir.Alloc):
            size = self._compile(expr.size)
            return lambda L, G, run: run.alloc(size(L, G, run))
        if isinstance(expr, ir.Load):
            address = self._compile(expr.address)
            return lambda L, G, run: run.load(address(L, G, run))
        raise InterpreterError(f"cannot evaluate {type(expr).__name__}")


#: Operators whose closures skip :func:`~repro.ir.ops.eval_binary`'s
#: dispatch; relations still yield 1 or 0.
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_RELATIONS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
              "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _binary(op: str, left: Evaluator, right: Evaluator) -> Evaluator:
    """A closure for ``left op right``; both operands are always
    evaluated, left first."""
    arithmetic = _ARITHMETIC.get(op)
    if arithmetic is not None:
        return lambda L, G, run: arithmetic(left(L, G, run),
                                            right(L, G, run))
    relation = _RELATIONS.get(op)
    if relation is not None:
        return lambda L, G, run: (
            1 if relation(left(L, G, run), right(L, G, run)) else 0)
    return lambda L, G, run: eval_binary(op, left(L, G, run),
                                         right(L, G, run))


class Machine:
    """Interpreter for one run over one workload.

    Allocations are contiguous from address 1 and never freed, so an
    address is valid exactly when ``1 <= address < next address``; the
    heap stores only cells written since, and reads the rest as 0.
    """

    def __init__(self, icfg: Union[ICFG, DecodedICFG],
                 workload: Optional[Workload] = None,
                 step_limit: int = DEFAULT_STEP_LIMIT) -> None:
        self.program = (icfg if isinstance(icfg, DecodedICFG)
                        else DecodedICFG(icfg))
        self.next_input = (workload if workload is not None
                           else Workload([])).next_value
        self.step_limit = step_limit
        self.heap: Dict[int, int] = {}
        self._next_address = 1

    # -- heap ----------------------------------------------------------------

    def alloc(self, size: int) -> int:
        """Allocate ``size`` zeroed cells; sizes <= 0 yield NULL."""
        if size <= 0:
            return 0
        base = self._next_address
        self._next_address += size
        return base

    def load(self, address: int) -> int:
        if address == 0:
            raise InterpreterError("null pointer load")
        if not 1 <= address < self._next_address:
            raise InterpreterError(f"wild load at address {address}")
        return self.heap.get(address, 0)

    def store(self, address: int, value: int) -> None:
        if address == 0:
            raise InterpreterError("null pointer store")
        if not 1 <= address < self._next_address:
            raise InterpreterError(f"wild store at address {address}")
        self.heap[address] = value

    # -- main loop -----------------------------------------------------------

    def run(self) -> ExecutionResult:
        program = self.program
        table = program.steps
        decode = program.decode
        G = dict(program.globals)
        L: Dict[int, int] = {}            # the current frame's locals
        return_map: Dict[int, int] = {}   # the current frame's return map
        callers: List[Tuple[Dict[int, int], Dict[int, int]]] = []
        node_counts: Dict[int, int] = {}
        count_of = node_counts.get
        branch_true: Dict[int, int] = {}
        branch_false: Dict[int, int] = {}
        output: List[int] = []
        operations = conditionals = steps = 0
        step_limit = self.step_limit
        current = program.icfg.main_entry()
        pending_return: Optional[int] = None
        status, exit_value, message = "step-limit", None, "step limit exceeded"
        try:
            while steps < step_limit:
                steps += 1
                node_counts[current] = count_of(current, 0) + 1
                step = table.get(current)
                if step is None:
                    step = decode(current)
                kind = step[0]
                if kind == ASSIGN_LOCAL:
                    operations += 1
                    L[step[2]] = step[3](L, G, self)
                    current = step[1]
                elif kind == BRANCH:
                    operations += 1
                    taken = step[1](L, G, self)
                    conditionals += 1
                    if taken:
                        branch_true[current] = branch_true.get(current, 0) + 1
                        current = step[2]
                    else:
                        branch_false[current] = (branch_false.get(current, 0)
                                                 + 1)
                        current = step[3]
                elif kind == NEXT:
                    current = step[1]
                elif kind == ASSIGN_GLOBAL:
                    operations += 1
                    G[step[2]] = step[3](L, G, self)
                    current = step[1]
                elif kind == CALL:
                    operations += 1
                    args = [arg(L, G, self) for arg in step[2]]
                    callers.append((L, return_map))
                    L = dict(zip(step[3], args))
                    return_map = step[4]
                    current = step[1]
                elif kind == EXIT:
                    value = L.get(step[1], 0)
                    if not callers:
                        status, exit_value, message = "ok", value, ""
                        break
                    target = return_map.get(current)
                    if target is None:
                        raise InterpreterError(
                            f"no return address for exit {current} "
                            f"of {step[2]!r}")
                    L, return_map = callers.pop()
                    pending_return = value
                    current = target
                elif kind == CALL_EXIT:
                    if pending_return is None:
                        raise InterpreterError(
                            f"call-exit {current} reached without a return")
                    if step[2] is not None:
                        (G if step[3] else L)[step[2]] = pending_return
                    pending_return = None
                    current = step[1]
                elif kind == PRINT:
                    operations += 1
                    output.append(step[2](L, G, self))
                    current = step[1]
                else:  # STORE
                    operations += 1
                    address = step[2](L, G, self)
                    self.store(address, step[3](L, G, self))
                    current = step[1]
        except InterpreterError as fault:
            status, exit_value, message = "fault", None, str(fault)
        profile = Profile(node_counts, branch_true, branch_false,
                          operations, conditionals)
        return ExecutionResult(status=status, exit_value=exit_value,
                               output=output, profile=profile,
                               fault_message=message, steps=steps)


def run_icfg(icfg: Union[ICFG, DecodedICFG],
             workload: Optional[Workload] = None,
             step_limit: int = DEFAULT_STEP_LIMIT) -> ExecutionResult:
    """Execute ``icfg`` over ``workload``.

    Pass a :class:`DecodedICFG` to share its decoded steps with other
    runs of the same, unchanged graph.
    """
    from repro import obs
    stream = workload.fresh() if workload is not None else None
    with obs.span("interp.run") as span:
        result = Machine(icfg, stream, step_limit).run()
        span.set(status=result.status,
                 operations=result.profile.executed_operations)
    obs.add("interp.runs")
    obs.add("interp.operations", result.profile.executed_operations)
    obs.add("interp.executed_conditionals",
            result.profile.executed_conditionals)
    return result
