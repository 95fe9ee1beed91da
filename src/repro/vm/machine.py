"""The mini-VM interpreter: executes a Program and narrates it to an observer.

The machine is this reproduction's stand-in for a native binary under
Valgrind: every retired instruction is visible to the attached
:class:`~repro.trace.observer.TraceObserver` as the corresponding primitive
(function entry/exit, memory access, operation, branch, syscall).  Running
with a :class:`~repro.trace.observer.NullObserver` is the "native" baseline
of the overhead study (Figure 4).

Execution is fully deterministic: no wall-clock, no host randomness.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.telemetry.session import NULL_TELEMETRY
from repro.trace.events import OpKind
from repro.trace.observer import NullObserver, TraceObserver
from repro.vm.errors import ExecutionLimitExceeded, VMError
from repro.vm.isa import (
    Alu,
    AluImm,
    BranchIf,
    Call,
    Const,
    FAlu,
    FUnary,
    Halt,
    Jump,
    Load,
    Mov,
    Ret,
    Store,
    Syscall,
)
from repro.vm.memory import FlatMemory
from repro.vm.program import Function, Program

__all__ = ["Machine", "MachineResult"]

_INT_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: _checked_div(a, b),
    "mod": lambda a, b: _checked_mod(a, b),
    "and": lambda a, b: int(a) & int(b),
    "or": lambda a, b: int(a) | int(b),
    "xor": lambda a, b: int(a) ^ int(b),
    "shl": lambda a, b: int(a) << int(b),
    "shr": lambda a, b: int(a) >> int(b),
    "lt": lambda a, b: int(a < b),
    "le": lambda a, b: int(a <= b),
    "eq": lambda a, b: int(a == b),
    "ne": lambda a, b: int(a != b),
    "gt": lambda a, b: int(a > b),
    "ge": lambda a, b: int(a >= b),
    "min": min,
    "max": max,
}

_FLOAT_OPS = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fdiv": lambda a, b: _checked_fdiv(a, b),
    "fmin": min,
    "fmax": max,
}

def _checked_sqrt(a: float) -> float:
    if a < 0.0:
        raise VMError(f"fsqrt of negative value {a}")
    return math.sqrt(a)


def _checked_exp(a: float) -> float:
    if a > 709.0:  # exp(709.78...) overflows float64
        raise VMError(f"fexp overflow for operand {a}")
    return math.exp(a)


def _checked_log(a: float) -> float:
    if a <= 0.0:
        raise VMError(f"flog of non-positive value {a}")
    return math.log(a)


_FUNARY_OPS = {
    "fneg": lambda a: -a,
    "fabs": abs,
    "fsqrt": _checked_sqrt,
    "fexp": _checked_exp,
    "flog": _checked_log,
}


def _checked_div(a: int, b: int) -> int:
    if b == 0:
        raise VMError("integer division by zero")
    return int(a) // int(b)


def _checked_mod(a: int, b: int) -> int:
    if b == 0:
        raise VMError("integer modulo by zero")
    return int(a) % int(b)


def _checked_fdiv(a: float, b: float) -> float:
    if b == 0.0:
        raise VMError("float division by zero")
    return a / b


class _Frame:
    __slots__ = ("func", "pc", "regs", "ret_dst")

    def __init__(self, func: Function, ret_dst: Optional[int]):
        self.func = func
        self.pc = 0
        self.regs: List[float | int] = [0] * func.n_regs
        self.ret_dst = ret_dst


class MachineResult:
    """Outcome of a run: the entry function's return value plus counters."""

    __slots__ = ("value", "instructions")

    def __init__(self, value: float | int | None, instructions: int):
        self.value = value
        self.instructions = instructions

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MachineResult(value={self.value!r}, instructions={self.instructions})"


class Machine:
    """Interprets a :class:`~repro.vm.program.Program`.

    Parameters
    ----------
    memory:
        Backing memory; a fresh strict :class:`FlatMemory` by default.
    max_instructions:
        Fuel limit guarding against runaway programs (tests, fuzzing).
    """

    def __init__(
        self,
        memory: Optional[FlatMemory] = None,
        *,
        max_instructions: int = 500_000_000,
        telemetry=None,
    ):
        self.memory = memory if memory is not None else FlatMemory()
        self.max_instructions = max_instructions
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    def run(
        self,
        program: Program,
        observer: Optional[TraceObserver] = None,
        *,
        validate: bool = True,
    ) -> MachineResult:
        """Execute ``program`` from its entry function to completion."""
        if validate:
            program.validate()
        obs = observer if observer is not None else NullObserver()
        mem = self.memory
        retired = 0
        budget = self.max_instructions

        obs.on_run_begin()
        entry = program.functions[program.entry]
        obs.on_fn_enter(entry.name)
        stack: List[_Frame] = [_Frame(entry, None)]
        result: float | int | None = None

        while stack:
            frame = stack[-1]
            code = frame.func.code
            if frame.pc >= len(code):
                # Fall off the end: implicit return (builder normally
                # guarantees an explicit Ret, but hand-built programs may not).
                obs.on_fn_exit(frame.func.name)
                stack.pop()
                continue
            ins = code[frame.pc]
            frame.pc += 1
            retired += 1
            if retired > budget:
                raise ExecutionLimitExceeded(
                    f"exceeded {budget} instructions (runaway program?)"
                )
            regs = frame.regs

            if isinstance(ins, Alu):
                regs[ins.dst] = _INT_OPS[ins.op](regs[ins.a], regs[ins.b])
                obs.on_op(OpKind.INT, 1)
            elif isinstance(ins, AluImm):
                regs[ins.dst] = _INT_OPS[ins.op](regs[ins.a], ins.imm)
                obs.on_op(OpKind.INT, 1)
            elif isinstance(ins, FAlu):
                regs[ins.dst] = _FLOAT_OPS[ins.op](float(regs[ins.a]), float(regs[ins.b]))
                obs.on_op(OpKind.FLOAT, 1)
            elif isinstance(ins, FUnary):
                regs[ins.dst] = _FUNARY_OPS[ins.op](float(regs[ins.a]))
                obs.on_op(OpKind.FLOAT, 1)
            elif isinstance(ins, Load):
                addr = int(regs[ins.base]) + ins.offset
                if ins.is_float:
                    regs[ins.dst] = mem.read_float(addr)
                else:
                    regs[ins.dst] = mem.read_int(addr, ins.size)
                obs.on_mem_read(addr, ins.size)
            elif isinstance(ins, Store):
                addr = int(regs[ins.base]) + ins.offset
                if ins.is_float:
                    mem.write_float(addr, float(regs[ins.src]))
                else:
                    mem.write_int(addr, int(regs[ins.src]), ins.size)
                obs.on_mem_write(addr, ins.size)
            elif isinstance(ins, Const):
                regs[ins.dst] = ins.value
                obs.on_op(OpKind.INT, 1)
            elif isinstance(ins, Mov):
                regs[ins.dst] = regs[ins.src]
                obs.on_op(OpKind.INT, 1)
            elif isinstance(ins, BranchIf):
                taken = bool(regs[ins.cond])
                obs.on_branch(ins.site, taken)
                if taken:
                    frame.pc = ins.target
            elif isinstance(ins, Jump):
                frame.pc = ins.target
            elif isinstance(ins, Call):
                callee = program.functions[ins.func]
                new_frame = _Frame(callee, ins.dst)
                for i, reg in enumerate(ins.args):
                    new_frame.regs[i] = regs[reg]
                obs.on_fn_enter(callee.name)
                stack.append(new_frame)
            elif isinstance(ins, Ret):
                value = regs[ins.src] if ins.src is not None else None
                obs.on_fn_exit(frame.func.name)
                stack.pop()
                if stack:
                    if frame.ret_dst is not None:
                        stack[-1].regs[frame.ret_dst] = value if value is not None else 0
                else:
                    result = value
            elif isinstance(ins, Syscall):
                obs.on_syscall_enter(ins.name, ins.input_bytes)
                obs.on_syscall_exit(ins.name, ins.output_bytes)
            elif isinstance(ins, Halt):
                while stack:
                    obs.on_fn_exit(stack.pop().func.name)
            else:  # pragma: no cover - defensive
                raise VMError(f"unknown instruction {ins!r}")

        obs.on_run_end()
        # Whole-run accounting: one call regardless of run length, so the
        # interpreter loop itself stays telemetry-free.
        self.telemetry.counter("vm.instructions_retired").inc(retired)
        self.telemetry.counter("vm.runs").inc(1)
        return MachineResult(result, retired)
