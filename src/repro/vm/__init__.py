"""Mini virtual-machine substrate: the reproduction's "native binary".

The VM plays the role Valgrind-instrumented machine code plays in the paper:
a deterministic source of function entries/exits, memory accesses, and
operation counts that Sigil and the Callgrind-equivalent observe.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.vm.builder": ("FunctionBuilder", "Label", "ProgramBuilder"),
    "repro.vm.errors": (
        "ExecutionLimitExceeded", "InvalidRegisterError", "MemoryFault",
        "ProgramError", "UnknownFunctionError", "UnknownLabelError", "VMError",
    ),
    "repro.vm.machine": ("Machine", "MachineResult"),
    "repro.vm.memory": ("PAGE_SIZE", "FlatMemory"),
    "repro.vm.program": ("Function", "Program"),
})
