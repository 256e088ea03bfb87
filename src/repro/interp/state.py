"""Interpreter machine state: registers and word-addressed memory."""

from __future__ import annotations

from typing import Dict, Optional

from repro.util.errors import InterpreterError
from repro.ir.function import Program
from repro.ir.registers import Register


class MachineState:
    """Registers and flat memory for one activation.

    Registers are per-activation (each call gets a fresh file, as the IR
    uses virtual registers with no calling convention beyond parameter
    registers).  Memory is shared across activations and word-addressed;
    reads of untouched words return 0, like zero-initialized data memory.
    Reads of never-written registers raise — the sequential interpreter is
    the semantic oracle and must catch frontend bugs — unless ``strict``
    is disabled (the VLIW simulator disables it: speculated ops may
    legitimately read junk that is then discarded).
    """

    def __init__(self, memory: Optional[Dict[int, object]] = None,
                 strict: bool = True):
        self.registers: Dict[Register, object] = {}
        self.memory: Dict[int, object] = memory if memory is not None else {}
        self.strict = strict

    # ------------------------------------------------------------------

    def read(self, register: Register):
        try:
            return self.registers[register]
        except KeyError:
            if self.strict:
                raise InterpreterError(
                    f"read of undefined register {register}"
                ) from None
            return 0

    def write(self, register: Register, value) -> None:
        self.registers[register] = value

    # ------------------------------------------------------------------

    def load(self, address: int):
        return self.memory.get(int(address), 0)

    def store(self, address: int, value) -> None:
        self.memory[int(address)] = value

    # ------------------------------------------------------------------

    @staticmethod
    def initial_memory(program: Program) -> Dict[int, object]:
        """Memory image with the program's globals laid out and filled."""
        memory: Dict[int, object] = {}
        for var in program.globals.values():
            for offset, value in enumerate(var.initial):
                memory[var.address + offset] = value
        return memory
