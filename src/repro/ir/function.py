"""Functions and programs.

A :class:`Function` owns a CFG and a register factory; a :class:`Program` is
an ordered collection of functions plus a global-variable layout used by the
interpreter's flat memory.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.util.errors import IRValidationError
from repro.ir.cfg import CFG
from repro.ir.registers import Register, RegisterFactory


class Function:
    """A single function: name, parameters, CFG, register namespace."""

    def __init__(self, name: str, params: Optional[List[Register]] = None):
        self.name = name
        self.params: List[Register] = list(params or [])
        self.cfg = CFG()
        self.regs = RegisterFactory()
        for param in self.params:
            self.regs.reserve(param)

    @property
    def entry(self):
        return self.cfg.entry

    def __repr__(self) -> str:
        return f"<function {self.name} blocks={len(self.cfg)}>"


class GlobalVar:
    """A global variable: a name bound to a fixed memory address.

    ``size`` is in words (the interpreter's memory is word-addressed);
    arrays occupy ``size`` consecutive words starting at ``address``.
    """

    __slots__ = ("name", "address", "size", "initial")

    def __init__(self, name: str, address: int, size: int = 1,
                 initial: Optional[List[object]] = None):
        self.name = name
        self.address = address
        self.size = size
        self.initial = list(initial or [])

    def __repr__(self) -> str:
        return f"<global {self.name} @{self.address} size={self.size}>"


class Program:
    """An ordered set of functions with a designated entry point."""

    def __init__(self, entry: str = "main"):
        self.entry_name = entry
        self._functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVar] = {}
        self._next_address = 0

    # ------------------------------------------------------------------

    def add_function(self, function: Function) -> Function:
        if function.name in self._functions:
            raise IRValidationError(f"duplicate function '{function.name}'")
        self._functions[function.name] = function
        return function

    def new_function(self, name: str, params: Optional[List[Register]] = None) -> Function:
        return self.add_function(Function(name, params))

    def function(self, name: str) -> Function:
        return self._functions[name]

    def has_function(self, name: str) -> bool:
        return name in self._functions

    def functions(self) -> List[Function]:
        return list(self._functions.values())

    def __iter__(self) -> Iterator[Function]:
        return iter(self._functions.values())

    def __len__(self) -> int:
        return len(self._functions)

    @property
    def entry_function(self) -> Function:
        return self._functions[self.entry_name]

    # ------------------------------------------------------------------
    # Globals

    def add_global(self, name: str, size: int = 1,
                   initial: Optional[List[object]] = None) -> GlobalVar:
        """Lay out a global at the next free address."""
        if name in self.globals:
            raise IRValidationError(f"duplicate global '{name}'")
        var = GlobalVar(name, self._next_address, size=size, initial=initial)
        self._next_address += size
        self.globals[name] = var
        return var

    def __repr__(self) -> str:
        return f"<program entry={self.entry_name} functions={len(self)}>"
