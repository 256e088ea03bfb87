"""Lowering minic ASTs to the IR.

Design notes:

* Local variables live in fixed virtual registers for the whole function
  (no SSA) — re-assignments rewrite the same register, so branchy minic
  code produces exactly the cross-path register conflicts the treegion
  scheduler's renaming pass exists for.
* Globals and global arrays live in data memory (``LD``/``ST`` against
  immediate base addresses assigned by :class:`Program`'s layout).
* Conditions lower *as control*: short-circuit ``&&``/``||`` become
  branch trees, comparisons become ``CMPP`` + ``BRCT``.  Conditions used
  *as values* (``x = a < b``) lower to a 0/1 diamond, giving realistic
  merge points.
* ``switch`` lowers to the IR's multiway branch with one case edge per
  label; case bodies never fall through (each jumps to the join).
* ``/`` and ``%`` are integer (truncating) operations; ``+ - *`` work on
  floats too (values are dynamically typed at the interpreter level).
* Variables are function-scoped; ``break``/``continue`` bind to the
  innermost loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.util.errors import FrontendError
from repro.ir.builder import IRBuilder, Value
from repro.ir.cfg import BasicBlock
from repro.ir.function import Function, Program
from repro.ir.registers import Register
from repro.ir.types import CompareCond, Immediate, Opcode
from repro.ir.verify import verify_program
from repro.lang import ast
from repro.lang.parser import parse

_ARITH = {
    "+": Opcode.ADD, "-": Opcode.SUB, "*": Opcode.MUL,
    "/": Opcode.DIV, "%": Opcode.MOD,
    "&": Opcode.AND, "|": Opcode.OR, "^": Opcode.XOR,
    "<<": Opcode.SHL, ">>": Opcode.SHR,
}
_COMPARE = {
    "==": CompareCond.EQ, "!=": CompareCond.NE,
    "<": CompareCond.LT, "<=": CompareCond.LE,
    ">": CompareCond.GT, ">=": CompareCond.GE,
}


class _FunctionLowering:
    def __init__(self, program: Program, module: ast.Module,
                 decl: ast.FuncDecl):
        self.program = program
        self.module = module
        self.decl = decl
        self.fn = Function(decl.name)
        for name in decl.params:
            param = self.fn.regs.fresh_gpr()
            self.fn.params.append(param)
        self.b = IRBuilder(self.fn)
        self.vars: Dict[str, Register] = dict(zip(decl.params, self.fn.params))
        #: (continue target, break target) per enclosing loop.
        self.loops: List[Tuple[BasicBlock, BasicBlock]] = []

    # ------------------------------------------------------------------

    def lower(self) -> Function:
        entry = self.b.block("entry")
        self.b.at(entry)
        terminated = self._lower_body(self.decl.body)
        if not terminated:
            self.b.ret(0)  # implicit "return 0" at the end
        return self.fn

    def _lower_body(self, body: List[ast.Stmt]) -> bool:
        """Lower statements into the current block.

        Returns True if control definitely left (return/break/continue),
        in which case the remaining statements were unreachable and were
        dropped.
        """
        for statement in body:
            if self._lower_stmt(statement):
                return True
        return False

    # ------------------------------------------------------------------
    # Statements

    def _lower_stmt(self, statement: ast.Stmt) -> bool:
        if isinstance(statement, ast.VarDecl):
            if statement.name in self.vars:
                raise FrontendError(
                    f"variable {statement.name!r} redeclared", statement.line
                )
            register = self.fn.regs.fresh_gpr()
            self.vars[statement.name] = register
            init: ast.Expr = statement.init or ast.IntLit(value=0)
            self._expr_into(init, register)
            return False
        if isinstance(statement, ast.Assign):
            return self._lower_assign(statement)
        if isinstance(statement, ast.ExprStmt):
            self._expr(statement.expr)
            return False
        if isinstance(statement, ast.If):
            return self._lower_if(statement)
        if isinstance(statement, ast.While):
            return self._lower_while(statement)
        if isinstance(statement, ast.For):
            return self._lower_for(statement)
        if isinstance(statement, ast.Switch):
            return self._lower_switch(statement)
        if isinstance(statement, ast.Return):
            value = self._expr(statement.value) if statement.value else 0
            self.b.ret(value)
            return True
        if isinstance(statement, ast.Break):
            if not self.loops:
                raise FrontendError("'break' outside a loop", statement.line)
            self.b.jump(self.loops[-1][1])
            return True
        if isinstance(statement, ast.Continue):
            if not self.loops:
                raise FrontendError("'continue' outside a loop", statement.line)
            self.b.jump(self.loops[-1][0])
            return True
        raise FrontendError(f"cannot lower {type(statement).__name__}",
                            statement.line)

    def _lower_assign(self, statement: ast.Assign) -> bool:
        if statement.index is not None:
            address = self._global_address(statement.name, statement.line)
            index = self._expr(statement.index)
            value = self._expr(statement.value)
            self.b.st(address, index, value)
            return False
        if statement.name in self.vars:
            self._expr_into(statement.value, self.vars[statement.name])
            return False
        if statement.name in self.program.globals:
            address = self.program.globals[statement.name].address
            value = self._expr(statement.value)
            self.b.st(address, 0, value)
            return False
        raise FrontendError(f"assignment to undeclared {statement.name!r}",
                            statement.line)

    def _lower_if(self, statement: ast.If) -> bool:
        then_bb = self.b.block("then")
        else_bb = self.b.block("else") if statement.else_body else None
        join = self.b.block("join")
        self._branch(statement.cond, then_bb, else_bb or join)

        self.b.at(then_bb)
        if not self._lower_body(statement.then_body):
            self.b.jump(join)
        then_done = False

        if else_bb is not None:
            self.b.at(else_bb)
            if not self._lower_body(statement.else_body):
                self.b.jump(join)

        self.b.at(join)
        if not join.in_edges:
            # Both arms escaped; the join is unreachable — give it a
            # trivially-valid body so the verifier stays happy.
            self.b.ret(0)
            return True
        return False

    def _lower_while(self, statement: ast.While) -> bool:
        header = self.b.block("while.header")
        body = self.b.block("while.body")
        exit_bb = self.b.block("while.exit")
        self.b.fallthrough(header)

        self.b.at(header)
        self._branch(statement.cond, body, exit_bb)

        self.loops.append((header, exit_bb))
        self.b.at(body)
        if not self._lower_body(statement.body):
            self.b.jump(header)
        self.loops.pop()

        self.b.at(exit_bb)
        if not exit_bb.in_edges:
            self.b.ret(0)
            return True
        return False

    def _lower_for(self, statement: ast.For) -> bool:
        if statement.init is not None:
            self._lower_stmt(statement.init)
        header = self.b.block("for.header")
        body = self.b.block("for.body")
        step = self.b.block("for.step")
        exit_bb = self.b.block("for.exit")
        self.b.fallthrough(header)

        self.b.at(header)
        if statement.cond is not None:
            self._branch(statement.cond, body, exit_bb)
        else:
            self.b.jump(body)

        self.loops.append((step, exit_bb))
        self.b.at(body)
        if not self._lower_body(statement.body):
            self.b.jump(step)
        self.loops.pop()

        self.b.at(step)
        if statement.step is not None:
            self._lower_stmt(statement.step)
        self.b.jump(header)

        self.b.at(exit_bb)
        if not exit_bb.in_edges:
            self.b.ret(0)
            return True
        return False

    def _lower_switch(self, statement: ast.Switch) -> bool:
        selector = self._as_register(self._expr(statement.selector))
        case_blocks = [
            (value, self.b.block(f"case{value}"))
            for value, _ in statement.cases
        ]
        default_bb = self.b.block("default")
        join = self.b.block("switch.join")
        self.b.switch(selector, case_blocks, default_bb)

        for (value, body), (_, block) in zip(statement.cases, case_blocks):
            self.b.at(block)
            if not self._lower_body(body):
                self.b.jump(join)

        self.b.at(default_bb)
        if not self._lower_body(statement.default):
            self.b.jump(join)

        self.b.at(join)
        if not join.in_edges:
            self.b.ret(0)
            return True
        return False

    # ------------------------------------------------------------------
    # Conditions as control flow

    def _branch(self, cond: ast.Expr, true_bb: BasicBlock,
                false_bb: BasicBlock) -> None:
        """Lower ``cond`` so control reaches true_bb/false_bb."""
        if isinstance(cond, ast.Binary) and cond.op == "&&":
            middle = self.b.block("and.rhs")
            self._branch(cond.left, middle, false_bb)
            self.b.at(middle)
            self._branch(cond.right, true_bb, false_bb)
            return
        if isinstance(cond, ast.Binary) and cond.op == "||":
            middle = self.b.block("or.rhs")
            self._branch(cond.left, true_bb, middle)
            self.b.at(middle)
            self._branch(cond.right, true_bb, false_bb)
            return
        if isinstance(cond, ast.Unary) and cond.op == "!":
            self._branch(cond.operand, false_bb, true_bb)
            return
        if isinstance(cond, ast.Binary) and cond.op in _COMPARE:
            left = self._expr(cond.left)
            right = self._expr(cond.right)
            predicate = self.b.cmpp(_COMPARE[cond.op], left, right)
            self.b.br_true(predicate, true_bb, false_bb)
            return
        # Any other expression: nonzero means true.
        value = self._expr(cond)
        predicate = self.b.cmpp(CompareCond.NE, value, 0)
        self.b.br_true(predicate, true_bb, false_bb)

    # ------------------------------------------------------------------
    # Expressions as values

    def _expr(self, expr: ast.Expr) -> Value:
        return self._expr_into(expr, None)

    def _as_register(self, value: Value) -> Register:
        if isinstance(value, Register):
            return value
        return self.b.mov(value)

    def _expr_into(self, expr: ast.Expr,
                   dest: Optional[Register]) -> Value:
        """Lower ``expr``; if ``dest`` is given the result lands there."""
        if isinstance(expr, ast.IntLit):
            return self._literal(expr.value, dest)
        if isinstance(expr, ast.FloatLit):
            return self._literal(expr.value, dest)
        if isinstance(expr, ast.VarRef):
            return self._var_ref(expr, dest)
        if isinstance(expr, ast.Index):
            address = self._global_address(expr.name, expr.line)
            index = self._expr(expr.index)
            return self.b.ld(address, index, dest=dest)
        if isinstance(expr, ast.Call):
            if not self.module_has_function(expr.name):
                raise FrontendError(f"call to unknown function {expr.name!r}",
                                    expr.line)
            args = [self._expr(a) for a in expr.args]
            return self.b.call(expr.name, args, dest=dest)
        if isinstance(expr, ast.Unary):
            return self._unary(expr, dest)
        if isinstance(expr, ast.Binary):
            return self._binary(expr, dest)
        raise FrontendError(f"cannot lower {type(expr).__name__}", expr.line)

    def module_has_function(self, name: str) -> bool:
        return any(f.name == name for f in self.module.functions)

    def _literal(self, value, dest: Optional[Register]) -> Value:
        if dest is None:
            return Immediate(value)
        return self.b.mov(value, dest=dest)

    def _var_ref(self, expr: ast.VarRef, dest: Optional[Register]) -> Value:
        if expr.name in self.vars:
            register = self.vars[expr.name]
            if dest is None or dest == register:
                return register
            return self.b.mov(register, dest=dest)
        if expr.name in self.program.globals:
            address = self.program.globals[expr.name].address
            return self.b.ld(address, 0, dest=dest)
        raise FrontendError(f"undefined variable {expr.name!r}", expr.line)

    def _global_address(self, name: str, line: int) -> int:
        var = self.program.globals.get(name)
        if var is None:
            raise FrontendError(f"undefined global/array {name!r}", line)
        return var.address

    def _unary(self, expr: ast.Unary, dest: Optional[Register]) -> Value:
        if expr.op == "-":
            return self._emit_unop(Opcode.NEG, expr.operand, dest)
        if expr.op == "~":
            return self._emit_unop(Opcode.NOT, expr.operand, dest)
        if expr.op == "!":
            return self._bool_diamond(expr, dest)
        raise FrontendError(f"unknown unary operator {expr.op!r}", expr.line)

    def _emit_unop(self, opcode: Opcode, operand: ast.Expr,
                   dest: Optional[Register]) -> Register:
        value = self._expr(operand)
        dest = dest or self.fn.regs.fresh_gpr()
        self.b.emit(opcode, dests=[dest], srcs=[value])
        return dest

    def _binary(self, expr: ast.Binary, dest: Optional[Register]) -> Value:
        if expr.op in _ARITH:
            # A left-nested chain (``a + b - c * d ...``) is lowered
            # bottom-up in a loop, not one call per node, so its length
            # is not bounded by the recursion limit.  The ops and
            # register numbers match the recursive lowering.
            chain = [expr]
            while (isinstance(chain[-1].left, ast.Binary)
                   and chain[-1].left.op in _ARITH):
                chain.append(chain[-1].left)
            value = self._expr(chain[-1].left)
            for node in reversed(chain):
                right = self._expr(node.right)
                target = (dest if node is expr else None) \
                    or self.fn.regs.fresh_gpr()
                self.b.emit(_ARITH[node.op], dests=[target],
                            srcs=[value, right])
                value = target
            return value
        if expr.op in _COMPARE or expr.op in ("&&", "||"):
            return self._bool_diamond(expr, dest)
        raise FrontendError(f"unknown operator {expr.op!r}", expr.line)

    def _bool_diamond(self, expr: ast.Expr,
                      dest: Optional[Register]) -> Register:
        """A condition used as a value: materialize 0/1 via a diamond."""
        dest = dest or self.fn.regs.fresh_gpr()
        true_bb = self.b.block("bool.true")
        false_bb = self.b.block("bool.false")
        join = self.b.block("bool.join")
        self._branch(expr, true_bb, false_bb)
        self.b.at(true_bb)
        self.b.mov(1, dest=dest)
        self.b.jump(join)
        self.b.at(false_bb)
        self.b.mov(0, dest=dest)
        self.b.fallthrough(join)
        self.b.at(join)
        return dest


def compile_module(module: ast.Module, entry: str = "main") -> Program:
    """Lower a parsed module to a verified IR program."""
    program = Program(entry=entry)
    for declaration in module.globals:
        program.add_global(declaration.name, size=declaration.size,
                           initial=declaration.initial)
    for decl in module.functions:
        lowering = _FunctionLowering(program, module, decl)
        try:
            program.add_function(lowering.lower())
        except RecursionError:
            raise FrontendError(f"function '{decl.name}' nests too deeply "
                                "to lower") from None
    if not program.has_function(entry):
        raise FrontendError(f"program has no '{entry}' function")
    verify_program(program)
    return program


def compile_source(source: str, entry: str = "main") -> Program:
    """Parse and lower minic source text to a verified IR program."""
    return compile_module(parse(source), entry=entry)
