"""minic recursive-descent parser.

Grammar (EBNF, whitespace/comments elided):

    module    := (global | func)*
    global    := "var" ident ["=" number] ";"
               | "array" ident "[" int "]" ["=" "{" number ("," number)* "}"] ";"
    func      := "func" ident "(" [ident ("," ident)*] ")" block
    block     := "{" stmt* "}"
    stmt      := "var" ident ["=" expr] ";"
               | ident ("=" | "[" expr "]" "=") expr ";"
               | "if" "(" expr ")" block ["else" (block | if-stmt)]
               | "while" "(" expr ")" block
               | "for" "(" simple? ";" expr? ";" simple? ")" block
               | "break" ";" | "continue" ";"
               | "return" [expr] ";"
               | "switch" "(" expr ")" "{" case* [defaultcase] "}"
               | expr ";"
    case      := "case" int ":" block
    defaultcase := "default" ":" block
    expr      := or ; or := and ("||" and)* ; and := bitor ("&&" bitor)*
    bitor     := bitxor ("|" bitxor)* ; bitxor := bitand ("^" bitand)*
    bitand    := cmp ("&" cmp)*
    cmp       := shift (("=="|"!="|"<"|"<="|">"|">=") shift)?
    shift     := add (("<<"|">>") add)*
    add       := mul (("+"|"-") mul)* ; mul := unary (("*"|"/"|"%") unary)*
    unary     := ("-"|"!"|"~") unary | primary
    primary   := number | ident ["(" args ")" | "[" expr "]"] | "(" expr ")"
"""

from __future__ import annotations

from typing import List, Optional

from repro.util.errors import FrontendError
from repro.lang import ast
from repro.lang.lexer import Token, tokenize


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.position = 0

    # ------------------------------------------------------------------
    # Token plumbing

    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.current
        self.position += 1
        return token

    def check(self, kind: str, text: Optional[str] = None) -> bool:
        token = self.current
        if token.kind != kind:
            return False
        return text is None or token.text == text

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        if not self.check(kind, text):
            want = text or kind
            raise FrontendError(
                f"expected {want!r}, found {self.current.text or self.current.kind!r}",
                self.current.line, self.current.column,
            )
        return self.advance()

    # ------------------------------------------------------------------
    # Top level

    def parse_module(self) -> ast.Module:
        module = ast.Module()
        while not self.check("eof"):
            if self.check("var"):
                module.globals.append(self._global_var())
            elif self.check("array"):
                module.globals.append(self._global_array())
            elif self.check("func"):
                module.functions.append(self._function())
            else:
                raise FrontendError(
                    f"expected declaration, found {self.current.text!r}",
                    self.current.line, self.current.column,
                )
        return module

    def _number_literal(self) -> object:
        negative = self.accept("op", "-") is not None
        token = self.advance()
        if token.kind == "int":
            value: object = _int_value(token)
        elif token.kind == "float":
            value = float(token.text)
        else:
            raise FrontendError("expected a number", token.line, token.column)
        return -value if negative else value

    def _global_var(self) -> ast.GlobalDecl:
        line = self.expect("var").line
        name = self.expect("ident").text
        initial: List[object] = []
        if self.accept("op", "="):
            initial = [self._number_literal()]
        self.expect("op", ";")
        return ast.GlobalDecl(name, size=1, initial=initial, line=line)

    def _global_array(self) -> ast.GlobalDecl:
        line = self.expect("array").line
        name = self.expect("ident").text
        self.expect("op", "[")
        size = _int_value(self.expect("int"))
        self.expect("op", "]")
        initial: List[object] = []
        if self.accept("op", "="):
            self.expect("op", "{")
            if not self.check("op", "}"):
                initial.append(self._number_literal())
                while self.accept("op", ","):
                    initial.append(self._number_literal())
            self.expect("op", "}")
        self.expect("op", ";")
        if len(initial) > size:
            raise FrontendError(
                f"array {name!r} initializer longer than its size", line
            )
        return ast.GlobalDecl(name, size=size, initial=initial, line=line)

    def _function(self) -> ast.FuncDecl:
        line = self.expect("func").line
        name = self.expect("ident").text
        self.expect("op", "(")
        params: List[str] = []
        if self.check("ident"):
            params.append(self.advance().text)
            while self.accept("op", ","):
                params.append(self.expect("ident").text)
        self.expect("op", ")")
        body = self._block()
        return ast.FuncDecl(name, params=params, body=body, line=line)

    # ------------------------------------------------------------------
    # Statements

    def _block(self) -> List[ast.Stmt]:
        self.expect("op", "{")
        body: List[ast.Stmt] = []
        while not self.check("op", "}"):
            body.append(self._statement())
        self.expect("op", "}")
        return body

    def _statement(self) -> ast.Stmt:
        if self.check("var"):
            return self._var_decl()
        if self.check("if"):
            return self._if()
        if self.check("while"):
            return self._while()
        if self.check("for"):
            return self._for()
        if self.check("switch"):
            return self._switch()
        if self.check("break"):
            line = self.advance().line
            self.expect("op", ";")
            return ast.Break(line=line)
        if self.check("continue"):
            line = self.advance().line
            self.expect("op", ";")
            return ast.Continue(line=line)
        if self.check("return"):
            line = self.advance().line
            value = None if self.check("op", ";") else self._expr()
            self.expect("op", ";")
            return ast.Return(line=line, value=value)
        statement = self._simple_statement()
        self.expect("op", ";")
        return statement

    def _simple_statement(self) -> ast.Stmt:
        """Assignment or expression statement (no trailing ';')."""
        if self.check("var"):
            return self._var_decl(consume_semicolon=False)
        if self.check("ident"):
            save = self.position
            name_token = self.advance()
            if self.accept("op", "="):
                value = self._expr()
                return ast.Assign(line=name_token.line, name=name_token.text,
                                  value=value)
            if self.check("op", "["):
                self.advance()
                index = self._expr()
                self.expect("op", "]")
                if self.accept("op", "="):
                    value = self._expr()
                    return ast.Assign(line=name_token.line,
                                      name=name_token.text,
                                      index=index, value=value)
            self.position = save  # plain expression after all
        expr = self._expr()
        return ast.ExprStmt(line=expr.line, expr=expr)

    def _var_decl(self, consume_semicolon: bool = True) -> ast.VarDecl:
        line = self.expect("var").line
        name = self.expect("ident").text
        init = None
        if self.accept("op", "="):
            init = self._expr()
        if consume_semicolon:
            self.expect("op", ";")
        return ast.VarDecl(line=line, name=name, init=init)

    def _if(self) -> ast.If:
        line = self.expect("if").line
        self.expect("op", "(")
        cond = self._expr()
        self.expect("op", ")")
        then_body = self._block()
        else_body: List[ast.Stmt] = []
        if self.accept("else"):
            if self.check("if"):
                else_body = [self._if()]
            else:
                else_body = self._block()
        return ast.If(line=line, cond=cond, then_body=then_body,
                      else_body=else_body)

    def _while(self) -> ast.While:
        line = self.expect("while").line
        self.expect("op", "(")
        cond = self._expr()
        self.expect("op", ")")
        return ast.While(line=line, cond=cond, body=self._block())

    def _for(self) -> ast.For:
        line = self.expect("for").line
        self.expect("op", "(")
        init = None if self.check("op", ";") else self._simple_statement()
        self.expect("op", ";")
        cond = None if self.check("op", ";") else self._expr()
        self.expect("op", ";")
        step = None if self.check("op", ")") else self._simple_statement()
        self.expect("op", ")")
        return ast.For(line=line, init=init, cond=cond, step=step,
                       body=self._block())

    def _switch(self) -> ast.Switch:
        line = self.expect("switch").line
        self.expect("op", "(")
        selector = self._expr()
        self.expect("op", ")")
        self.expect("op", "{")
        cases = []
        default: List[ast.Stmt] = []
        seen_values = set()
        while not self.check("op", "}"):
            if self.accept("case"):
                negative = self.accept("op", "-") is not None
                value = _int_value(self.expect("int"))
                if negative:
                    value = -value
                if value in seen_values:
                    raise FrontendError(f"duplicate case {value}", line)
                seen_values.add(value)
                self.expect("op", ":")
                cases.append((value, self._block()))
            elif self.accept("default"):
                self.expect("op", ":")
                default = self._block()
            else:
                raise FrontendError(
                    f"expected 'case' or 'default', found {self.current.text!r}",
                    self.current.line, self.current.column,
                )
        self.expect("op", "}")
        if not cases:
            raise FrontendError("switch needs at least one case", line)
        return ast.Switch(line=line, selector=selector, cases=cases,
                          default=default)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing via nested helpers)

    def _binary_level(self, operators, next_level):
        left = next_level()
        while self.current.kind == "op" and self.current.text in operators:
            op = self.advance().text
            right = next_level()
            left = ast.Binary(line=left.line, op=op, left=left, right=right)
        return left

    def _expr(self) -> ast.Expr:
        return self._or()

    def _or(self):
        return self._binary_level(("||",), self._and)

    def _and(self):
        return self._binary_level(("&&",), self._bitor)

    def _bitor(self):
        return self._binary_level(("|",), self._bitxor)

    def _bitxor(self):
        return self._binary_level(("^",), self._bitand)

    def _bitand(self):
        return self._binary_level(("&",), self._cmp)

    def _cmp(self):
        left = self._shift()
        if self.current.kind == "op" and self.current.text in (
            "==", "!=", "<", "<=", ">", ">=",
        ):
            op = self.advance().text
            right = self._shift()
            return ast.Binary(line=left.line, op=op, left=left, right=right)
        return left

    def _shift(self):
        return self._binary_level(("<<", ">>"), self._add)

    def _add(self):
        return self._binary_level(("+", "-"), self._mul)

    def _mul(self):
        return self._binary_level(("*", "/", "%"), self._unary)

    def _unary(self):
        if self.current.kind == "op" and self.current.text in ("-", "!", "~"):
            token = self.advance()
            operand = self._unary()
            return ast.Unary(line=token.line, op=token.text, operand=operand)
        return self._primary()

    def _primary(self):
        token = self.current
        if token.kind == "int":
            self.advance()
            return ast.IntLit(line=token.line, value=_int_value(token))
        if token.kind == "float":
            self.advance()
            return ast.FloatLit(line=token.line, value=float(token.text))
        if token.kind == "ident":
            self.advance()
            if self.accept("op", "("):
                args: List[ast.Expr] = []
                if not self.check("op", ")"):
                    args.append(self._expr())
                    while self.accept("op", ","):
                        args.append(self._expr())
                self.expect("op", ")")
                return ast.Call(line=token.line, name=token.text, args=args)
            if self.accept("op", "["):
                index = self._expr()
                self.expect("op", "]")
                return ast.Index(line=token.line, name=token.text, index=index)
            return ast.VarRef(line=token.line, name=token.text)
        if self.accept("op", "("):
            inner = self._expr()
            self.expect("op", ")")
            return inner
        raise FrontendError(
            f"expected an expression, found {token.text or token.kind!r}",
            token.line, token.column,
        )


def _int_value(token: Token) -> int:
    """The value of an ``int`` token.  Python's ``int`` refuses more
    than a few thousand digits; that is a typed error here."""
    try:
        return int(token.text)
    except ValueError:
        raise FrontendError(
            f"integer literal of {len(token.text)} digits is too long",
            token.line, token.column) from None


def parse(source: str) -> ast.Module:
    """Tokenize and parse minic source into a module AST."""
    tokens = tokenize(source)
    try:
        return _Parser(tokens).parse_module()
    except RecursionError:
        raise FrontendError("program nests too deeply to parse") from None
