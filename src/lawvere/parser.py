"""Surface syntax for terms.

Grammar (documented in the README):

    expr    := term (('+' | '-') term)*
    term    := factor (['*'] factor)*          juxtaposition multiplies
    factor  := '-' factor | primary ('^' nat)*
    primary := letter | '0' | '1' | '(' expr ')'

Letters a..z bind to variable indices 0..25; '1' is the unit or point
constant, '0' the additive zero.  Parsing normalizes, and printing a
normal form parses back to it whenever all indices stay below 26.
"""
from __future__ import annotations

import string
from typing import Optional

from .terms import App, StructuralError, Term, TheorySpec, Var

LETTERS = string.ascii_lowercase
# parentheses and prefix minus signs open at once; each level costs the
# recursive-descent parser a few frames, so deeper input is refused
# before it can exhaust the interpreter's recursion limit.  A power
# chain may nest at most as many products: a^n nests n - 1, and nested
# powers multiply, so (a^40)^40 nests 1,599.
MAX_NESTING = 1000


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> Optional[str]:
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take(self) -> str:
        ch = self.peek()
        if ch is None:
            raise ParseError("unexpected end of input", self.pos)
        self.pos += 1
        return ch

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", start)
        return int(self.text[start:self.pos])


class _Parser:
    def __init__(self, text: str, theory: TheorySpec, arity: int):
        self.sc = _Scanner(text)
        self.theory = theory
        self.arity = arity
        # operations by the name ``need`` was asked for
        self.ops: dict = {}
        self.depth = 0
        # factors of the longest power chain in the innermost open
        # parentheses so far
        self.power = 1

    def nest(self, pos: int):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"term nests too deeply (more than {MAX_NESTING} levels)",
                pos)

    def need(self, name: str, names=None):
        """The operation for ``name``, the first of ``names`` (default
        ``name`` alone) that the theory has; looked up once per parse."""
        op = self.ops.get(name)
        if op is not None:
            return op
        for cand in names or (name,):
            if self.theory.has_op(cand):
                op = self.ops[name] = self.theory.op(cand)
                return op
        raise ParseError(
            f"theory {self.theory.name!r} has no {name!r} operation",
            self.sc.pos)

    def expr(self) -> Term:
        t = self.term()
        while True:
            ch = self.sc.peek()
            if ch == "+":
                self.sc.take()
                t = App(self.need("add"), (t, self.term()))
            elif ch == "-":
                self.sc.take()
                neg = self.need("neg")
                t = App(self.need("add"), (t, App(neg, (self.term(),))))
            else:
                return t

    def term(self) -> Term:
        t = self.factor()
        while True:
            ch = self.sc.peek()
            explicit = ch == "*"
            if explicit:
                self.sc.take()
                ch = self.sc.peek()
                if ch is None:
                    raise ParseError("dangling '*'", self.sc.pos)
            if ch is None or ch in "+-)":
                if explicit:
                    raise ParseError("dangling '*'", self.sc.pos)
                return t
            t = App(self.need("mul"), (t, self.factor()))

    def factor(self) -> Term:
        ch = self.sc.peek()
        if ch == "-":
            self.nest(self.sc.pos)
            self.sc.take()
            neg = self.need("neg")
            t = App(neg, (self.factor(),))
            self.depth -= 1
            return t
        t, power = self.primary()
        while self.sc.peek() == "^":
            self.sc.take()
            self.sc.skip_ws()
            pos = self.sc.pos
            n = self.sc.nat()
            power = power * n if n else 1
            if power - 1 > MAX_NESTING:
                raise ParseError(
                    f"power nests too deeply (more than {MAX_NESTING} "
                    "products)", pos)
            if n == 0:
                t = App(self.need("unit", ("one", "point")), ())
            else:
                out = t
                mul = self.need("mul") if n > 1 else None
                for _ in range(n - 1):
                    out = App(mul, (t, out))
                t = out
        self.power = max(self.power, power)
        return t

    def primary(self) -> tuple:
        """The primary and the factors of the longest power chain in
        it, which a power of the primary multiplies."""
        pos = self.sc.pos
        ch = self.sc.take()
        if ch == "(":
            self.nest(self.sc.pos - 1)
            enclosing, self.power = self.power, 1
            t = self.expr()
            power, self.power = self.power, enclosing
            self.depth -= 1
            if self.sc.peek() != ")":
                raise ParseError("expected ')'", self.sc.pos)
            self.sc.take()
            return t, power
        if ch == "0":
            return App(self.need("zero"), ()), 1
        if ch == "1":
            return App(self.need("unit", ("one", "point")), ()), 1
        if ch in LETTERS:
            idx = LETTERS.index(ch)
            if idx >= self.arity:
                raise ParseError(
                    f"variable {ch!r} is outside the declared arity {self.arity}",
                    pos)
            return Var(idx), 1
        raise ParseError(f"unexpected character {ch!r}", pos)


def parse_term(text: str, theory: TheorySpec, arity: int) -> Term:
    """Parse and normalize a term; raises ParseError with a position."""
    if not text.strip():
        raise ParseError("empty term", 0)
    p = _Parser(text, theory, arity)
    t = p.expr()
    if p.sc.peek() is not None:
        raise ParseError("trailing input", p.sc.pos)
    return theory.normalize(t)


def _var_name(i: int) -> str:
    if i < 26:
        return LETTERS[i]
    return f"v{i}"  # not re-parseable; arities that large never print round-trip


def format_term(t: Term) -> str:
    """Render a term in the CLI grammar."""
    return _fmt(t)


def _is_sum(t: Term) -> bool:
    return isinstance(t, App) and t.op.name == "add"


def _is_neg(t: Term) -> bool:
    return isinstance(t, App) and t.op.name == "neg"


def _fmt(t: Term) -> str:
    """Unparenthesized rendering; callers parenthesize as needed."""
    if isinstance(t, Var):
        return _var_name(t.index)
    name = t.op.name
    if name in ("one", "point"):
        return "1"
    if name == "zero":
        return "0"
    if name == "neg":
        inner = t.args[0]
        body = _fmt(inner)
        if _is_sum(inner):
            body = f"({body})"
        return f"-{body}"
    if name == "add":
        out = []
        for i, p in enumerate(_chain_parts(t, "add")):
            if _is_neg(p):
                body = _fmt(p.args[0])
                if _is_sum(p.args[0]):
                    body = f"({body})"
                out.append("-" + body)
            else:
                out.append(("" if i == 0 else "+") + _fmt(p))
        return "".join(out)
    if name == "mul":
        rendered = []
        for f in _chain_parts(t, "mul"):
            body = _fmt(f)
            if _is_sum(f) or _is_neg(f):
                body = f"({body})"
            rendered.append(body)
        return "".join(rendered)
    raise StructuralError(f"no printer for operation {t.op!r}")


def _chain_parts(t: Term, name: str) -> list:
    """The operands of a tree of binary ``name`` nodes, left to right; a
    loop, so that a long chain, such as a composite word, cannot exhaust
    the stack."""
    parts, todo = [], [t]
    while todo:
        x = todo.pop()
        if isinstance(x, App) and x.op.name == name:
            todo += (x.args[1], x.args[0])
        else:
            parts.append(x)
    return parts
