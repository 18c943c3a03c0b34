"""Text syntax for polynomials and exponential polynomials.

Grammar (EBNF):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := rat | var | 'exp' '(' xvar ')' | '(' expr ')'
    rat    := int ('/' posint)?
    var    := 'x' nat | 'u' nat

Variable indices are 1-based.  Implicit multiplication is rejected, '/'
appears only inside rational literals, and exp() takes a single x-variable
(general arguments are rejected at parse level).  The leading optional '-'
is the only unary minus.

``parse_poly`` accepts x- and u-variables and rejects exp();
``parse_epoly`` additionally accepts exp(xi), which denotes the same
function as ui, and returns the canonical exponential polynomial.

Pretty printing emits canonical text (terms in decreasing graded-lex order,
exponential factors in spectrum order) that parses back to an equal value.
A monomial prints its variables in layout order, x1..xn then u1..un, each
named by ``poly.var_name``; the parser builds variables with ``Poly.var``.
Exponential polynomials whose spectra are not non-negative integers (they
arise from hyperplane restriction) are printed in a readable extended form
``exp(q1*x1 + ...)`` that is not part of the input grammar.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .epoly import EPoly
from .errors import ParseError
from .hyperplanes import Hyperplane
from .poly import Mono, Poly, var_name


class Token(NamedTuple):
    kind: str  # NUM, VAR, EXP, OP, END
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)

_VAR_RE = re.compile(r"^(x|u)([1-9][0-9]*)$")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    col = 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup == "ws":
            for ch in lexeme:
                if ch == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            pos = m.end()
            continue
        if m.lastgroup == "num":
            tokens.append(Token("NUM", lexeme, line, col))
        elif m.lastgroup == "name":
            if lexeme == "exp":
                tokens.append(Token("EXP", lexeme, line, col))
            elif _VAR_RE.match(lexeme):
                tokens.append(Token("VAR", lexeme, line, col))
            else:
                raise ParseError(f"unknown name {lexeme!r}", line, col)
        else:
            tokens.append(Token("OP", lexeme, line, col))
        col += len(lexeme)
        pos = m.end()
    tokens.append(Token("END", "", line, col))
    return tokens


class _Parser:
    """Recursive-descent parser building Poly values directly.

    exp(xi) is parsed as the variable ui; the epoly entry point applies the
    canonical expansion afterwards, which makes the two spellings agree.
    """

    def __init__(self, tokens: list[Token], n: int, allow_exp: bool):
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.allow_exp = allow_exp

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if tok.kind != "OP" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.line, tok.column)
        return self.advance()

    def parse(self) -> Poly:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
        return value

    def expr(self) -> Poly:
        negate = False
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if tok.text == "+" else value - rhs
            else:
                return value

    def term(self) -> Poly:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text == "*":
                self.advance()
                value = value * self.factor()
            else:
                return value

    def factor(self) -> Poly:
        value = self.base()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            num = self.peek()
            if num.kind != "NUM":
                raise ParseError("exponent must be a non-negative integer", num.line, num.column)
            self.advance()
            exponent = int(num.text)
            if exponent > 64:
                raise ParseError("exponent too large (limit 64)", num.line, num.column)
            value = value**exponent
        return value

    def base(self) -> Poly:
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            numerator = int(tok.text)
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "/":
                self.advance()
                den = self.peek()
                if den.kind != "NUM" or int(den.text) == 0:
                    raise ParseError("denominator must be a positive integer", den.line, den.column)
                self.advance()
                return Poly.const(self.n, Fraction(numerator, int(den.text)))
            return Poly.const(self.n, numerator)
        if tok.kind == "VAR":
            self.advance()
            kind, idx = _split_var(tok)
            return Poly.var(self.n, kind, idx)
        if tok.kind == "EXP":
            if not self.allow_exp:
                raise ParseError(
                    "exp() is not allowed in polynomial input; use a u-variable "
                    "or the exponential-polynomial entry point",
                    tok.line,
                    tok.column,
                )
            self.advance()
            self.expect_op("(")
            arg = self.peek()
            if arg.kind != "VAR" or _split_var(arg)[0] != "x":
                raise ParseError(
                    "exp() takes a single x-variable argument", arg.line, arg.column
                )
            self.advance()
            _, idx = _split_var(arg)
            self.expect_op(")")
            return Poly.var(self.n, "u", idx)
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}", tok.line, tok.column)


def _split_var(tok: Token) -> tuple[str, int]:
    m = _VAR_RE.match(tok.text)
    if not m:  # pragma: no cover - guarded by the tokenizer
        raise ParseError(f"bad variable {tok.text!r}", tok.line, tok.column)
    return m.group(1), int(m.group(2))


def _infer_ambient(tokens: list[Token], override: int | None) -> int:
    max_idx = 0
    for tok in tokens:
        if tok.kind == "VAR":
            max_idx = max(max_idx, _split_var(tok)[1])
    if override is not None:
        if override < 1:
            raise ParseError(f"ambient override {override} below 1", 1, 1)
        if override < max_idx:
            raise ParseError(
                f"ambient override {override} below used index {max_idx}", 1, 1
            )
        return override
    return max(max_idx, 1)


def parse_poly(text: str, ambient: int | None = None) -> Poly:
    """Parse polynomial text in x/u variables (exp() rejected)."""
    tokens = tokenize(text)
    n = _infer_ambient(tokens, ambient)
    return _Parser(tokens, n, allow_exp=False).parse()


def parse_epoly(text: str, ambient: int | None = None) -> EPoly:
    """Parse exponential-polynomial text; exp(xi) and ui both mean e^(x_i)."""
    tokens = tokenize(text)
    n = _infer_ambient(tokens, ambient)
    p = _Parser(tokens, n, allow_exp=True).parse()
    return EPoly.from_poly(p)


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------


def format_rat(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _format_monomial(n: int, mono: Mono, coeff: Fraction) -> str:
    parts: list[str] = []
    for pos, e in enumerate(mono):
        if e:
            kind, i = var_name(n, pos)
            parts.append(f"{kind}{i}" if e == 1 else f"{kind}{i}^{e}")
    c = abs(coeff)
    if not parts:
        return format_rat(c)
    if c != 1:
        parts.insert(0, format_rat(c))
    return "*".join(parts)


def format_poly(p: Poly) -> str:
    """Canonical text, terms in decreasing graded-lex order; round-trips."""
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for rank, (mono, coeff) in enumerate(p.sorted_terms()):
        body = _format_monomial(p.n, mono, coeff)
        if rank == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def _format_exp_factor(spec) -> str:
    if all(q == int(q) and q >= 0 for q in spec):
        parts = []
        for i, q in enumerate(spec):
            e = int(q)
            if e == 1:
                parts.append(f"exp(x{i + 1})")
            elif e > 1:
                parts.append(f"exp(x{i + 1})^{e}")
        return "*".join(parts)
    # Display-only form for rational spectra (outside the input grammar).
    terms = []
    for i, q in enumerate(spec):
        if q:
            terms.append(f"({format_rat(q)})*x{i + 1}")
    return "exp(" + " + ".join(terms) + ")"


def format_epoly(f: EPoly) -> str:
    """Canonical text in spectrum order.

    Round-trips through ``parse_epoly`` whenever every spectrum is a vector
    of non-negative integers (always true for canonical expansions of
    polynomials); fractional or negative spectra print in the display-only
    extended form.
    """
    if f.is_zero():
        return "0"
    pieces: list[str] = []
    for spec, coeff in f.sorted_terms():
        coeff_text = f"({format_poly(coeff)})"
        factor = _format_exp_factor(spec)
        pieces.append(f"{coeff_text}*{factor}" if factor else coeff_text)
    return " + ".join(pieces)


def format_hyperplane(m: Hyperplane) -> str:
    """The equation of {m . x = 0}, read off the normal: "x1 - 2*x3 = 0".

    It is the text ``format_poly`` gives the linear form, whose terms come
    in decreasing graded-lex order, x1 before x2; the first nonzero entry of
    a primitive normal is positive, so the text never starts with a sign.
    """
    pieces: list[str] = []
    for i, c in enumerate(m.normal, 1):
        if c:
            body = f"x{i}" if abs(c) == 1 else f"{abs(c)}*x{i}"
            pieces.append(f"- {body}" if c < 0 else f"+ {body}" if pieces else body)
    return " ".join(pieces) + " = 0"
