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
is the only unary minus.  Exponents, variable indices and the ambient
override are capped at 64, parentheses at 64 levels of nesting, and
integer literals at 4,300 significant digits, as are the numerator and
denominator of every coefficient that a product, a power or a sum makes
(CPython converts at most 4,300 digits between int and str).

``parse_poly`` accepts x- and u-variables and rejects exp();
``parse_epoly`` additionally accepts exp(xi), which denotes the same
function as ui, and returns the canonical exponential polynomial.

The tokenizer reads the text once.  A token's kind is ``NUM``, ``x`` or
``u`` for a variable (whose index is the rest of its text), ``exp``,
``END``, or the operator character itself.  The parser builds each variable
once per parse with ``Poly.var`` and shares it between its occurrences
(values are immutable).  A sum of two or more terms goes to the ``Poly``
constructor as one list of signed pairs, so it is merged once; that gives
the term map, in the same order, that adding the terms one by one gives.

Pretty printing emits canonical text (terms in decreasing graded-lex order,
exponential factors in spectrum order) that parses back to an equal value.
A monomial prints its variables in layout order, x1..xn then u1..un, each
named by ``poly.var_name``.  Exponential polynomials whose spectra are not
non-negative integers (they arise from hyperplane restriction) are printed
in a readable extended form ``exp(q1*x1 + ...)`` that is not part of the
input grammar.
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
    kind: str  # NUM, x, u, exp, END, or the operator character
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_VAR_RE = re.compile(r"[xu][1-9][0-9]*")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    col = 1
    for m in _TOKEN_RE.finditer(text):
        lexeme = m.group()
        group = m.lastgroup
        if group == "ws":
            breaks = lexeme.count("\n")
            line += breaks
            col = len(lexeme) - lexeme.rfind("\n") if breaks else col + len(lexeme)
            continue
        if group == "num":
            kind = "NUM"
        elif group == "op" or lexeme == "exp":
            kind = lexeme
        elif group == "bad":
            raise ParseError(f"unexpected character {lexeme!r}", line, col)
        elif _VAR_RE.fullmatch(lexeme):
            if len(lexeme) > 3 or int(lexeme[1:]) > 64:  # no leading zeros
                raise ParseError("variable index too large (limit 64)", line, col)
            kind = lexeme[0]
        else:
            raise ParseError(f"unknown name {lexeme!r}", line, col)
        tokens.append(Token(kind, lexeme, line, col))
        col += len(lexeme)
    tokens.append(Token("END", "", line, col))
    return tokens


class _Parser:
    """Recursive-descent parser building Poly values directly.

    exp(xi) is parsed as the variable ui; the epoly entry point applies the
    canonical expansion afterwards, which makes the two spellings agree.
    ``tok`` is the next token to read, ``depth`` the number of parentheses
    open, and ``variables`` maps each variable name met so far to its Poly.
    """

    def __init__(self, tokens: list[Token], n: int, allow_exp: bool):
        self.tokens = iter(tokens)
        self.tok = next(self.tokens)
        self.n = n
        self.allow_exp = allow_exp
        self.depth = 0
        self.variables: dict[str, Poly] = {}

    def advance(self) -> Token:
        tok = self.tok
        self.tok = next(self.tokens)
        return tok

    def expect(self, kind: str, message: str) -> Token:
        if self.tok.kind != kind:
            raise ParseError(message, self.tok.line, self.tok.column)
        return self.advance()

    def variable(self, name: str) -> Poly:
        p = self.variables.get(name)
        if p is None:
            p = self.variables[name] = Poly.var(self.n, name[0], int(name[1:]))
        return p

    def parse(self) -> Poly:
        value = self.expr()
        tok = self.tok
        if tok.kind != "END":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
        return value

    def expr(self) -> Poly:
        negate = self.tok.kind == "-"
        if negate:
            self.advance()
        signed = [(negate, self.term())]
        first_op = self.tok
        while self.tok.kind in ("+", "-"):
            signed.append((self.advance().kind == "-", self.term()))
        if len(signed) == 1:
            return -signed[0][1] if negate else signed[0][1]
        return _checked(
            Poly(self.n, [(m, -c if minus else c) for minus, t in signed for m, c in t.terms.items()]),
            first_op,
        )

    def term(self) -> Poly:
        value = self.factor()
        while self.tok.kind == "*":
            op = self.advance()
            value = _checked(value * self.factor(), op)
        return value

    def factor(self) -> Poly:
        value = self.base()
        if self.tok.kind == "^":
            op = self.advance()
            num = self.expect("NUM", "exponent must be a non-negative integer")
            digits = num.text.lstrip("0") or "0"
            if len(digits) > 2 or int(digits) > 64:
                raise ParseError("exponent too large (limit 64)", num.line, num.column)
            value = _checked(value ** int(digits), op)
        return value

    def base(self) -> Poly:
        tok = self.tok
        kind = tok.kind
        if kind == "NUM":
            self.advance()
            num = _literal(tok)
            if self.tok.kind != "/":
                return Poly.const(self.n, num)
            self.advance()
            den = self.tok
            if den.kind != "NUM" or _literal(den) == 0:
                raise ParseError("denominator must be a positive integer", den.line, den.column)
            self.advance()
            return Poly.const(self.n, Fraction(num, _literal(den)))
        if kind == "x" or kind == "u":
            self.advance()
            return self.variable(tok.text)
        if kind == "exp":
            if not self.allow_exp:
                raise ParseError(
                    "exp() is not allowed in polynomial input; use a u-variable "
                    "or the exponential-polynomial entry point",
                    tok.line,
                    tok.column,
                )
            self.advance()
            self.expect("(", "expected '('")
            arg = self.expect("x", "exp() takes a single x-variable argument")
            self.expect(")", "expected ')'")
            return self.variable("u" + arg.text[1:])
        if kind == "(":
            if self.depth == 64:
                raise ParseError("parentheses nested too deeply (limit 64)", tok.line, tok.column)
            self.depth += 1
            self.advance()
            value = self.expr()
            self.expect(")", "expected ')'")
            self.depth -= 1
            return value
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}", tok.line, tok.column)


def _literal(tok: Token) -> int:
    """An integer literal's value; CPython converts at most 4,300 digits."""
    digits = tok.text.lstrip("0") or "0"
    if len(digits) > 4300:
        raise ParseError("integer literal too long (limit 4300 digits)", tok.line, tok.column)
    return int(digits)


#: the least integer of 4,301 digits
_TOO_LONG = 10**4300


def _checked(value: Poly, op: Token) -> Poly:
    """``value``, or a ParseError at ``op`` when a coefficient's numerator or
    denominator has more than 4,300 digits."""
    for c in value.terms.values():
        if abs(c.numerator) >= _TOO_LONG or c.denominator >= _TOO_LONG:
            raise ParseError("coefficient too long (limit 4300 digits)", op.line, op.column)
    return value


def _infer_ambient(tokens: list[Token], override: int | None) -> int:
    max_idx = max((int(tok.text[1:]) for tok in tokens if tok.kind in ("x", "u")), default=0)
    if override is not None:
        if override < 1:
            raise ParseError(f"ambient override {override} below 1", 1, 1)
        if override > 64:
            raise ParseError(f"ambient override {override} too large (limit 64)", 1, 1)
        if override < max_idx:
            raise ParseError(f"ambient override {override} below used index {max_idx}", 1, 1)
        return override
    return max(max_idx, 1)


def parse_poly(text: str, ambient: int | None = None) -> Poly:
    """Parse polynomial text in x/u variables (exp() rejected)."""
    tokens = tokenize(text)
    return _Parser(tokens, _infer_ambient(tokens, ambient), allow_exp=False).parse()


def parse_epoly(text: str, ambient: int | None = None) -> EPoly:
    """Parse exponential-polynomial text; exp(xi) and ui both mean e^(x_i)."""
    tokens = tokenize(text)
    return EPoly.from_poly(_Parser(tokens, _infer_ambient(tokens, ambient), allow_exp=True).parse())


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
