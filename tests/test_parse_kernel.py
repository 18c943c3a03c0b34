"""The parser against the reference parser, on seeded valid and malformed text.

``parsing`` reads each text in one pass, builds each variable once per
parse and merges each sum once.  ``util.reference_parse`` is the parser it
replaced: it builds a fresh variable for every occurrence and adds a sum's
terms one by one.  Both must give the same term map, in the same order,
and on malformed text the same ParseError message, line and column.  The
module needs no pytest, so it also runs as a script on an interpreter
without it:

    PYTHONPATH=src python3 tests/test_parse_kernel.py
"""

import random
from collections import Counter

from expalg.epoly import EPoly
from expalg.errors import ParseError
from expalg.parsing import parse_epoly, parse_poly

from util import reference_parse, run_standalone

SEPARATORS = ["", " ", " ", " ", "  ", "\n", "\n  ", "\t"]
#: the long digit strings pass the 4,300-digit limit alone, or in a product
#: or power, and glued to a variable they make an index past 64
JUNK = ["@", "y1", "x0", "x01", "exp", "/", "^", "(", ")", "0", "7", "65", "-", "*", "u9", "9" * 2200, "1" * 4301]


def _base(rng, depth, n, allow_exp, seen):
    roll = rng.random()
    if depth and roll < 0.3:
        seen["nested" if depth < 2 else "parenthesized"] += 1
        return ["(", *_expr(rng, depth - 1, n, allow_exp, seen), ")"]
    if roll < 0.45:
        seen["rational"] += 1
        return [str(rng.randint(0, 12)), "/", str(rng.randint(1, 9))]
    if roll < 0.6:
        return [str(rng.randint(0, 12))]
    if allow_exp and roll < 0.75:
        seen["exp"] += 1
        return ["exp", "(", f"x{rng.randint(1, n)}", ")"]
    return [f"{rng.choice('xu')}{rng.randint(1, n)}"]


def _factor(rng, depth, n, allow_exp, seen):
    tokens = _base(rng, depth, n, allow_exp, seen)
    if rng.random() < 0.3:
        if tokens[0] == "(":
            seen["power of a sum"] += 1
        tokens += ["^", str(rng.randint(0, 3))]
    return tokens


def _term(rng, depth, n, allow_exp, seen):
    tokens = _factor(rng, depth, n, allow_exp, seen)
    for _ in range(rng.randint(0, 1)):
        tokens += ["*", *_factor(rng, depth, n, allow_exp, seen)]
    return tokens


def _expr(rng, depth, n, allow_exp, seen):
    """Tokens of a random sum: sometimes with a leading minus, sometimes a
    term that cancels and comes back (t - t + t, with others between)."""
    tokens = []
    if rng.random() < 0.3:
        seen["leading minus"] += 1
        tokens.append("-")
    if rng.random() < 0.25:
        seen["cancelling"] += 1
        t = _term(rng, depth, n, allow_exp, seen)
        s = _term(rng, depth, n, allow_exp, seen)
        return tokens + [*t, "+", *s, "-", *t, rng.choice("+-"), *t]
    for k in range(rng.randint(1, 3)):
        if k:
            tokens.append(rng.choice("+-"))
        tokens += _term(rng, depth, n, allow_exp, seen)
    return tokens


def _text(rng, tokens):
    return "".join(tok + rng.choice(SEPARATORS) for tok in tokens)


def _ambient(rng, n):
    return rng.choice([None, None, None, n, n + 1, 1, 0])


def _outcome(parse, text, ambient):
    """("ok", n, the term list) or ("error", message, line, column)."""
    try:
        value = parse(text, ambient)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.column
    if isinstance(value, EPoly):
        return "ok", value.n, [(s, list(c.terms.items())) for s, c in value.terms.items()]
    return "ok", value.n, list(value.terms.items())


def _reference_epoly(text, ambient):
    return EPoly.from_poly(reference_parse(text, ambient, allow_exp=True))


def _assert_same(text, ambient):
    """Both entry points against the reference; returns parse_poly's outcome."""
    got = _outcome(parse_poly, text, ambient)
    assert got == _outcome(reference_parse, text, ambient), (text, ambient)
    assert _outcome(parse_epoly, text, ambient) == _outcome(_reference_epoly, text, ambient), (text, ambient)
    return got


def _seeded_tokens(rng):
    n = rng.randint(1, 3)
    seen = Counter()
    return n, _expr(rng, 2, n, rng.random() < 0.5, seen), seen


def test_valid_text_parses_to_the_reference_term_order():
    rng = random.Random(2501)
    seen = Counter()
    parsed = 0
    for _ in range(400):
        n, tokens, features = _seeded_tokens(rng)
        seen += features
        # parse_poly rejects exp(); parse_epoly takes it
        parsed += _assert_same(_text(rng, tokens), _ambient(rng, n))[0] == "ok" or "exp" in tokens
    assert parsed >= 300, parsed
    for feature in ("leading minus", "cancelling", "nested", "power of a sum", "rational", "exp"):
        assert seen[feature] >= 30, (feature, seen)


def test_cancelling_sums_keep_the_reference_order():
    for text in ("x1 - x1 + x1", "-x1 + x2 + x1 - x2 + 3", "u1 + 2 - u1 - 2 + u1", "x1^2 - (x1 + 1)*(x1 - 1) - 1 + x2"):
        assert _assert_same(text, None)[0] == "ok", text
    assert list(parse_poly("x1 + x2 - x1 + x1").terms) == [(0, 1, 0, 0), (1, 0, 0, 0)]


def test_malformed_text_raises_the_reference_error():
    rng = random.Random(2502)
    messages = Counter()
    for _ in range(400):
        n, tokens, _ = _seeded_tokens(rng)
        i = rng.randrange(len(tokens))
        edit = rng.randrange(4)
        if edit == 0:
            del tokens[i]
        elif edit == 1:
            tokens.insert(i, tokens[i])
        elif edit == 2 and i + 1 < len(tokens):
            tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
        else:
            tokens[i] = rng.choice(JUNK)
        outcome = _assert_same(_text(rng, tokens), _ambient(rng, n))
        if outcome[0] == "error":
            messages[outcome[1].split(" (line")[0].split("'")[0]] += 1
    assert sum(messages.values()) >= 300, messages
    assert len(messages) >= 8, messages


def test_literals_past_the_int_conversion_limit_raise_the_reference_error():
    # CPython converts at most 4,300 digits to an int; leading zeros count
    long, padded = "1" * 4301, "0" * 4400 + "65"
    for text in (f"x1^{long}", f"x1^{padded}", f"{long}*x1", f"x1 - 1/{long}", f"(x2 + {long}/7)^2"):
        assert _assert_same(text, None)[0] == "error", text[:20]
    for text in (f"x1^{padded[:-1]}", f"{padded}*x1 + {'9' * 4300}/{padded}"):
        assert _assert_same(text, None)[0] == "ok", text[:20]


def test_coefficients_past_the_int_conversion_limit_raise_the_reference_error():
    # a product, power or sum of literals within the limit may pass it; a
    # sum is checked whole, so one that comes back within the limit is kept
    half, nines = "3" * 2200, "9" * 4300
    for text in (
        f"{half}*{half}*x1",
        f"x2 + ({half}*x1 - 1)^2",
        f"1/{half}*x1*1/{half}",
        f"{nines} + 1 + x1",
        f"x1 - {nines}/7 - {nines}/11",
        f"x1*(x2 + 1/{half})^2",
    ):
        assert _assert_same(text, None)[0] == "error", text[:20]
    for text in (f"{nines} + 1 - 1", f"{half[:2150]}*{half[:2150]}*x1", f"{nines} + 1 - {nines} + x1"):
        assert _assert_same(text, None)[0] == "ok", text[:20]
    # glued to a variable, a long digit string is a variable index past 64
    assert _assert_same(f"x1{'1' * 4402} + 1", None)[1] == "variable index too large (limit 64) (line 1, column 1)"


if __name__ == "__main__":
    run_standalone(globals())
