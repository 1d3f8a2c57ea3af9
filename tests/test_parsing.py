"""The text parsers against the token-by-token parser they replaced.

The reference below is the earlier `ordinals` tokenizer and recursive
descent parser, the earlier character-by-character `walker` term
splitter with its space-deleting term reader, and the earlier
`OrdinalCNF.__str__`, which tested exponents with `==`, `is_finite()` and
`to_int()`, kept verbatim as an oracle.  On seeded fuzzed texts the
current ordinal parser must agree with it on acceptance, on the value and
on the exact error message, once the text that message quotes is cut to
60 characters as the parser now cuts it, and the current printer, which
reads exponent keys, must print every ordinal the same.  ASCII digits are the only
digits: the reference's `\\d` and `int()` also took other scripts' digits.

The element parser reads one written grammar, so it differs from the
reference in two more intended ways: any whitespace may stand between two
tokens, where the reference deleted only spaces and then read the term,
and whitespace may not split a digit run, where the reference joined
`1 2` into `12`.  Its errors name a column instead of a term.
"""

import ast
import itertools
import random
import re
from pathlib import Path

import pytest

from limtower import walker
from limtower.ordinals import (
    OMEGA,
    ONE,
    ZERO,
    OrdinalCNF,
    omega_power,
    ord_add,
    ord_from_int,
    parse_ordinal,
    random_ordinal,
)
from limtower.walker import WalkerContext, format_element, parse_element

# --- the reference ------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[w^*+()])")


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad ordinal syntax near {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of ordinal expression")
        self.pos += 1
        return tok

    def expr(self) -> OrdinalCNF:
        total = self.term()
        while self.peek() == "+":
            self.take()
            total = ord_add(total, self.term())
        return total

    def term(self) -> OrdinalCNF:
        tok = self.take()
        if tok.isdigit():
            return ord_from_int(int(tok))
        if tok != "w":
            raise ValueError(f"expected term, found {tok!r}")
        exponent = ONE
        if self.peek() == "^":
            self.take()
            exponent = self.atom()
        coefficient = 1
        if self.peek() == "*":
            self.take()
            c = self.take()
            if not c.isdigit():
                raise ValueError("coefficient must be a plain integer")
            coefficient = int(c)
            if coefficient == 0:
                return ZERO
        return omega_power(exponent, coefficient)

    def atom(self) -> OrdinalCNF:
        tok = self.peek()
        if tok == "(":
            self.take()
            inner = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parenthesis in ordinal")
            return inner
        tok = self.take()
        if tok.isdigit():
            return ord_from_int(int(tok))
        if tok == "w":
            return OMEGA
        raise ValueError(f"expected exponent, found {tok!r}")


def reference_parse_ordinal(text: str) -> OrdinalCNF:
    p = _Parser(_tokenize(text))
    if p.peek() is None:
        raise ValueError("empty ordinal expression")
    out = p.expr()
    if p.peek() is not None:
        raise ValueError(f"trailing tokens in ordinal: {p.tokens[p.pos:]}")
    return out


def reference_ordinal_str(self: OrdinalCNF) -> str:
    if not self.terms:
        return "0"
    parts = []
    for e, c in self.terms:
        if e.is_zero():
            parts.append(str(c))
            continue
        if e == ONE:
            base = "w"
        elif e.is_finite():
            base = f"w^{e.to_int()}"
        else:
            base = f"w^({reference_ordinal_str(e)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    return " + ".join(parts)


def _split_terms(text: str) -> list[tuple[int, str]]:
    terms = []
    sign = 1
    depth = 0
    cur = []
    ops_run = 0
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced brackets")
        if depth == 0 and ch in "+-":
            if "".join(cur).strip():
                terms.append((sign, "".join(cur).strip()))
                sign = 1
                ops_run = 0
            elif ops_run or terms:
                raise ValueError("consecutive +/- operators")
            ops_run += 1
            sign *= -1 if ch == "-" else 1
            cur = []
        else:
            if not ch.isspace():
                ops_run = 0
            cur.append(ch)
    if depth:
        raise ValueError("unbalanced brackets")
    last = "".join(cur).strip()
    if last:
        terms.append((sign, last))
    elif ops_run:
        raise ValueError("trailing +/- operator")
    if not terms:
        raise ValueError("no terms")
    return terms


def reference_parse_element(ctx: WalkerContext, text: str):
    text = text.strip()
    if text == "0":
        return ctx.zero()
    terms = []
    for sign, chunk in _split_terms(text):
        chunk = chunk.replace(" ", "")
        if "*e" in chunk:
            coeff_text, _, rest = chunk.partition("*e")
            coeff = int(coeff_text.strip())
        elif chunk.startswith("e"):
            coeff, rest = 1, chunk[1:]
        else:
            raise ValueError(f"cannot parse term {chunk!r}")
        rest = rest.strip()
        if not (rest.startswith("[") and rest.endswith("]")):
            raise ValueError(f"expected e[...] in term {chunk!r}")
        entries = [reference_parse_ordinal(part) for part in rest[1:-1].split(",")]
        terms.append((entries, sign * coeff))
    return ctx.element(terms)


# --- fuzzed texts -------------------------------------------------------------

SPACES = ("", "", "", " ", "  ", "\t", "\n", "\u00a0")
# characters the grammar does not know, some of them digits to `\d` or int()
STRAY = "x_.,;e[]-/\u0663\u00b2\uff11\u0966\u00a0"  # ٣ ² １ ० and a no-break space
ORDINAL_CHARS = "0123456789w^*+()   " + STRAY
ELEMENT_CHARS = "0123456789w^*+-()[],e   " + STRAY
NON_ASCII_DIGIT = re.compile(r"(?![0-9])\d")
SPLIT_DIGITS = re.compile(r"(?<=[0-9]) +(?=[0-9])")  # the reference deleted these spaces


def _gap(rng: random.Random) -> str:
    return rng.choice(SPACES)


def valid_ordinal_text(rng: random.Random, depth: int = 2) -> str:
    """Syntactically valid, often not in normal form: `1 + w`, `w^0*3`, `w*0`."""
    parts = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.35:
            parts.append(str(rng.choice((0, 1, 2, 3, 7, 10, 12345))))
            continue
        term = "w"
        r = rng.random()
        if r < 0.3:
            term += "^" + _gap(rng) + str(rng.randint(0, 4))
        elif r < 0.4:
            term += "^w"
        elif r < 0.55 and depth:
            term += "^(" + valid_ordinal_text(rng, depth - 1) + ")"
        if rng.random() < 0.5:
            term += _gap(rng) + "*" + _gap(rng) + str(rng.choice((0, 1, 2, 3, 9, 11)))
        parts.append(term)
    return (_gap(rng) + "+" + _gap(rng)).join(parts)


def _mutate(rng: random.Random, text: str, alphabet: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        r = rng.random()
        if r < 0.3 and text:
            text = text[:i] + text[i + 1 :]
        elif r < 0.7:
            text = text[:i] + rng.choice(alphabet) + text[i:]
        elif r < 0.9 and text:
            text = text[:i] + rng.choice(alphabet) + text[i + 1 :]
        else:
            j = rng.randint(0, len(text))
            text = text[:i] + text[min(i, j) : max(i, j)] + text[i:]
    return text


def fuzz_ordinal_text(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.3:
        return _gap(rng) + valid_ordinal_text(rng) + _gap(rng)
    if r < 0.4:
        return str(random_ordinal(rng, max_exponent=4, max_coeff=12))
    if r < 0.85:
        return _mutate(rng, valid_ordinal_text(rng), ORDINAL_CHARS)
    return "".join(rng.choice(ORDINAL_CHARS) for _ in range(rng.randint(0, 8)))


def valid_element_text(rng: random.Random) -> str:
    """Terms whose entries strictly increase, with whitespace only between tokens.

    The entries come from a pool of four texts, one per value, so they
    repeat across terms, which exercises the memo.  An entry may still be
    too large for the ambient bound.
    """
    pool: dict[OrdinalCNF, str] = {}
    for _ in range(4):
        text = valid_ordinal_text(rng, depth=1)
        pool.setdefault(reference_parse_ordinal(text), text)
    values = sorted(pool)
    out = rng.choice(("", "", "-", "+ "))
    for k in range(rng.randint(1, 4)):
        if k:
            out += _gap(rng) + rng.choice("+-") + _gap(rng)
        coeff = "" if rng.random() < 0.3 else str(rng.randint(0, 40)) + _gap(rng) + "*" + _gap(rng)
        chosen = sorted(rng.sample(range(len(values)), rng.randint(1, min(3, len(values)))))
        out += coeff + "e[" + ("," + _gap(rng)).join(pool[values[i]] for i in chosen) + "]"
    return out


def fuzz_element_text(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.3:
        return valid_element_text(rng)
    if r < 0.85:
        return _mutate(rng, valid_element_text(rng), ELEMENT_CHARS)
    return "".join(rng.choice(ELEMENT_CHARS) for _ in range(rng.randint(0, 12)))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def _element_value(x) -> tuple:
    return tuple((idx.key, c) for idx, c in x.support), x.normalized, format_element(x)


def _cut_quote(message: str) -> str:
    """The reference's message with its quoted text cut to 60 characters: the first 57 and `...`."""
    for head, read, write in (
        ("trailing tokens in ordinal: ", str, str),
        ("bad ordinal syntax near ", ast.literal_eval, repr),
    ):
        if message.startswith(head):
            quoted = read(message[len(head) :])
            return head + write(quoted if len(quoted) <= 60 else quoted[:57] + "...")
    return message


def _check_agreement(text, new, old) -> str:
    """Which kind of agreement holds; fails the test on any other difference."""
    if new == old:
        return "same"
    if new[0] == "error" and NON_ASCII_DIGIT.search(text):
        return "newly rejected"
    pytest.fail(f"{text!r}: parser gives {new}, reference gives {old}")


def _check_element_agreement(ctx, text, new, old) -> str:
    """How the element parser's outcome relates to the reference's; fails the test on any other difference."""
    if new[0] == old[0]:
        assert new == old or new[0] == "error", f"{text!r}: parser gives {new}, reference gives {old}"
        return "same" if new[0] == "ok" else _error_kind(new[1], ELEMENT_ERRORS)
    if new[0] == "ok":  # whitespace between tokens that was not a space
        assert new[1] == _element_value(reference_parse_element(ctx, re.sub(r"\s", " ", text))), text
        return "newly accepted"
    if NON_ASCII_DIGIT.search(text):
        return "newly rejected"
    # a digit run split by spaces, which the reference joined
    joined = SPLIT_DIGITS.sub("", text)
    assert joined != text and _element_value(parse_element(ctx, joined)) == old[1], f"{text!r}: {new[1]}"
    return "newly rejected"


ORDINAL_ERRORS = (
    "bad ordinal syntax near", "empty ordinal expression", "unexpected end of ordinal expression",
    "expected term, found", "coefficient must be a plain integer", "unbalanced parenthesis in ordinal",
    "expected exponent, found", "trailing tokens in ordinal",
)
# the element parser's messages, as regexes that match from the start
ELEMENT_ERRORS = (
    r"expected a term at column \d+: '",
    *(r"bad index entry '.*' in the term at column \d+: " + kind for kind in ORDINAL_ERRORS),
    r"index entries must strictly increase",
    r"index entry .* is not below alpha",
)


def _error_kind(message: str, kinds) -> str:
    return next(k for k in kinds if re.match(k, message))


class TestAgainstReference:
    def test_ordinals(self):
        rng = random.Random(101)
        seen, kinds = {}, set()
        for _ in range(20_000):
            text = fuzz_ordinal_text(rng)
            new = _outcome(parse_ordinal, text)
            old = _outcome(reference_parse_ordinal, text)
            if new[0] == "ok":
                assert str(new[1]) == str(old[1])
                new, old = ("ok", new[1].key), ("ok", old[1].key)
            elif old[0] == "error" and _cut_quote(old[1]) != old[1]:
                old = ("error", _cut_quote(old[1]))
                seen["cut"] = seen.get("cut", 0) + 1
            verdict = _check_agreement(text, new, old)
            seen[verdict] = seen.get(verdict, 0) + 1
            if old[0] == "error":
                kinds.add(_error_kind(old[1], ORDINAL_ERRORS))
        # the fuzz reaches every error and both agreements
        assert kinds == set(ORDINAL_ERRORS)
        assert seen["same"] > 18_000 and seen["newly rejected"] > 100 and seen["cut"] > 0

    def test_elements(self):
        rng = random.Random(103)
        contexts = [WalkerContext(3, parse_ordinal("w^(w^2)")), WalkerContext(2, parse_ordinal("w*2+3"))]
        seen = {}
        for k in range(20_000):
            ctx = contexts[k % 2]
            text = fuzz_element_text(rng)
            new = _outcome(parse_element, ctx, text)
            old = _outcome(reference_parse_element, ctx, text)
            new, old = ((kind, _element_value(v) if kind == "ok" else v) for kind, v in (new, old))
            verdict = _check_element_agreement(ctx, text, new, old)
            seen[verdict] = seen.get(verdict, 0) + 1
        # the fuzz reaches every error kind and every agreement
        assert set(seen) == set(ELEMENT_ERRORS) | {"same", "newly accepted", "newly rejected"}, seen
        assert seen["same"] > 1_400 and seen["newly accepted"] > 1_300 and seen["newly rejected"] > 50, seen

    def test_error_fragment_keeps_its_whitespace(self):
        for text, fragment in (("w  x", "  x"), (" \tx", " \tx"), ("w+٣ ", "٣ "), ("2\n_", "\n_")):
            with pytest.raises(ValueError) as exc:
                parse_ordinal(text)
            assert str(exc.value) == f"bad ordinal syntax near {fragment!r}"

    def test_benchmark_texts(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import workloads

        inputs = itertools.islice(workloads.WORKLOADS["walker-normalize"].inputs("walker-normalize", 9), 360)
        count = 0
        for inp in inputs:
            text = inp.key[1]
            assert _element_value(parse_element(inp.context, text)) == _element_value(
                reference_parse_element(inp.context, text)
            )
            count += 1
        assert count == 360


class TestPrinterAgainstReference:
    def test_random_ordinals(self):
        rng = random.Random(107)
        nested = 0
        for k in range(2_000):
            o = random_ordinal(rng, max_exponent=k % 6, max_coeff=rng.choice((1, 3, 12, 10**6)))
            if k % 2:  # an exponent that is itself transfinite
                o = ord_add(omega_power(o, rng.randint(1, 4)), random_ordinal(rng, max_exponent=2))
                nested += not o.terms[0][0].is_finite()
            assert str(o) == reference_ordinal_str(o)
            assert parse_ordinal(str(o)) == o
        assert nested > 500

    def test_fuzz_texts(self):
        rng = random.Random(109)
        printed = 0
        for _ in range(20_000):
            try:
                o = parse_ordinal(fuzz_ordinal_text(rng))
            except ValueError:
                continue
            for x in (o, *(e for e, _ in o.terms)):
                assert str(x) == reference_ordinal_str(x)
                printed += 1
        assert printed > 10_000


class TestEntryMemo:
    def test_one_parse_per_distinct_entry_text_per_call(self, monkeypatch):
        texts = []

        def counting(text):
            texts.append(text)
            return parse_ordinal(text)

        monkeypatch.setattr(walker, "parse_ordinal", counting)
        ctx = WalkerContext(3, parse_ordinal("w*2"))
        element = "e[1, w] + 2*e[w] - e[1, w + 1] + e[1, w+1]"
        x = parse_element(ctx, element)
        # entries are stripped but not rewritten, so `w + 1` and `w+1` are two texts
        assert sorted(texts) == ["1", "w", "w + 1", "w+1"]
        # a second call parses again: nothing is kept between calls
        assert parse_element(ctx, element) == x
        assert sorted(texts) == ["1", "1", "w", "w", "w + 1", "w + 1", "w+1", "w+1"]
