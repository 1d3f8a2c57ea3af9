"""Ordinal arithmetic in Cantor normal form, below epsilon_0.

An ordinal is a strictly-decreasing list of (exponent, coefficient) pairs
read as  w^e1 * c1 + w^e2 * c2 + ... ; exponents are themselves ordinals,
the empty list is 0.  Addition is the usual non-commutative normal-form
merge.  Multiplication is not provided; inputs like w*2 are expanded by
the parser.

Also defines the deg-lex well-order on finite strictly increasing ordinal
sequences (shorter sequences first, then lexicographic).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import total_ordering
from operator import lt


@total_ordering
@dataclass(frozen=True, eq=False)
class OrdinalCNF:
    """Cantor normal form: ((exponent, coefficient), ...), exponents strictly decreasing.

    `key` is ((exponent key, coefficient), ...); Python's tuple order on it
    is exactly the ordinal order, and equal keys are equal ordinals.  Its
    hash is computed once, when the ordinal is built.
    """

    terms: tuple[tuple["OrdinalCNF", int], ...] = ()
    key: tuple = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        key = tuple((e.key, c) for e, c in self.terms)
        for k, (e, c) in enumerate(key):
            if c < 1:
                raise ValueError("coefficients must be >= 1")
            if k and e >= key[k - 1][0]:
                raise ValueError("exponents must strictly decrease")
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", hash(key))

    @classmethod
    def _of_valid(cls, terms: tuple[tuple["OrdinalCNF", int], ...], key: tuple) -> "OrdinalCNF":
        """The ordinal of terms already in Cantor normal form, with their key; nothing is checked."""
        out = cls.__new__(cls)
        vars(out).update(terms=terms, key=key, _hash=hash(key))
        return out

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not OrdinalCNF:
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "OrdinalCNF") -> bool:
        # through ord_compare, so the benchmark's traced run counts ordinal comparisons
        return ord_compare(self, other) < 0

    def is_zero(self) -> bool:
        return not self.terms

    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero())

    def to_int(self) -> int:
        if not self.is_finite():
            raise ValueError(f"{self} is not finite")
        return self.terms[0][1] if self.terms else 0

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            k = e.key  # () for 0, (((), n),) for a finite n >= 1
            if not k:
                parts.append(str(c))
                continue
            if len(k) == 1 and not k[0][0]:
                base = "w" if k[0][1] == 1 else f"w^{k[0][1]}"
            else:
                base = f"w^({e})"
            parts.append(base if c == 1 else f"{base}*{c}")
        return " + ".join(parts)


ZERO = OrdinalCNF()
ONE = OrdinalCNF(((ZERO, 1),))
OMEGA = OrdinalCNF(((ONE, 1),))


def ord_from_int(n: int) -> OrdinalCNF:
    if n < 0:
        raise ValueError("ordinals are nonnegative")
    return OrdinalCNF(((ZERO, n),)) if n else ZERO


def omega_power(e: OrdinalCNF, coefficient: int = 1) -> OrdinalCNF:
    return OrdinalCNF(((e, coefficient),))


def ord_compare(a: OrdinalCNF, b: OrdinalCNF) -> int:
    """-1, 0, or 1: lexicographic on the CNF term lists."""
    return (a.key > b.key) - (a.key < b.key)


def ord_add(a: OrdinalCNF, b: OrdinalCNF) -> OrdinalCNF:
    """Ordinal sum; absorbs the small tail of a, so 1 + w = w."""
    if not b.terms:
        return a
    e_lead = b.terms[0][0]
    kept = [t for t in a.terms if t[0] > e_lead]
    rest = list(b.terms)
    if len(kept) < len(a.terms) and a.terms[len(kept)][0] == e_lead:
        rest[0] = (e_lead, a.terms[len(kept)][1] + b.terms[0][1])
    return OrdinalCNF(tuple(kept) + tuple(rest))


def ord_succ(a: OrdinalCNF) -> OrdinalCNF:
    return ord_add(a, ONE)


# --- parsing -----------------------------------------------------------------

# One token per match: a digit run, a symbol, or (catch-all) the rest of the
# text from the first character that starts no token.
_TOKEN = re.compile(r"\s*([0-9]+|[w^*+()]|\S.*)", re.DOTALL)

# Deepest w^( ... ) nesting parsed; each level costs two stack frames.
MAX_NESTING = 200


# Longest digit run read as an input integer: Python's default int <-> str limit.
MAX_DIGITS = 4300


def parse_digits(run: str, what: str = "integer", where: str = "") -> int:
    """int(run) for a run of ASCII digits.

    A run of more than MAX_DIGITS digits is a ValueError that says `what`
    of its digit count, then `where`, is over the limit.
    """
    if len(run) > MAX_DIGITS:
        raise ValueError(f"{what} of {len(run)} digits{where} is over the limit of {MAX_DIGITS} digits")
    return int(run)


def excerpt(text: str) -> str:
    """User text to quote in an error: at most 60 characters, the first 57 and `...` when longer."""
    return text if len(text) <= 60 else text[:57] + "..."


def _expr(tokens: list[str], pos: int, depth: int) -> tuple[OrdinalCNF, int]:
    """Fold `term (+ term)*` from tokens[pos] into one ordinal; returns it and the next position.

    Terms are w^e*c or n.  Adding one term keeps the terms with larger
    exponents, merges an equal exponent and absorbs smaller ones, as
    ord_add does, so 1 + w = w.
    """
    terms: list[tuple[OrdinalCNF, int]] = []  # exponents strictly decreasing
    keys: list[tuple[tuple, int]] = []  # (exponent key, coefficient) of each term
    n = len(tokens)
    while True:
        if pos == n:
            raise ValueError("unexpected end of ordinal expression")
        tok = tokens[pos]
        pos += 1
        if tok.isdigit():
            e, c = ZERO, parse_digits(tok, where=" in ordinal")
        elif tok == "w":
            e, c = ONE, 1
            if pos < n and tokens[pos] == "^":
                e, pos = _atom(tokens, pos + 1, depth)
            if pos < n and tokens[pos] == "*":
                if pos + 1 == n:
                    raise ValueError("unexpected end of ordinal expression")
                if not tokens[pos + 1].isdigit():
                    raise ValueError("coefficient must be a plain integer")
                c = parse_digits(tokens[pos + 1], where=" in ordinal")
                pos += 2
        else:
            raise ValueError(f"expected term, found {tok!r}")
        if c:
            key = e.key
            while keys and keys[-1][0] < key:
                keys.pop()
                terms.pop()
            if keys and keys[-1][0] == key:
                c += keys.pop()[1]
                terms.pop()
            terms.append((e, c))
            keys.append((key, c))
        if pos == n or tokens[pos] != "+":
            return (OrdinalCNF._of_valid(tuple(terms), tuple(keys)) if terms else ZERO), pos
        pos += 1


def _atom(tokens: list[str], pos: int, depth: int) -> tuple[OrdinalCNF, int]:
    """An exponent: a parenthesised expression, an integer or w; `depth` counts the open parentheses."""
    if pos == len(tokens):
        raise ValueError("unexpected end of ordinal expression")
    tok = tokens[pos]
    if tok == "(":
        if depth == MAX_NESTING:
            fragment = excerpt("".join(tokens[pos : pos + 12]))
            raise ValueError(f"ordinal nested deeper than {MAX_NESTING} parentheses near {fragment!r}")
        inner, pos = _expr(tokens, pos + 1, depth + 1)
        if pos == len(tokens):
            raise ValueError("unexpected end of ordinal expression")
        if tokens[pos] != ")":
            raise ValueError("unbalanced parenthesis in ordinal")
        return inner, pos + 1
    if tok.isdigit():
        n = parse_digits(tok, where=" in ordinal")
        return (OrdinalCNF._of_valid(((ZERO, n),), (((), n),)) if n else ZERO), pos + 1
    if tok == "w":
        return OMEGA, pos + 1
    raise ValueError(f"expected exponent, found {tok!r}")


def parse_ordinal(text: str) -> OrdinalCNF:
    """Parse textual CNF syntax: ASCII digits, w, ^, *, + and parentheses.

    >>> str(parse_ordinal("w^2*3 + w*1 + 4"))
    'w^2*3 + w + 4'
    >>> parse_ordinal("1 + w") == OMEGA
    True
    """
    tokens = _TOKEN.findall(text)
    if tokens and tokens[-1][0] not in "0123456789w^*+()":
        # quote from the end of the last good token, whitespace included
        start = len(text[: len(text) - len(tokens[-1])].rstrip())
        raise ValueError(f"bad ordinal syntax near {excerpt(text[start:])!r}")
    if not tokens:
        raise ValueError("empty ordinal expression")
    out, pos = _expr(tokens, 0, 0)
    if pos < len(tokens):
        raise ValueError(f"trailing tokens in ordinal: {excerpt(str(tokens[pos:]))}")
    return out


# --- deg-lex indices ----------------------------------------------------------


@total_ordering
@dataclass(frozen=True, eq=False)
class DegLexIndex:
    """Nonempty strictly increasing ordinal sequence, deg-lex ordered.

    `key` is (length, entry keys), whose tuple order is exactly deg-lex;
    its hash is computed once, when the index is built, and its tail the
    first time it is asked for.
    """

    entries: tuple[OrdinalCNF, ...]
    key: tuple = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)
    _tail = None  # not a field: tail() stores the tail here when it first builds it

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("index must be nonempty")
        keys = tuple(e.key for e in self.entries)
        if not all(map(lt, keys, keys[1:])):
            raise ValueError("index entries must strictly increase")
        key = (len(keys), keys)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", hash(key))

    @classmethod
    def _of_valid(cls, entries: tuple[OrdinalCNF, ...], key: tuple) -> "DegLexIndex":
        """The index of entries already strictly increasing, with their key; nothing is checked."""
        out = cls.__new__(cls)
        vars(out).update(entries=entries, key=key, _hash=hash(key))
        return out

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DegLexIndex:
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "DegLexIndex") -> bool:
        return self.key < other.key

    def __len__(self) -> int:
        return len(self.entries)

    def first(self) -> OrdinalCNF:
        return self.entries[0]

    def tail(self) -> "DegLexIndex":
        """Drop the first entry; only valid for length >= 2."""
        if self._tail is None:
            if len(self.entries) < 2:
                raise ValueError("tail of a length-1 index")
            n, keys = self.key
            vars(self)["_tail"] = DegLexIndex._of_valid(self.entries[1:], (n - 1, keys[1:]))
        return self._tail

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


def deglex_compare(a: DegLexIndex, b: DegLexIndex) -> int:
    """Length first, then lexicographic entrywise."""
    return (a.key > b.key) - (a.key < b.key)


# --- pseudorandom descent helpers ---------------------------------------------


def random_ordinal(rng, max_exponent: int = 3, max_coeff: int = 9) -> OrdinalCNF:
    """A random ordinal below w^(max_exponent+1), biased toward small forms."""
    terms = []
    for e in range(rng.randint(0, max_exponent), -1, -1):
        if rng.random() < 0.6:
            terms.append((ord_from_int(e), rng.randint(1, max_coeff)))
    return OrdinalCNF(tuple(terms))


def random_smaller_ordinal(rng, a: OrdinalCNF) -> OrdinalCNF | None:
    """Some ordinal strictly below a, or None when a = 0."""
    if a.is_zero():
        return None
    k = rng.randrange(len(a.terms))
    kept = list(a.terms[:k])
    e, c = a.terms[k]
    decided = False  # True once position k is already strictly below a's term
    if c > 1 and rng.random() < 0.5:
        kept.append((e, rng.randint(1, c - 1)))
        decided = True
    elif not e.is_zero() and rng.random() < 0.5:
        smaller_e = random_smaller_ordinal(rng, e)
        if smaller_e is not None:
            kept.append((smaller_e, rng.randint(1, 3)))
            decided = True
    # a finite tail after a decided position (or below a transfinite term)
    # cannot push the result back up to a
    if (
        kept
        and not kept[-1][0].is_zero()
        and (decided or not e.is_zero())
        and rng.random() < 0.5
    ):
        kept.append((ZERO, rng.randint(1, 5)))
    out = OrdinalCNF(tuple(kept))
    if not out < a:
        raise RuntimeError(f"drew {out}, which is not below {a}")
    return out

