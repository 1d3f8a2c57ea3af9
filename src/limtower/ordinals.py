"""Ordinal arithmetic in Cantor normal form, below epsilon_0.

An ordinal is a strictly-decreasing list of (exponent, coefficient) pairs
read as  w^e1 * c1 + w^e2 * c2 + ... ; exponents are themselves ordinals,
the empty list is 0.  Addition is the usual non-commutative normal-form
merge.  Multiplication is not provided; inputs like w*2 are expanded by
the parser.

Also defines the deg-lex well-order on finite strictly increasing ordinal
sequences (shorter sequences first, then lexicographic), and a descent
probe that walks a chooser function down the order, certifying that the
walk terminates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import total_ordering


@total_ordering
@dataclass(frozen=True, eq=False)
class OrdinalCNF:
    """Cantor normal form: ((exponent, coefficient), ...), exponents strictly decreasing.

    `key` is ((exponent key, coefficient), ...); Python's tuple order on it
    is exactly the ordinal order, and equal keys are equal ordinals.
    """

    terms: tuple[tuple["OrdinalCNF", int], ...] = ()
    key: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        key = tuple((e.key, c) for e, c in self.terms)
        for k, (e, c) in enumerate(key):
            if c < 1:
                raise ValueError("coefficients must be >= 1")
            if k and e >= key[k - 1][0]:
                raise ValueError("exponents must strictly decrease")
        object.__setattr__(self, "key", key)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not OrdinalCNF:
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

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

    def is_limit(self) -> bool:
        """True iff nonzero with no final finite part."""
        return bool(self.terms) and not self.terms[-1][0].is_zero()

    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero()

    def __str__(self) -> str:
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


def parse_ordinal(text: str) -> OrdinalCNF:
    """Parse textual CNF syntax.

    >>> str(parse_ordinal("w^2*3 + w*1 + 4"))
    'w^2*3 + w + 4'
    >>> parse_ordinal("1 + w") == OMEGA
    True
    """
    p = _Parser(_tokenize(text))
    if p.peek() is None:
        raise ValueError("empty ordinal expression")
    out = p.expr()
    if p.peek() is not None:
        raise ValueError(f"trailing tokens in ordinal: {p.tokens[p.pos:]}")
    return out


# --- deg-lex indices ----------------------------------------------------------


@total_ordering
@dataclass(frozen=True, eq=False)
class DegLexIndex:
    """Nonempty strictly increasing ordinal sequence, deg-lex ordered.

    `key` is (length, entry keys), whose tuple order is exactly deg-lex.
    """

    entries: tuple[OrdinalCNF, ...]
    key: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("index must be nonempty")
        keys = tuple(e.key for e in self.entries)
        for a, b in zip(keys, keys[1:]):
            if a >= b:
                raise ValueError("index entries must strictly increase")
        object.__setattr__(self, "key", (len(keys), keys))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DegLexIndex:
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __lt__(self, other: "DegLexIndex") -> bool:
        return self.key < other.key

    def __len__(self) -> int:
        return len(self.entries)

    def first(self) -> OrdinalCNF:
        return self.entries[0]

    def tail(self) -> "DegLexIndex":
        """Drop the first entry; only valid for length >= 2."""
        if len(self.entries) < 2:
            raise ValueError("tail of a length-1 index")
        return DegLexIndex(self.entries[1:])

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


def deglex_compare(a: DegLexIndex, b: DegLexIndex) -> int:
    """Length first, then lexicographic entrywise."""
    return (a.key > b.key) - (a.key < b.key)


def min_index_of_length(n: int) -> DegLexIndex:
    """The deg-lex least index of a given length: (0, 1, ..., n-1)."""
    return DegLexIndex(tuple(ord_from_int(k) for k in range(n)))


class DescentCapExceeded(RuntimeError):
    pass


def deglex_descent_probe(start: DegLexIndex, chooser, step_cap: int = 10**5) -> int:
    """Walk `chooser` down the deg-lex order until it signals exhaustion.

    chooser(index) must return a strictly smaller index or None.  Returns
    the number of descents taken.  Raises DescentCapExceeded past the cap
    and ValueError if the chooser ever fails to descend: termination of
    every such walk is exactly the well-foundedness of the order.
    """
    current = start
    steps = 0
    while True:
        nxt = chooser(current)
        if nxt is None:
            return steps
        if nxt >= current:
            raise ValueError(f"chooser failed to descend: {nxt} from {current}")
        current = nxt
        steps += 1
        if steps > step_cap:
            raise DescentCapExceeded(f"no exhaustion within {step_cap} steps")


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

