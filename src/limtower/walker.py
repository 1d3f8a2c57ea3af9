"""Digit rewriting in the groups D'_alpha.

D'_alpha is the free module on basis elements e_sigma, sigma ranging over
the nonempty finite strictly increasing sequences of ordinals below alpha,
divided by the carrying relations

    p * e_(a1)            = 0
    p * e_(a1, ..., an)   = e_(a2, ..., an)     for n >= 2.

The quotient behaves like a positional number system whose digit positions
are ordinal sequences: multiplying by p moves mass to a strictly shorter,
hence deg-lex smaller, position.  Every class has a unique representative
with all coefficients in {1, ..., p-1}; normalization performs the
carrying passes of that uniqueness argument: a carry from a position of
length n lands on its tail, of length n - 1, so one pass over the lengths,
longest first, settles every digit.

Coefficients are plain integers.  Normalizing a finitely supported
combination only ever inspects finitely many p-adic digits of each
coefficient, so integers lose no generality at any fixed precision.

The p-power filtration is positional too: p^beta D'_alpha is spanned by
the e_sigma whose first entry is at least beta.  The height of a nonzero
class is therefore the minimum first entry over its normal form, and the
height of zero is alpha by convention (p^alpha D'_alpha = 0).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter

from .ordinals import DegLexIndex, OrdinalCNF, excerpt, ord_succ, parse_digits, parse_ordinal


# Miller-Rabin with the first thirteen primes as bases passes no composite below PRIME_BOUND.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Whether n is prime, exactly for every n below PRIME_BOUND.

    With n - 1 = d * 2^s and d odd, base b passes when b^d = 1 or b^(d * 2^j) = -1 mod n for a j < s.
    """
    if n < 2 or any(n % b == 0 for b in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    return all(pow(b, d, n) == 1 or any(pow(b, d << j, n) == n - 1 for j in range(s)) for b in _PRIME_BASES)


@dataclass(frozen=True)
class WalkerContext:
    p: int
    alpha: OrdinalCNF

    def __post_init__(self) -> None:
        if self.p >= PRIME_BOUND:
            raise ValueError(f"p must be below {PRIME_BOUND}, where the primality test is exact")
        if not _is_prime(self.p):
            raise ValueError("p must be prime")
        if self.alpha.is_zero():
            raise ValueError("the ambient bound must be a positive ordinal")

    def index(self, entries) -> DegLexIndex:
        idx = entries if isinstance(entries, DegLexIndex) else DegLexIndex(tuple(entries))
        alpha = self.alpha.key
        if idx.entries[-1].key >= alpha:  # entries increase, so the last one is the largest
            first = next(e for e in idx.entries if e.key >= alpha)
            raise ValueError(f"index entry {excerpt(str(first))} is not below alpha = {excerpt(str(self.alpha))}")
        return idx

    def zero(self) -> "WalkerElement":
        return WalkerElement(self, (), True)

    def basis(self, entries) -> "WalkerElement":
        return WalkerElement(self, ((self.index(entries), 1),), True)

    def element(self, terms) -> "WalkerElement":
        """Raw combination from (index-like, coefficient) pairs; merges repeats."""
        acc: dict[DegLexIndex, int] = {}
        for entries, coeff in terms:
            idx = self.index(entries)
            acc[idx] = acc.get(idx, 0) + coeff
        return _from_dict(self, acc)

    def __str__(self) -> str:
        return f"D'_{self.alpha} at p = {self.p}"


def _sorted_support(acc: dict[DegLexIndex, int]):
    keys = sorted((k for k, v in acc.items() if v), key=attrgetter("key"), reverse=True)
    return tuple([(k, acc[k]) for k in keys])


def _from_dict(ctx: WalkerContext, acc: dict[DegLexIndex, int]) -> "WalkerElement":
    support = _sorted_support(acc)
    digits = all(1 <= c <= ctx.p - 1 for _, c in support)
    return WalkerElement(ctx, support, digits)


@dataclass(frozen=True)
class WalkerElement:
    """Finitely supported combination of basis positions.

    Support is stored in descending deg-lex order.  `normalized` is true
    exactly when every coefficient is a digit in {1, ..., p-1}; by the
    uniqueness of digit forms that makes the representation canonical for
    its class, so equality of normalized elements is equality in D'_alpha.
    """

    context: WalkerContext
    support: tuple[tuple[DegLexIndex, int], ...]
    normalized: bool

    def is_zero(self) -> bool:
        return not self.support

    def leading_index(self) -> DegLexIndex | None:
        """The deg-lex largest position in the support, None for 0."""
        return self.support[0][0] if self.support else None

    def __str__(self) -> str:
        return format_element(self)


def normalize(x: WalkerElement) -> WalkerElement:
    """The unique digit form of x's class."""
    return x if x.normalized else _carry(x.context, x.support)


def _carry(ctx: WalkerContext, pairs) -> WalkerElement:
    """The digit form of the sum of (index, coefficient) pairs; an index may repeat.

    Splits each coefficient as digit + p * carry and pushes the carry to
    the tail position (or drops it for length-1 positions, where p
    annihilates the basis element).  A carry from length n lands on length
    n - 1, so taking the lengths longest first finalizes every position
    exactly once.  Every stored digit is c mod p != 0, so the result is
    marked normalized without another look at its coefficients.
    """
    p = ctx.p
    by_length: dict[int, dict[DegLexIndex, int]] = {}
    for idx, c in pairs:
        bucket = by_length.setdefault(idx.key[0], {})
        bucket[idx] = bucket.get(idx, 0) + c
    out: dict[DegLexIndex, int] = {}
    for n in range(max(by_length, default=0), 0, -1):
        tails = by_length.setdefault(n - 1, {})
        for idx, c in by_length.pop(n, {}).items():
            carry, digit = divmod(c, p)
            if digit:
                out[idx] = digit
            if carry and n >= 2:
                t = idx.tail()
                tails[t] = tails.get(t, 0) + carry
    return WalkerElement(ctx, _sorted_support(out), True)


def _same_context(x: WalkerElement, y: WalkerElement) -> WalkerContext:
    if x.context != y.context:
        raise ValueError("elements of different contexts")
    return x.context


def add(x: WalkerElement, y: WalkerElement) -> WalkerElement:
    return _carry(_same_context(x, y), x.support + y.support)


def scalar_mul(c: int, x: WalkerElement) -> WalkerElement:
    return _carry(x.context, [(k, c * v) for k, v in x.support])


def mul_by_p(x: WalkerElement) -> WalkerElement:
    # p * e_sigma is e_tail(sigma) for length >= 2 and 0 for length 1
    return _carry(x.context, [(k.tail(), v) for k, v in x.support if k.key[0] >= 2])


def in_relations(x: WalkerElement) -> bool:
    """True iff x represents 0, i.e. lies in the relation submodule."""
    return normalize(x).is_zero()


def relation_element(ctx: WalkerContext, entries) -> WalkerElement:
    """The raw relation r_sigma = p*e_sigma for length 1, p*e_sigma - e_tail for length >= 2."""
    sigma = ctx.index(entries)
    terms = [(sigma, ctx.p)]
    if len(sigma) >= 2:
        terms.append((sigma.tail(), -1))
    return ctx.element(terms)


def height(x: WalkerElement) -> OrdinalCNF:
    """Largest beta with x in p^beta D'_alpha; alpha for x = 0.

    p^beta D'_alpha is spanned by the positions with first entry >= beta,
    and normalization never lowers first entries (carries move to tails,
    whose first entry is larger), so the minimum first entry of the normal
    form is exact.
    """
    nx = normalize(x)
    if nx.is_zero():
        return x.context.alpha
    return min((idx.first() for idx, _ in nx.support), key=attrgetter("key"))


def in_p_beta(x: WalkerElement, beta: OrdinalCNF) -> bool:
    """Membership in p^beta D'_alpha, for beta <= alpha."""
    if beta > x.context.alpha:
        raise ValueError("beta exceeds the ambient bound")
    return height(x) >= beta


@dataclass(frozen=True)
class HeightStep:
    before: OrdinalCNF
    after: OrdinalCNF
    became_zero: bool
    ok: bool  # height(p*x) >= height(x) + 1, or p*x = 0


def mul_p_height_step(x: WalkerElement) -> HeightStep:
    """One multiplication step with its height jump certificate."""
    nx = normalize(x)
    if nx.is_zero():
        raise ValueError("height step needs a nonzero element")
    before = height(nx)
    px = mul_by_p(nx)
    after = height(px)
    ok = px.is_zero() or after >= ord_succ(before)
    return HeightStep(before, after, px.is_zero(), ok)


@dataclass(frozen=True)
class UlmProbeEntry:
    beta: OrdinalCNF
    height: OrdinalCNF
    nonzero: bool
    exact: bool  # height == beta


@dataclass(frozen=True)
class UlmProbeReport:
    p: int
    alpha: OrdinalCNF
    entries: tuple[UlmProbeEntry, ...]
    top_stage_trivial: bool
    ok: bool


def ulm_probe(ctx: WalkerContext, sample) -> UlmProbeReport:
    """Exhibit e_(beta) as a nonzero class of height exactly beta, per beta.

    Together the entries certify that every sampled stage p^beta D'_alpha
    is nonzero.  The top stage p^alpha D'_alpha is trivial structurally:
    every admissible position has first entry strictly below alpha, so no
    nonzero digit form survives at stage alpha.
    """
    entries = []
    all_ok = True
    for beta in sample:
        if beta >= ctx.alpha:
            raise ValueError("sampled stage must be below alpha")
        x = ctx.basis([beta])
        h = height(x)
        exact = h == beta
        nonzero = not normalize(x).is_zero()
        entries.append(UlmProbeEntry(beta, h, nonzero, exact))
        all_ok = all_ok and exact and nonzero
    return UlmProbeReport(ctx.p, ctx.alpha, tuple(entries), True, all_ok)


# ---------------------------------------------------------------------------
# Parsing and printing


def format_element(x: WalkerElement) -> str:
    if not x.support:
        return "0"
    shown: dict[OrdinalCNF, str] = {}  # entry -> its text, for this call only
    parts = []
    for i, (idx, c) in enumerate(x.support):
        names = []
        for e in idx.entries:
            name = shown.get(e)
            if name is None:
                name = shown[e] = str(e)
            names.append(name)
        body = f"{abs(c)}*e[" + ", ".join(names) + "]"
        if i == 0:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


# One term, [sign] [digits "*"] "e" "[" body "]", and the whitespace after it.
_TERM = re.compile(r"([+-]?)\s*(?:([0-9]+)\s*\*\s*)?e\s*\[([^\[\]]*)\]\s*")


def parse_element(ctx: WalkerContext, text: str) -> WalkerElement:
    """Parse `3*e[0,1] + 1*e[w] - 2*e[w+1, w*2]`; `0` is the zero element.

    The grammar, with any whitespace allowed between two tokens but not
    inside a digit run:

        element := "0" | term (sign term)*
        term    := [sign] [digits "*"] "e" "[" entry ("," entry)* "]"
        sign    := "+" | "-"
        digits  := a run of ASCII digits

    A missing coefficient means 1.  An entry is ordinal text for
    `parse_ordinal`, holding no bracket; each distinct entry text is parsed
    once per call.  An error names a 1-based column: where no term matches,
    or where the term holding a bad entry, a bad index or an over-long
    coefficient begins; quoted text is cut to at most 60 characters.
    The result is raw (not normalized).
    """
    pos = len(text) - len(text.lstrip())
    if text[pos:].rstrip() == "0":
        return ctx.zero()
    parsed: dict[str, OrdinalCNF] = {}  # entry text -> ordinal, for this call only
    acc: dict[DegLexIndex, int] = {}
    while True:
        m = _TERM.match(text, pos)
        if m is None or (acc and not m[1]):
            raise ValueError(f"expected a term at column {pos + 1}: {excerpt(text[pos:])!r}")
        entries = []
        for part in m[3].split(","):
            entry = part.strip()
            e = parsed.get(entry)
            if e is None:
                try:
                    e = parsed[entry] = parse_ordinal(entry)
                except ValueError as exc:
                    raise ValueError(f"bad index entry {excerpt(entry)!r} in the term at column {pos + 1}: {exc}") from None
            entries.append(e)
        try:
            idx = ctx.index(entries)
        except ValueError as exc:
            raise ValueError(f"{exc} in the term at column {pos + 1}") from None
        coeff = parse_digits(m[2], "coefficient", f" in the term at column {pos + 1}") if m[2] else 1
        acc[idx] = acc.get(idx, 0) + (-coeff if m[1] == "-" else coeff)
        pos = m.end()
        if pos == len(text):
            return _from_dict(ctx, acc)
