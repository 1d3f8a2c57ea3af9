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

from dataclasses import dataclass

from .ordinals import DegLexIndex, OrdinalCNF, ord_succ, parse_ordinal


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class WalkerContext:
    p: int
    alpha: OrdinalCNF

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError("p must be prime")
        if self.alpha.is_zero():
            raise ValueError("the ambient bound must be a positive ordinal")

    def index(self, entries) -> DegLexIndex:
        idx = entries if isinstance(entries, DegLexIndex) else DegLexIndex(tuple(entries))
        for e in idx.entries:
            if e >= self.alpha:
                raise ValueError(f"index entry {e} is not below alpha = {self.alpha}")
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
    keys = sorted((k for k, v in acc.items() if v), reverse=True)
    return tuple((k, acc[k]) for k in keys)


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

    def coefficient(self, idx: DegLexIndex) -> int:
        for k, v in self.support:
            if k == idx:
                return v
        return 0

    def leading_index(self) -> DegLexIndex | None:
        """The deg-lex largest position in the support, None for 0."""
        return self.support[0][0] if self.support else None

    def __str__(self) -> str:
        return format_element(self)


def normalize(x: WalkerElement) -> WalkerElement:
    """The unique digit form of x's class.

    Splits each coefficient as digit + p * carry and pushes the carry to
    the tail position (or drops it for length-1 positions, where p
    annihilates the basis element).  A carry from length n lands on length
    n - 1, so taking the lengths longest first finalizes every position
    exactly once.
    """
    if x.normalized:
        return x
    p = x.context.p
    by_length: dict[int, dict[DegLexIndex, int]] = {}
    for idx, c in x.support:
        by_length.setdefault(len(idx), {})[idx] = c
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
    return _from_dict(x.context, out)


def _same_context(x: WalkerElement, y: WalkerElement) -> WalkerContext:
    if x.context != y.context:
        raise ValueError("elements of different contexts")
    return x.context


def add(x: WalkerElement, y: WalkerElement) -> WalkerElement:
    ctx = _same_context(x, y)
    acc = {k: v for k, v in x.support}
    for k, v in y.support:
        acc[k] = acc.get(k, 0) + v
    return normalize(_from_dict(ctx, acc))


def scalar_mul(c: int, x: WalkerElement) -> WalkerElement:
    acc = {k: c * v for k, v in x.support}
    return normalize(_from_dict(x.context, acc))


def neg(x: WalkerElement) -> WalkerElement:
    return scalar_mul(-1, x)


def sub(x: WalkerElement, y: WalkerElement) -> WalkerElement:
    return add(x, neg(y))


def mul_by_p(x: WalkerElement) -> WalkerElement:
    return scalar_mul(x.context.p, x)


def in_relations(x: WalkerElement) -> bool:
    """True iff x represents 0, i.e. lies in the relation submodule."""
    return normalize(x).is_zero()


@dataclass(frozen=True)
class RelationElement:
    """A generating relation r_sigma, packaged with its raw combination."""

    sigma: DegLexIndex
    element: WalkerElement


def relation_element(ctx: WalkerContext, entries) -> RelationElement:
    """r_sigma = p*e_sigma for length 1, p*e_sigma - e_tail for length >= 2."""
    sigma = ctx.index(entries)
    terms = [(sigma, ctx.p)]
    if len(sigma) >= 2:
        terms.append((sigma.tail(), -1))
    return RelationElement(sigma, ctx.element(terms))


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
    return min(idx.first() for idx, _ in nx.support)


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
    parts = []
    for i, (idx, c) in enumerate(x.support):
        body = f"{abs(c)}*e[" + ", ".join(str(e) for e in idx.entries) + "]"
        if i == 0:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def _split_terms(text: str) -> list[tuple[int, str]]:
    """Split on top-level +/- (bracket-aware: ordinals contain + and *)."""
    terms = []
    sign = 1
    depth = 0
    cur = []
    ops_run = 0  # rejects `a ++ b`; one leading sign is still fine
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


def parse_element(ctx: WalkerContext, text: str) -> WalkerElement:
    """Parse `3*e[0,1] + 1*e[w] - 2*e[w+1, w*2]`; `0` is the zero element.

    A missing coefficient means 1.  Index entries use the ordinal syntax
    of the surrounding toolkit.  The result is raw (not normalized).
    """
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
        entries = [parse_ordinal(part) for part in rest[1:-1].split(",")]
        terms.append((entries, sign * coeff))
    return ctx.element(terms)
