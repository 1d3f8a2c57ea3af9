"""Seeded inputs, the timed operation and the output check of each workload.

Every workload is a deterministic stream of distinct inputs drawn from
``random.Random(f"{name}/{seed}")``.  Each input carries the answer the
operation must produce, worked out when the input is made by code that
shares nothing with the path being timed: an integer characteristic
polynomial for ``deep-tail``, closed forms and the brute-force thread oracle
of ``limtower.suites`` for ``tower-corpus``, and a carry pass over plain
tuples for ``walker-normalize``.

The library is reached through module attributes at call time
(``lt.analyze``, not a name imported once), so the traced run sees every
call the operation makes.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import re
from dataclasses import dataclass
from math import gcd

import limtower as lt
from limtower import serialize, suites
from limtower.groups import FgAbGroup, GroupMap
from limtower.towers import ConstantEndo, Tower, ZeroTail

HORIZON = 64  # deep-tail horizon; tower-corpus uses the library default


def spread(index: int, lo: int, hi: int) -> int:
    """An integer in [lo, hi] that covers the range evenly as index grows.

    Input sizes follow this golden-ratio sequence instead of random draws,
    so any prefix of a stream has nearly the same mix of sizes and runs of
    different lengths (or seeds) measure the same work.
    """
    return lo + int((hi - lo + 1) * ((index * 0.6180339887498949) % 1.0))


class Inputs:
    """Iterator over a workload's distinct inputs; counts dropped repeats."""

    def __init__(self, draw, seed: int, name: str):
        self._draw = draw
        self._rng = random.Random(f"{name}/{seed}")
        self._seen: set = set()
        self.made = 0
        self.dropped = 0

    def __iter__(self):
        return self

    def __next__(self):
        while True:
            inp = self._draw(self._rng, self.made)
            # a digest, not the key, so long prefixes do not pile up in memory
            seen = hashlib.blake2b(repr(inp.key).encode(), digest_size=16).digest()
            if seen in self._seen:
                self.dropped += 1
                continue
            self._seen.add(seen)
            self.made += 1
            return inp


class InputLog:
    """Running digest and size summary of the inputs a phase consumed."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.count = 0
        self._sums: dict[str, float] = {}
        self._maxes: dict[str, float] = {}

    def add(self, inp) -> None:
        self._hash.update(repr(inp.key).encode() + b"\n")
        self.count += 1
        for k, v in inp.sizes().items():
            self._sums[k] = self._sums.get(k, 0) + v
            self._maxes[k] = max(self._maxes.get(k, v), v)

    def digest(self) -> str:
        return self._hash.hexdigest()

    def summary(self) -> dict:
        out = {f"{k}_mean": v / self.count for k, v in self._sums.items()}
        out.update({f"{k}_max": v for k, v in self._maxes.items()})
        return out


# ---------------------------------------------------------------------------
# deep-tail: analyze(t, horizon=64) on constant endomorphism tails Z^r


def charpoly(mat: list[list[int]]) -> list[int]:
    """Coefficients of det(xI - mat), leading 1 first (Faddeev-LeVerrier).

    Every division is exact for an integer matrix, so the arithmetic stays
    in Python integers.
    """
    n = len(mat)
    coeffs = [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        c = coeffs[-1]
        m = [
            [sum(mat[i][t] * m[t][j] for t in range(n)) + (c if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        trace = sum(mat[i][t] * m[t][i] for i in range(n) for t in range(n))
        q, rem = divmod(-trace, k)
        if rem:
            raise ArithmeticError("Faddeev-LeVerrier division is not exact")
        coeffs.append(q)
    return coeffs


def covolume_factor(mat: list[list[int]]) -> int:
    """|q(0)| where det(xI - mat) = x^k q(x) and q(0) != 0."""
    return abs(next(c for c in reversed(charpoly(mat)) if c))


@dataclass
class TailInput:
    key: tuple
    tower: Tower
    rank: int
    d: int

    def sizes(self) -> dict:
        return {"rank": self.rank, "prefix_len": 0, "horizon": HORIZON}


# Octile boundaries of the witness d among random tails of each rank with
# d >= 2 (4000 draws per rank), closed above by the 95th percentile.
# Hermite entries reach about 64 * log2(d) bits, so d sets most of an
# operation's cost; each input takes d from the octile that spread() picks,
# so every stretch of the stream has all eight, and the rare huge d of the
# top 5% (which would set the p90 by itself) is left out.
_D_EDGES = {
    6: (16, 32, 54, 82, 121, 179, 303, 458),
    7: (48, 102, 176, 272, 414, 622, 1020, 1716),
    8: (194, 430, 714, 1108, 1684, 2568, 4136, 6536),
}


def draw_tail(rng: random.Random, index: int) -> TailInput:
    r = 6 + index % 3
    octile = spread(index // 3, 0, 7)
    while True:
        mat = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
        scalar = all(mat[i][j] == (mat[0][0] if i == j else 0) for i in range(r) for j in range(r))
        d = covolume_factor(mat)
        if d >= 2 and not scalar and bisect.bisect_right(_D_EDGES[r], d) == octile:
            break
    g = FgAbGroup(r, ())
    tower = Tower((), (), ConstantEndo(g, GroupMap(g, g, tuple(map(tuple, mat)))))
    return TailInput(tuple(map(tuple, mat)), tower, r, d)


_WITNESS_D = re.compile(r"grows by (\d+) per step")


def op_tail(inp: TailInput):
    rep = lt.analyze(inp.tower, horizon=HORIZON)
    return rep.ml_status.kind, rep.ml_status.witness, rep.lim1_status.kind


def check_tail(inp: TailInput, out) -> str | None:
    kind, witness, lim1 = out
    found = _WITNESS_D.search(witness or "")
    if kind != "never" or lim1 != "nonzero" or found is None:
        return f"expected a never-stabilizes witness, got {kind}/{witness}/{lim1}"
    if int(found.group(1)) != inp.d:
        return f"witness d = {found.group(1)}, |q(0)| = {inp.d}"
    return None


# ---------------------------------------------------------------------------
# tower-corpus: the per-tower work of `limtower analyze --json`

# One slot per tenth of the stream: 80% from the suites generators, 10% long
# finite prefixes, 10% free prefixes that stabilize late.
_CORPUS_SLOTS = (
    "finite", "surjective", "local", "decidable", "finite",
    "long", "surjective", "local", "decidable", "free",
)


def _prime_power_parts(n: int) -> dict[int, int]:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 1) * d
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 1) * n
    return out


def canonical_torsion(orders) -> list[int]:
    """Invariant factors of the direct sum of Z/o over `orders`."""
    by_prime: dict[int, list[int]] = {}
    for o in orders:
        for p, q in _prime_power_parts(o).items():
            by_prime.setdefault(p, []).append(q)
    depth = max((len(v) for v in by_prime.values()), default=0)
    factors = []
    for j in range(depth):
        f = 1
        for qs in by_prime.values():
            qs.sort(reverse=True)
            if j < len(qs):
                f *= qs[j]
        factors.append(f)
    return sorted(factors)


def _levels(t: Tower):
    return list(t.prefix_groups) + ([t.tail.group] if isinstance(t.tail, ConstantEndo) else [])


def _tail_multiplier(t: Tower) -> int | None:
    """m when the tail map is multiplication by m, read off the matrix."""
    if not isinstance(t.tail, ConstantEndo):
        return None
    g = t.tail.group
    if g.free_rank == 0:
        return None
    m = t.tail.endo.matrix[-1][-1]
    for i, o in enumerate(g.orders):
        for j in range(g.ngens):
            want = m if i == j else 0
            have = t.tail.endo.matrix[i][j]
            if (have - want) % o if o else have != want:
                return None
    return m


def expected_answers(t: Tower) -> dict:
    """The horizon-independent report fields, without the Hermite path.

    Finite levels: the brute-force thread oracle gives lim, and a finite
    tower always stabilizes.  A free tail with multiplication by |m| >= 2
    never stabilizes; its lim is the prime-to-m torsion of the tail group.
    An identity tail stabilizes with lim equal to the tail group.
    """
    if all(g.is_finite() for g in _levels(t)):
        lim = suites.thread_limit_oracle(t)
        return {
            "ml": "stabilized",
            "lim": [lim.free_rank, list(lim.invariant_factors)],
            "lim1": "zero",
            "local": lim.is_trivial(),
            "omega_complete": True,
        }
    g = t.tail.group
    if t.tail.endo.matrix == lt.identity_map(g).matrix:
        return {
            "ml": "stabilized",
            "lim": [g.free_rank, list(g.invariant_factors)],
            "lim1": "zero",
            "local": g.is_trivial(),
            "omega_complete": True,
        }
    m = _tail_multiplier(t)
    if m is None or abs(m) < 2:
        raise ValueError(f"no reference answer for {t}")
    coprime = []
    for d in g.invariant_factors:
        while (c := gcd(d, m)) > 1:
            d //= c
        if d > 1:
            coprime.append(d)
    return {
        "ml": "never",
        "lim": [0, canonical_torsion(coprime)],
        "lim1": "nonzero",
        "local": False,
        "omega_complete": False,
    }


def _long_prefix(rng: random.Random, k: int) -> Tower:
    w = spread(k, 50, 400)
    groups = [suites.random_finite_group(rng, 32) for _ in range(w)]
    maps = tuple(suites.random_hom(rng, groups[i + 1], groups[i]) for i in range(w - 1))
    if rng.random() < 0.5:
        return Tower(tuple(groups), maps, ZeroTail())
    return Tower(tuple(groups), maps, ConstantEndo(groups[-1], suites.random_hom(rng, groups[-1], groups[-1])))


def _free_prefix(rng: random.Random, k: int) -> Tower:
    r = 2 + k % 2
    w = spread(k // 2, 12, 24)
    g = FgAbGroup(r, ())
    maps = tuple(
        GroupMap(g, g, tuple(tuple(rng.randint(-2, 2) for _ in range(r)) for _ in range(r)))
        for _ in range(w - 1)
    )
    return Tower((g,) * w, maps, ConstantEndo(g, lt.identity_map(g)))


_MARKED_KINDS = ("finite", "surjective", "local", "decidable")
_CORPUS_MAKERS = {
    "finite": suites.random_finite_tower,
    "surjective": suites.random_surjective_tower,
    "local": suites.random_local_tower,
    "decidable": suites.random_decidable_tower,
    "long": _long_prefix,
    "free": _free_prefix,
}


@dataclass
class CorpusInput:
    key: str
    kind: str
    rank: int
    prefix_len: int
    expected: dict

    def sizes(self) -> dict:
        return {"rank": self.rank, "prefix_len": self.prefix_len, "horizon": lt.DEFAULT_HORIZON}


def _with_marker_level(rng: random.Random, t: Tower) -> Tower:
    """t shifted up one level under a new level 0: Z/n, n < 2^20, and the zero map.

    The suites generators repeat small towers often, and dropping repeats
    would shift the mix towards rare towers as a run gets longer.  The
    marker makes repeats distinct instead; it changes none of the answers
    (lim and the stabilization kind depend only on the upper levels) and
    adds one level of trivial images.
    """
    marker = FgAbGroup(0, (rng.randint(2, 2**20),))
    top = t.prefix_groups[0] if t.prefix_groups else (
        t.tail.group if isinstance(t.tail, ConstantEndo) else None
    )
    if top is None:
        return Tower((marker,), (), t.tail)
    groups = (marker,) + (t.prefix_groups or (top,))
    return Tower(groups, (lt.zero_map(top, marker),) + t.prefix_maps, t.tail)


def draw_corpus(rng: random.Random, index: int) -> CorpusInput:
    kind = _CORPUS_SLOTS[index % len(_CORPUS_SLOTS)]
    if kind in _MARKED_KINDS:
        t = _with_marker_level(rng, _CORPUS_MAKERS[kind](rng))
    else:
        t = _CORPUS_MAKERS[kind](rng, index // len(_CORPUS_SLOTS))
    text = json.dumps(serialize.tower_to_json(t), sort_keys=True)
    rank = max((g.ngens for g in _levels(t)), default=0)
    return CorpusInput(text, kind, rank, len(t.prefix_groups), expected_answers(t))


def op_corpus(inp: CorpusInput) -> str:
    tower = serialize.tower_from_json(json.loads(inp.key))
    rep = lt.analyze(tower)
    report = {
        "schema": serialize.SCHEMA_VERSION,
        "command": "analyze",
        "input": inp.kind,
        "result": serialize.analysis_report_to_json(rep),
        "timing_ms": None,
    }
    return json.dumps(report, indent=2, sort_keys=True)


def check_corpus(inp: CorpusInput, out: str) -> str | None:
    res = json.loads(out)["result"]
    lim = res["lim"]
    got = {
        "ml": res["ml_status"]["kind"],
        "lim": None if lim is None else [lim["free_rank"], lim["invariant_factors"]],
        "lim1": res["lim1_status"]["kind"],
        "local": res["local"],
        "omega_complete": res["omega_complete"],
    }
    if got != inp.expected:
        return f"{inp.kind}: got {got}, expected {inp.expected}"
    return None


# ---------------------------------------------------------------------------
# walker-normalize: parse, normalize, format and one height step in D'_alpha

# Ordinals below alpha = w^2*3 + w*2 + 3 are the triples (a, b, c) meaning
# w^2*a + w*b + c; tuple order is ordinal order, so the reference below
# needs no ordinal code from the library.
ALPHA = (3, 2, 3)
ALPHA_TEXT = "w^2*3 + w*2 + 3"
PRIMES = (2, 3, 5)
# Every so many inputs, the reference is compared with the single-carry
# rewriting of limtower.suites in a random order (about 20 ms each).
CROSS_CHECK_EVERY = 100


def ordinal_text(o: tuple[int, int, int]) -> str:
    parts = []
    for base, c in (("w^2", o[0]), ("w", o[1])):
        if c:
            parts.append(base if c == 1 else f"{base}*{c}")
    if o[2] or not parts:
        parts.append(str(o[2]))
    return " + ".join(parts)


def _index_text(idx) -> str:
    return "e[" + ", ".join(ordinal_text(o) for o in idx) + "]"


def element_text(terms) -> str:
    out = []
    for i, (idx, c) in enumerate(terms):
        body = f"{abs(c)}*{_index_text(idx)}"
        if i == 0:
            out.append(body if c > 0 else "-" + body)
        else:
            out.append(("+ " if c > 0 else "- ") + body)
    return " ".join(out)


def reference_normalize(terms, p: int) -> dict:
    """Digit form by carrying longest positions first.

    A carry from a position of length n lands on its tail, of length n - 1,
    so one pass over the lengths in decreasing order settles every digit.
    """
    acc: dict = {}
    for idx, c in terms:
        acc[idx] = acc.get(idx, 0) + c
    out = {}
    for n in range(max((len(k) for k in acc), default=0), 0, -1):
        for idx in [k for k in acc if len(k) == n]:
            c = acc.pop(idx)
            digit, carry = c % p, c // p
            if digit:
                out[idx] = digit
            if carry and n >= 2:
                acc[idx[1:]] = acc.get(idx[1:], 0) + carry
    return out


def reference_text(form: dict) -> str:
    """format_element's text: descending deg-lex, then digits as written."""
    if not form:
        return "0"
    keys = sorted(form, key=lambda k: (len(k), k), reverse=True)
    return element_text([(k, form[k]) for k in keys])


def _height_text(form: dict) -> str:
    return ordinal_text(min(k[0] for k in form)) if form else ALPHA_TEXT


def _draw_ordinal(rng: random.Random) -> tuple[int, int, int]:
    while True:
        o = (rng.randint(0, 3), rng.randint(0, 4), rng.randint(0, 9))
        if o < ALPHA:
            return o


def _draw_index(rng: random.Random, earlier: list) -> tuple:
    # Half of the positions extend an earlier one by a smaller first entry,
    # so carries land on positions that already hold mass.
    if earlier and rng.random() < 0.5:
        base = rng.choice(earlier)
        if len(base) < 6 and base[0] > (0, 0, 0):
            while True:
                o = _draw_ordinal(rng)
                if o < base[0]:
                    return (o,) + base
    n = rng.randint(1, 6)
    entries: set = set()
    while len(entries) < n:
        entries.add(_draw_ordinal(rng))
    return tuple(sorted(entries))


@dataclass
class WalkerInput:
    key: tuple
    context: lt.WalkerContext
    p: int
    terms: int
    index_len: int
    coeff_bits: int
    normal_form: str
    before: str
    after: str
    became_zero: bool

    def sizes(self) -> dict:
        return {"p": self.p, "terms": self.terms, "index_len": self.index_len, "coeff_bits": self.coeff_bits}


def draw_walker(rng: random.Random, index: int) -> WalkerInput:
    p = PRIMES[index % len(PRIMES)]
    while True:
        terms = []
        for _ in range(spread(index // len(PRIMES), 8, 64)):
            idx = _draw_index(rng, [t[0] for t in terms])
            terms.append((idx, rng.choice((-1, 1)) * rng.randint(1, p**8)))
        form = reference_normalize(terms, p)
        if form:
            break
    # p times a digit form moves each digit to its position's tail
    shifted = reference_normalize([(k[1:], c) for k, c in form.items() if len(k) >= 2], p)
    text = element_text(terms)
    context = lt.WalkerContext(p, lt.parse_ordinal(ALPHA_TEXT))
    normal_form = reference_text(form)
    if index % CROSS_CHECK_EVERY == 0:
        raw = lt.parse_element(context, text)
        other = lt.format_element(suites.normalize_random_order(context, raw, random.Random(index)))
        if other != normal_form:
            normal_form = f"disputed: suites.normalize_random_order gives {other}"
    return WalkerInput(
        key=(p, text),
        context=context,
        p=p,
        terms=len(terms),
        index_len=max(len(t[0]) for t in terms),
        coeff_bits=max(abs(c).bit_length() for _, c in terms),
        normal_form=normal_form,
        before=_height_text(form),
        after=_height_text(shifted),
        became_zero=not shifted,
    )


def op_walker(inp: WalkerInput):
    x = lt.parse_element(inp.context, inp.key[1])
    nx = lt.normalize(x)
    text = lt.format_element(nx)
    step = lt.mul_p_height_step(nx)
    return nx, text, step


def check_walker(inp: WalkerInput, out) -> str | None:
    nx, text, step = out
    if not all(1 <= c <= inp.p - 1 for _, c in nx.support):
        return "a coefficient of the normal form is not a digit"
    if text != inp.normal_form:
        return f"normal form differs at p={inp.p}"
    got = (str(step.before), str(step.after), step.became_zero, step.ok)
    want = (inp.before, inp.after, inp.became_zero, True)
    if got != want:
        return f"height step {got}, expected {want}"
    return None


@dataclass(frozen=True)
class Workload:
    draw: object
    op: object
    check: object

    def inputs(self, name: str, seed: int) -> Inputs:
        return Inputs(self.draw, seed, name)


WORKLOADS = {
    "deep-tail": Workload(draw_tail, op_tail, check_tail),
    "tower-corpus": Workload(draw_corpus, op_corpus, check_corpus),
    "walker-normalize": Workload(draw_walker, op_walker, check_walker),
}
