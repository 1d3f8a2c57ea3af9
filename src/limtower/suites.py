"""Verification suites: the fixed example corpus and randomized property checks.

Every randomized check is seeded and deterministic.  Oracles here are
deliberately independent of the main machinery: limits are recovered by
brute-force thread/head-set iteration over raw element tuples, and group
structure is reconstructed from element order counts alone, never from the
Smith/Hermite path the library itself uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .groups import (
    FgAbGroup,
    GroupMap,
    TRIVIAL_GROUP,
    annihilator_elements,
    direct_sum,
    fg_group,
    identity_map,
    image,
    map_from_columns,
    mat_add,
    multiplication_map,
    smith_certificate_error,
    smith_normal_form,
    zero_map,
)
from .ordinals import OrdinalCNF, ord_from_int, parse_ordinal, random_smaller_ordinal
from .towers import (
    ConstantEndo,
    Tower,
    ZeroTail,
    analyze,
    constant_tower,
    image_tower,
    is_epimorphic_tower,
    is_null_tower,
    iterate_image,
    limit_of_towers,
    multiplication_tower,
    null_extension,
    null_tower,
    quotient_tower,
    shift,
    stabilize,
    subtower,
    truncated_constant_tower,
    truncation_adjunction_check,
    window_difference_map,
    window_shift_map,
)
from . import walker as wk


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# Independent oracles


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def group_from_elements(ambient: FgAbGroup, elems) -> FgAbGroup:
    """Canonical form of a finite subgroup, from element order counts only.

    The count of solutions of p^k * x = 0 determines the number of cyclic
    p-power factors of each exponent; combining primes positionally yields
    the invariant factors.  No matrix normal forms involved.
    """
    elems = list(elems)
    n = len(elems)
    if n == 1:
        return TRIVIAL_GROUP
    factors_by_prime: dict[int, list[int]] = {}
    for p in _prime_factors(n):
        counts = [1]
        while True:
            k = len(counts)
            c = sum(1 for x in elems if all(v == 0 for v in ambient.scale(p**k, x)))
            if c == counts[-1]:
                break
            counts.append(c)
        mults = []
        for k in range(1, len(counts)):
            ratio, rest = divmod(counts[k], counts[k - 1])
            mk = 0
            while ratio > 1 and ratio % p == 0:
                ratio //= p
                mk += 1
            if rest or ratio != 1:
                raise RuntimeError(f"{p}-torsion counts {counts} do not grow by powers of {p}")
            mults.append(mk)
        powers: list[int] = []
        for k in range(1, len(mults) + 1):
            exactly = mults[k - 1] - (mults[k] if k < len(mults) else 0)
            powers.extend([p**k] * exactly)
        factors_by_prime[p] = sorted(powers, reverse=True)
    depth = max(len(v) for v in factors_by_prime.values())
    invs = []
    for j in range(depth):
        d = 1
        for lst in factors_by_prime.values():
            if j < len(lst):
                d *= lst[j]
        invs.append(d)
    return FgAbGroup(0, tuple(sorted(invs)))


def thread_limit_oracle(t: Tower) -> FgAbGroup:
    """lim by brute force: stabilize the head set three levels past the stable index.

    An element heads an infinite thread iff it stays in every iterated
    image of the tail map; on raw element sets that is plain set iteration,
    and threads are determined by their heads because the maps push heads
    down uniquely.  Requires a finite group at the deep level.
    """
    lvl = t.stable_index + 3
    g = t.group(lvl)
    if not g.is_finite():
        raise ValueError("thread enumeration needs a finite deep level")
    e = t.step_map(lvl)
    heads = {tuple(x) for x in g.elements()}
    while True:
        nxt = {e.apply(x) for x in heads}
        if nxt == heads:
            break
        heads = nxt
    return group_from_elements(g, heads)


def raw_stage_sets(t: Tower, n: int) -> list[set]:
    """I^n(S) levelwise as raw element sets (finite levels only)."""
    out = []
    for i in range(t.stable_index + 1):
        top = t.group(i + n)
        if not top.is_finite():
            raise ValueError("raw stage enumeration needs finite levels")
        w = t.window_map(i, n)
        out.append({w.apply(x) for x in top.elements()})
    return out


# ---------------------------------------------------------------------------
# Random generators


_CYCLIC_CHOICES = [2, 3, 4, 5, 6, 8, 9, 12, 16]


def random_finite_group(rng: random.Random, max_order: int = 64) -> FgAbGroup:
    while True:
        k = rng.randint(0, 3)
        orders = [rng.choice(_CYCLIC_CHOICES) for _ in range(k)]
        prod = 1
        for o in orders:
            prod *= o
        if prod <= max_order:
            return fg_group(*orders)


def random_hom(rng: random.Random, dom: FgAbGroup, cod: FgAbGroup) -> GroupMap:
    """Uniformly random well-defined map (codomain finite)."""
    cols = [rng.choice(annihilator_elements(cod, d)) for d in dom.orders]
    return map_from_columns(dom, cod, cols)


def random_finite_tower(
    rng: random.Random, max_levels: int = 6, max_order: int = 64
) -> Tower:
    w = rng.randint(0, max_levels)
    groups = [random_finite_group(rng, max_order) for _ in range(w)]
    maps = tuple(random_hom(rng, groups[i + 1], groups[i]) for i in range(w - 1))
    if rng.random() < 0.5:
        return Tower(tuple(groups), maps, ZeroTail())
    tail_group = groups[-1] if w else random_finite_group(rng, max_order)
    endo = random_hom(rng, tail_group, tail_group)
    return Tower(tuple(groups), maps, ConstantEndo(tail_group, endo))


def random_surjective_tower(rng: random.Random, max_levels: int = 4) -> Tower:
    """Levelwise-surjective finite tower: each level is the previous plus a
    random summand and the map is the projection; the tail endo is a random
    automorphism found by retrying random endomorphisms."""
    w = rng.randint(1, max_levels)
    groups = [random_finite_group(rng, 8)]
    maps = []
    for _ in range(1, w):
        ds = direct_sum([groups[-1], random_finite_group(rng, 4)])
        maps.append(ds.projections[0])
        groups.append(ds.group)
    tail_group = groups[-1]
    endo = identity_map(tail_group)
    for _ in range(40):
        cand = random_hom(rng, tail_group, tail_group)
        if image(cand).is_full():
            endo = cand
            break
    return Tower(tuple(groups), tuple(maps), ConstantEndo(tail_group, endo))


def behind_finite_front(rng: random.Random, tail: ConstantEndo) -> Tower:
    """The constant tail behind one finite level, with a random map onto it."""
    front = random_finite_group(rng, 16)
    return Tower((front, tail.group), (random_hom(rng, tail.group, front),), tail)


def _radical(n: int) -> int:
    r = 1
    for p in _prime_factors(n):
        r *= p
    return r


def random_local_tower(rng: random.Random) -> Tower:
    """A tower with lim = lim1 = 0: some finite image stage vanishes."""
    kind = rng.randrange(3)
    if kind == 0:
        k = rng.randint(1, 3)
        return null_tower([random_finite_group(rng, 16) for _ in range(k)])
    if kind == 1:
        # any tower that is eventually zero is local
        w = rng.randint(1, 3)
        groups = [random_finite_group(rng, 16) for _ in range(w)]
        maps = tuple(random_hom(rng, groups[i + 1], groups[i]) for i in range(w - 1))
        return Tower(tuple(groups), maps, ZeroTail())
    g = random_finite_group(rng, 32)
    if g.is_trivial():
        return constant_tower(g)
    m = _radical(g.order()) * rng.randint(1, 2)
    tail = ConstantEndo(g, multiplication_map(g, m))
    if rng.random() < 0.5:
        return behind_finite_front(rng, tail)
    return Tower((), (), tail)


def random_decidable_tower(rng: random.Random) -> Tower:
    """Either a finite tower (always stabilizes) or a multiplication tail."""
    if rng.random() < 0.6:
        return random_finite_tower(rng, max_levels=4, max_order=32)
    torsion = random_finite_group(rng, 16)
    free = rng.randint(0, 2)
    g = FgAbGroup(free, torsion.invariant_factors)
    m = rng.choice([2, 3, 4, 5, 6, -2])
    tail = ConstantEndo(g, multiplication_map(g, m))
    if rng.random() < 0.4:
        return behind_finite_front(rng, tail)
    return Tower((), (), tail)


def random_general_tail_tower(rng: random.Random) -> Tower:
    """A tail T + Z^r (T finite, r = 2..6) under a general endomorphism.

    The free block has entries in [-2, 2], and every other draw zeroes one
    of its columns, so that its eventual image can lose rank; the rows into
    T come from `random_hom`.  Four draws in ten put one finite level in
    front.  Unlike `random_decidable_tower`, most of these tails are not a
    multiplication, so they reach the covolume witness's determinant.
    """
    torsion = random_finite_group(rng, 16)
    r = rng.randint(2, 6)
    g = FgAbGroup(r, torsion.invariant_factors)
    free = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
    if rng.random() < 0.5:
        j = rng.randrange(r)
        for row in free:
            row[j] = 0
    k = len(torsion.invariant_factors)
    rows = random_hom(rng, g, torsion).matrix + tuple((0,) * k + tuple(row) for row in free)
    tail = ConstantEndo(g, GroupMap(g, g, rows))
    if rng.random() < 0.4:
        return behind_finite_front(rng, tail)
    return Tower((), (), tail)


def random_walker_index(rng: random.Random, ctx: wk.WalkerContext) -> list[OrdinalCNF]:
    want = rng.randint(1, 3)
    found: list[OrdinalCNF] = []
    for _ in range(40):
        o = random_smaller_ordinal(rng, ctx.alpha)
        if o is not None and o not in found:
            found.append(o)
        if len(found) == want:
            break
    if not found:
        found = [ord_from_int(0)]
    found.sort()
    return found


def random_walker_element(rng: random.Random, ctx: wk.WalkerContext) -> wk.WalkerElement:
    """A raw element of at most 8 terms, each coefficient within p^4 of 0."""
    bound = ctx.p**4
    terms = [
        (random_walker_index(rng, ctx), rng.randint(-bound, bound))
        for _ in range(rng.randint(0, 8))
    ]
    return ctx.element(terms)


def normalize_random_order(ctx: wk.WalkerContext, x: wk.WalkerElement, rng: random.Random) -> wk.WalkerElement:
    """Normalization by single carries in a random admissible order.

    Used as the second strategy of the confluence probe: the deterministic
    descending pass and this one must agree on every input.
    """
    acc = {k: v for k, v in x.support}
    p = ctx.p
    for _ in range(10**6):
        bad = [k for k, v in acc.items() if v and not 0 <= v < p]
        if not bad:
            break
        k = rng.choice(bad)
        c = acc.pop(k)
        digit, carry = c % p, c // p
        if digit:
            acc[k] = digit
        if carry and len(k) >= 2:
            t = k.tail()
            acc[t] = acc.get(t, 0) + carry
    else:
        raise RuntimeError("random rewrite order failed to terminate")
    return wk.normalize(ctx.element([(k, v) for k, v in acc.items() if v]))


# ---------------------------------------------------------------------------
# Fixed corpus


def corpus_towers() -> list[tuple[str, Tower]]:
    z = fg_group(0)
    entries = [
        ("constant-z4", constant_tower(fg_group(4))),
        ("mult-z8-by-2", multiplication_tower(fg_group(8), 2)),
        ("mult-z25-by-5", multiplication_tower(fg_group(25), 5)),
        ("mult-z6-by-2", multiplication_tower(fg_group(6), 2)),
        ("mult-z12-by-2", multiplication_tower(fg_group(12), 2)),
        ("mult-z-by-2", multiplication_tower(z, 2)),
        ("mult-z-plus-z4-by-2", multiplication_tower(fg_group(4, 0), 2)),
        ("null-2-4-8", null_tower([fg_group(2), fg_group(4), fg_group(8)])),
        (
            "prefixed-z5-then-z-by-2",
            Tower(
                (fg_group(5), z),
                (GroupMap(z, fg_group(5), ((1,),)),),
                ConstantEndo(z, multiplication_map(z, 2)),
            ),
        ),
        (
            "product-z6-with-null",
            limit_of_towers(
                [multiplication_tower(fg_group(6), 2), null_tower([fg_group(2)])]
            ),
        ),
    ]
    return entries


# (suite name, corpus name, the profile fields the paper states for that tower)
_PAPER_EXAMPLES = (
    ("s-of-a-z8-mult-2", "mult-z8-by-2", {"I2_0": "Z/2", "length": "3", "local": True}),
    ("s-of-a-z25-mult-5", "mult-z25-by-5", {"length": "2", "local": True}),
    (
        "s-of-a-z6-mult-2",
        "mult-z6-by-2",
        {"ml": "stabilized", "stage": 1, "lim": "Z/3", "lim1": "zero", "local": False,
         "E0": "Z/3", "L0": "Z/2", "L_null": True},
    ),
    ("s-of-a-z12-mult-2", "mult-z12-by-2", {"lim": "Z/3", "E0": "Z/3", "L0": "Z/4", "lim_L": "0"}),
    (
        "s-of-a-z-mult-2",
        "mult-z-by-2",
        {"ml": "never", "lim": "0", "lim1": "nonzero", "omega_complete": False, "omega_witness": 1,
         "length": "w", "local": False},
    ),
    ("s-of-a-z-plus-z4-mult-2", "mult-z-plus-z4-by-2", {"length": "w", "lim1": "nonzero", "lim": "0"}),
    ("null-tower-2-4-8", "null-2-4-8", {"length": "1", "local": True}),
    ("prefixed-z5-then-z-mult-2", "prefixed-z5-then-z-by-2", {"length": "w + 1", "lim": "0"}),
    (
        "constant-z4",
        "constant-z4",
        {"ml": "stabilized", "stage": 0, "lim": "Z/4", "length": "0", "local": False, "epimorphic": True},
    ),
    ("product-z6-with-null", "product-z6-with-null", {"lim": "Z/3", "local": False, "lim1": "zero"}),
)


def _profile(tw: Tower) -> dict:
    """The fields of the tower's pass, of its decomposition's level-0 groups and of I^2 that a table row can state.

    One pass over the tower and one over its limitless part L answer every
    field.  Groups are given by their canonical text, so "0" is the trivial
    group and "None" an undetermined limit.
    """
    f = stabilize(tw)
    dec = f.decompose()
    omega_complete, omega_witness = f.omega_completion()
    return {
        "ml": f.ml_status.kind,
        "stage": f.ml_status.stage,
        "length": str(f.length),
        "lim": str(f.lim),
        "lim1": f.lim1_status.kind,
        "local": f.is_local(),
        "omega_complete": omega_complete,
        "omega_witness": omega_witness,
        "E0": str(dec.epimorphic_part.group(0)),
        "L0": str(dec.limitless.tower.group(0)),
        "L_null": is_null_tower(dec.limitless.tower),
        "lim_L": str(dec.limitless.lim),
        "I2_0": str(f.stage(ord_from_int(2)).sub_at(0).as_group()),
        "epimorphic": is_epimorphic_tower(tw),
    }


def _mismatch(tw: Tower, want: dict) -> str:
    """Each field of `want` that the tower's profile does not match, or "" when all do."""
    got = _profile(tw)
    return "; ".join(f"expected {k} {v!r}, got {got[k]!r}" for k, v in want.items() if got[k] != v)


# ---------------------------------------------------------------------------
# Acceptance criteria: each returns (passed, detail), and CRITERIA below names it


def criterion_snf_certificates(rng: random.Random, trials: int) -> tuple[bool, str]:
    """U*M*V = D with unimodular transforms and a divisibility chain."""
    for t in range(trials):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        mat = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        if (problem := smith_certificate_error(mat, *smith_normal_form(mat))) is not None:
            return False, f"{problem} at trial {t}"
    return True, f"{trials} random matrices certified exactly"


def criterion_finite_ml(rng: random.Random, trials: int) -> tuple[bool, str]:
    """Finite towers stabilize; lim equals the thread-enumeration oracle."""
    for t in range(trials):
        tw = random_finite_tower(rng)
        rep = analyze(tw)
        if rep.ml_status.kind != "stabilized":
            return False, f"tower {t} did not stabilize: {tw}"
        if rep.lim1_status.kind != "zero":
            return False, f"tower {t} lim1 not zero"
        oracle = thread_limit_oracle(tw)
        if rep.lim != oracle:
            return False, f"tower {t}: lim {rep.lim} but thread oracle {oracle}"
    return True, f"{trials} finite towers: stabilized, lim matches threads"


def _shift_change(tw: Tower, view: tuple) -> str | None:
    """The shift ("shift" or "double shift") that changes `view`, the tower's shift-invariant view, or None."""
    shifted, _ = shift(tw)
    if view != analyze(shifted).shift_invariant_view():
        return "shift"
    twice, _ = shift(shifted)
    if view != analyze(twice).shift_invariant_view():
        return "double shift"
    return None


def criterion_shift_invariance() -> tuple[bool, str]:
    """Shifting drops a level; every status and the limit must survive."""
    for name, tw in corpus_towers():
        if (change := _shift_change(tw, analyze(tw).shift_invariant_view())) is not None:
            return False, f"corpus tower {name} changed under {change}"
    return True, f"{len(corpus_towers())} corpus towers invariant under shifts"


def criterion_general_tails(rng: random.Random, trials: int) -> tuple[bool, str]:
    """General endomorphism tails survive shifts, and a witnessed one never repeats.

    A NeverStabilizes tower's tail level must strictly shrink at every
    stage, since one repeat would repeat forever.  The stages come from
    `iterate_image`, so this part shares no code with the covolume witness.
    """
    witnessed = 0
    for t in range(trials):
        tw = random_general_tail_tower(rng)
        rep = analyze(tw)
        if (change := _shift_change(tw, rep.shift_invariant_view())) is not None:
            return False, f"tower {t} changed under {change}"
        if rep.ml_status.kind != "never":
            continue
        witnessed += 1
        c = tw.stable_index
        levels = [iterate_image(tw, n).sub_at(c) for n in range(10)]
        for n in range(9):
            if levels[n] == levels[n + 1] or not levels[n].contains_subgroup(levels[n + 1]):
                return False, f"tower {t}: witnessed tail level repeats at stage {n}"
    return True, (
        f"{trials} general tails invariant under shifts; {witnessed} witnessed tail levels shrink at stages 0..8"
    )


def criterion_quotient_vanishing(rng: random.Random, trials: int) -> tuple[bool, str]:
    """S/I^n has trivial limit, and orders factor through the image quotient."""
    checked_eq = 0
    for t in range(trials):
        tw = random_finite_tower(rng, max_levels=4, max_order=32)
        filt = stabilize(tw)  # a finite tower stabilizes well inside the horizon: every stage is exact
        stages = [filt.stage(ord_from_int(n)).subs for n in range(8)]
        for n in range(1, 7):
            quot, _ = quotient_tower(tw, stages[n])
            lim_q = stabilize(quot).lim
            if lim_q is None or not lim_q.is_trivial():
                return False, f"tower {t}: lim S/I^{n} nonzero"
            if t % 10 == 0:
                oracle = thread_limit_oracle(quot)
                if not oracle.is_trivial():
                    return False, f"tower {t}: thread oracle disagrees at n={n}"
        for n in range(0, 6):
            sub_n, _ = subtower(tw, stages[n])
            _, _, step_quot = image_tower(sub_n)
            quot_n, _ = quotient_tower(tw, stages[n])
            quot_n1, _ = quotient_tower(tw, stages[n + 1])
            for i in range(tw.stable_index + 1):
                lhs = quot_n1.group(i).order()
                rhs = step_quot.group(i).order() * quot_n.group(i).order()
                if lhs != rhs:
                    return False, f"tower {t}: order equation fails at level {i}, stage {n}"
                checked_eq += 1
    return True, f"{trials} towers, stages up to 6: quotients limitless, {checked_eq} order equations hold"


def criterion_closed_forms() -> tuple[bool, str]:
    """The multiplication-family worked examples and Z by 3, cross-checked on raw elements."""
    rows = {corpus_name: want for _, corpus_name, want in _PAPER_EXAMPLES}
    corpus = dict(corpus_towers())
    families = ("mult-z25-by-5", "mult-z6-by-2", "mult-z-by-2", "mult-z-plus-z4-by-2")
    cases = [(name, corpus[name], rows[name]) for name in families]
    # the never-stabilizing closed form of Z by p does not depend on p
    cases.append(("mult-z-by-3", multiplication_tower(fg_group(0), 3), rows["mult-z-by-2"]))
    failures = [f"{name}: {problems}" for name, tw, want in cases if (problems := _mismatch(tw, want))]
    s25, s6 = corpus["mult-z25-by-5"], corpus["mult-z6-by-2"]
    if raw_stage_sets(s25, 2)[0] != {(0,)}:
        failures.append("Z/25 by 5: raw stage 2 not zero")
    if thread_limit_oracle(s6) != fg_group(3):
        failures.append("Z/6 by 2: thread oracle mismatch")
    if raw_stage_sets(s6, 1)[0] != set(iterate_image(s6, 1).sub_at(0).element_list()):
        failures.append("Z/6 by 2: raw stage 1 disagrees with subgroup form")
    return not failures, "; ".join(failures) or (
        "Z/25, Z/6, Z (p=2,3), Z+Z/4 families match closed forms and raw-element oracles"
    )


def criterion_decomposition(rng: random.Random, trials: int) -> tuple[bool, str]:
    """E epimorphic, I^len(L) = 0, orders factor; plus a hand-built double."""
    for t in range(trials):
        tw = random_decidable_tower(rng)
        dec = stabilize(tw).decompose()
        if not is_epimorphic_tower(dec.epimorphic_part):
            return False, f"tower {t}: E not epimorphic"
        filt = dec.limitless
        if filt.length.kind != "exact":
            return False, f"tower {t}: L length undecided"
        if not filt.stage(filt.length.value).is_trivial():
            return False, f"tower {t}: I^len(L) nonzero"
        for i in range(tw.stable_index + 1):
            if tw.group(i).is_finite():
                if tw.group(i).order() != dec.epimorphic_part.group(i).order() * filt.tower.group(i).order():
                    return False, f"tower {t}: order factorization fails at level {i}"
    # a second decomposition of S(Z/6, 2), built by hand from the 3-part
    s6 = multiplication_tower(fg_group(6), 2)
    auto = stabilize(s6).decompose()
    hand_e = constant_tower(fg_group(3))  # the 3-torsion with (invertible) mult by 2
    hand_l = null_tower([fg_group(2)])
    checks = [
        auto.epimorphic_part.group(0) == hand_e.group(0),
        stabilize(auto.epimorphic_part).lim == stabilize(hand_e).lim,
        auto.limitless.tower.group(0) == hand_l.group(0),
        is_null_tower(auto.limitless.tower) and is_null_tower(hand_l),
    ]
    if not all(checks):
        return False, "hand-built decomposition disagrees"
    return True, f"{trials} decidable towers decomposed; hand-built double agrees"


def criterion_locality_closure(rng: random.Random, trials: int) -> tuple[bool, str]:
    """Null extensions and finite products of local towers stay local."""
    for t in range(trials):
        base = random_local_tower(rng)
        if stabilize(base).is_local() is not True:
            return False, f"generator produced a non-local tower at {t}"
        k = rng.randint(1, 3)
        n_groups = [random_finite_group(rng, 8) for _ in range(k)]
        n_tower = null_tower(n_groups)
        horizon_levels = max(base.stable_index, n_tower.stable_index) + 1
        psis = [
            random_hom(rng, base.group(i + 1), n_tower.group(i))
            for i in range(horizon_levels)
        ]
        tail_psi = zero_map(base.group(horizon_levels + 1), n_tower.group(horizon_levels))
        ext = null_extension(base, n_tower, psis, tail_psi)
        if stabilize(ext).is_local() is not True:
            return False, f"null extension at {t} is not local"
        other = random_local_tower(rng)
        prod = limit_of_towers([base, other])
        if stabilize(prod).is_local() is not True:
            return False, f"product at {t} is not local"
    return True, f"{trials} null extensions and products of local towers stayed local"


def criterion_walker_normal_form(rng: random.Random, trials: int) -> tuple[bool, str]:
    """Idempotence, relation invariance, confluence, leading-index contract."""
    combos = [(p, a) for p in (2, 3, 5) for a in ("w", "w*2+3")]
    per = -(-trials // len(combos))
    done = 0
    for p, alpha_text in combos:
        ctx = wk.WalkerContext(p, parse_ordinal(alpha_text))
        for t in range(per):
            x = random_walker_element(rng, ctx)
            nx = wk.normalize(x)
            if wk.normalize(nx) != nx:
                return False, f"idempotence fails at p={p}, {alpha_text}, trial {t}"
            shifted = x
            for _ in range(rng.randint(0, 3)):
                r = wk.relation_element(ctx, random_walker_index(rng, ctx))
                c = rng.randint(-3, 3)
                raw_terms = list(shifted.support) + [(k, c * v) for k, v in r.support]
                shifted = ctx.element(raw_terms)
            if wk.normalize(shifted) != nx:
                return False, f"relation invariance fails at p={p}, trial {t}"
            if normalize_random_order(ctx, x, rng) != nx:
                return False, f"confluence fails at p={p}, trial {t}"
            if x.support and nx.support:
                if nx.leading_index() > x.leading_index():
                    return False, f"leading index grew at p={p}, trial {t}"
            done += 1
    return True, f"{done} raw elements across p in (2,3,5), alpha in (w, w*2+3)"


def _ulm_samples(alpha: OrdinalCNF) -> list[OrdinalCNF]:
    if alpha.is_finite():
        return [ord_from_int(i) for i in range(min(alpha.to_int(), 5))]
    fixed = ["0", "1", "5", "w", "w+1", "w+2", "w*2+2", "w*2", "w+17"]
    out = []
    for s in fixed:
        o = parse_ordinal(s)
        if o < alpha:
            out.append(o)
        if len(out) == 6:
            break
    return out


def criterion_ulm_length() -> tuple[bool, str]:
    """Every stage below alpha is inhabited exactly; stage alpha is zero."""
    alphas = ["1", "5", "w", "w+3", "w*2", "w*2+3"]
    probes = 0
    for alpha_text in alphas:
        alpha = parse_ordinal(alpha_text)
        for p in (2, 3):
            ctx = wk.WalkerContext(p, alpha)
            sample = _ulm_samples(alpha)
            rep = wk.ulm_probe(ctx, sample)
            if not (rep.ok and rep.top_stage_trivial):
                return False, f"probe failed at alpha={alpha_text}, p={p}"
            for beta in sample:
                x = ctx.basis([beta])
                seen = [wk.height(x)]
                while not x.is_zero():
                    step = wk.mul_p_height_step(x)
                    if not step.ok:
                        return False, f"height did not climb at alpha={alpha_text}, beta={beta}"
                    x = wk.mul_by_p(x)
                    seen.append(wk.height(x))
                for a, b in zip(seen, seen[1:]):
                    if a >= b:
                        return False, f"heights not strictly increasing at {alpha_text}"
                probes += 1
    return True, f"{probes} sampled stages across 6 bounds, heights exact and climbing"


def _small_adjunction_towers() -> list[Tower]:
    z2, z4, z8 = fg_group(2), fg_group(4), fg_group(8)
    t = fg_group()
    return [
        constant_tower(z2),
        constant_tower(z4),
        multiplication_tower(z4, 2),
        multiplication_tower(z8, 2),
        multiplication_tower(fg_group(6), 2),
        null_tower([z2, z4, z2, z4]),
        null_tower([z4, t]),
        Tower((z2, z4), (GroupMap(z4, z2, ((1,),)),), ConstantEndo(z4, multiplication_map(z4, 3))),
        truncated_constant_tower(fg_group(4), 2),
        limit_of_towers([constant_tower(z2), null_tower([z2, z2])]),
    ]


def criterion_adjunction_window() -> tuple[bool, str]:
    """Hom-set bijections for truncated constant sources; window operator inverses."""
    sources = [fg_group(2), fg_group(4), fg_group(2, 2)]
    towers = _small_adjunction_towers()
    checks = 0
    for a in sources:
        for n in range(4):
            for k, tw in enumerate(towers):
                if not truncation_adjunction_check(a, n, tw):
                    return False, f"bijection fails for {a}, n={n}, tower {k}"
                checks += 1
    windows = 0
    for _, tw in corpus_towers():
        for w in range(1, 6):
            if not all(tw.group(i).is_finite() for i in range(w)):
                continue
            d = window_difference_map(tw, w)
            f_op = window_shift_map(tw, w)
            # explicit geometric-sum inverse of 1 - F
            inv = identity_map(d.domain)
            power = identity_map(d.domain)
            for _ in range(1, w):
                power = power.compose(f_op)
                inv = GroupMap(d.domain, d.domain, mat_add(inv.matrix, power.matrix))
            ident = identity_map(d.domain).matrix
            if d.compose(inv).matrix != ident or inv.compose(d).matrix != ident:
                return False, f"window inverse fails at W={w}"
            windows += 1
    return True, f"{checks} hom-set bijections, {windows} window inverses verified"


# ---------------------------------------------------------------------------
# The criteria table: the only place that names a criterion, seeds it and sizes it


@dataclass(frozen=True)
class Criterion:
    """One acceptance criterion and the suites that run it.

    `check` takes (rng, trials) and returns (passed, detail); a fixed check
    has no seed offset and takes no argument.  `trials` maps each suite that
    runs the row to its trial count there, None for a fixed check.
    """

    name: str
    check: object
    seed_offset: int | None
    trials: dict[str, int | None]

    def run(self, suite: str, seed: int) -> CheckResult:
        """The row's result in `suite`, its rng seeded at seed + its offset."""
        if self.seed_offset is None:
            passed, detail = self.check()
        else:
            passed, detail = self.check(random.Random(seed + self.seed_offset), self.trials[suite])
        return CheckResult(self.name, passed, detail)


CRITERIA = (
    Criterion("snf-certificates", criterion_snf_certificates, 0, {"property-suite": 300, "acceptance": 500}),
    Criterion("finite-ml-soundness", criterion_finite_ml, 1, {"property-suite": 120, "acceptance": 200}),
    Criterion("shift-invariance", criterion_shift_invariance, None, {"acceptance": None}),
    Criterion("image-quotient-vanishing", criterion_quotient_vanishing, 2, {"property-suite": 60, "acceptance": 120}),
    Criterion("multiplication-closed-forms", criterion_closed_forms, None, {"acceptance": None}),
    Criterion("decomposition-signature", criterion_decomposition, 3, {"property-suite": 60, "acceptance": 100}),
    Criterion("locality-closure", criterion_locality_closure, 4, {"property-suite": 60, "acceptance": 100}),
    Criterion("walker-normal-form", criterion_walker_normal_form, 5, {"property-suite": 3000, "acceptance": 10_000}),
    Criterion("ulm-length", criterion_ulm_length, None, {"acceptance": None}),
    Criterion("adjunction-and-window", criterion_adjunction_window, None, {"acceptance": None}),
    Criterion("general-tails", criterion_general_tails, 6, {"property-suite": 40, "acceptance": 40}),
)


# ---------------------------------------------------------------------------
# Named suites


def _scenario(name: str, detail: str, conditions: dict[str, bool]) -> CheckResult:
    """Passes with `detail` when every condition holds; otherwise the detail names each one that does not."""
    broken = [what for what, holds in conditions.items() if not holds]
    return CheckResult(name, not broken, f"failed: {'; '.join(broken)}" if broken else detail)


def paper_examples_suite() -> list[CheckResult]:
    """The fixed worked-example corpus, one result per scenario."""
    corpus = dict(corpus_towers())
    out: list[CheckResult] = []
    for name, corpus_name, want in _PAPER_EXAMPLES:
        problems = _mismatch(corpus[corpus_name], want)
        out.append(CheckResult(name, not problems, problems or "as expected"))

    # shift invariance across the whole corpus
    out.append(CheckResult("shift-invariance-corpus", *criterion_shift_invariance()))

    # walker scenarios
    ctx1 = wk.WalkerContext(2, parse_ordinal("1"))
    e0 = ctx1.basis([parse_ordinal("0")])
    out.append(_scenario("walker-alpha-1", "p*e[0] = 0 and e[0] nonzero", {
        "e[0] nonzero": not e0.is_zero(),
        "p*e[0] = 0": wk.mul_by_p(e0).is_zero(),
        "height(e[0]) = 0": str(wk.height(e0)) == "0",
    }))

    ctx = wk.WalkerContext(2, parse_ordinal("w*2+3"))
    e01 = ctx.basis([parse_ordinal("0"), parse_ordinal("1")])
    e1 = ctx.basis([parse_ordinal("1")])
    out.append(_scenario("walker-carry-chain-p2", "e[0,1]+e[0,1] = e[1], e[1]+e[1] = 0", {
        "e[0,1]+e[0,1] = e[1]": wk.add(e01, e01) == e1,
        "e[1]+e[1] = 0": wk.add(e1, e1).is_zero(),
        "p*e[0,1] = e[1]": wk.mul_by_p(e01) == e1,
    }))

    sample = [parse_ordinal(s) for s in ("0", "5", "w", "w+1", "w*2+2")]
    rep_probe = wk.ulm_probe(ctx, sample)
    out.append(_scenario("walker-ulm-w2-3", "5 sampled heights exact; top stage trivial", {
        "sampled heights exact": rep_probe.ok,
        "top stage trivial": rep_probe.top_stage_trivial,
    }))

    ctx3 = wk.WalkerContext(3, parse_ordinal("w"))
    rels = [
        wk.relation_element(ctx3, [parse_ordinal("4")]),
        wk.relation_element(ctx3, [parse_ordinal("2"), parse_ordinal("7")]),
        wk.relation_element(ctx3, [parse_ordinal("0"), parse_ordinal("1"), parse_ordinal("5")]),
    ]
    combo = ctx3.zero()
    for i, r in enumerate(rels):
        combo = wk.add(combo, wk.scalar_mul(2 * i + 1, r))
    out.append(_scenario("walker-relations-p3", "relation combos vanish; basis classes do not", {
        "relation combos vanish": wk.in_relations(combo),
        "basis class e[3] nonzero": not wk.in_relations(ctx3.basis([parse_ordinal("3")])),
    }))

    z2 = fg_group(2)
    out.append(_scenario("adjunction-z2-small", "hom-set bijections hold", {
        "hom-set bijection at n = 0, constant Z/2": truncation_adjunction_check(z2, 0, constant_tower(z2)),
        "hom-set bijection at n = 1, null Z/2": truncation_adjunction_check(z2, 1, null_tower([z2, TRIVIAL_GROUP])),
    }))

    return out


def criteria_suite(suite: str, seed: int) -> list[CheckResult]:
    """Each row of CRITERIA that gives `suite` a scale, run at that scale."""
    return [c.run(suite, seed) for c in CRITERIA if suite in c.trials]


# Each named suite, run at a seed; the fixed corpus ignores it.
SUITES = {
    "paper-examples": lambda seed: paper_examples_suite(),
    "property-suite": lambda seed: criteria_suite("property-suite", seed),
    "acceptance": lambda seed: criteria_suite("acceptance", seed),
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    """The results of the suite SUITES[name], sorted by check name."""
    return sorted(SUITES[name](seed), key=lambda c: c.name)
