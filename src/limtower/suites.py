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


def thread_limit_oracle(t: Tower, extra: int = 3) -> FgAbGroup:
    """lim by brute force: stabilize the head set at a deep constant level.

    An element heads an infinite thread iff it stays in every iterated
    image of the tail map; on raw element sets that is plain set iteration,
    and threads are determined by their heads because the maps push heads
    down uniquely.  Requires a finite group at the deep level.
    """
    lvl = t.stable_index + extra
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


def random_walker_element(
    rng: random.Random, ctx: wk.WalkerContext, max_support: int = 8
) -> wk.WalkerElement:
    bound = ctx.p**4
    terms = [
        (random_walker_index(rng, ctx), rng.randint(-bound, bound))
        for _ in range(rng.randint(0, max_support))
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
    lim, lim1 = f.lim_lim1()
    omega_complete, omega_witness = f.omega_completion()
    return {
        "ml": f.status.kind,
        "stage": f.status.stage,
        "length": str(f.length),
        "lim": str(lim),
        "lim1": lim1.kind,
        "local": f.is_local(),
        "omega_complete": omega_complete,
        "omega_witness": omega_witness,
        "E0": str(dec.epimorphic_part.group(0)),
        "L0": str(dec.limitless.tower.group(0)),
        "L_null": is_null_tower(dec.limitless.tower),
        "lim_L": str(dec.limitless.lim_lim1()[0]),
        "I2_0": str(f.stage(ord_from_int(2)).sub_at(0).as_group()),
        "epimorphic": is_epimorphic_tower(tw),
    }


def _mismatch(tw: Tower, want: dict) -> str:
    """Each field of `want` that the tower's profile does not match, or "" when all do."""
    got = _profile(tw)
    return "; ".join(f"expected {k} {v!r}, got {got[k]!r}" for k, v in want.items() if got[k] != v)


# ---------------------------------------------------------------------------
# Acceptance criteria


def criterion_snf_certificates(rng: random.Random, trials: int = 500) -> CheckResult:
    """U*M*V = D with unimodular transforms and a divisibility chain."""
    for t in range(trials):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        mat = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        if (problem := smith_certificate_error(mat, *smith_normal_form(mat))) is not None:
            return CheckResult("snf-certificates", False, f"{problem} at trial {t}")
    return CheckResult("snf-certificates", True, f"{trials} random matrices certified exactly")


def criterion_finite_ml(rng: random.Random, trials: int = 200) -> CheckResult:
    """Finite towers stabilize; lim equals the thread-enumeration oracle."""
    for t in range(trials):
        tw = random_finite_tower(rng)
        rep = analyze(tw)
        if rep.ml_status.kind != "stabilized":
            return CheckResult("finite-ml-soundness", False, f"tower {t} did not stabilize: {tw}")
        if rep.lim1_status.kind != "zero":
            return CheckResult("finite-ml-soundness", False, f"tower {t} lim1 not zero")
        oracle = thread_limit_oracle(tw, extra=3)
        if rep.lim != oracle:
            return CheckResult(
                "finite-ml-soundness",
                False,
                f"tower {t}: lim {rep.lim} but thread oracle {oracle}",
            )
    return CheckResult(
        "finite-ml-soundness", True, f"{trials} finite towers: stabilized, lim matches threads"
    )


def _shift_change(tw: Tower, view: tuple) -> str | None:
    """The shift ("shift" or "double shift") that changes `view`, the tower's shift-invariant view, or None."""
    shifted, _ = shift(tw)
    if view != analyze(shifted).shift_invariant_view():
        return "shift"
    twice, _ = shift(shifted)
    if view != analyze(twice).shift_invariant_view():
        return "double shift"
    return None


def criterion_shift_invariance() -> CheckResult:
    """Shifting drops a level; every status and the limit must survive."""
    for name, tw in corpus_towers():
        if (change := _shift_change(tw, analyze(tw).shift_invariant_view())) is not None:
            return CheckResult("shift-invariance", False, f"corpus tower {name} changed under {change}")
    return CheckResult("shift-invariance", True, f"{len(corpus_towers())} corpus towers invariant under shifts")


def criterion_general_tails(rng: random.Random, trials: int = 40) -> CheckResult:
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
            return CheckResult("general-tails", False, f"tower {t} changed under {change}")
        if rep.ml_status.kind != "never":
            continue
        witnessed += 1
        c = tw.stable_index
        levels = [iterate_image(tw, n).sub_at(c) for n in range(10)]
        for n in range(9):
            if levels[n] == levels[n + 1] or not levels[n].contains_subgroup(levels[n + 1]):
                return CheckResult("general-tails", False, f"tower {t}: witnessed tail level repeats at stage {n}")
    return CheckResult(
        "general-tails",
        True,
        f"{trials} general tails invariant under shifts; {witnessed} witnessed tail levels shrink at stages 0..8",
    )


def criterion_quotient_vanishing(rng: random.Random, trials: int = 120) -> CheckResult:
    """S/I^n has trivial limit, and orders factor through the image quotient."""
    checked_eq = 0
    for t in range(trials):
        tw = random_finite_tower(rng, max_levels=4, max_order=32)
        filt = stabilize(tw)  # a finite tower stabilizes well inside the horizon: every stage is exact
        stages = [filt.stage(ord_from_int(n)).subs for n in range(8)]
        for n in range(1, 7):
            quot, _ = quotient_tower(tw, stages[n])
            lim_q, _ = stabilize(quot).lim_lim1()
            if lim_q is None or not lim_q.is_trivial():
                return CheckResult(
                    "image-quotient-vanishing", False, f"tower {t}: lim S/I^{n} nonzero"
                )
            if t % 10 == 0:
                oracle = thread_limit_oracle(quot)
                if not oracle.is_trivial():
                    return CheckResult(
                        "image-quotient-vanishing", False, f"tower {t}: thread oracle disagrees at n={n}"
                    )
        for n in range(0, 6):
            sub_n, _ = subtower(tw, stages[n])
            _, _, step_quot = image_tower(sub_n)
            quot_n, _ = quotient_tower(tw, stages[n])
            quot_n1, _ = quotient_tower(tw, stages[n + 1])
            for i in range(tw.stable_index + 1):
                lhs = quot_n1.group(i).order()
                rhs = step_quot.group(i).order() * quot_n.group(i).order()
                if lhs != rhs:
                    return CheckResult(
                        "image-quotient-vanishing",
                        False,
                        f"tower {t}: order equation fails at level {i}, stage {n}",
                    )
                checked_eq += 1
    return CheckResult(
        "image-quotient-vanishing",
        True,
        f"{trials} towers, stages up to 6: quotients limitless, {checked_eq} order equations hold",
    )


def criterion_closed_forms() -> CheckResult:
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
    if failures:
        return CheckResult("multiplication-closed-forms", False, "; ".join(failures))
    return CheckResult(
        "multiplication-closed-forms",
        True,
        "Z/25, Z/6, Z (p=2,3), Z+Z/4 families match closed forms and raw-element oracles",
    )


def criterion_decomposition(rng: random.Random, trials: int = 100) -> CheckResult:
    """E epimorphic, I^len(L) = 0, orders factor; plus a hand-built double."""
    for t in range(trials):
        tw = random_decidable_tower(rng)
        dec = stabilize(tw).decompose()
        if not is_epimorphic_tower(dec.epimorphic_part):
            return CheckResult("decomposition-signature", False, f"tower {t}: E not epimorphic")
        filt = dec.limitless
        if filt.length.kind != "exact":
            return CheckResult("decomposition-signature", False, f"tower {t}: L length undecided")
        if not filt.stage(filt.length.value).is_trivial():
            return CheckResult("decomposition-signature", False, f"tower {t}: I^len(L) nonzero")
        for i in range(tw.stable_index + 1):
            if tw.group(i).is_finite():
                if tw.group(i).order() != dec.epimorphic_part.group(i).order() * filt.tower.group(i).order():
                    return CheckResult(
                        "decomposition-signature", False, f"tower {t}: order factorization fails at level {i}"
                    )
    # a second decomposition of S(Z/6, 2), built by hand from the 3-part
    s6 = multiplication_tower(fg_group(6), 2)
    auto = stabilize(s6).decompose()
    hand_e = constant_tower(fg_group(3))  # the 3-torsion with (invertible) mult by 2
    hand_l = null_tower([fg_group(2)])
    checks = [
        auto.epimorphic_part.group(0) == hand_e.group(0),
        stabilize(auto.epimorphic_part).lim_lim1()[0] == stabilize(hand_e).lim_lim1()[0],
        auto.limitless.tower.group(0) == hand_l.group(0),
        is_null_tower(auto.limitless.tower) and is_null_tower(hand_l),
    ]
    if not all(checks):
        return CheckResult("decomposition-signature", False, "hand-built decomposition disagrees")
    return CheckResult(
        "decomposition-signature", True, f"{trials} decidable towers decomposed; hand-built double agrees"
    )


def criterion_locality_closure(rng: random.Random, trials: int = 100) -> CheckResult:
    """Null extensions and finite products of local towers stay local."""
    for t in range(trials):
        base = random_local_tower(rng)
        if stabilize(base).is_local() is not True:
            return CheckResult("locality-closure", False, f"generator produced a non-local tower at {t}")
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
            return CheckResult("locality-closure", False, f"null extension at {t} is not local")
        other = random_local_tower(rng)
        prod = limit_of_towers([base, other])
        if stabilize(prod).is_local() is not True:
            return CheckResult("locality-closure", False, f"product at {t} is not local")
    return CheckResult(
        "locality-closure", True, f"{trials} null extensions and products of local towers stayed local"
    )


def criterion_walker_normal_form(rng: random.Random, total_trials: int = 10_000) -> CheckResult:
    """Idempotence, relation invariance, confluence, leading-index contract."""
    combos = [(p, a) for p in (2, 3, 5) for a in ("w", "w*2+3")]
    per = -(-total_trials // len(combos))
    done = 0
    for p, alpha_text in combos:
        ctx = wk.WalkerContext(p, parse_ordinal(alpha_text))
        for t in range(per):
            x = random_walker_element(rng, ctx)
            nx = wk.normalize(x)
            if wk.normalize(nx) != nx:
                return CheckResult("walker-normal-form", False, f"idempotence fails at p={p}, {alpha_text}, trial {t}")
            shifted = x
            for _ in range(rng.randint(0, 3)):
                r = wk.relation_element(ctx, random_walker_index(rng, ctx))
                c = rng.randint(-3, 3)
                raw_terms = list(shifted.support) + [(k, c * v) for k, v in r.element.support]
                shifted = ctx.element(raw_terms)
            if wk.normalize(shifted) != nx:
                return CheckResult("walker-normal-form", False, f"relation invariance fails at p={p}, trial {t}")
            if normalize_random_order(ctx, x, rng) != nx:
                return CheckResult("walker-normal-form", False, f"confluence fails at p={p}, trial {t}")
            if x.support and nx.support:
                if nx.leading_index() > x.leading_index():
                    return CheckResult("walker-normal-form", False, f"leading index grew at p={p}, trial {t}")
            done += 1
    return CheckResult(
        "walker-normal-form", True, f"{done} raw elements across p in (2,3,5), alpha in (w, w*2+3)"
    )


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


def criterion_ulm_length() -> CheckResult:
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
                return CheckResult("ulm-length", False, f"probe failed at alpha={alpha_text}, p={p}")
            for beta in sample:
                x = ctx.basis([beta])
                seen = [wk.height(x)]
                while not x.is_zero():
                    step = wk.mul_p_height_step(x)
                    if not step.ok:
                        return CheckResult(
                            "ulm-length", False, f"height did not climb at alpha={alpha_text}, beta={beta}"
                        )
                    x = wk.mul_by_p(x)
                    seen.append(wk.height(x))
                for a, b in zip(seen, seen[1:]):
                    if a >= b:
                        return CheckResult("ulm-length", False, f"heights not strictly increasing at {alpha_text}")
                probes += 1
    return CheckResult("ulm-length", True, f"{probes} sampled stages across 6 bounds, heights exact and climbing")


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


def criterion_adjunction_window(rng: random.Random | None = None) -> CheckResult:
    """Hom-set bijections for truncated constant sources; window operator inverses."""
    sources = [fg_group(2), fg_group(4), fg_group(2, 2)]
    towers = _small_adjunction_towers()
    checks = 0
    for a in sources:
        for n in range(4):
            for k, tw in enumerate(towers):
                if not truncation_adjunction_check(a, n, tw):
                    return CheckResult(
                        "adjunction-and-window", False, f"bijection fails for {a}, n={n}, tower {k}"
                    )
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
                return CheckResult("adjunction-and-window", False, f"window inverse fails at W={w}")
            windows += 1
    return CheckResult(
        "adjunction-and-window", True, f"{checks} hom-set bijections, {windows} window inverses verified"
    )


# ---------------------------------------------------------------------------
# Named suites


def paper_examples_suite() -> list[CheckResult]:
    """The fixed worked-example corpus, one result per scenario."""
    corpus = dict(corpus_towers())
    out: list[CheckResult] = []
    for name, corpus_name, want in _PAPER_EXAMPLES:
        problems = _mismatch(corpus[corpus_name], want)
        out.append(CheckResult(name, not problems, problems or "as expected"))

    # shift invariance across the whole corpus
    shift_check = criterion_shift_invariance()
    out.append(CheckResult("shift-invariance-corpus", shift_check.passed, shift_check.detail))

    # walker scenarios
    ctx1 = wk.WalkerContext(2, parse_ordinal("1"))
    e0 = ctx1.basis([parse_ordinal("0")])
    ok1 = (not e0.is_zero()) and wk.mul_by_p(e0).is_zero() and str(wk.height(e0)) == "0"
    out.append(CheckResult("walker-alpha-1", ok1, "p*e[0] = 0 and e[0] nonzero" if ok1 else "failed"))

    ctx = wk.WalkerContext(2, parse_ordinal("w*2+3"))
    e01 = ctx.basis([parse_ordinal("0"), parse_ordinal("1")])
    e1 = ctx.basis([parse_ordinal("1")])
    ok2 = wk.add(e01, e01) == e1 and wk.add(e1, e1).is_zero() and wk.mul_by_p(e01) == e1
    out.append(CheckResult("walker-carry-chain-p2", ok2, "e[0,1]+e[0,1] = e[1], e[1]+e[1] = 0" if ok2 else "failed"))

    sample = [parse_ordinal(s) for s in ("0", "5", "w", "w+1", "w*2+2")]
    rep_probe = wk.ulm_probe(ctx, sample)
    ok3 = rep_probe.ok and rep_probe.top_stage_trivial
    out.append(CheckResult("walker-ulm-w2-3", ok3, "5 sampled heights exact; top stage trivial" if ok3 else "failed"))

    ctx3 = wk.WalkerContext(3, parse_ordinal("w"))
    rels = [
        wk.relation_element(ctx3, [parse_ordinal("4")]),
        wk.relation_element(ctx3, [parse_ordinal("2"), parse_ordinal("7")]),
        wk.relation_element(ctx3, [parse_ordinal("0"), parse_ordinal("1"), parse_ordinal("5")]),
    ]
    combo = ctx3.zero()
    for i, r in enumerate(rels):
        combo = wk.add(combo, wk.scalar_mul(2 * i + 1, r.element))
    ok4 = wk.in_relations(combo) and not wk.in_relations(ctx3.basis([parse_ordinal("3")]))
    out.append(CheckResult("walker-relations-p3", ok4, "relation combos vanish; basis classes do not" if ok4 else "failed"))

    ok5 = truncation_adjunction_check(fg_group(2), 0, constant_tower(fg_group(2)))
    ok5 = ok5 and truncation_adjunction_check(fg_group(2), 1, null_tower([fg_group(2), TRIVIAL_GROUP]))
    out.append(CheckResult("adjunction-z2-small", ok5, "hom-set bijections hold" if ok5 else "failed"))

    return out


def property_suite(seed: int = 0) -> list[CheckResult]:
    """The randomized property corpus at a fixed seed."""
    return [
        criterion_snf_certificates(random.Random(seed), trials=300),
        criterion_finite_ml(random.Random(seed + 1), trials=120),
        criterion_quotient_vanishing(random.Random(seed + 2), trials=60),
        criterion_decomposition(random.Random(seed + 3), trials=60),
        criterion_locality_closure(random.Random(seed + 4), trials=60),
        criterion_walker_normal_form(random.Random(seed + 5), total_trials=3000),
        criterion_general_tails(random.Random(seed + 6)),
    ]


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name == "paper-examples":
        return sorted(paper_examples_suite(), key=lambda c: c.name)
    if name == "property-suite":
        return sorted(property_suite(seed), key=lambda c: c.name)
    raise KeyError(f"unknown suite {name!r}")
