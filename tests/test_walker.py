import random

import pytest

from limtower.ordinals import DegLexIndex, deglex_compare, ord_compare, ord_from_int, parse_ordinal
from limtower.walker import (
    PRIME_BOUND,
    WalkerContext,
    _from_dict,
    _is_prime,
    add,
    format_element,
    height,
    in_p_beta,
    in_relations,
    mul_by_p,
    mul_p_height_step,
    normalize,
    parse_element,
    relation_element,
    scalar_mul,
    ulm_probe,
)
from limtower.suites import normalize_random_order, random_walker_element


def o(text):
    return parse_ordinal(text)


def ctx23():
    return WalkerContext(2, o("w*2+3"))


class TestContext:
    def test_prime_required(self):
        with pytest.raises(ValueError):
            WalkerContext(4, o("w"))
        with pytest.raises(ValueError):
            WalkerContext(1, o("w"))

    def test_primality_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(71)
        # the least strong pseudoprimes to the first 1, 2, 3, 4, 5, 6, 7, 9 and 12 prime bases,
        # and a product of two large primes
        hard = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
                3825123056546413051, 318665857834031151167461, 1000000007 * 998244353]
        values = [*range(-3, 2000), *hard, PRIME_BOUND - 1]
        for bits in range(12, PRIME_BOUND.bit_length() + 1):
            for _ in range(60):
                n = rng.randrange(2 ** (bits - 1), min(2**bits, PRIME_BOUND))
                values += [n, sympy.nextprime(n)]
        primes = 0
        for n in values:
            if n < PRIME_BOUND:
                assert _is_prime(n) == sympy.isprime(n), n
                primes += _is_prime(n)
        assert primes > 4000
        assert not sympy.isprime(PRIME_BOUND)  # so the bound itself must be refused

    def test_p_at_or_past_the_bound_rejected(self):
        # Miller-Rabin on the first thirteen prime bases takes PRIME_BOUND for a prime
        assert _is_prime(PRIME_BOUND)
        for p in (PRIME_BOUND, PRIME_BOUND + 2, 2**89 - 1):
            with pytest.raises(ValueError, match=f"p must be below {PRIME_BOUND}"):
                WalkerContext(p, o("w"))
        assert WalkerContext(982451653, o("w")).p == 982451653

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            WalkerContext(2, o("0"))

    def test_indices_bounded_by_alpha(self):
        ctx = WalkerContext(2, o("5"))
        with pytest.raises(ValueError):
            ctx.basis([o("7")])

    def test_alpha_message_names_the_first_entry_not_below_alpha(self):
        # only the last entry is compared with alpha; the scan for the first runs on failure
        ctx = WalkerContext(2, o("w*2"))
        for entries, first in (
            (["1", "w*2", "w*2+1", "w^2"], "w*2"),
            (["w*2+1", "w*3", "w^2"], "w*2 + 1"),
            (["0", "w+1", "w^w"], "w^(w)"),
        ):
            message = f"index entry {first} is not below alpha = w*2"
            for attempt, where in (
                (lambda: ctx.basis([o(t) for t in entries]), ""),
                (lambda: ctx.index(DegLexIndex(tuple(o(t) for t in entries))), ""),
                # the parser adds the column of the term, whose sign is the sixth character
                (lambda: parse_element(ctx, "e[0] + 3*e[" + ", ".join(entries) + "]"), " in the term at column 6"),
            ):
                with pytest.raises(ValueError) as exc:
                    attempt()
                assert str(exc.value) == message + where
        assert format_element(ctx.basis([o("0"), o("w+1"), o("w+5")])) == "1*e[0, w + 1, w + 5]"


class TestNormalize:
    def test_digit_carry_chain(self):
        ctx = ctx23()
        x = ctx.element([([o("0"), o("1")], 2)])
        assert format_element(normalize(x)) == "1*e[1]"
        y = ctx.element([([o("1")], 2)])
        assert normalize(y).is_zero()

    def test_carry_across_limit(self):
        ctx = ctx23()
        x = ctx.element([([o("0"), o("w")], 2)])
        assert format_element(normalize(x)) == "1*e[w]"

    def test_negative_coefficients(self):
        ctx = WalkerContext(3, o("w"))
        x = ctx.element([([o("2")], -1)])
        nx = normalize(x)
        assert dict(nx.support)[DegLexIndex((o("2"),))] == 2
        assert format_element(nx) == "2*e[2]"

    def test_idempotent_random(self):
        rng = random.Random(61)
        ctx = ctx23()
        for _ in range(500):
            x = random_walker_element(rng, ctx)
            nx = normalize(x)
            assert normalize(nx) == nx
            for _, c in nx.support:
                assert 1 <= c <= ctx.p - 1

    def test_confluence_random(self):
        rng = random.Random(67)
        for p, alpha in ((2, "w"), (3, "w*2+3"), (5, "w+4")):
            ctx = WalkerContext(p, o(alpha))
            for _ in range(400):
                x = random_walker_element(rng, ctx)
                assert normalize_random_order(ctx, x, rng) == normalize(x)

    def test_relation_invariance_random(self):
        rng = random.Random(71)
        ctx = WalkerContext(3, o("w*2"))
        for _ in range(300):
            x = random_walker_element(rng, ctx)
            r = relation_element(ctx, [e for e in x.support[0][0].entries] if x.support else [o("0")])
            shifted = ctx.element(list(x.support) + [(k, 2 * v) for k, v in r.support])
            assert normalize(shifted) == normalize(x)

    def test_long_carry_chain(self):
        # p^(n-1) * e[0, ..., n-1] = e[n-1]: n - 1 carries, each one position shorter
        n = 200
        for p in (2, 3):
            ctx = WalkerContext(p, o("w"))
            x = ctx.element([([ord_from_int(k) for k in range(n)], p ** (n - 1))])
            assert normalize(x) == ctx.basis([ord_from_int(n - 1)])

    def test_confluence_index_lengths_1_to_6(self):
        rng = random.Random(89)
        pool = [o(t) for t in ("0", "1", "2", "5", "w", "w+1", "w+3", "w*2", "w*2+1", "w*2+2")]
        lengths = set()
        for p in (2, 3, 5):
            ctx = WalkerContext(p, o("w*2+3"))
            for _ in range(150):
                positions = []
                for _ in range(rng.randint(1, 10)):
                    # half the positions extend an earlier one, so carries land on mass
                    base = rng.choice(positions) if positions and rng.random() < 0.5 else None
                    lower = [e for e in pool if base and len(base) < 6 and e < base[0]]
                    if lower:
                        positions.append([rng.choice(lower)] + base)
                    else:
                        positions.append(sorted(rng.sample(pool, rng.randint(1, 6))))
                lengths.update(len(idx) for idx in positions)
                x = ctx.element([(idx, rng.randint(-(p**6), p**6)) for idx in positions])
                assert normalize_random_order(ctx, x, rng) == normalize(x)
        assert lengths == {1, 2, 3, 4, 5, 6}

    def test_leading_index_never_grows(self):
        rng = random.Random(73)
        ctx = ctx23()
        for _ in range(400):
            x = random_walker_element(rng, ctx)
            nx = normalize(x)
            if x.support and nx.support:
                assert deglex_compare(nx.leading_index(), x.leading_index()) <= 0


class TestModuleOps:
    def test_add_scalar(self):
        ctx = ctx23()
        e01 = ctx.basis([o("0"), o("1")])
        assert add(e01, e01) == ctx.basis([o("1")])
        assert scalar_mul(4, e01).is_zero()
        assert scalar_mul(3, e01) == add(e01, ctx.basis([o("1")]))

    def test_mul_p_shortens(self):
        ctx = ctx23()
        x = ctx.basis([o("0"), o("1"), o("w")])
        assert mul_by_p(x) == ctx.basis([o("1"), o("w")])
        assert mul_by_p(mul_by_p(x)) == ctx.basis([o("w")])
        assert mul_by_p(mul_by_p(mul_by_p(x))).is_zero()

    def test_carry_entry_points_match_normalize(self):
        # scalar_mul, add and mul_by_p hand their pairs straight to the carry pass
        rng = random.Random(79)
        for p, alpha in ((2, "w*2+3"), (3, "w^2"), (5, "w+4")):
            ctx = WalkerContext(p, o(alpha))
            for _ in range(120):
                x = random_walker_element(rng, ctx)
                # y shares positions with x, some with x's coefficients negated or scaled by p
                y = ctx.element(
                    [(k, rng.choice((-v, p * v, rng.randint(-(p**5), p**5)))) for k, v in x.support]
                    + list(random_walker_element(rng, ctx).support)
                )
                for c in (0, 1, -1, -7, p, -p, 3 * p, -(p**3), rng.randint(-(p**5), p**5)):
                    got = scalar_mul(c, x)
                    assert got == normalize(_from_dict(ctx, {k: c * v for k, v in x.support}))
                    assert got == normalize_random_order(ctx, ctx.element([(k, c * v) for k, v in x.support]), rng)
                    assert got.normalized and all(1 <= v < p for _, v in got.support)
                merged = dict(x.support)
                for k, v in y.support:
                    merged[k] = merged.get(k, 0) + v
                assert add(x, y) == add(y, x) == normalize(_from_dict(ctx, merged))
                assert add(x, scalar_mul(-1, x)).is_zero()
                assert mul_by_p(x) == normalize(_from_dict(ctx, {k: p * v for k, v in x.support}))
                assert mul_by_p(y) == scalar_mul(p, normalize(y))

    def test_relation_membership(self):
        ctx = WalkerContext(3, o("w"))
        combo = ctx.zero()
        for sigma, c in ((([o("1")]), 4), (([o("0"), o("2")]), 2)):
            combo = add(combo, scalar_mul(c, relation_element(ctx, sigma)))
        assert in_relations(combo)
        assert not in_relations(ctx.basis([o("1")]))


class TestHeights:
    def test_basis_heights_exact(self):
        ctx = ctx23()
        for beta in ("0", "3", "w", "w+1", "w*2+2"):
            assert ord_compare(height(ctx.basis([o(beta)])), o(beta)) == 0

    def test_zero_gets_alpha_sentinel(self):
        ctx = ctx23()
        assert ord_compare(height(ctx.zero()), ctx.alpha) == 0

    def test_multi_term_height_is_min(self):
        ctx = ctx23()
        x = add(ctx.basis([o("w")]), ctx.basis([o("2")]))
        assert ord_compare(height(x), o("2")) == 0

    def test_transfinite_jump(self):
        # p * e[0, w] = e[w]: height jumps from 0 past every finite stage
        ctx = ctx23()
        x = ctx.basis([o("0"), o("w")])
        step = mul_p_height_step(x)
        assert step.ok and not step.became_zero
        assert ord_compare(step.before, o("0")) == 0
        assert ord_compare(step.after, o("w")) == 0

    def test_height_step_requires_nonzero(self):
        with pytest.raises(ValueError):
            mul_p_height_step(ctx23().zero())

    def test_membership_filtration(self):
        ctx = ctx23()
        x = ctx.basis([o("w+1")])
        assert in_p_beta(x, o("w"))
        assert in_p_beta(x, o("w+1"))
        assert not in_p_beta(x, o("w+2"))
        with pytest.raises(ValueError):
            in_p_beta(x, o("w*3"))

    def test_membership_at_alpha_itself(self):
        ctx = ctx23()
        assert in_p_beta(ctx.zero(), ctx.alpha)
        assert not in_p_beta(ctx.basis([o("0")]), ctx.alpha)

    def test_ulm_probe_report(self):
        ctx = WalkerContext(5, o("w+3"))
        rep = ulm_probe(ctx, [o("0"), o("4"), o("w"), o("w+2")])
        assert rep.ok and rep.top_stage_trivial
        assert all(e.exact and e.nonzero for e in rep.entries)
        with pytest.raises(ValueError):
            ulm_probe(ctx, [o("w+3")])

    def test_heights_climb_under_mul(self):
        rng = random.Random(79)
        ctx = WalkerContext(2, o("w*2"))
        for _ in range(200):
            x = normalize(random_walker_element(rng, ctx))
            while not x.is_zero():
                step = mul_p_height_step(x)
                assert step.ok
                x = mul_by_p(x)


class TestTextFormat:
    def test_roundtrip(self):
        rng = random.Random(83)
        ctx = ctx23()
        for _ in range(300):
            x = normalize(random_walker_element(rng, ctx))
            assert normalize(parse_element(ctx, format_element(x))) == x

    def test_parse_forms(self):
        ctx = ctx23()
        assert parse_element(ctx, "0").is_zero()
        x = parse_element(ctx, "e[0, 1] + 2*e[w]")
        assert dict(x.support)[DegLexIndex((o("0"), o("1")))] == 1
        y = parse_element(ctx, "3 * e[w + 1] - e[2]")
        assert dict(y.support)[DegLexIndex((o("w+1"),))] == 3

    def test_parse_rejects(self):
        ctx = ctx23()
        for bad in ("e[]", "e[1, 0]", "e[w*9]", "2*", "e[0] ++ e[1]"):
            with pytest.raises(ValueError):
                parse_element(ctx, bad)
