import random
from functools import cmp_to_key

import pytest

from limtower.ordinals import (
    MAX_NESTING,
    OMEGA,
    ONE,
    ZERO,
    DegLexIndex,
    OrdinalCNF,
    deglex_compare,
    omega_power,
    ord_add,
    ord_compare,
    ord_from_int,
    parse_ordinal,
    random_ordinal,
    random_smaller_ordinal,
)


def o(text: str) -> OrdinalCNF:
    return parse_ordinal(text)


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


def reference_compare(a: OrdinalCNF, b: OrdinalCNF) -> int:
    """The recursive CNF comparison the key order replaced, kept as its oracle."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = reference_compare(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def reference_deglex(a: DegLexIndex, b: DegLexIndex) -> int:
    if len(a.entries) != len(b.entries):
        return -1 if len(a.entries) < len(b.entries) else 1
    for x, y in zip(a.entries, b.entries):
        c = reference_compare(x, y)
        if c:
            return c
    return 0


NESTED = (
    "w^(w+1)*2 + w^w + 3",
    "w^(w+1)*2 + w^w + 2",
    "w^(w+1)*2 + w^3",
    "w^(w+1) + w^w*9",
    "w^(w+1)",
    "w^(w^w)",
    "w^(w^2 + 1)",
    "w^(w*2)",
    "w^w*2 + 1",
    "w^w",
)


def order_pool() -> list[OrdinalCNF]:
    rng = random.Random(37)
    return [random_ordinal(rng, max_exponent=4, max_coeff=3) for _ in range(300)] + [o(t) for t in NESTED]


class TestArithmetic:
    def test_anchors(self):
        assert str(ord_add(o("w"), o("1"))) == "w + 1"
        # absorption: 1 + w = w
        assert ord_compare(ord_add(ONE, OMEGA), OMEGA) == 0
        assert str(ord_add(o("w+3"), o("w"))) == "w*2"
        assert str(ord_add(o("w*2+1"), o("w^2"))) == "w^2"
        assert str(omega_power(o("2"))) == "w^2"

    def test_finite_embedding(self):
        for a in range(12):
            for b in range(12):
                assert ord_add(ord_from_int(a), ord_from_int(b)).to_int() == a + b
                assert ord_compare(ord_from_int(a), ord_from_int(b)) == (a > b) - (a < b)

    def test_classification(self):
        assert ZERO.is_zero()
        assert o("5").is_finite() and not o("w").is_finite()

    def test_random_laws(self):
        rng = random.Random(23)
        pool = [random_ordinal(rng, max_exponent=3, max_coeff=4) for _ in range(60)]
        for _ in range(10_000):
            a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            # associativity
            assert ord_compare(ord_add(ord_add(a, b), c), ord_add(a, ord_add(b, c))) == 0
            # left monotonicity (strict in the right argument)
            if ord_compare(b, c) < 0:
                assert ord_compare(ord_add(a, b), ord_add(a, c)) < 0
            # weak monotonicity in the left argument
            if ord_compare(a, b) <= 0:
                assert ord_compare(ord_add(a, c), ord_add(b, c)) <= 0
            # comparison is a total order: antisymmetry + transitivity spot checks
            ab, bc, ac = ord_compare(a, b), ord_compare(b, c), ord_compare(a, c)
            if ab < 0 and bc < 0:
                assert ac < 0
            if ab == 0:
                assert str(a) == str(b)

    def test_parser_roundtrip(self):
        rng = random.Random(29)
        for _ in range(2000):
            x = random_ordinal(rng, max_exponent=3, max_coeff=5)
            assert ord_compare(parse_ordinal(str(x)), x) == 0

    def test_parser_rejects(self):
        for bad in ("", "w**2", "2w", "w^", "+", "w+-1", "cat"):
            with pytest.raises(ValueError):
                parse_ordinal(bad)

    def test_parser_nesting_limit(self):
        def nested(k):
            return "w^(" * k + "1" + ")" * k

        assert str(parse_ordinal(nested(MAX_NESTING))) == nested(MAX_NESTING - 1).replace("1", "w")
        with pytest.raises(ValueError, match=f"nested deeper than {MAX_NESTING} parentheses"):
            parse_ordinal(nested(MAX_NESTING + 1))

    def test_smaller_sampler(self):
        rng = random.Random(31)
        assert random_smaller_ordinal(rng, ZERO) is None
        for _ in range(500):
            bound = random_ordinal(rng, max_exponent=2, max_coeff=3)
            if bound.is_zero():
                continue
            x = random_smaller_ordinal(rng, bound)
            assert x is not None and ord_compare(x, bound) < 0


class TestDegLex:
    def test_order_anchors(self):
        a = DegLexIndex((o("0"),))
        b = DegLexIndex((o("w"),))
        ab = DegLexIndex((o("0"), o("w")))
        assert deglex_compare(a, b) < 0  # same length, lex on entries
        assert deglex_compare(b, ab) < 0  # length dominates
        assert deglex_compare(ab, ab) == 0

    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            DegLexIndex((o("1"), o("1")))
        with pytest.raises(ValueError):
            DegLexIndex((o("w"), o("1")))
        with pytest.raises(ValueError):
            DegLexIndex(())

    def test_tail(self):
        idx = DegLexIndex((o("0"), o("1"), o("w")))
        assert str(idx.tail()) == str(DegLexIndex((o("1"), o("w"))))
        with pytest.raises(ValueError):
            DegLexIndex((o("3"),)).tail()

    def test_min_index(self):
        m = min_index_of_length(2)
        assert [str(e) for e in m.entries] == ["0", "1"]

    def test_descent_probe(self):
        # from the global minimum no strict descent exists
        assert deglex_descent_probe(min_index_of_length(1), lambda i: None) == 0

        def stepper(idx):
            e = idx.entries[0]
            if e.is_zero():
                return None
            return DegLexIndex((parse_ordinal(str(e.to_int() - 1)),))

        assert deglex_descent_probe(DegLexIndex((o("3"),)), stepper) == 3

    def test_descent_cap(self):
        def bad(idx):
            return idx  # not a strict descent

        with pytest.raises(ValueError):
            deglex_descent_probe(DegLexIndex((o("5"),)), bad)

    def test_descent_cap_exceeded(self):
        # a genuinely descending but unbounded-looking walk trips the cap
        def stepper(idx):
            n = idx.entries[0].to_int()
            return DegLexIndex((ord_from_int(n - 1),)) if n else None

        with pytest.raises(DescentCapExceeded):
            deglex_descent_probe(DegLexIndex((ord_from_int(10**7),)), stepper, step_cap=100)


class TestNativeOrder:
    def test_key_order_matches_reference(self):
        pool = order_pool()
        for a in pool:
            for b in pool:
                want = reference_compare(a, b)
                assert ord_compare(a, b) == want
                assert (a < b) == (want < 0)
                assert (a == b) == (want == 0)
                if want == 0:
                    assert hash(a) == hash(b)

    def test_deglex_sort_matches_reference(self):
        rng = random.Random(43)
        distinct = list({str(x): x for x in order_pool()}.values())
        for _ in range(40):
            idxs = [
                DegLexIndex(tuple(sorted(rng.sample(distinct, rng.randint(1, 4)), key=cmp_to_key(reference_compare))))
                for _ in range(40)
            ]
            idxs += [DegLexIndex(tuple(o(str(e)) for e in i.entries)) for i in idxs[:5]]  # equal copies
            assert sorted(idxs) == sorted(idxs, key=cmp_to_key(reference_deglex))
            assert all(deglex_compare(a, b) == reference_deglex(a, b) for a in idxs[:10] for b in idxs)
