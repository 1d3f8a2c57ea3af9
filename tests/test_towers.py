import dataclasses
import gc
import math
import random
import time
import weakref
from itertools import islice

import pytest

from limtower import towers as towers_mod
from limtower.groups import (
    FgAbGroup,
    GroupMap,
    Subgroup,
    TRIVIAL_GROUP,
    abs_det,
    fg_group,
    identity_map,
    mat_mul,
    multiplication_map,
    multiplier_of,
    zero_map,
)
from limtower.ordinals import OMEGA, ord_compare, ord_from_int, parse_ordinal
from limtower.towers import (
    ConstantEndo,
    LengthValue,
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
from limtower.towers import _full_stage, _image_stages
from limtower.suites import (
    behind_finite_front,
    corpus_towers,
    paper_examples_suite,
    property_suite,
    random_decidable_tower,
    random_finite_group,
    random_finite_tower,
    random_general_tail_tower,
    random_hom,
    random_local_tower,
    random_surjective_tower,
    thread_limit_oracle,
)


def mult_tower(n, m):
    return multiplication_tower(fg_group(n), m)


def reference_step(t, subs):
    """One image step by the definition: every level, each basis row mapped by `apply`."""
    c = t.stable_index
    out = []
    for i in range(c + 1):
        h, upper = t.step_map(i), subs[min(i + 1, c)]
        out.append(Subgroup(h.codomain, [h.apply(row) for row in upper.basis]))
    return tuple(out)


def long_finite_prefix(rng, zero_tail):
    """A W = 30..60 prefix of small finite groups with random maps, so trivial levels and zero maps occur."""
    groups = [random_finite_group(rng, 32) for _ in range(rng.randint(30, 60))]
    maps = tuple(random_hom(rng, groups[i + 1], groups[i]) for i in range(len(groups) - 1))
    if zero_tail:
        return Tower(tuple(groups), maps, ZeroTail())
    return Tower(tuple(groups), maps, ConstantEndo(groups[-1], random_hom(rng, groups[-1], groups[-1])))


class TestRepresentation:
    def test_accessors_total(self):
        z = fg_group(0)
        t = Tower(
            (fg_group(5), z),
            (GroupMap(z, fg_group(5), ((1,),)),),
            ConstantEndo(z, multiplication_map(z, 2)),
        )
        assert t.group(0) == fg_group(5)
        assert t.group(1) == z and t.group(100) == z
        assert t.step_map(0).codomain == fg_group(5)
        assert t.step_map(7).matrix == ((2,),)
        assert t.stable_index == 1

    def test_boundary_must_typecheck(self):
        with pytest.raises(ValueError):
            Tower((fg_group(2),), (), ConstantEndo(fg_group(4), multiplication_map(fg_group(4), 2)))

    def test_prefix_maps_must_chain(self):
        g2, g4 = fg_group(2), fg_group(4)
        with pytest.raises(ValueError):
            Tower((g2, g4), (identity_map(g2),), ZeroTail())
        # equal groups chain whether or not they are the same object
        t = Tower((g4, g2), (GroupMap(fg_group(2), fg_group(4), ((2,),)),), ZeroTail())
        assert t.step_map(0).domain is not t.group(1) and t.step_map(0).codomain is not t.group(0)

    def test_zero_tail_stable_index(self):
        t = null_tower([fg_group(2), fg_group(4)])
        assert t.stable_index == 2
        assert t.group(2).is_trivial()
        assert t.group(50).is_trivial()

    def test_window_map_composes(self):
        t = mult_tower(8, 2)
        assert t.window_map(0, 3).matrix == ((0,),)  # 2^3 = 0 in Z/8
        assert t.window_map(0, 0).matrix == identity_map(fg_group(8)).matrix


class TestFiltration:
    def test_stage_monotone_decreasing(self):
        rng = random.Random(41)
        for _ in range(40):
            t = random_finite_tower(rng, max_levels=3, max_order=32)
            prev = None
            for n in range(6):
                st = iterate_image(t, n)
                assert st.exact
                if prev is not None:
                    for i in range(t.stable_index + 1):
                        assert prev.sub_at(i).contains_subgroup(st.sub_at(i))
                prev = st

    def test_z8_stages(self):
        t = mult_tower(8, 2)
        assert iterate_image(t, 1).sub_at(0).as_group() == fg_group(4)
        assert iterate_image(t, 2).sub_at(0).as_group() == fg_group(2)
        assert iterate_image(t, 3).is_trivial()
        assert str(stabilize(t).length.value) == "3"

    def test_stage_serves_high_levels(self):
        t = mult_tower(8, 2)
        st = iterate_image(t, 1)
        # level beyond the stable index reuses the deepest computed subgroup
        assert st.sub_at(5).as_group() == st.sub_at(t.stable_index).as_group()

    def test_image_tower_quotient_is_null(self):
        t = mult_tower(12, 2)
        img, include, quot = image_tower(t)
        assert include.source.group(0).order() * quot.group(0).order() == 12
        assert is_null_tower(quot)

    def test_transfinite_stage_omega(self):
        t = multiplication_tower(fg_group(4, 0), 2)
        st = stabilize(t).stage(OMEGA)
        assert st.exact and st.is_trivial()

    def test_transfinite_partial_when_unknown(self):
        # generic integer-matrix tail: no closed form past the finite stages
        z2 = fg_group(0, 0)
        e = GroupMap(z2, z2, ((2, 1), (0, 3)))
        t = Tower((), (), ConstantEndo(z2, e))
        st = stabilize(t).stage(OMEGA)
        assert not st.exact
        assert st.computed_to is not None


def free_tail(e):
    """The constant tail Z^r under the integer matrix e."""
    g = FgAbGroup(len(e), ())
    return Tower((), (), ConstantEndo(g, GroupMap(g, g, e)))


def conjugated(rng, m):
    """U m U^-1 for a seeded unimodular U, a product of 2r transvections by +-1."""
    r = len(m)
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    u_inv = [row[:] for row in u]
    for _ in range(2 * r):
        i, j = rng.sample(range(r), 2)
        q = rng.choice((1, -1))
        u[i] = [a + q * b for a, b in zip(u[i], u[j])]  # E u: add q * row j to row i
        for row in u_inv:
            row[j] -= q * row[i]  # u^-1 E^-1: subtract q * column i from column j
    return mat_mul(mat_mul(u, m, r), u_inv, r)


def triangular(rng, diagonal):
    """An upper-triangular matrix with the given diagonal and entries in [-2, 2] above it."""
    r = len(diagonal)
    return [[diagonal[i] if i == j else rng.randint(-2, 2) * (j > i) for j in range(r)] for i in range(r)]


def jordan_beside(rng, index, size):
    """A nilpotent Jordan block of the given index beside a nonsingular size x size block."""
    while not abs_det(block := [[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)]):
        pass
    r = index + size
    m = [[int(j == i + 1 < index) for j in range(r)] for i in range(r)]
    for i, row in enumerate(block):
        m[index + i][index:] = row
    return m


def witnessed_tail():
    """Z^2 under an upper-triangular map with |det| = 6: witnessed, not a multiplication."""
    z2 = fg_group(0, 0)
    return Tower((), (), ConstantEndo(z2, GroupMap(z2, z2, ((2, 1), (0, 3)))))


class TestStabilizationPass:
    def test_repeat_at_exactly_the_horizon(self):
        # the truncation at 7 repeats at stage 8; the one at 8 would repeat at 9
        assert str(stabilize(truncated_constant_tower(fg_group(2), 7), 8).status) == "Stabilized(8)"
        t = truncated_constant_tower(fg_group(2), 8)
        filt = stabilize(t, 8)
        assert str(filt.status) == "Unknown(horizon=8)"
        st = filt.stage(ord_from_int(20))
        assert not st.exact
        assert st.computed_to == ord_from_int(9)
        assert st.subs == iterate_image(t, 9).subs

    def test_stages_past_the_omega_chain_are_its_last(self):
        filt = stabilize(dict(corpus_towers())["prefixed-z5-then-z-by-2"])
        assert str(filt.length) == "w + 1"
        for beta in ("w+5", "w*2"):
            st = filt.stage(parse_ordinal(beta))
            assert st.exact
            assert st.subs == filt.omega_chain[-1]

    def test_witnessed_report_ignores_horizon(self):
        t = witnessed_tail()
        shallow, deep = analyze(t, horizon=1), analyze(t, horizon=128)
        assert dataclasses.replace(shallow, horizon=128) == deep
        assert deep.length == LengthValue("unknown_beyond", OMEGA)
        assert str(deep.length) == "UnknownBeyond(w)"

    def test_witnessed_transfinite_image_builds_finite_stages(self):
        t = witnessed_tail()
        horizon = 6
        filt = stabilize(t, horizon)
        for n in range(horizon + 1):
            st = filt.stage(ord_from_int(n))
            assert st.exact
            assert st.subs == iterate_image(t, n).subs
        st = filt.stage(OMEGA)
        assert not st.exact
        assert st.computed_to == ord_from_int(horizon)
        assert st.subs == iterate_image(t, horizon).subs

    def test_changed_level_stepping_matches_full_step(self):
        rng = random.Random(2024)
        makers = (random_finite_tower, random_surjective_tower, random_local_tower, random_decidable_tower)
        towers = [make(rng) for make in makers for _ in range(6)]
        z2 = fg_group(0, 0)
        maps = tuple(
            GroupMap(z2, z2, tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2)))
            for _ in range(15)
        )
        towers.append(Tower((z2,) * 16, maps, ConstantEndo(z2, identity_map(z2))))
        towers += [long_finite_prefix(rng, zero_tail=k % 2 == 0) for k in range(8)]
        for t in towers:
            reference = [_full_stage(t)]
            while len(reference) <= 40:
                nxt = reference_step(t, reference[-1])
                if nxt == reference[-1]:
                    break
                reference.append(nxt)
            assert list(islice(_image_stages(t, _full_stage(t)), 41)) == reference

    def test_full_stage_builds_one_full_subgroup_per_group(self, monkeypatch):
        z4, z6 = fg_group(4), fg_group(6)
        groups = (z4, z6) * 150
        maps = tuple(zero_map(groups[i + 1], groups[i]) for i in range(len(groups) - 1))
        t = Tower(groups, maps, ZeroTail())
        built = []
        full = Subgroup.full.__func__
        monkeypatch.setattr(Subgroup, "full", classmethod(lambda cls, g: built.append(g) or full(cls, g)))
        stage = _full_stage(t)
        # the zero tail adds one trivial level past the prefix
        assert built == [z4, z6, TRIVIAL_GROUP]
        assert stage == tuple(full(Subgroup, t.group(i)) for i in range(len(groups) + 1))

    def test_witnessed_finite_stage_builds_only_the_stages_below_it(self, monkeypatch):
        calls = []
        counted = towers_mod.image_of_subgroup
        monkeypatch.setattr(
            towers_mod, "image_of_subgroup", lambda h, sub: calls.append(1) or counted(h, sub)
        )
        t = witnessed_tail()
        for n, steps in ((0, 0), (3, 3), (64, 16)):
            calls.clear()
            st = stabilize(t, horizon=16).stage(ord_from_int(n))
            assert len(calls) == steps
            assert st.exact == (n <= 16)

    def test_stage_sweep_reads_one_pass(self, monkeypatch):
        calls = []
        counted = towers_mod.image_of_subgroup
        monkeypatch.setattr(
            towers_mod, "image_of_subgroup", lambda h, sub: calls.append(1) or counted(h, sub)
        )
        t = truncated_constant_tower(fg_group(2), 99)
        filt = stabilize(t, 200)
        pass_steps = len(calls)
        stages = [filt.stage(ord_from_int(n)) for n in range(101)]
        # the pass steps the 100 nonzero levels once, then only the level that moved;
        # asking for its stages makes no further step
        assert len(calls) == pass_steps == 199
        assert str(filt.status) == "Stabilized(100)"
        assert all(st == iterate_image(t, n) for n, st in enumerate(stages))

    def test_trivial_level_gets_no_image_step(self, monkeypatch):
        stepped = []
        counted = towers_mod.image_of_subgroup
        monkeypatch.setattr(
            towers_mod, "image_of_subgroup", lambda h, sub: stepped.append(h) or counted(h, sub)
        )
        z8 = fg_group(8)
        double = multiplication_map(z8, 2)
        f0 = zero_map(z8, z8)
        t = Tower((z8,) * 4, (f0, double, double), ConstantEndo(z8, double))
        chain = list(_image_stages(t, _full_stage(t)))
        # level 0 dies in the first step; levels 1..3 keep shrinking for two more
        assert len(chain) == 4
        assert all(stage[0].is_trivial() for stage in chain[1:])
        assert not chain[2][1].is_trivial()
        assert sum(h is f0 for h in stepped) == 1

    def test_witness_d_is_charpoly_constant_term(self, monkeypatch):
        """d = |q(0)| where det(xI - e-bar) = x^k q(x), q(0) != 0 (sympy oracle).

        The cases: general tails on T + Z^r, each alone and behind one finite
        level; a nilpotent Jordan block beside a nonsingular one, which the
        witness steps past one rank at a time; and unimodular maps.
        """
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        steps = []
        hermite = towers_mod.row_hermite_basis
        monkeypatch.setattr(towers_mod, "row_hermite_basis", lambda rows, w: steps.append(1) or hermite(rows, w))
        rng = random.Random(53)
        cases = []  # (towers on one tail, Hermite steps of the witness or None)
        for _ in range(150):
            t = random_general_tail_tower(rng)
            front = t if t.stable_index else behind_finite_front(rng, t.tail)
            cases.append(((Tower((), (), t.tail), front), None))
        for k in range(30):
            index = 2 + k % 3
            cases.append(((free_tail(conjugated(rng, jordan_beside(rng, index, 2 + k % 2))),), index + 1))
        for k in range(20):
            diagonal = [rng.choice((1, -1)) for _ in range(2 + k % 5)]
            cases.append(((free_tail(conjugated(rng, triangular(rng, diagonal))),), 1))
        witnessed = rank_drops = stabilized = 0
        for towers, want_steps in cases:
            endo = towers[0].tail.endo
            k = len(endo.domain.invariant_factors)
            e = sympy.Matrix([row[k:] for row in endo.matrix[k:]])
            d = abs(int(next((c for c in reversed(e.charpoly(x).all_coeffs()) if c), 0)))
            if d == 0 or multiplier_of(endo) is not None:
                continue  # nilpotent, or a multiplication with its own witness
            for t in towers:
                steps.clear()
                rep = analyze(t)
                assert want_steps is None or len(steps) == want_steps
                if d >= 2:
                    witnessed += 1
                    rank_drops += (e ** e.rows).rank() < e.rows
                    assert rep.ml_status.kind == "never"
                    assert f"grows by {d} per step" in rep.ml_status.witness
                else:
                    stabilized += 1
                    assert rep.ml_status.kind == "stabilized"
        assert witnessed >= 250 and rank_drops >= 120 and stabilized >= 60

    def test_witness_hermite_entries_stay_below_d(self, monkeypatch):
        """A nonsingular e-bar takes one Hermite basis, of e-bar Z^r, with no entry above d.

        Its pivots multiply to d = |det e-bar|, and every entry above a pivot
        is reduced modulo it.  A singular Z^32 tail U T U^-1, T triangular,
        reports d = |product of the nonzero diagonal entries of T| at once.
        """
        bases = []
        hermite = towers_mod.row_hermite_basis
        monkeypatch.setattr(
            towers_mod, "row_hermite_basis", lambda rows, w: bases.append(hermite(rows, w)) or bases[-1]
        )
        rng = random.Random(59)
        checked = 0
        for r in (*range(2, 17), *range(2, 17), 24, 32):
            e = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
            d = abs_det(e)
            if d < 2:
                continue
            bases.clear()
            rep = analyze(free_tail(e))
            assert f"grows by {d} per step" in rep.ml_status.witness
            assert len(bases) == 1 and max(abs(x) for row in bases[0] for x in row) <= d
            checked += 1
        assert checked >= 25
        diagonal = [rng.choice((-2, -1, 1, 2, 3)) for _ in range(32)]
        for i in rng.sample(range(32), 5):
            diagonal[i] = 0
        d = abs(math.prod(x for x in diagonal if x))
        assert d >= 2
        start = time.perf_counter()
        rep = analyze(free_tail(conjugated(rng, triangular(rng, diagonal))))
        assert time.perf_counter() - start < 1.0
        assert rep.ml_status.witness == f"image lattice covolume grows by {d} per step on the eventual free part"

    def test_analyze_keeps_no_reference_to_the_tower(self):
        t = random_finite_tower(random.Random(7))
        analyze(t)
        ref = weakref.ref(t)
        del t
        gc.collect()
        assert ref() is None


class TestStatuses:
    def test_spec_profiles(self):
        cases = [
            (mult_tower(8, 2), "stabilized", "zero", True, "3"),
            (mult_tower(25, 5), "stabilized", "zero", True, "2"),
            (mult_tower(6, 2), "stabilized", "zero", False, "1"),
            (multiplication_tower(fg_group(0), 2), "never", "nonzero", False, "w"),
            (multiplication_tower(fg_group(4, 0), 2), "never", "nonzero", False, "w"),
        ]
        for t, ml, l1, loc, ln in cases:
            rep = analyze(t)
            assert rep.ml_status.kind == ml
            assert rep.lim1_status.kind == l1
            assert rep.local is loc
            assert str(rep.length.value) == ln

    def test_lim_values(self):
        assert analyze(mult_tower(6, 2)).lim == fg_group(3)
        assert analyze(constant_tower(fg_group(4))).lim == fg_group(4)
        z_tower = multiplication_tower(fg_group(0), 2)
        assert analyze(z_tower).lim.is_trivial()

    def test_prefixed_length_omega_plus_one(self):
        z = fg_group(0)
        t = Tower(
            (fg_group(5), z),
            (GroupMap(z, fg_group(5), ((1,),)),),
            ConstantEndo(z, multiplication_map(z, 2)),
        )
        filt = stabilize(t)
        assert filt.length.kind == "exact"
        assert ord_compare(filt.length.value, parse_ordinal("w+1")) == 0
        st = filt.stage(parse_ordinal("w"))
        assert st.sub_at(0).as_group() == fg_group(5)
        assert filt.stage(parse_ordinal("w+1")).is_trivial()

    def test_horizon_gives_unknown_not_wrong(self):
        t = mult_tower(2**40, 2)
        rep = analyze(t, horizon=5)
        assert rep.ml_status.kind == "unknown"
        assert rep.lim1_status.kind == "unknown"
        assert rep.local is None
        rep_full = analyze(t, horizon=64)
        assert rep_full.ml_status.kind == "stabilized"
        assert rep_full.ml_status.stage == 40

    def test_ml_check_matches_analyze(self):
        for t in (mult_tower(9, 3), multiplication_tower(fg_group(0), 3)):
            assert stabilize(t).status.kind == analyze(t).ml_status.kind

    def test_omega_completion(self):
        done, wit = stabilize(mult_tower(8, 2)).omega_completion()
        assert done is True and wit is None
        done, wit = stabilize(multiplication_tower(fg_group(0, 0), 2)).omega_completion()
        assert done is False and wit == 2
        # witnessed but not a multiplication, and undecided at the horizon: outside the class
        assert stabilize(witnessed_tail()).omega_completion() == (None, None)
        truncated = stabilize(truncated_constant_tower(fg_group(2), 99), horizon=8)
        assert str(truncated.status) == "Unknown(horizon=8)"
        assert truncated.omega_completion() == (None, None)


class TestLimits:
    def test_lim_against_threads(self):
        rng = random.Random(43)
        for _ in range(60):
            t = random_finite_tower(rng, max_levels=4, max_order=48)
            lim, l1 = stabilize(t).lim_lim1()
            assert l1.kind == "zero"
            assert lim == thread_limit_oracle(t)

    def test_epimorphic_with_zero_lim_is_null(self):
        # on an epimorphic tower the limit surjects onto every level,
        # so a trivial limit forces every level to vanish
        rng = random.Random(47)
        for _ in range(40):
            t = random_surjective_tower(rng)
            assert is_epimorphic_tower(t)
            lim, _ = stabilize(t).lim_lim1()
            if lim.is_trivial():
                assert all(t.group(i).is_trivial() for i in range(t.stable_index + 1))

    def test_constant_tower_limit(self):
        g = fg_group(2, 8)
        rep = analyze(constant_tower(g))
        assert rep.lim == g and rep.lim1_status.kind == "zero"


class TestDecomposition:
    def test_z6_split(self):
        d = stabilize(mult_tower(6, 2)).decompose()
        assert d.epimorphic_part.group(0) == fg_group(3)
        assert is_epimorphic_tower(d.epimorphic_part)
        assert is_null_tower(d.limitless.tower)
        assert d.limitless.tower.group(0) == fg_group(2)

    def test_never_stabilizing_split(self):
        t = multiplication_tower(fg_group(4, 0), 2)
        d = stabilize(t).decompose()
        # stable stage is trivial, so E is the zero tower and L is everything
        assert d.epimorphic_part.group(0).is_trivial()
        assert d.limitless.tower.group(0) == fg_group(4, 0)
        lim_l, _ = d.limitless.lim_lim1()
        assert lim_l.is_trivial()

    def test_undecidable_raises(self):
        z2 = fg_group(0, 0)
        t = Tower((), (), ConstantEndo(z2, GroupMap(z2, z2, ((2, 1), (0, 3)))))
        with pytest.raises(ValueError):
            stabilize(t).decompose()

    def test_exactness_orders(self):
        rng = random.Random(53)
        for _ in range(40):
            t = random_finite_tower(rng, max_levels=3, max_order=32)
            d = stabilize(t).decompose()
            for i in range(t.stable_index + 1):
                assert (
                    t.group(i).order()
                    == d.epimorphic_part.group(i).order() * d.limitless.tower.group(i).order()
                )


class TestOnePassPerTower:
    """Each `stabilize` pass asks for the never-stabilizes witness exactly once, so counting
    `_tail_never_witness` calls counts passes."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        witness = towers_mod._tail_never_witness

        def counted(*args):
            calls.append(args)
            return witness(*args)

        monkeypatch.setattr(towers_mod, "_tail_never_witness", counted)
        return calls

    def test_one_witness_call_per_pass(self, passes):
        for t in (mult_tower(6, 2), witnessed_tail(), truncated_constant_tower(fg_group(2), 3)):
            before = len(passes)
            stabilize(t)
            assert len(passes) == before + 1

    def test_decompose_runs_one_pass_over_l_at_the_same_horizon(self, passes):
        filt = stabilize(mult_tower(6, 2), 5)
        passes.clear()
        d = filt.decompose()
        assert len(passes) == 1
        assert d.limitless.horizon == 5
        assert str(d.limitless.status) == "Stabilized(1)"

    def test_suites_stabilize_each_tower_and_limitless_part_once(self, passes):
        # paper examples: 10 rows x (the tower + L), then 10 corpus towers x 3 shifts
        assert all(c.passed for c in paper_examples_suite())
        assert len(passes) == 50
        passes.clear()
        assert all(c.passed for c in property_suite(7))
        assert len(passes) == 964


class TestLocalityAndExtensions:
    def test_null_tower_is_local(self):
        assert stabilize(null_tower([fg_group(2), fg_group(4), fg_group(8)])).is_local() is True

    def test_locality_matches_brute_force(self):
        # local <=> some finite image stage vanishes levelwise
        rng = random.Random(59)
        for _ in range(50):
            t = random_finite_tower(rng, max_levels=3, max_order=24)
            loc = stabilize(t).is_local()
            assert loc is not None
            brute = any(iterate_image(t, n).is_trivial() for n in range(10))
            assert loc == brute

    def test_never_stabilizing_is_not_local(self):
        assert stabilize(multiplication_tower(fg_group(0), 2)).is_local() is False

    def test_null_extension_orders_and_locality(self):
        s = mult_tower(4, 2)
        n = null_tower([fg_group(2), fg_group(2)])
        k = max(s.stable_index, n.stable_index) + 1
        psis = [zero_map(s.group(i + 1), n.group(i)) for i in range(k)]
        # a nonzero twist on the first level
        psis[0] = GroupMap(s.group(1), n.group(0), ((1,),))
        ext = null_extension(s, n, psis, zero_map(s.group(k + 1), n.group(k)))
        for i in range(ext.stable_index + 1):
            assert ext.group(i).order() == n.group(i).order() * s.group(i).order()
        assert stabilize(ext).is_local() is True  # both parts are local here

    def test_null_extension_respects_maps(self):
        s = constant_tower(fg_group(2))
        n = null_tower([fg_group(2)])
        k = max(s.stable_index, n.stable_index) + 1
        psis = [zero_map(s.group(i + 1), n.group(i)) for i in range(k)]
        ext = null_extension(s, n, psis, zero_map(s.group(k + 1), n.group(k)))
        # window of width 2 kills the N part: image is the S part alone
        img = iterate_image(ext, 2)
        assert img.sub_at(0).as_group() == fg_group(2)

    def test_products_preserve_locality(self):
        a = null_tower([fg_group(2)])
        b = mult_tower(9, 3)
        prod = limit_of_towers([a, b])
        assert stabilize(prod).is_local() is True
        rep = analyze(prod)
        assert rep.lim.is_trivial()

    def test_product_limits_multiply(self):
        a = constant_tower(fg_group(2))
        b = mult_tower(6, 2)
        prod = limit_of_towers([a, b])
        assert analyze(prod).lim == fg_group(6)


class TestShift:
    def test_view_invariance_examples(self):
        for t in (
            mult_tower(8, 2),
            mult_tower(6, 2),
            multiplication_tower(fg_group(0), 2),
            null_tower([fg_group(2), fg_group(4)]),
        ):
            shifted, morph = shift(t)
            assert analyze(t).shift_invariant_view() == analyze(shifted).shift_invariant_view()
            # the morphism is the tower's own step maps
            assert morph.level_map(0).matrix == t.step_map(0).matrix

    def test_stage_can_shift(self):
        g = fg_group(8)
        prefix = Tower(
            (g, g, g),
            (multiplication_map(g, 2), multiplication_map(g, 2)),
            ZeroTail(),
        )
        shifted, _ = shift(prefix)
        assert analyze(prefix).ml_status.stage != analyze(shifted).ml_status.stage


class TestWindowsAndAdjunction:
    def test_window_difference_width_one(self):
        t = constant_tower(fg_group(4))
        d = window_difference_map(t, 1)
        assert d.matrix == identity_map(fg_group(4)).matrix

    def test_window_difference_invertible(self):
        t = mult_tower(8, 2)
        for w in (2, 3, 4):
            d = window_difference_map(t, w)
            assert d.is_surjective() and d.is_injective()

    def test_window_shift_nilpotent(self):
        t = constant_tower(fg_group(4))
        w = 3
        f = window_shift_map(t, w)
        p = f
        for _ in range(w - 1):
            p = p.compose(f)
        assert p.is_zero()

    def test_truncated_tower_shape(self):
        a = truncated_constant_tower(fg_group(4), 2)
        assert a.group(0) == fg_group(4)
        assert a.group(2) == fg_group(4)
        assert a.group(3).is_trivial()
        assert a.step_map(0).matrix == identity_map(fg_group(4)).matrix

    def test_adjunction_cases(self):
        cases = [
            (fg_group(2), 0, constant_tower(fg_group(2))),
            (fg_group(2), 1, constant_tower(fg_group(2))),
            (fg_group(4), 1, mult_tower(8, 2)),
            (fg_group(2), 2, null_tower([fg_group(2), fg_group(4)])),
            (fg_group(2, 2), 1, mult_tower(4, 2)),
        ]
        for a, n, t in cases:
            assert truncation_adjunction_check(a, n, t)

    def test_infinite_window_rejected(self):
        t = multiplication_tower(fg_group(0), 2)
        with pytest.raises(ValueError):
            window_difference_map(t, 3)


class TestQuotientsAndSubtowers:
    def test_subtower_requires_closure(self):
        g = fg_group(8)
        t = Tower((g, g), (multiplication_map(g, 2),), ConstantEndo(g, multiplication_map(g, 2)))
        ok = (Subgroup.full(g), Subgroup.zero(g))  # f(0) = 0 lands in anything
        subtower(t, ok)
        with pytest.raises(ValueError):
            subtower(t, (Subgroup.zero(g), Subgroup.full(g)))  # f(full) not inside 0

    def test_quotient_orders(self):
        t = mult_tower(8, 2)
        st = iterate_image(t, 1)
        q, proj = quotient_tower(t, st.subs)
        assert q.group(0) == fg_group(2)
        assert proj.level_map(0).is_surjective()

    def test_quotient_closure_validated(self):
        g = fg_group(8)
        t = Tower((g, g), (multiplication_map(g, 2),), ConstantEndo(g, multiplication_map(g, 2)))
        with pytest.raises(ValueError):
            quotient_tower(t, (Subgroup.zero(g), Subgroup.full(g)))
