import dataclasses
import gc
import random
import weakref
from itertools import islice

import pytest

from limtower.groups import (
    GroupMap,
    Subgroup,
    TRIVIAL_GROUP,
    fg_group,
    identity_map,
    multiplication_map,
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
    decompose,
    image_tower,
    is_epimorphic_tower,
    is_local,
    is_null_tower,
    iterate_image,
    length,
    lim_lim1,
    limit_of_towers,
    ml_check,
    multiplication_tower,
    null_extension,
    null_tower,
    omega_completion_status,
    quotient_tower,
    shift,
    subtower,
    transfinite_image,
    truncated_constant_tower,
    truncation_adjunction_check,
    window_difference_map,
    window_shift_map,
)
from limtower.towers import _full_stage, _image_stages, _image_step
from limtower.suites import (
    random_decidable_tower,
    random_finite_tower,
    random_local_tower,
    random_surjective_tower,
    thread_limit_oracle,
)


def mult_tower(n, m):
    return multiplication_tower(fg_group(n), m)


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
        assert str(length(t).value) == "3"

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
        st = transfinite_image(t, OMEGA)
        assert st.exact and st.is_trivial()

    def test_transfinite_partial_when_unknown(self):
        # generic integer-matrix tail: no closed form past the finite stages
        z2 = fg_group(0, 0)
        e = GroupMap(z2, z2, ((2, 1), (0, 3)))
        t = Tower((), (), ConstantEndo(z2, e))
        st = transfinite_image(t, OMEGA)
        assert not st.exact
        assert st.computed_to is not None


def witnessed_tail():
    """Z^2 under an upper-triangular map with |det| = 6: witnessed, not a multiplication."""
    z2 = fg_group(0, 0)
    return Tower((), (), ConstantEndo(z2, GroupMap(z2, z2, ((2, 1), (0, 3)))))


class TestStabilizationPass:
    def test_witnessed_report_ignores_horizon(self):
        t = witnessed_tail()
        shallow, deep = analyze(t, horizon=1), analyze(t, horizon=128)
        assert dataclasses.replace(shallow, horizon=128) == deep
        assert deep.length == LengthValue("unknown_beyond", OMEGA)
        assert str(deep.length) == "UnknownBeyond(w)"

    def test_witnessed_transfinite_image_builds_finite_stages(self):
        t = witnessed_tail()
        horizon = 6
        for n in range(horizon + 1):
            st = transfinite_image(t, ord_from_int(n), horizon)
            assert st.exact
            assert st.subs == iterate_image(t, n).subs
        st = transfinite_image(t, OMEGA, horizon)
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
        for t in towers:
            reference = [_full_stage(t)]
            while len(reference) <= 40:
                nxt = _image_step(t, reference[-1])
                if nxt == reference[-1]:
                    break
                reference.append(nxt)
            assert list(islice(_image_stages(t, _full_stage(t)), 41)) == reference

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
        lt = length(t)
        assert lt.kind == "exact"
        assert ord_compare(lt.value, parse_ordinal("w+1")) == 0
        st = transfinite_image(t, parse_ordinal("w"))
        assert st.sub_at(0).as_group() == fg_group(5)
        assert transfinite_image(t, parse_ordinal("w+1")).is_trivial()

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
            assert ml_check(t).kind == analyze(t).ml_status.kind

    def test_omega_completion(self):
        done, wit = omega_completion_status(mult_tower(8, 2))
        assert done is True and wit is None
        done, wit = omega_completion_status(multiplication_tower(fg_group(0, 0), 2))
        assert done is False and wit == 2


class TestLimits:
    def test_lim_against_threads(self):
        rng = random.Random(43)
        for _ in range(60):
            t = random_finite_tower(rng, max_levels=4, max_order=48)
            lim, l1 = lim_lim1(t)
            assert l1.kind == "zero"
            assert lim == thread_limit_oracle(t)

    def test_epimorphic_with_zero_lim_is_null(self):
        # on an epimorphic tower the limit surjects onto every level,
        # so a trivial limit forces every level to vanish
        rng = random.Random(47)
        for _ in range(40):
            t = random_surjective_tower(rng)
            assert is_epimorphic_tower(t)
            lim, _ = lim_lim1(t)
            if lim.is_trivial():
                assert all(t.group(i).is_trivial() for i in range(t.stable_index + 1))

    def test_constant_tower_limit(self):
        g = fg_group(2, 8)
        rep = analyze(constant_tower(g))
        assert rep.lim == g and rep.lim1_status.kind == "zero"


class TestDecomposition:
    def test_z6_split(self):
        d = decompose(mult_tower(6, 2))
        assert d.epimorphic_part.group(0) == fg_group(3)
        assert is_epimorphic_tower(d.epimorphic_part)
        assert is_null_tower(d.limitless_part)
        assert d.limitless_part.group(0) == fg_group(2)

    def test_never_stabilizing_split(self):
        t = multiplication_tower(fg_group(4, 0), 2)
        d = decompose(t)
        # stable stage is trivial, so E is the zero tower and L is everything
        assert d.epimorphic_part.group(0).is_trivial()
        assert d.limitless_part.group(0) == fg_group(4, 0)
        lim_l, _ = lim_lim1(d.limitless_part)
        assert lim_l.is_trivial()

    def test_undecidable_raises(self):
        z2 = fg_group(0, 0)
        t = Tower((), (), ConstantEndo(z2, GroupMap(z2, z2, ((2, 1), (0, 3)))))
        with pytest.raises(ValueError):
            decompose(t)

    def test_exactness_orders(self):
        rng = random.Random(53)
        for _ in range(40):
            t = random_finite_tower(rng, max_levels=3, max_order=32)
            d = decompose(t)
            for i in range(t.stable_index + 1):
                assert (
                    t.group(i).order()
                    == d.epimorphic_part.group(i).order() * d.limitless_part.group(i).order()
                )


class TestLocalityAndExtensions:
    def test_null_tower_is_local(self):
        assert is_local(null_tower([fg_group(2), fg_group(4), fg_group(8)])) is True

    def test_locality_matches_brute_force(self):
        # local <=> some finite image stage vanishes levelwise
        rng = random.Random(59)
        for _ in range(50):
            t = random_finite_tower(rng, max_levels=3, max_order=24)
            loc = is_local(t)
            assert loc is not None
            brute = any(iterate_image(t, n).is_trivial() for n in range(10))
            assert loc == brute

    def test_never_stabilizing_is_not_local(self):
        assert is_local(multiplication_tower(fg_group(0), 2)) is False

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
        assert is_local(ext) is True  # both parts are local here

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
        assert is_local(prod) is True
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
