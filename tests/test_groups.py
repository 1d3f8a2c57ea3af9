import random

import pytest

from limtower.groups import (
    FgAbGroup,
    GroupMap,
    Subgroup,
    TRIVIAL_GROUP,
    abs_det,
    annihilator_elements,
    cokernel,
    direct_sum,
    enumerate_homs,
    fg_group,
    identity_map,
    image,
    image_of_subgroup,
    kernel,
    lattice_solve,
    matrix_kernel_basis,
    multiplication_map,
    quotient_by_subgroup,
    row_hermite_basis,
    smith_normal_form,
    zero_map,
)


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


class TestSmith:
    def test_certificate_random(self):
        rng = random.Random(7)
        for _ in range(300):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            u, d, v = smith_normal_form(mat)
            assert mat_mul(mat_mul([list(r) for r in u], mat), [list(r) for r in v]) == [
                list(r) for r in d
            ]
            assert abs_det(u) == 1 and abs_det(v) == 1
            diag = [d[i][i] for i in range(min(m, n))]
            for a, b in zip(diag, diag[1:]):
                assert a >= 0
                if a:
                    assert b % a == 0
                else:
                    assert b == 0

    def test_known_diagonal(self):
        # classic: elementary divisors of [[2,4,4],[-6,6,12],[10,4,16]] are 2,2,156
        _, d, _ = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert [d[i][i] for i in range(3)] == [2, 2, 156]

    def test_zero_and_empty(self):
        _, d, _ = smith_normal_form([[0, 0], [0, 0]])
        assert [d[i][i] for i in range(2)] == [0, 0]
        _, d, _ = smith_normal_form([])
        assert not d


class TestLattices:
    def test_hermite_membership(self):
        rng = random.Random(11)
        for _ in range(200):
            w = rng.randint(1, 4)
            rows = [[rng.randint(-6, 6) for _ in range(w)] for _ in range(rng.randint(0, 4))]
            basis = row_hermite_basis(rows, w)
            for r in rows:
                sol = lattice_solve(basis, r)
                assert sol is not None
                got = [0] * w
                for c, b in zip(sol, basis):
                    for j in range(w):
                        got[j] += c * b[j]
                assert got == list(r)

    def test_kernel_basis(self):
        rng = random.Random(13)
        for _ in range(200):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
            for k in matrix_kernel_basis(mat, n):
                assert all(sum(mat[i][j] * k[j] for j in range(n)) == 0 for i in range(m))


class TestGroups:
    def test_canonical_orders(self):
        g = fg_group(6, 4)
        assert g.invariant_factors == (2, 12)
        assert g.order() == 24
        assert fg_group(2, 3) == fg_group(6)

    def test_free_and_mixed(self):
        g = fg_group(4, 0)
        assert g.free_rank == 1 and g.invariant_factors == (4,)
        assert not g.is_finite()
        assert TRIVIAL_GROUP.is_trivial()

    def test_element_arithmetic(self):
        g = fg_group(4, 6)  # canonical form Z/2 + Z/12
        x = g.reduce((3, 5))
        assert g.add(x, x) == g.reduce((6, 10))
        assert g.sub(x, x) == g.zero()
        assert g.element_order(g.reduce((1, 0))) == 2
        assert g.element_order(g.reduce((0, 1))) == 12
        assert g.element_order(g.zero()) == 1

    def test_elements_enumeration(self):
        g = fg_group(2, 3)
        elems = list(g.elements())
        assert len(elems) == 6 == len(set(elems))


class TestMaps:
    def test_compose_and_apply(self):
        g = fg_group(8)
        f = multiplication_map(g, 2)
        assert f.compose(f).apply((1,)) == (4,)
        assert multiplication_map(g, 8).is_zero()

    def test_well_defined_rejection(self):
        # Z/2 -> Z/4 sending the generator to an element of order 4 is not a map
        with pytest.raises(ValueError):
            GroupMap(fg_group(2), fg_group(4), ((1,),))

    def test_surjective_injective(self):
        g = fg_group(6)
        assert multiplication_map(g, 5).is_surjective()
        assert multiplication_map(g, 5).is_injective()
        assert not multiplication_map(g, 2).is_surjective()
        assert identity_map(g).is_surjective()


class TestSubgroups:
    def test_image_kernel_exactness(self):
        rng = random.Random(17)
        groups = [fg_group(4), fg_group(2, 4), fg_group(12), fg_group(3, 9)]
        for _ in range(150):
            dom = rng.choice(groups)
            cod = rng.choice(groups)
            cols = [rng.choice(annihilator_elements(cod, d)) for d in dom.orders]
            f = GroupMap(dom, cod, tuple(tuple(c[i] for c in cols) for i in range(cod.ngens)))
            img, ker = image(f), kernel(f)
            assert img.order() * ker.order() == dom.order()
            # first isomorphism: dom/ker has the order of the image
            q = quotient_by_subgroup(dom, ker)
            assert q.group.order() == img.order()

    def test_transport_along_map(self):
        g = fg_group(8)
        h = multiplication_map(g, 2)
        full = Subgroup.full(g)
        assert image_of_subgroup(h, full).as_group() == fg_group(4)
        two = image_of_subgroup(h, image_of_subgroup(h, full))
        assert two.as_group() == fg_group(2)
        assert full.contains_subgroup(two)
        assert not two.contains_subgroup(full)

    def test_subgroup_equality_canonical(self):
        g = fg_group(4, 4)
        a = Subgroup(g, ((1, 0), (0, 1)))
        b = Subgroup(g, ((1, 1), (0, 1)))
        assert a == b
        assert a == Subgroup.full(g)

    def test_quotient_section_roundtrip(self):
        g = fg_group(8)
        sub = image(multiplication_map(g, 4))
        q = quotient_by_subgroup(g, sub)
        assert q.group == fg_group(4)
        for x in q.group.elements():
            assert q.projection.apply(q.section(x)) == x

    def test_cokernel(self):
        g = fg_group(9)
        cok = cokernel(multiplication_map(g, 3))
        assert cok.group == fg_group(3)


class TestSums:
    def test_direct_sum_projections(self):
        a, b = fg_group(2), fg_group(3)
        ds = direct_sum([a, b])
        assert ds.group == fg_group(6)
        x = ds.injections[0].apply((1,))
        assert ds.projections[0].apply(x) == (1,)
        assert ds.projections[1].apply(x) == (0,)

    def test_hom_count(self):
        # |Hom(Z/4, Z/6)| = gcd(4,6) = 2
        homs = list(enumerate_homs(fg_group(4), fg_group(6)))
        assert len(homs) == 2
        # |Hom(Z/2 + Z/2, Z/4)| = 2 * 2
        assert len(list(enumerate_homs(fg_group(2, 2), fg_group(4)))) == 4

    def test_annihilators(self):
        g = fg_group(4)
        assert sorted(annihilator_elements(g, 2)) == [(0,), (2,)]
        assert len(annihilator_elements(g, 0)) == 4
        assert zero_map(fg_group(2), g).is_zero()
