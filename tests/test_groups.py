import random

import pytest

from limtower.groups import (
    FgAbGroup,
    GroupMap,
    Subgroup,
    TRIVIAL_GROUP,
    abs_det,
    annihilator_elements,
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
    smith_certificate_error,
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

    @pytest.mark.parametrize(
        "mat, u, d, problem",
        [
            ([[1, 1], [0, 1]], [[1, 0], [0, 1]], [[1, 1], [0, 1]], "D is not diagonal"),
            ([[2, 0], [0, 3]], [[1, 0], [0, 1]], [[2, 0], [0, 3]], "divisibility chain broken"),
            ([[1, 0], [0, -2]], [[1, 0], [0, 1]], [[1, 0], [0, -2]], "divisibility chain broken"),
            ([[1, 0], [0, 2]], [[2, 0], [0, 1]], [[2, 0], [0, 2]], "non-unimodular transform"),
            ([[1, 0], [0, 2]], [[1, 0], [0, 1]], [[1, 0], [0, 1]], "product mismatch"),
        ],
    )
    def test_certificate_check_rejects_tampering(self, mat, u, d, problem):
        assert smith_certificate_error(mat, u, d, [[1, 0], [0, 1]]) == problem

    def test_certificate_check_accepts_every_smith_output(self):
        rng = random.Random(11)
        for _ in range(100):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            assert smith_certificate_error(mat, *smith_normal_form(mat)) is None

    def test_known_diagonal(self):
        # classic: elementary divisors of [[2,4,4],[-6,6,12],[10,4,16]] are 2,2,156
        _, d, _ = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert [d[i][i] for i in range(3)] == [2, 2, 156]

    def test_zero_and_empty(self):
        _, d, _ = smith_normal_form([[0, 0], [0, 0]])
        assert [d[i][i] for i in range(2)] == [0, 0]
        _, d, _ = smith_normal_form([])
        assert not d


class TestAbsDet:
    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(31)
        singular = 0
        for k in range(400):
            n = k % 9
            bound = 9 if k % 2 else 1  # small entries put zeros on the pivot
            mat = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            if n >= 2 and k % 3 == 1:
                i, j = rng.sample(range(n), 2)
                mat[i] = list(mat[j])
            elif n >= 1 and k % 3 == 2:
                mat[rng.randrange(n)] = [0] * n
            want = abs(int(sympy.Matrix(n, n, [x for row in mat for x in row]).det()))
            assert abs_det(mat) == want, mat
            singular += want == 0
        assert singular >= 200


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

    @staticmethod
    def _oracle_matrices():
        """300 seeded matrices; a third repeat a scaled row and a third have a zero column."""
        rng = random.Random(11)
        for k in range(300):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            if k % 3 == 0 and m > 1:
                a, b = rng.sample(range(m), 2)
                rows[a] = [rng.randint(-3, 3) * x for x in rows[b]]
            elif k % 3 == 1:
                j = rng.randrange(n)
                for row in rows:
                    row[j] = 0
            yield rows

    def test_hermite_spans_the_sympy_lattice(self):
        """Same lattice as sympy's HNF; each basis is checked against the other's span."""
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import hermite_normal_form

        deficient = 0
        for rows in self._oracle_matrices():
            n = len(rows[0])
            ours = row_hermite_basis(rows, n)
            deficient += len(ours) < min(len(rows), n)
            # sympy's columns span the column lattice of rows^T; read bottom-up they are echelon rows
            h = hermite_normal_form(sympy.Matrix(rows).T)
            theirs = sorted(
                (tuple(int(x) for x in reversed(h.col(j))) for j in range(h.cols)),
                key=lambda r: next(i for i, x in enumerate(r) if x),
            )
            assert len(theirs) == len(ours), rows
            for col in theirs:
                assert lattice_solve(ours, col[::-1]) is not None, rows
            for row in ours:
                assert lattice_solve(tuple(theirs), row[::-1]) is not None, rows
        assert deficient >= 60

    def test_smith_diagonal_is_sympy_invariant_factors(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors
        from sympy.polys.domains import ZZ

        for rows in self._oracle_matrices():
            _, d, _ = smith_normal_form(rows)
            want = [int(x) for x in invariant_factors(sympy.Matrix(rows), domain=ZZ)]
            assert [d[i][i] for i in range(min(len(rows), len(rows[0])))] == want, rows

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
        assert g.scale(2, x) == g.reduce((6, 10))
        assert g.scale(-1, x) == g.reduce((-3, -5))
        assert g.scale(12, x) == g.zero()

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
        assert kernel(multiplication_map(g, 5)).is_trivial()
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

    def test_torsion_row_outside_the_lattice_raises(self, monkeypatch):
        sub = Subgroup(fg_group(4), [(2,)])
        monkeypatch.setattr("limtower.groups.lattice_solve", lambda basis, vec: None)
        with pytest.raises(RuntimeError, match="^ambient torsion row outside the subgroup lattice$"):
            sub.as_group()

    def test_cokernel(self):
        g = fg_group(9)
        cok = quotient_by_subgroup(g, image(multiplication_map(g, 3)))
        assert cok.group == fg_group(3)


def _random_map(rng, dom, cod):
    """A random homomorphism; about a third of its columns are zero."""
    cols = []
    for d in dom.orders:
        if rng.random() < 0.3:
            cols.append(cod.zero())
        elif d:
            cols.append(rng.choice(annihilator_elements(cod, d)))
        else:
            cols.append(tuple(rng.randint(-3, 3) for _ in cod.orders))
    return GroupMap(dom, cod, tuple(tuple(c[i] for c in cols) for i in range(cod.ngens)))


class TestTrivialityFastPath:
    AMBIENTS = [
        TRIVIAL_GROUP,
        fg_group(4), fg_group(2, 4), fg_group(3, 9), fg_group(12),  # finite
        FgAbGroup(1), FgAbGroup(2), FgAbGroup(3),  # free
        FgAbGroup(1, (2,)), FgAbGroup(2, (3, 6)), FgAbGroup(1, (2, 4)),  # mixed
    ]

    def _subgroups(self, rng):
        for g in self.AMBIENTS:
            yield Subgroup.zero(g)
            yield Subgroup.full(g)
            for _ in range(12):
                h = _random_map(rng, rng.choice(self.AMBIENTS), g)
                yield image(h)
                yield kernel(_random_map(rng, g, rng.choice(self.AMBIENTS)))
                # a chain of images under endomorphisms, which often dies out
                sub = Subgroup.full(g)
                for _ in range(rng.randint(1, 5)):
                    e = _random_map(rng, g, g) if rng.random() < 0.5 else multiplication_map(g, rng.choice([0, 2, 3, 6]))
                    sub = image_of_subgroup(e, sub)
                    yield sub

    def test_matches_the_presented_group(self):
        rng = random.Random(2024)
        outcomes = []
        for sub in self._subgroups(rng):
            assert sub.is_trivial() == sub.as_group().is_trivial(), (sub.ambient, sub.generators)
            outcomes.append(sub.is_trivial())
        # both answers occur often, so neither side of the test is vacuous
        assert outcomes.count(True) > 100 and outcomes.count(False) > 100

    def test_image_matches_the_image_by_definition(self):
        rng = random.Random(77)
        checked = trivial = 0
        for sub in self._subgroups(rng):
            g = sub.ambient
            cod = rng.choice(self.AMBIENTS)
            maps = {
                "random": _random_map(rng, g, cod),
                "zero": zero_map(g, cod),
                "multiplication": multiplication_map(g, rng.choice([0, 1, 2, 3, 6])),
            }
            for kind, h in maps.items():
                got = image_of_subgroup(h, sub)
                want = Subgroup(h.codomain, [h.apply(row) for row in sub.basis])
                assert got.basis == want.basis, (kind, h, sub.basis)
                assert got.is_trivial() == want.is_trivial()
                assert got.as_group() == want.as_group()
                checked += 1
                trivial += got.is_trivial()
        # both answers occur often, so neither side of the test is vacuous
        assert 300 < trivial < checked - 300

    def test_trivial_subgroup_with_nonzero_input_generators(self):
        # generators that vanish only after reduction into the ambient group
        assert Subgroup(fg_group(4), [(4,), (-8,)]).is_trivial()
        assert not Subgroup(FgAbGroup(1, (2,)), [(2, 1)]).is_trivial()

    def test_full_is_the_span_of_the_unit_vectors(self):
        for g in self.AMBIENTS:
            n = g.ngens
            spanned = Subgroup(g, [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)])
            full = Subgroup.full(g)
            assert full.basis == spanned.basis
            assert full.generators == spanned.generators
            assert full.as_group() == spanned.as_group() == g
            assert full.include().matrix == spanned.include().matrix
            assert full == spanned and full.is_full()
            assert full.is_trivial() == g.is_trivial()

    def test_stored_flag_matches_the_generators(self):
        """The flag set when a subgroup is built equals a fresh scan of its generators."""
        rng = random.Random(31)
        built = []  # (construction path, subgroup)
        for g in self.AMBIENTS:
            built += [("zero", Subgroup.zero(g)), ("full", Subgroup.full(g))]
            for _ in range(10):
                gens = [tuple(rng.randint(-6, 6) for _ in range(g.ngens)) for _ in range(rng.randint(0, 3))]
                sub = Subgroup(g, gens)
                built.append(("__init__", sub))
                # multiples of the orders, which vanish only after reduction
                built.append(("__init__", Subgroup(g, [tuple(rng.randint(-2, 2) * o for o in g.orders)])))
                built.append(("_of_reduced", Subgroup._of_reduced(g, tuple(g.reduce(x) for x in gens))))
                built.append(("image under zero", image_of_subgroup(zero_map(g, rng.choice(self.AMBIENTS)), sub)))
        built += [("stream", sub) for sub in self._subgroups(rng)]
        seen = set()
        for path, sub in built:
            want = not any(map(any, sub.generators))
            assert sub.is_trivial() == want == sub.as_group().is_trivial(), (path, sub.ambient, sub.generators)
            seen.add((path, want))
        # every path but the zero map's image is seen both trivial and not
        paths = {path for path, _ in built}
        assert {p for p, t in seen if t} == paths
        assert {p for p, t in seen if not t} == paths - {"zero", "image under zero"}


class TestIsFull:
    def test_matches_containing_every_unit_vector(self):
        """`is_full` reads the Hermite pivots; it agrees with one `contains` per unit vector."""
        rng = random.Random(4242)
        subs = list(TestTrivialityFastPath()._subgroups(rng))
        for g in TestTrivialityFastPath.AMBIENTS:
            for _ in range(40):
                # n to n + 2 small generators often span a free ambient group, not always
                k = g.ngens + rng.randint(0, 2)
                subs.append(Subgroup(g, [tuple(rng.randint(-2, 2) for _ in range(g.ngens)) for _ in range(k)]))
        outcomes = {}
        for sub in subs:
            n = sub.ambient.ngens
            want = all(sub.contains(tuple(int(i == j) for j in range(n))) for i in range(n))
            assert sub.is_full() == want, (sub.ambient, sub.generators)
            kind = "zero" if n == 0 else "free" if not sub.ambient.invariant_factors else (
                "torsion" if not sub.ambient.free_rank else "mixed")
            outcomes.setdefault(kind, []).append(want)
        # every kind of ambient group is seen, and each answer occurs often where it can
        assert set(outcomes) == {"zero", "free", "torsion", "mixed"} and all(outcomes["zero"])
        for kind in ("free", "torsion", "mixed"):
            assert outcomes[kind].count(True) >= 40 and outcomes[kind].count(False) >= 40, kind


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
