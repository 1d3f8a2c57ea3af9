"""The Hermite kernel, the solver and the map checks against the code they replaced.

The reference below is the earlier `_pivot`, `_insert_row` and
`row_hermite_basis` of `groups`, which kept the pivot rows in a sorted
list found by `bisect` and rescanned each row from column 0, the earlier
`lattice_solve`, which found each pivot by `_pivot` on a copy of its row,
the earlier `GroupMap.__post_init__`, which reduced every row and checked
every column, the earlier `multiplier_of`, which built the
multiplication map and compared matrices, and the earlier
`matrix_kernel_basis`, which read the kernel off the Smith form.  They are
kept verbatim as oracles.  On seeded inputs the current kernel must return
the same basis, the current solver the same coefficients, the current map
check must accept the same matrices, store the same reduced matrix and
raise the same message, `multiplier_of` must return the same multiplier,
and `matrix_kernel_basis` must span the same lattice.
"""

import random
from bisect import bisect_left
from dataclasses import dataclass
from math import gcd

import pytest

from limtower.groups import (
    FgAbGroup,
    GroupMap,
    Vector,
    _smith_extended,
    lattice_solve,
    matrix_kernel_basis,
    multiplication_map,
    multiplier_of,
    row_hermite_basis,
    unit_vector,
    xgcd,
)

# --- the reference ------------------------------------------------------------


def _pivot(row: list[int]) -> int:
    for j, x in enumerate(row):
        if x:
            return j
    return -1


def _insert_row(basis: list[list[int]], pivots: list[int], vec: list[int]) -> None:
    while True:
        j = _pivot(vec)
        if j < 0:
            return
        pos = bisect_left(pivots, j)
        if pos < len(pivots) and pivots[pos] == j:
            row = basis[pos]
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                vec = [y - q * x for x, y in zip(row, vec)]
            else:
                g, x, y = xgcd(a, b)
                ag, bg = a // g, b // g
                new_row = [x * p + y * q2 for p, q2 in zip(row, vec)]
                new_vec = [ag * q2 - bg * p for p, q2 in zip(row, vec)]
                basis[pos] = new_row
                vec = new_vec
        else:
            if vec[j] < 0:
                vec = [-x for x in vec]
            basis.insert(pos, vec)
            pivots.insert(pos, j)
            return


def reference_row_hermite_basis(rows: list[list[int]] | list[Vector], width: int) -> tuple[Vector, ...]:
    basis: list[list[int]] = []
    pivots: list[int] = []
    for row in rows:
        if len(row) != width:
            raise ValueError("row width mismatch")
        _insert_row(basis, pivots, list(row))
    for k in range(len(basis)):
        p = pivots[k]
        d = basis[k][p]
        for k2 in range(k):
            q = basis[k2][p] // d
            if q:
                basis[k2] = [x - q * y for x, y in zip(basis[k2], basis[k])]
    return tuple(tuple(r) for r in basis)


def reference_lattice_solve(basis: tuple[Vector, ...], vec: Vector | list[int]) -> list[int] | None:
    """Coefficients x with sum x_k * basis_k = vec, or None if vec is outside."""
    v = list(vec)
    coeffs = [0] * len(basis)
    for k, row in enumerate(basis):
        p = _pivot(list(row))
        if v[p] == 0:
            continue
        if v[p] % row[p]:
            return None
        q = v[p] // row[p]
        v = [x - q * y for x, y in zip(v, row)]
        coeffs[k] = q
    if any(v):
        return None
    return coeffs


def reference_multiplier_of(h: GroupMap) -> int | None:
    """The integer m with h = multiplication by m, or None.

    Only meaningful for endomorphisms.  A free generator pins m exactly;
    with pure torsion the smallest consistent nonnegative m is returned.
    """
    if h.domain != h.codomain:
        return None
    g = h.domain
    n = g.ngens
    if n == 0:
        return 1
    orders = g.orders
    m = None
    for j in range(len(g.invariant_factors), n):  # free coordinates pin m
        m = h.matrix[j][j]
        break
    if m is None:
        # largest invariant factor determines m modulo itself; smaller ones must agree
        m = h.matrix[len(g.invariant_factors) - 1][len(g.invariant_factors) - 1]
    cand = multiplication_map(g, m)
    return m if cand.matrix == h.matrix else None


def reference_matrix_kernel_basis(mat: list[list[int]], n: int) -> list[list[int]]:
    """Basis of the integer kernel {x in Z^n : mat @ x = 0}, as vectors."""
    m = len(mat)
    _, _, d, v = _smith_extended(mat, m, n)
    rank = sum(1 for k in range(min(m, n)) if d[k][k])
    return [[v[i][k] for i in range(n)] for k in range(rank, n)]


@dataclass(frozen=True)
class ReferenceMap:
    domain: FgAbGroup
    codomain: FgAbGroup
    matrix: tuple[Vector, ...]

    def __post_init__(self) -> None:
        dom, cod = self.domain, self.codomain
        if len(self.matrix) != cod.ngens or any(len(r) != dom.ngens for r in self.matrix):
            raise ValueError("matrix shape does not match domain/codomain")
        reduced = tuple(
            tuple(x % o if o else x for x in row)
            for row, o in zip(self.matrix, cod.orders)
        )
        object.__setattr__(self, "matrix", reduced)
        for j, d in enumerate(dom.orders):
            if d == 0:
                continue
            for i, o in enumerate(cod.orders):
                x = d * reduced[i][j]
                if (x % o) if o else x:
                    raise ValueError(
                        f"not a homomorphism: generator of order {d} maps to an element not killed by {d}"
                    )


# --- the comparison -------------------------------------------------------------


def _outcome(build, *args):
    try:
        return "ok", build(*args)
    except ValueError as exc:
        return "error", str(exc)


def hermite_cases(count: int, seed: int):
    """(width, generator rows, torsion rows o*e_i) over widths 0-8.

    A third of the cases repeat a row, a third add a scaled copy of one and
    a quarter add a zero row; entries run from [-1, 1] up to [-10^6, 10^6].
    """
    rng = random.Random(seed)
    for k in range(count):
        width = k % 9
        bound = rng.choice((1, 3, 9, 10**6))
        rows = [[rng.randint(-bound, bound) for _ in range(width)] for _ in range(rng.randint(0, 5))]
        if rows and k % 3 == 0:
            rows.append(list(rng.choice(rows)))
        if rows and k % 3 == 1:
            m = rng.choice((-6, -1, 2, 3))
            rows.append([m * x for x in rng.choice(rows)])
        if rng.random() < 0.25:
            rows.append([0] * width)
        rng.shuffle(rows)
        torsion = [unit_vector(width, i, rng.choice((2, 3, 4, 12))) for i in range(rng.randint(0, width))]
        yield width, rows, torsion


class TestHermiteReference:
    def test_same_basis_as_the_reference(self):
        ranks = set()
        for width, rows, torsion in hermite_cases(2400, seed=11):
            for order in ([*torsion, *rows], [*rows, *torsion]):
                want = reference_row_hermite_basis(order, width)
                assert row_hermite_basis(order, width) == want, (width, order)
            # the basis is canonical, so the insertion order cannot show
            assert row_hermite_basis([*torsion, *rows], width) == row_hermite_basis([*rows, *torsion], width)
            ranks.add((width, len(want)))
        # every width is reached, both at full rank and below it
        assert {w for w, r in ranks if r == w} == set(range(9))
        assert {w for w, r in ranks if r < w} == set(range(1, 9))

    def test_row_width_mismatch(self):
        for rows in ([[1, 2], [3]], [[1, 2, 3]], [[0, 0], []]):
            assert _outcome(row_hermite_basis, rows, 2) == _outcome(reference_row_hermite_basis, rows, 2)
            assert _outcome(row_hermite_basis, rows, 2) == ("error", "row width mismatch")


GROUPS = [
    FgAbGroup(0),
    FgAbGroup(1),
    FgAbGroup(2),
    FgAbGroup(0, (2,)),
    FgAbGroup(0, (6,)),
    FgAbGroup(0, (2, 4)),
    FgAbGroup(0, (2, 6, 12)),
    FgAbGroup(1, (3,)),
    FgAbGroup(2, (2, 4)),
    FgAbGroup(1, (4, 8)),
]


def map_cases(count: int, seed: int):
    """(domain, codomain, matrix): homomorphisms, non-homomorphisms and misshapen matrices.

    Half the cases scale each entry by o / gcd(o, d), which makes a
    homomorphism from one that is not, and a sixth change the shape.
    """
    rng = random.Random(seed)
    for k in range(count):
        dom, cod = rng.choice(GROUPS), rng.choice(GROUPS)
        rows = [[rng.randint(-20, 20) for _ in range(dom.ngens)] for _ in range(cod.ngens)]
        if k % 2:
            for i, o in enumerate(cod.orders):
                for j, d in enumerate(dom.orders):
                    if d:
                        rows[i][j] *= o // gcd(o, d) if o else 0
        if k % 6 == 5:
            change = rng.randrange(3)
            if change == 0:
                rows.append([0] * dom.ngens)
            elif change == 1 and rows:
                rows.pop()
            elif rows:
                rng.choice(rows).append(1)
            else:
                rows.append([])
        matrix = rows if k % 4 < 2 else tuple(map(tuple, rows))
        yield dom, cod, matrix


class TestMapCheckReference:
    def test_same_acceptance_message_and_matrix(self):
        seen = {}
        for dom, cod, matrix in map_cases(3000, seed=12):
            got = _outcome(GroupMap, dom, cod, matrix)
            want = _outcome(ReferenceMap, dom, cod, matrix)
            if got[0] == "ok":
                got = ("ok", got[1].matrix)
                want = ("ok", want[1].matrix) if want[0] == "ok" else want
            assert got == want, (dom, cod, matrix)
            text = got[1] if got[0] == "error" else "accepted"
            seen[text.split(":")[0]] = seen.get(text.split(":")[0], 0) + 1
        # all three outcomes are reached, each many times
        assert set(seen) == {"accepted", "not a homomorphism", "matrix shape does not match domain/codomain"}
        assert min(seen.values()) >= 200, seen

    @pytest.mark.parametrize(
        "dom, cod, matrix",
        [
            # the first failing generator is the first failing column, not the first failing row
            (FgAbGroup(0, (2, 4)), FgAbGroup(0, (8, 8)), [[0, 1], [1, 0]]),
            (FgAbGroup(1, (2,)), FgAbGroup(1, (4,)), [[1, 0], [1, 5]]),
            (FgAbGroup(0, (3,)), FgAbGroup(2), [[0], [1]]),
        ],
    )
    def test_message_names_the_first_failing_generator(self, dom, cod, matrix):
        got = _outcome(GroupMap, dom, cod, matrix)
        assert got[0] == "error"
        assert got == _outcome(ReferenceMap, dom, cod, matrix)


class TestSolverReference:
    def test_same_coefficients_on_hermite_bases(self):
        rng = random.Random(13)
        seen = set()  # (width, full rank, found)
        for k in range(1600):
            width = 1 + k // 2 % 8
            rows = [[rng.randint(-4, 4) for _ in range(width)] for _ in range(rng.randint(1, width + 2))]
            if k % 2:  # rank-deficient: every row in the span of the first two
                a, b = rows[0], rows[-1]
                rows = [[rng.randint(-2, 2) * x + rng.randint(-2, 2) * y for x, y in zip(a, b)] for _ in rows]
            basis = row_hermite_basis(rows, width)
            if not basis:
                continue
            inside = [sum(rng.randint(-5, 5) * row[j] for row in basis) for j in range(width)]
            outside = [rng.randint(-9, 9) for _ in range(width)]
            nudged = list(inside)
            nudged[rng.randrange(width)] += 1
            for vec in (inside, tuple(inside), outside, nudged):
                got = lattice_solve(basis, vec)
                assert got == reference_lattice_solve(basis, vec), (basis, vec)
                seen.add((width, len(basis) == width, got is not None))
        # every width is solved at full rank and below it, with vectors found and not found
        assert {(w, True, found) for w in range(1, 9) for found in (True, False)} <= seen
        assert {(w, False, found) for w in range(2, 9) for found in (True, False)} <= seen

    def test_identity_returns_the_vector(self):
        rng = random.Random(17)
        for n in range(9):
            for row_type in (tuple, list):
                basis = tuple(row_type(unit_vector(n, i)) for i in range(n))
                for _ in range(20):
                    vec = tuple(rng.randint(-10**6, 10**6) for _ in range(n))
                    got = lattice_solve(basis, vec)
                    assert got == list(vec) == reference_lattice_solve(basis, vec)
                    assert type(got) is list

    def test_unitriangular_basis_is_not_the_identity(self):
        """A full-rank basis with pivots 1 spans Z^n, but its coefficients are not the vector."""
        rng = random.Random(19)
        differ = 0
        for k in range(400):
            n = 2 + k % 7
            basis = [unit_vector(n, i) for i in range(n)]
            i = rng.randrange(n - 1)
            basis[i][rng.randrange(i + 1, n)] = rng.choice((-3, -1, 1, 2, 5))
            for _ in range(rng.randint(0, n)):
                i = rng.randrange(n - 1)
                basis[i][rng.randrange(i + 1, n)] = rng.randint(-5, 5)
            basis = tuple(map(tuple, basis))
            vec = [rng.randint(-9, 9) for _ in range(n)]
            got = lattice_solve(basis, vec)
            assert got == reference_lattice_solve(basis, vec), (basis, vec)
            differ += got != vec
        assert differ >= 300

    def test_near_identity_bases(self):
        # each differs from the identity in one place; none may be taken for it
        bases = [
            ((1, 0), (0, 2)),
            ((2, 0), (0, 1)),
            ((1, 1), (0, 1)),
            ((1, 0, 0), (0, 1, 0)),
            ((1, 0, 0), (0, 1, 0), (0, 0, -1)),
            ((1, 0, 0), (0, 1, 3), (0, 0, 1)),
        ]
        rng = random.Random(23)
        for basis in bases:
            for _ in range(30):
                vec = [rng.randint(-6, 6) for _ in range(len(basis[0]))]
                assert lattice_solve(basis, vec) == reference_lattice_solve(basis, vec), (basis, vec)


def endo_cases(count: int, seed: int):
    """Endomorphisms of the GROUPS: multiplications by m and by m + an order, and perturbed ones.

    A perturbed map adds a random value to one entry of a multiplication
    matrix; a third of them hit the diagonal.  Perturbations that are not
    homomorphisms are drawn again.
    """
    rng = random.Random(seed)
    k = 0
    while k < count:
        g = GROUPS[k % len(GROUPS)]
        m = rng.randint(-30, 30)
        if k % 3 == 0:
            yield multiplication_map(g, m)
        elif k % 3 == 1:
            top = g.invariant_factors[-1] if g.invariant_factors else 1
            yield multiplication_map(g, m + rng.randint(-3, 3) * top)
        elif g.ngens:
            rows = [list(r) for r in multiplication_map(g, m).matrix]
            i = rng.randrange(g.ngens)
            j = i if rng.random() < 1 / 3 else rng.randrange(g.ngens)
            rows[i][j] += rng.randint(-12, 12)
            try:
                yield GroupMap(g, g, rows)
            except ValueError:
                continue
        k += 1


class TestMultiplierReference:
    def test_same_multiplier_as_the_reference(self):
        found = []
        for h in endo_cases(3000, seed=29):
            got = multiplier_of(h)
            assert got == reference_multiplier_of(h), (h.domain, h.matrix)
            found.append((h.domain.free_rank > 0, h.domain.invariant_factors != (), got))
        multipliers = [m for _, _, m in found if m is not None]
        # multiplications and non-multiplications both occur often, with negative m on free groups
        assert len(multipliers) > 1000 and len(found) - len(multipliers) > 300
        assert sum(m < 0 for m in multipliers) > 200
        for free, torsion in ((False, True), (True, False), (True, True)):
            kinds = {m is None for f, t, m in found if (f, t) == (free, torsion)}
            assert kinds == {True, False}, (free, torsion)

    def test_congruent_multipliers_give_one_answer(self):
        for g in GROUPS:
            if g.free_rank or not g.invariant_factors:
                continue
            top = g.invariant_factors[-1]
            for m in range(-2 * top, 2 * top):
                h = multiplication_map(g, m)
                assert multiplier_of(h) == reference_multiplier_of(h) == m % top
                assert multiplier_of(h) == multiplier_of(multiplication_map(g, m + 5 * top))

    def test_not_an_endomorphism(self):
        h = GroupMap(GROUPS[3], GROUPS[4], [[3]])
        assert multiplier_of(h) is None is reference_multiplier_of(h)
        trivial = GroupMap(GROUPS[0], GROUPS[0], [])
        assert multiplier_of(trivial) == 1 == reference_multiplier_of(trivial)


def kernel_cases(sizes, seed: int):
    """(n, mat): seeded (n - 3) x n matrices with entries in [-9, 9]; every third past n = 4 repeats a row, scaled."""
    rng = random.Random(seed)
    for n in sizes:
        for k in range(3):
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 3)]
            if k == 1 and n > 4:
                c = rng.choice((-2, 1, 3))
                mat[-1] = [c * x for x in rng.choice(mat[:-1])]
            yield n, mat


class TestKernelReference:
    def test_same_lattice_as_the_smith_kernel(self):
        nullities = set()
        for n, mat in kernel_cases(range(3, 21), seed=37):
            got = matrix_kernel_basis(mat, n)
            assert row_hermite_basis(got, n) == row_hermite_basis(reference_matrix_kernel_basis(mat, n), n), mat
            nullities.add(len(got))
        assert nullities == {3, 4}

    def test_large_kernels_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors
        from sympy.polys.domains import ZZ

        for n, mat in kernel_cases((40, 60), seed=41):
            got = matrix_kernel_basis(mat, n)
            assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in mat for vec in got)
            assert len(got) == len(sympy.Matrix(mat).nullspace())
            # saturated: the basis extends to a basis of Z^n, so it spans the whole integer kernel
            assert all(f == 1 for f in invariant_factors(sympy.Matrix(got), domain=ZZ))
