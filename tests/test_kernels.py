"""The Hermite kernel and the map check against the code they replaced.

The reference below is the earlier `_pivot`, `_insert_row` and
`row_hermite_basis` of `groups`, which kept the pivot rows in a sorted
list found by `bisect` and rescanned each row from column 0, and the
earlier `GroupMap.__post_init__`, which reduced every row and checked
every column.  They are kept verbatim as oracles.  On seeded inputs the
current kernel must return the same basis, and the current map check
must accept the same matrices, store the same reduced matrix and raise
the same message.
"""

import random
from bisect import bisect_left
from dataclasses import dataclass
from math import gcd

import pytest

from limtower.groups import FgAbGroup, GroupMap, Vector, row_hermite_basis, unit_vector, xgcd

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
