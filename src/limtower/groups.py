"""Finitely generated abelian groups with exact integer arithmetic.

Groups are kept in canonical form: a free rank together with the chain of
invariant factors d_1 | d_2 | ... | d_k, each >= 2.  Elements are integer
coordinate vectors over the canonical generators (torsion generators first,
free generators last), with torsion coordinates reduced into [0, d_i).
Two canonical groups are isomorphic iff their dataclass fields are equal,
which is what keeps the higher layers cheap: every "are these isomorphic"
question bottoms out in tuple equality here.

All linear algebra is plain lists of Python ints.  Intermediate entries of
a Smith reduction can exceed any fixed word size, so nothing here is
delegated to floating point or fixed-width matrix libraries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import mul

Matrix = list[list[int]]
Vector = tuple[int, ...]

DEFAULT_ENUM_CAP = 10**6


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def unit_vector(n: int, i: int, value: int = 1) -> list[int]:
    """The length-n vector with `value` at position i and 0 elsewhere."""
    vec = [0] * n
    vec[i] = value
    return vec


def _eye(n: int) -> Matrix:
    return [unit_vector(n, i) for i in range(n)]


def mat_mul(a, b, cols: int) -> Matrix:
    """The product a @ b of integer matrices given as rows.

    b has `cols` columns; the count is passed because a product through
    the trivial group has a b with no rows to read it from.
    """
    b_cols = [[row[j] for row in b] for j in range(cols)]
    return [[sum(map(mul, row, col)) for col in b_cols] for row in a]


def mat_add(a, b, k: int = 1) -> Matrix:
    """The element-wise sum a + k*b of integer matrices of one shape."""
    return [[x + k * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_vec(rows, vec) -> Vector:
    """The product rows @ vec of an integer matrix and a vector."""
    return tuple([sum(map(mul, row, vec)) for row in rows])


def _transpose(m: Matrix, rows: int, cols: int) -> Matrix:
    return [[m[i][j] for i in range(rows)] for j in range(cols)]


# ---------------------------------------------------------------------------
# Smith normal form


def _smith_extended(mat: Matrix, m: int, n: int) -> tuple[Matrix, Matrix, Matrix, Matrix]:
    """Return (U, Uinv, D, V) with U*mat*V = D, U and V unimodular.

    D is diagonal with nonnegative entries forming a divisibility chain.
    Pivot selection always takes the entry of smallest nonzero absolute
    value in the trailing submatrix, which keeps intermediate growth down.
    """
    a = [row[:] for row in mat]
    u = _eye(m)
    uinv = _eye(m)
    v = _eye(n)

    def row_op(i: int, j: int, q: int) -> None:
        # row_i -= q * row_j ; keeps U*orig*V = current invariant
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]
        for r in uinv:
            r[j] += q * r[i]

    def row_swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def row_negate(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    def col_op(j: int, i: int, q: int) -> None:
        # col_j -= q * col_i
        for r in a:
            r[j] -= q * r[i]
        for r in v:
            r[j] -= q * r[i]

    def col_swap(i: int, j: int) -> None:
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    t = 0
    limit = min(m, n)
    while t < limit:
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            row_swap(t, piv[0])
        if piv[1] != t:
            col_swap(t, piv[1])
        while True:
            if a[t][t] < 0:
                row_negate(t)
            restart = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        # remainder is a strictly smaller positive pivot
                        row_swap(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        col_swap(t, j)
                        restart = True
                        break
            if restart:
                continue
            # pivot must divide the whole trailing submatrix for the chain
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_op(t, bad, -1)  # fold the offending row into row t
        t += 1
    return u, uinv, a, v


def smith_normal_form(mat: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form with transforms: U*mat*V = D, |det U| = |det V| = 1.

    D is diagonal, entries nonnegative, each dividing the next.

    >>> U, D, V = smith_normal_form([[2, 0], [0, 3]])
    >>> D
    [[1, 0], [0, 6]]
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    if any(len(row) != n for row in mat):
        raise ValueError("ragged matrix")
    u, _, d, v = _smith_extended(mat, m, n)
    return u, d, v


def matrix_kernel_basis(mat: Matrix, n: int) -> list[list[int]]:
    """Basis of the integer kernel {x in Z^n : mat @ x = 0}, as vectors."""
    m = len(mat)
    _, _, d, v = _smith_extended(mat, m, n)
    rank = sum(1 for k in range(min(m, n)) if d[k][k])
    return [[v[i][k] for i in range(n)] for k in range(rank, n)]


def abs_det(mat: Matrix) -> int:
    """|det| of a square integer matrix (0 when singular).

    Fraction-free Gauss-Bareiss elimination (Cohen, GTM 138, Alg. 2.2.6):
    each step replaces the trailing block by 2x2 minors against the pivot,
    divided by the previous pivot.  By Sylvester's identity every division
    is exact, so entries stay minors of the input and never need a
    transform.  A row swap only flips the sign.

    >>> abs_det([[2, 1], [4, 5]]), abs_det([[0, 1], [1, 0]]), abs_det([[1, 2], [2, 4]])
    (6, 1, 0)
    """
    a = [list(row) for row in mat]
    prev = 1
    while len(a) > 1:
        i = next((i for i, row in enumerate(a) if row[0]), None)
        if i is None:
            return 0
        a[0], a[i] = a[i], a[0]
        p, *top = a[0]
        a = [[(p * x - row[0] * y) // prev for x, y in zip(row[1:], top)] for row in a[1:]]
        prev = p
    return abs(a[0][0]) if a else 1


def smith_certificate_error(mat: Matrix, u: Matrix, d: Matrix, v: Matrix) -> str | None:
    """Why (U, D, V) is not a Smith certificate of mat, or None when it is.

    A certificate has U*mat*V = D with |det U| = |det V| = 1, and D
    diagonal with nonnegative entries, each dividing the next.
    """
    n = len(v)
    if mat_mul(mat_mul(u, mat, n), v, n) != [list(r) for r in d]:
        return "product mismatch"
    if abs_det(u) != 1 or abs_det(v) != 1:
        return "non-unimodular transform"
    if any(x for i, row in enumerate(d) for j, x in enumerate(row) if i != j):
        return "D is not diagonal"
    diag = [d[i][i] for i in range(min(len(d), n))]
    if any(x < 0 for x in diag) or any(b % a if a else b for a, b in zip(diag, diag[1:])):
        return "divisibility chain broken"
    return None


# ---------------------------------------------------------------------------
# Hermite-style canonical bases for integer row lattices


def _reduced_past(vec: list[int], rows_at: dict[int, list[int]], j: int) -> list[int]:
    """vec with its entry at each pivot column past j reduced into [0, pivot).

    An xgcd step stores its combined pivot row this way, so that repeated
    steps do not compound its entries (Kannan and Bachem, SIAM J. Comput.
    1979): unreduced, the rows of a rank-31 lattice in Z^32 with 5-bit
    entries grew past 10^5 bits before the final reduction.
    """
    for k in range(j + 1, len(vec)):
        top = rows_at.get(k)
        if top is not None and (q := vec[k] // top[k]):
            vec = [x - q * y for x, y in zip(vec, top)]
    return vec


def row_hermite_basis(rows: list[list[int]] | list[Vector], width: int) -> tuple[Vector, ...]:
    """Canonical echelon basis of the row span of `rows` inside Z^width.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    pivot columns strictly increase.  Two row sets span the same lattice
    iff their canonical bases are equal.
    """
    rows_at: dict[int, list[int]] = {}  # pivot column -> its row
    for row in rows:
        if len(row) != width:
            raise ValueError("row width mismatch")
        vec = list(row)
        j = 0
        while j < width:
            b = vec[j]
            if not b:
                j += 1
                continue
            top = rows_at.get(j)
            if top is None:
                rows_at[j] = vec if b > 0 else [-x for x in vec]
                break
            a = top[j]
            if b % a == 0:
                q = b // a
                vec = [y - q * x for x, y in zip(top, vec)]
            else:
                g, x, y = xgcd(a, b)
                ag, bg = a // g, b // g
                rows_at[j] = _reduced_past([x * p + y * q for p, q in zip(top, vec)], rows_at, j)
                vec = [ag * q - bg * p for p, q in zip(top, vec)]
            j += 1  # vec is now zero up to column j, so the scan resumes past it
    pivots = sorted(rows_at)
    basis = [rows_at[p] for p in pivots]
    for k in range(len(basis)):
        p = pivots[k]
        d = basis[k][p]
        for k2 in range(k):
            q = basis[k2][p] // d
            if q:
                basis[k2] = [x - q * y for x, y in zip(basis[k2], basis[k])]
    return tuple(tuple(r) for r in basis)


def lattice_solve(basis: tuple[Vector, ...], vec: Vector | list[int]) -> list[int] | None:
    """Coefficients x with sum x_k * basis_k = vec, or None if vec is outside.

    `basis` is in echelon form (pivot columns strictly increase), as from
    `row_hermite_basis`.  In the identity basis the coefficients are vec.
    """
    n = len(vec)
    if len(basis) == n and all(row[k] == 1 and row.count(0) == n - 1 == len(row) - 1 for k, row in enumerate(basis)):
        return list(vec)
    v = list(vec)
    coeffs = [0] * len(basis)
    p = -1
    for k, row in enumerate(basis):
        p += 1
        while not row[p]:
            p += 1
        q, rem = divmod(v[p], row[p])
        if rem:
            return None
        if q:
            v = [x - q * y for x, y in zip(v, row)]
            coeffs[k] = q
    return None if any(v) else coeffs


# ---------------------------------------------------------------------------
# Canonical groups


@dataclass(frozen=True)
class FgAbGroup:
    """Z^free_rank plus one Z/d_i per invariant factor, d_1 | d_2 | ... | d_k.

    >>> FgAbGroup(1, (6,))
    FgAbGroup(free_rank=1, invariant_factors=(6,))
    >>> str(fg_group(12, 18))
    'Z/6 + Z/36'
    """

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        prev = None
        for d in self.invariant_factors:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
            if prev is not None and d % prev:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = d
        object.__setattr__(self, "ngens", len(self.invariant_factors) + self.free_rank)

    @cached_property
    def orders(self) -> Vector:
        """Per-generator orders; 0 marks a free generator."""
        return self.invariant_factors + (0,) * self.free_rank

    @cached_property
    def torsion_rows(self) -> tuple[Vector, ...]:
        """The rows o*e_i of the torsion generators: a reduced echelon basis of the relations."""
        n = self.ngens
        return tuple(tuple(unit_vector(n, i, o)) for i, o in enumerate(self.invariant_factors))

    def reduce(self, vec) -> Vector:
        return tuple(x % o if o else x for x, o in zip(vec, self.orders))

    def zero(self) -> Vector:
        return (0,) * self.ngens

    def add(self, x, y) -> Vector:
        return tuple((a + b) % o if o else a + b for a, b, o in zip(x, y, self.orders))

    def neg(self, x) -> Vector:
        return tuple((-a) % o if o else -a for a, o in zip(x, self.orders))

    def sub(self, x, y) -> Vector:
        return self.add(x, self.neg(y))

    def scale(self, k: int, x) -> Vector:
        return tuple((k * a) % o if o else k * a for a, o in zip(x, self.orders))

    def is_trivial(self) -> bool:
        return self.ngens == 0

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    def element_order(self, vec) -> int | None:
        """Order of an element; None when infinite."""
        out = 1
        for x, o in zip(vec, self.orders):
            if o == 0:
                if x:
                    return None
                continue
            k = o // gcd(x % o, o) if x % o else 1
            out = out * k // gcd(out, k)
        return out

    def elements(self, cap: int = DEFAULT_ENUM_CAP):
        yield from enumerate_elements(self, cap)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


TRIVIAL_GROUP = FgAbGroup(0, ())


def enumerate_elements(group: FgAbGroup, cap: int = DEFAULT_ENUM_CAP):
    """Iterate every element of a finite group; raises past the cap."""
    order = group.order()
    if order is None:
        raise ValueError("cannot enumerate an infinite group")
    if order > cap:
        raise ValueError(f"group order {order} exceeds enumeration cap {cap}")
    ranges = [range(d) for d in group.invariant_factors]
    for combo in itertools.product(*ranges):
        yield tuple(combo)


# ---------------------------------------------------------------------------
# Maps


@dataclass(frozen=True)
class GroupMap:
    """Homomorphism given by an integer matrix, codomain gens x domain gens.

    Column j holds the image of domain generator j.  Torsion rows are
    stored reduced, so equal maps have equal matrices.  Construction
    checks well-definedness: a generator of order d must land on an
    element killed by d.
    """

    domain: FgAbGroup
    codomain: FgAbGroup
    matrix: tuple[Vector, ...]

    def __post_init__(self) -> None:
        dom, cod = self.domain, self.codomain
        if len(self.matrix) != cod.ngens or not set(map(len, self.matrix)) <= {dom.ngens}:
            raise ValueError("matrix shape does not match domain/codomain")
        # torsion generators come first: only the leading rows need reducing,
        # and only the leading columns (generators of order d) can fail the check
        torsion = [tuple([x % o for x in row]) for row, o in zip(self.matrix, cod.invariant_factors)]
        reduced = (*torsion, *map(tuple, self.matrix[len(torsion):]))
        object.__setattr__(self, "matrix", reduced)
        for j, d in enumerate(dom.invariant_factors):
            for row, o in zip(reduced, cod.orders):
                x = d * row[j]
                if (x % o) if o else x:
                    raise ValueError(
                        f"not a homomorphism: generator of order {d} maps to an element not killed by {d}"
                    )

    def apply(self, vec) -> Vector:
        return self.codomain.reduce(mat_vec(self.matrix, vec))

    def compose(self, other: "GroupMap") -> "GroupMap":
        """self after other."""
        if other.codomain != self.domain:
            raise ValueError("composition type mismatch")
        mat = mat_mul(self.matrix, other.matrix, other.domain.ngens)
        return GroupMap(other.domain, self.codomain, mat)

    def is_zero(self) -> bool:
        return not any(map(any, self.matrix))

    def is_surjective(self) -> bool:
        return image(self).is_full()

    def is_injective(self) -> bool:
        return kernel(self).is_trivial()

    def __str__(self) -> str:
        return f"[{self.domain}] -> [{self.codomain}] via {[list(r) for r in self.matrix]}"


def map_from_columns(domain: FgAbGroup, codomain: FgAbGroup, cols) -> GroupMap:
    """The map sending domain generator j to cols[j]."""
    return GroupMap(domain, codomain, _transpose(cols, len(cols), codomain.ngens))


def identity_map(group: FgAbGroup) -> GroupMap:
    return multiplication_map(group, 1)


def zero_map(domain: FgAbGroup, codomain: FgAbGroup) -> GroupMap:
    return GroupMap(domain, codomain, tuple((0,) * domain.ngens for _ in range(codomain.ngens)))


def multiplication_map(group: FgAbGroup, m: int) -> GroupMap:
    """x -> m*x as a GroupMap."""
    n = group.ngens
    return GroupMap(group, group, [unit_vector(n, i, m) for i in range(n)])


def multiplier_of(h: GroupMap) -> int | None:
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
    t = len(g.invariant_factors)
    m = h.matrix[t][t] if t < n else h.matrix[t - 1][t - 1]
    # torsion rows are stored reduced, so each diagonal entry is m reduced by its order
    for i, (row, o) in enumerate(zip(h.matrix, g.orders)):
        if row[i] != (m % o if o else m) or any(row[:i]) or any(row[i + 1:]):
            return None
    return m


# ---------------------------------------------------------------------------
# Presentations


@dataclass(frozen=True)
class Presentation:
    """Canonical form of Z^n modulo a relation row span, with transport.

    to_canonical (k x n) sends old coordinates to canonical ones;
    lift (n x k) sends a canonical generator to a representative.
    to_canonical @ lift is the identity modulo the relations.
    """

    group: FgAbGroup
    to_canonical: tuple[Vector, ...]
    lift: tuple[Vector, ...]

    def project(self, vec) -> Vector:
        return self.group.reduce(mat_vec(self.to_canonical, vec))


def group_from_presentation(num_generators: int, relations: list[list[int]] | list[Vector]) -> Presentation:
    """Canonicalize Z^num_generators modulo the row span of `relations`.

    >>> group_from_presentation(2, [[2, 0], [0, 3]]).group
    FgAbGroup(free_rank=0, invariant_factors=(6,))
    """
    n = num_generators
    rel = [list(r) for r in relations]
    for r in rel:
        if len(r) != n:
            raise ValueError("relation width mismatch")
    # columns of rel^T generate the subgroup being killed
    a = _transpose(rel, len(rel), n) if rel else [[] for _ in range(n)]
    u, uinv, d, _ = _smith_extended(a, n, len(rel))
    diag = [d[k][k] for k in range(min(n, len(rel)))]
    torsion: list[int] = []
    free: list[int] = []
    for k in range(n):
        dk = diag[k] if k < len(diag) else 0
        if dk == 1:
            continue
        if dk == 0:
            free.append(k)
        else:
            torsion.append(k)
    kept = torsion + free
    group = FgAbGroup(len(free), tuple(diag[k] for k in torsion))
    to_canonical = tuple(tuple(u[k][j] for j in range(n)) for k in kept)
    lift = tuple(tuple(uinv[i][k] for k in kept) for i in range(n))
    return Presentation(group, to_canonical, lift)


def fg_group(*cyclic_orders: int) -> FgAbGroup:
    """Canonical form of a direct sum of cyclic groups; 0 means Z.

    >>> fg_group(2, 3)
    FgAbGroup(free_rank=0, invariant_factors=(6,))
    """
    n = len(cyclic_orders)
    rel = [unit_vector(n, i, o) for i, o in enumerate(cyclic_orders) if o]
    return group_from_presentation(n, rel).group


# ---------------------------------------------------------------------------
# Subgroups


class Subgroup:
    """Subgroup of an ambient group, canonicalized as a preimage lattice.

    The lattice is spanned by the generators plus the ambient torsion
    relations; its Hermite basis is the identity of the subgroup, so
    equality is basis equality.  A canonical presentation of the subgroup
    as an abstract group (with inclusion and coordinate maps) is computed
    lazily and cached.
    """

    __slots__ = ("ambient", "generators", "basis", "_trivial", "__dict__")

    def __init__(self, ambient: FgAbGroup, generators) -> None:
        self._span(ambient, tuple(ambient.reduce(g) for g in generators))

    @classmethod
    def _of_reduced(cls, ambient: FgAbGroup, generators: tuple[Vector, ...]) -> "Subgroup":
        """The subgroup spanned by generators already reduced into `ambient`."""
        sub = cls.__new__(cls)
        sub._span(ambient, generators)
        return sub

    def _span(self, ambient: FgAbGroup, generators: tuple[Vector, ...]) -> None:
        self.ambient = ambient
        self.generators = generators
        # generators are stored reduced, so a nonzero element has a nonzero entry
        self._trivial = not any(map(any, generators))
        torsion = ambient.torsion_rows
        # the torsion rows go in first: each is its own pivot row
        self.basis = torsion if self._trivial else row_hermite_basis([*torsion, *generators], ambient.ngens)

    @classmethod
    def full(cls, ambient: FgAbGroup) -> "Subgroup":
        # The unit rows are already a reduced echelon basis with pivots 1,
        # and every torsion row o*e_i reduces to zero against them, so the
        # Hermite basis is the identity and needs no reduction.
        sub = cls.__new__(cls)
        sub.ambient = ambient
        sub.generators = sub.basis = tuple(map(tuple, _eye(ambient.ngens)))
        sub._trivial = not ambient.ngens
        return sub

    @classmethod
    def zero(cls, ambient: FgAbGroup) -> "Subgroup":
        return cls._of_reduced(ambient, ())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient, self.basis))

    def contains(self, vec) -> bool:
        return lattice_solve(self.basis, self.ambient.reduce(vec)) is not None

    def contains_subgroup(self, other: "Subgroup") -> bool:
        if other.ambient != self.ambient:
            raise ValueError("subgroups of different ambient groups")
        return all(self.contains(row) for row in other.basis)

    def is_full(self) -> bool:
        n = self.ambient.ngens
        return all(self.contains(unit_vector(n, i)) for i in range(n))

    def is_trivial(self) -> bool:
        return self._trivial

    @cached_property
    def _form(self) -> Presentation:
        # present lattice/torsion: generators = basis rows, relations =
        # ambient torsion rows written in basis coordinates
        rels = []
        for row in self.ambient.torsion_rows:
            coeffs = lattice_solve(self.basis, row)
            if coeffs is None:  # torsion rows are folded into every lattice
                raise RuntimeError("ambient torsion row outside the subgroup lattice")
            rels.append(coeffs)
        return group_from_presentation(len(self.basis), rels)

    def as_group(self) -> FgAbGroup:
        return self._form.group

    def order(self) -> int | None:
        return self.as_group().order()

    def include(self) -> GroupMap:
        """Inclusion of the canonical form into the ambient group."""
        pres, basis = self._form, self.basis
        # canonical generator k lifts to sum_r lift[r][k] * basis[r]: column k of basis^T @ lift
        mat = mat_mul(_transpose(basis, len(basis), self.ambient.ngens), pres.lift, pres.group.ngens)
        return GroupMap(pres.group, self.ambient, mat)

    def coords(self, vec) -> Vector:
        """Coordinates of an ambient element (must lie in the subgroup)."""
        coeffs = lattice_solve(self.basis, self.ambient.reduce(vec))
        if coeffs is None:
            raise ValueError("element is not in the subgroup")
        return self._form.project(tuple(coeffs))

    def element_list(self, cap: int = DEFAULT_ENUM_CAP) -> list[Vector]:
        """All elements, as ambient coordinate vectors."""
        inc = self.include()
        return [inc.apply(x) for x in self.as_group().elements(cap)]

    def __str__(self) -> str:
        return f"<{self.as_group()} inside {self.ambient}>"


def image(h: GroupMap) -> Subgroup:
    return Subgroup(h.codomain, _transpose(h.matrix, h.codomain.ngens, h.domain.ngens))


def image_of_subgroup(h: GroupMap, sub: Subgroup) -> Subgroup:
    """h(sub) as a subgroup of the codomain.

    Each basis row b maps to sum_j h[r][j] * b[j] in codomain row r,
    reduced once by the codomain orders if it has torsion.  A trivial `sub` or a zero `h`
    gives the zero subgroup without any products.
    """
    if sub.ambient is not h.domain and sub.ambient != h.domain:
        raise ValueError("subgroup does not live in the domain")
    cod = h.codomain
    if sub.is_trivial() or h.is_zero():
        return Subgroup.zero(cod)
    gens = [mat_vec(h.matrix, b) for b in sub.basis]
    if cod.invariant_factors:  # a free codomain needs no reduction
        orders = cod.orders
        gens = [tuple([x % o if o else x for x, o in zip(g, orders)]) for g in gens]
    return Subgroup._of_reduced(cod, tuple(gens))


def kernel(h: GroupMap) -> Subgroup:
    """Kernel of h, as a subgroup of the domain."""
    m, n = h.codomain.ngens, h.domain.ngens
    mat = [list(row) for row in h.matrix]
    torsion_cols = [i for i, o in enumerate(h.codomain.orders) if o]
    for i in torsion_cols:
        col = unit_vector(m, i, h.codomain.orders[i])
        for r in range(m):
            mat[r].append(col[r])
    basis = matrix_kernel_basis(mat, n + len(torsion_cols))
    gens = [tuple(vec[:n]) for vec in basis]
    return Subgroup(h.domain, gens)


@dataclass(frozen=True)
class QuotientData:
    """A quotient group with its projection and a chosen section."""

    group: FgAbGroup
    projection: GroupMap

    # representative in the source for each canonical generator
    lift: tuple[Vector, ...]

    def section(self, vec) -> Vector:
        """A source element mapping onto `vec` under the projection."""
        return self.projection.domain.reduce(mat_vec(self.lift, vec))


def quotient_by_subgroup(ambient: FgAbGroup, sub: Subgroup) -> QuotientData:
    """ambient / sub with transport maps."""
    if sub.ambient != ambient:
        raise ValueError("subgroup of a different group")
    pres = group_from_presentation(ambient.ngens, [list(r) for r in sub.basis])
    proj = GroupMap(ambient, pres.group, pres.to_canonical)
    return QuotientData(pres.group, proj, pres.lift)


def cokernel(h: GroupMap) -> QuotientData:
    """Cokernel of h: codomain / image(h), with the projection map."""
    return quotient_by_subgroup(h.codomain, image(h))


# ---------------------------------------------------------------------------
# Direct sums


@dataclass(frozen=True)
class DirectSum:
    group: FgAbGroup
    injections: tuple[GroupMap, ...]
    projections: tuple[GroupMap, ...]


def direct_sum(groups: list[FgAbGroup] | tuple[FgAbGroup, ...]) -> DirectSum:
    """Canonical form of a finite direct sum, with the block maps."""
    groups = tuple(groups)
    offsets = []
    total = 0
    for g in groups:
        offsets.append(total)
        total += g.ngens
    rel = []
    for g, off in zip(groups, offsets):
        for i, o in enumerate(g.orders):
            if o:
                rel.append(unit_vector(total, off + i, o))
    pres = group_from_presentation(total, rel)
    big = pres.group
    injections = []
    projections = []
    for g, off in zip(groups, offsets):
        n = g.ngens
        inj_mat = tuple(
            tuple(pres.to_canonical[i][off + j] for j in range(n))
            for i in range(big.ngens)
        )
        injections.append(GroupMap(g, big, inj_mat))
        proj_mat = tuple(
            tuple(pres.lift[off + i][k] for k in range(big.ngens)) for i in range(n)
        )
        projections.append(GroupMap(big, g, proj_mat))
    return DirectSum(big, tuple(injections), tuple(projections))


# ---------------------------------------------------------------------------
# Hom-set enumeration (finite candidate sets only)


def annihilator_elements(group: FgAbGroup, d: int) -> list[Vector]:
    """All x with d*x = 0; requires d > 0 or a finite group."""
    if d == 0:
        return [tuple(x) for x in enumerate_elements(group)]
    per_coord = []
    for o in group.orders:
        if o == 0:
            per_coord.append([0])
        else:
            g = gcd(d, o)
            step = o // g
            per_coord.append([k * step for k in range(g)])
    return [tuple(c) for c in itertools.product(*per_coord)]


def enumerate_homs(domain: FgAbGroup, codomain: FgAbGroup):
    """Yield every homomorphism; needs finite candidate sets per generator."""
    candidate_sets = [annihilator_elements(codomain, d) for d in domain.orders]
    for combo in itertools.product(*candidate_sets):
        yield map_from_columns(domain, codomain, combo)
