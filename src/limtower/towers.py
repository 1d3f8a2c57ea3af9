"""Inverse sequences of finitely generated abelian groups.

A tower S is the data of groups S_0, S_1, ... with structure maps
f_i : S_{i+1} -> S_i.  Everything here works on the representable class:
a finite explicit prefix followed by a constant tail, either a fixed group
with a fixed endomorphism or the zero tail.  On this class the transfinite
image filtration, its length, Mittag-Leffler detection, lim and the
lim1 vanishing status, omega-completion, locality, and the epimorphic/local
decomposition are all computed exactly; anything outside the decidable
cases is reported as Unknown or a partial stage, never silently guessed.
`stabilize` runs one pass and returns a `Filtration`; each question above,
`decompose()` included, reads it, and the decomposition carries L's own pass.

The key finite-to-transfinite step: on a constant tail, one levelwise
equality I^N = I^{N+1} of image stages is a certificate that the chain is
constant at every later stage, because the next stage is always the image
of the previous one under the same maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import gcd

from .groups import (
    DirectSum,
    FgAbGroup,
    GroupMap,
    Subgroup,
    TRIVIAL_GROUP,
    direct_sum,
    enumerate_homs,
    identity_map,
    image,
    image_of_subgroup,
    kernel,
    lattice_solve,
    map_from_columns,
    mat_add,
    mat_vec,
    multiplication_map,
    multiplier_of,
    abs_det,
    quotient_by_subgroup,
    row_hermite_basis,
    unit_vector,
    zero_map,
)
from .ordinals import OMEGA, OrdinalCNF, ord_add, ord_from_int

DEFAULT_HORIZON = 64


# ---------------------------------------------------------------------------
# Towers


@dataclass(frozen=True)
class ConstantEndo:
    """Tail levels all equal `group`, all structure maps equal `endo`."""

    group: FgAbGroup
    endo: GroupMap

    def __post_init__(self) -> None:
        if self.endo.domain != self.group or self.endo.codomain != self.group:
            raise ValueError("tail map must be an endomorphism of the tail group")


@dataclass(frozen=True)
class ZeroTail:
    """All tail levels are the trivial group."""


TailSpec = ConstantEndo | ZeroTail


@dataclass(frozen=True)
class Tower:
    """Finite prefix + constant tail; levels and maps are total.

    prefix_maps[i] is f_i : prefix_groups[i+1] -> prefix_groups[i].  With a
    constant_endo tail and a nonempty prefix, the last prefix group must
    equal the tail group: the first tail map is the endomorphism, and it
    has to land in S_{W-1}.
    """

    prefix_groups: tuple[FgAbGroup, ...] = ()
    prefix_maps: tuple[GroupMap, ...] = ()
    tail: TailSpec = ZeroTail()

    def __post_init__(self) -> None:
        w = len(self.prefix_groups)
        if len(self.prefix_maps) != max(0, w - 1):
            raise ValueError("need exactly one map per adjacent prefix pair")
        groups = self.prefix_groups
        for i, h in enumerate(self.prefix_maps):
            # a parsed tower shares one object per distinct group, so `is` mostly decides
            if (h.domain is not groups[i + 1] and h.domain != groups[i + 1]) or (
                h.codomain is not groups[i] and h.codomain != groups[i]
            ):
                raise ValueError(f"prefix map {i} does not chain")
        if isinstance(self.tail, ConstantEndo) and w and self.prefix_groups[-1] != self.tail.group:
            raise ValueError("last prefix group must equal the constant tail group")

    @property
    def stable_index(self) -> int:
        """First level from which groups and maps are constant."""
        w = len(self.prefix_groups)
        if isinstance(self.tail, ConstantEndo):
            return max(0, w - 1)
        return w

    def group(self, i: int) -> FgAbGroup:
        if i < len(self.prefix_groups):
            return self.prefix_groups[i]
        if isinstance(self.tail, ConstantEndo):
            return self.tail.group
        return TRIVIAL_GROUP

    def step_map(self, i: int) -> GroupMap:
        """f_i : S_{i+1} -> S_i."""
        if i + 1 < len(self.prefix_groups):
            return self.prefix_maps[i]
        if isinstance(self.tail, ConstantEndo):
            return self.tail.endo
        return zero_map(TRIVIAL_GROUP, self.group(i))

    def window_map(self, i: int, n: int) -> GroupMap:
        """The composite S_{i+n} -> S_i."""
        out = identity_map(self.group(i))
        for k in range(n):
            out = out.compose(self.step_map(i + k))
        return out

    def __str__(self) -> str:
        head = " <- ".join(str(g) for g in self.prefix_groups[:4])
        if len(self.prefix_groups) > 4:
            head += " <- ..."
        if isinstance(self.tail, ConstantEndo):
            tail = f"constant {self.tail.group}"
            m = multiplier_of(self.tail.endo)
            if m is not None:
                tail += f" with multiplication by {m}"
        else:
            tail = "zero tail"
        return f"tower [{head or '(no prefix)'} ; {tail}]"


def constant_tower(group: FgAbGroup) -> Tower:
    return Tower((), (), ConstantEndo(group, identity_map(group)))


def multiplication_tower(group: FgAbGroup, m: int) -> Tower:
    """Levels all `group`, maps all multiplication by m."""
    return Tower((), (), ConstantEndo(group, multiplication_map(group, m)))


def null_tower(groups) -> Tower:
    """Finitely supported tower with all structure maps zero."""
    groups = tuple(groups)
    maps = tuple(zero_map(groups[i + 1], groups[i]) for i in range(len(groups) - 1))
    return Tower(groups, maps, ZeroTail())


def zero_tower() -> Tower:
    return Tower((), (), ZeroTail())


def is_null_tower(t: Tower) -> bool:
    return all(t.step_map(i).is_zero() for i in range(t.stable_index + 1))


def is_epimorphic_tower(t: Tower) -> bool:
    return all(t.step_map(i).is_surjective() for i in range(t.stable_index + 1))


# ---------------------------------------------------------------------------
# Morphisms


@dataclass(frozen=True)
class TowerMorphism:
    """Levelwise maps, constant past the covered window.

    level_maps cover levels 0..K-1 and tail_map every level >= K; K must
    reach past both towers' constant thresholds so a single tail map is
    meaningful.  Naturality is checked on every covered square plus the
    constant-region square, which repeats verbatim at all later levels.
    """

    source: Tower
    target: Tower
    level_maps: tuple[GroupMap, ...]
    tail_map: GroupMap

    def __post_init__(self) -> None:
        k = len(self.level_maps)
        if k < max(self.source.stable_index, self.target.stable_index):
            raise ValueError("morphism window must cover both constant thresholds")
        for i in range(k + 1):
            h = self.level_map(i)
            if h.domain != self.source.group(i) or h.codomain != self.target.group(i):
                raise ValueError(f"level map {i} is ill-typed")
        for i in range(k + 1):
            left = self.level_map(i).compose(self.source.step_map(i))
            right = self.target.step_map(i).compose(self.level_map(i + 1))
            if left.matrix != right.matrix:
                raise ValueError(f"naturality square fails at level {i}")

    def level_map(self, i: int) -> GroupMap:
        if i < len(self.level_maps):
            return self.level_maps[i]
        return self.tail_map


def shift(s: Tower) -> tuple[Tower, TowerMorphism]:
    """Drop level 0; returns the shifted tower and the morphism back into S.

    The comparison morphism is f itself, levelwise; its kernel and
    cokernel towers have all structure maps zero.
    """
    shifted = Tower(s.prefix_groups[1:], s.prefix_maps[1:], s.tail)
    c = max(s.stable_index, shifted.stable_index)
    maps = tuple(s.step_map(i) for i in range(c))
    morphism = TowerMorphism(shifted, s, maps, s.step_map(c))
    return shifted, morphism


# ---------------------------------------------------------------------------
# Image filtration stages


@dataclass(frozen=True)
class FiltrationStage:
    """Per-level subgroups I^stage(S)_i for levels 0..stable_index.

    Levels past stable_index repeat the last entry.  `exact` marks a stage
    known exactly; otherwise `computed_to` is the deepest finite stage the
    horizon allowed.
    """

    stage: OrdinalCNF
    subs: tuple[Subgroup, ...]
    exact: bool
    computed_to: OrdinalCNF

    def sub_at(self, i: int) -> Subgroup:
        return self.subs[min(i, len(self.subs) - 1)]

    def is_trivial(self) -> bool:
        return all(s.is_trivial() for s in self.subs)


def _full_stage(s: Tower) -> tuple[Subgroup, ...]:
    groups = [s.group(i) for i in range(s.stable_index + 1)]
    # one full subgroup per distinct group object: a long prefix repeats its groups
    full: dict[int, Subgroup] = {}
    for g in groups:
        if id(g) not in full:
            full[id(g)] = Subgroup.full(g)
    return tuple(full[id(g)] for g in groups)


def iterate_image(s: Tower, n: int) -> FiltrationStage:
    """I^n(S): at level i, the image of the n-fold composite S_{i+n} -> S_i."""
    if n < 0:
        raise ValueError("negative stage")
    # the chain ends at its first repeat, which holds at every later stage
    *_, subs = islice(_image_stages(s, _full_stage(s)), n + 1)
    return FiltrationStage(ord_from_int(n), subs, True, ord_from_int(n))


# ---------------------------------------------------------------------------
# Sub/quotient towers from per-level subgroups


def _induced(dom_sub: Subgroup, cod_sub: Subgroup, h: GroupMap) -> GroupMap:
    """h restricted to dom_sub -> cod_sub, in the canonical forms of both."""
    dom = dom_sub.as_group()
    inc = dom_sub.include()
    n = dom.ngens
    cols = [cod_sub.coords(h.apply(inc.apply(unit_vector(n, j)))) for j in range(n)]
    return map_from_columns(dom, cod_sub.as_group(), cols)


def _check_closed(s: Tower, subs: tuple[Subgroup, ...]) -> int:
    """Check f_i(subs[i+1]) <= subs[i] at every level; returns the stable index."""
    c = s.stable_index
    if len(subs) != c + 1:
        raise ValueError("need one subgroup per level up to the stable index")
    for i in range(c + 1):
        upper = subs[min(i + 1, c)]
        if not subs[i].contains_subgroup(image_of_subgroup(s.step_map(i), upper)):
            raise ValueError(f"subgroups are not closed under the structure map at level {i}")
    return c


def subtower(s: Tower, subs: tuple[Subgroup, ...]) -> tuple[Tower, TowerMorphism]:
    """The tower of the given subgroups with restricted maps.

    Requires f_i(subs[i+1]) <= subs[i]; subs cover levels 0..stable_index.
    """
    c = _check_closed(s, subs)
    level_groups = tuple(level.as_group() for level in subs)
    maps = [_induced(subs[min(i + 1, c)], subs[i], s.step_map(i)) for i in range(c + 1)]
    endo = maps.pop()
    sub = Tower(level_groups, tuple(maps), ConstantEndo(level_groups[c], endo))
    includes = tuple(level.include() for level in subs)
    morphism = TowerMorphism(sub, s, includes, includes[c])
    return sub, morphism


def quotient_tower(s: Tower, subs: tuple[Subgroup, ...]) -> tuple[Tower, TowerMorphism]:
    """S divided levelwise by a map-closed family of subgroups."""
    c = _check_closed(s, subs)
    quots = [quotient_by_subgroup(s.group(i), subs[i]) for i in range(c + 1)]
    maps = []
    for i in range(c + 1):
        upper = quots[min(i + 1, c)]
        n = upper.group.ngens
        cols = [
            quots[i].projection.apply(s.step_map(i).apply(upper.section(unit_vector(n, j))))
            for j in range(n)
        ]
        maps.append(map_from_columns(upper.group, quots[i].group, cols))
    endo = maps.pop()
    quot = Tower(
        tuple(q.group for q in quots),
        tuple(maps),
        ConstantEndo(quots[c].group, endo),
    )
    morphism = TowerMorphism(s, quot, tuple(q.projection for q in quots), quots[c].projection)
    return quot, morphism


def image_tower(s: Tower) -> tuple[Tower, TowerMorphism, Tower]:
    """(I(S), inclusion, S/I(S)); the quotient is a null tower."""
    stage1 = iterate_image(s, 1).subs
    img, include = subtower(s, stage1)
    quot, _ = quotient_tower(s, stage1)
    if not is_null_tower(quot):
        raise RuntimeError("S/I(S) must be a null tower")
    return img, include, quot


# ---------------------------------------------------------------------------
# Stabilization analysis


@dataclass(frozen=True)
class MLStatus:
    """Mittag-Leffler verdict: stabilized | never | unknown."""

    kind: str
    stage: int | None = None
    witness: str | None = None
    horizon: int | None = None

    def __str__(self) -> str:
        if self.kind == "stabilized":
            return f"Stabilized({self.stage})"
        if self.kind == "never":
            return f"NeverStabilizes({self.witness})"
        return f"Unknown(horizon={self.horizon})"


@dataclass(frozen=True)
class LengthValue:
    """Exact filtration length, or a lower bound when undecided."""

    kind: str  # "exact" | "unknown_beyond"
    value: OrdinalCNF

    def __str__(self) -> str:
        if self.kind == "exact":
            return str(self.value)
        return f"UnknownBeyond({self.value})"


@dataclass(frozen=True)
class Lim1Status:
    kind: str  # "zero" | "nonzero" | "unknown"
    reason: str | None = None

    def __str__(self) -> str:
        if self.kind == "zero":
            return "Zero"
        if self.kind == "nonzero":
            return f"NonZero({self.reason})"
        return f"Unknown({self.reason})"


def _tail_never_witness(tail: TailSpec, m: int | None) -> str | None:
    """A certificate that the tail's image chain strictly decreases forever.

    Let e-bar be the induced endomorphism of the free quotient and V the
    eventual rational image of e-bar.  Each application of e multiplies the
    covolume of the image lattice inside V by |det(e-bar on V)|; a
    descending chain of same-rank lattices with constant covolume must be
    constant, so |det| = 1 forces stabilization and |det| >= 2 forbids it.

    `m` is the tail's multiplier (`multiplier_of` of its map), or None.
    The ranks of e-bar^j Z^r fall strictly until they stop, after at most r
    steps; at that j, span(e-bar^j Z^r) = V and e-bar^j Z^r is e-bar-invariant,
    so e-bar has integer coordinates on its Hermite basis B, with determinant
    det(e-bar on V).  A nonsingular e-bar stops at once, with B = Z^r: the
    images are the columns of e-bar, and each is its own coordinate row.
    """
    if not isinstance(tail, ConstantEndo):
        return None
    t = tail.group
    r = t.free_rank
    if r == 0:
        return None
    if m is not None:
        if abs(m) >= 2:
            return f"free summand Z^{r} with multiplication by {m}"
        return None
    k = len(t.invariant_factors)
    ebar = [row[k:] for row in tail.endo.matrix[k:]]
    basis = [unit_vector(r, i) for i in range(r)]
    images = list(zip(*ebar))  # e-bar e_i is column i of e-bar
    while True:
        nxt = row_hermite_basis(images, r)
        if not nxt:
            return None  # nilpotent free action: chain bottoms out
        if len(nxt) == len(basis):
            break
        basis = nxt
        images = [mat_vec(ebar, b) for b in basis]
    c_rows = [lattice_solve(basis, w) for w in images]
    if None in c_rows:
        raise RuntimeError("tail map does not preserve its eventual image lattice")
    d = abs_det(c_rows)
    if d == 0:
        raise RuntimeError("tail map is singular on its eventual rational image")
    if d >= 2:
        return f"image lattice covolume grows by {d} per step on the eventual free part"
    return None


def _prime_to_m_part(sub: Subgroup, m: int) -> Subgroup:
    """The subgroup of `sub` on which multiplication by m is invertible.

    That is the torsion part of order coprime to m; the free part and the
    m-primary torsion intersect away under the powers of m.
    """
    m = abs(m)
    c = sub.as_group()
    inc = sub.include()
    gens = []
    for j, d in enumerate(c.invariant_factors):
        w = d
        while (g := gcd(w, m)) > 1:
            w //= g
        u = d // w  # m-primary cofactor; u * generator spans the coprime part
        gens.append(inc.apply(unit_vector(c.ngens, j, u)))
    return Subgroup(sub.ambient, gens)


def _omega_stage_multiplication(s: Tower, m: int) -> tuple[Subgroup, ...]:
    """Levelwise intersection of the finite stages for a multiplication tail.

    At level i the chain is eventually m^k * G_i with G_i the image of the
    window map from the stable level, and the intersection of that chain is
    the prime-to-m torsion of G_i.
    """
    c = s.stable_index
    out = []
    for i in range(c + 1):
        window_image = image(s.window_map(i, c - i))
        out.append(_prime_to_m_part(window_image, m))
    return tuple(out)


def _image_stages(s: Tower, subs: tuple[Subgroup, ...]):
    """subs and its successive image steps, ending before the first repeat.

    Requires every level of `subs` to contain the same level of the next
    stage, as the full stage and the omega stage do; then every stage
    contains the next, so a trivial level stays trivial and is not stepped.
    Level i of the next stage is the image of level min(i+1, c) under f_i,
    so only the levels that read a level that moved are recomputed.  A
    recomputed level equal to the old one keeps the old object, so `is`
    tells which levels moved.
    """
    c = s.stable_index
    maps = [s.step_map(i) for i in range(c + 1)]
    todo = range(c + 1)
    while True:
        yield subs
        nxt = list(subs)
        moved = []
        for i in todo:
            if subs[i].is_trivial():
                continue
            img = image_of_subgroup(maps[i], subs[min(i + 1, c)])
            if img.basis != subs[i].basis:  # both lie in s.group(i)
                nxt[i] = img
                moved.append(i)
        if not moved:
            return
        subs = tuple(nxt)
        # level i reads level i + 1, and the stable level c also reads itself
        todo = [u - 1 for u in moved if u] + ([c] if moved[-1] == c else [])


@dataclass(frozen=True)
class Decomposition:
    """S as an extension of a limitless tower by an epimorphic one; `limitless.tower` is L."""

    epimorphic_part: Tower
    limitless: Filtration
    include: TowerMorphism
    project: TowerMorphism


@dataclass(frozen=True)
class Filtration:
    """The image filtration of one tower, as far as one pass decides it."""

    tower: Tower
    horizon: int
    status: MLStatus
    length: LengthValue
    stable_subs: tuple[Subgroup, ...] | None  # stage len(S); None when undecided
    finite_chain: tuple[tuple[Subgroup, ...], ...] | None  # stages 0..deepest; None when witnessed
    omega_chain: tuple[tuple[Subgroup, ...], ...] | None  # stages w, w+1, ... for mult tails

    def __post_init__(self) -> None:
        if self.status.kind == "stabilized" and self.stable_subs is None:
            raise RuntimeError("a stabilized chain must carry its stable stage")

    def stage(self, beta: OrdinalCNF) -> FiltrationStage:
        """I^beta(S); exact whenever the stage is decidable, else partial.

        Finite stages are always exact.  At and past omega: exact when the
        finite chain certified stabilization (the stage equals the stable one)
        or when the tail is multiplication by m (closed form: the intersection
        is the prime-to-m torsion of the window images, and finitely many more
        image steps reach the stable stage).
        """
        n = beta.to_int() if beta.is_finite() else None
        if n is None:
            if self.status.kind == "stabilized":
                return FiltrationStage(beta, self.stable_subs, True, beta)
            if self.omega_chain is not None:
                for j, subs in enumerate(self.omega_chain):
                    if beta == ord_add(OMEGA, ord_from_int(j)):
                        return FiltrationStage(beta, subs, True, beta)
                # beta is past every distinct stage, hence past the length
                return FiltrationStage(beta, self.omega_chain[-1], True, beta)
        chain = self.finite_chain
        if chain is None:
            # witnessed: the verdict needed no finite stage, and the chain never
            # repeats, so build exactly the stages up to min(beta, horizon)
            if n is not None and n <= self.horizon:
                return iterate_image(self.tower, n)
            deepest = iterate_image(self.tower, self.horizon)
            return FiltrationStage(beta, deepest.subs, False, deepest.stage)
        if n is not None:
            if n < len(chain):
                return FiltrationStage(beta, chain[n], True, beta)
            if self.status.kind == "stabilized":
                return FiltrationStage(beta, self.stable_subs, True, beta)
        return FiltrationStage(beta, chain[-1], False, ord_from_int(len(chain) - 1))

    def lim_lim1(self) -> tuple[FgAbGroup | None, Lim1Status]:
        """The limit group and the derived-limit vanishing status.

        lim S is the stable image at the tail level: the structure maps are
        surjective on the stable stage, and a surjective endomorphism of a
        finitely generated group is an isomorphism, so threads are exactly the
        stable-image elements.  Injectivity is still checked explicitly.

        lim1 is Zero iff the chain stabilizes and NonZero iff it certifiably
        never does: with countable levels, stabilization is equivalent to the
        vanishing of the derived limit.
        """
        if self.status.kind == "unknown":
            return None, Lim1Status("unknown", f"no stabilization within horizon {self.horizon}")
        lim1 = (
            Lim1Status("zero")
            if self.status.kind == "stabilized"
            else Lim1Status("nonzero", self.status.witness)
        )
        if self.stable_subs is None:
            return None, lim1
        c = self.tower.stable_index
        stable_tail = self.stable_subs[c]
        endo = _induced(stable_tail, stable_tail, self.tower.step_map(c))
        if not image(endo).is_full():
            raise RuntimeError("stable image is not epimorphic; stabilization logic is broken")
        if not kernel(endo).is_trivial():
            raise RuntimeError("surjective endomorphism with kernel on a f.g. group")
        return stable_tail.as_group(), lim1

    def is_local(self) -> bool | None:
        """True iff some finite image stage vanishes: lim = lim1 = 0.

        With countable levels, local is equivalent to: the chain stabilizes
        (lim1 = 0) and the stable image is trivial (lim = 0), which together
        force I^N = 0 at a finite stage.
        """
        if self.status.kind == "stabilized":
            return all(sub.is_trivial() for sub in self.stable_subs)
        if self.status.kind == "never":
            return False
        return None

    def omega_completion(self) -> tuple[bool | None, int | None]:
        """Is S -> lim_n S/I^n(S) surjective?  (completeness at the first limit stage)

        Stabilized chains make the quotient system eventually constant, so the
        completion is S/I^N and the map is the canonical surjection: complete.
        A multiplication tail with free rank r > 0 and |m| >= 2 acquires m-adic
        limits no level hits: incomplete, witnessed by r.  Anything else is
        outside the decision class.
        """
        if self.status.kind == "stabilized":
            return True, None
        if self.omega_chain is not None:  # a witnessed multiplication tail
            return False, self.tower.tail.group.free_rank
        return None, None

    def decompose(self) -> Decomposition:
        """Split S as E >-> S ->> L with E epimorphic and lim L = 0.

        E_i is the image of lim S -> S_i, which equals the stable image stage.
        Both verifications stated by the decomposition theorem are executed:
        E's maps are surjective, and L's own stable image vanishes.  L is
        stabilized once, at this pass's horizon, and returned as `limitless`.
        """
        if self.stable_subs is None:
            raise ValueError("decomposition needs a decidable tower (stabilized or multiplication tail)")
        epi, include = subtower(self.tower, self.stable_subs)
        loc, project = quotient_tower(self.tower, self.stable_subs)
        if not is_epimorphic_tower(epi):
            raise RuntimeError("stable image tower must be epimorphic")
        limitless = stabilize(loc, self.horizon)
        lim_l, _ = limitless.lim_lim1()
        if lim_l is None or not lim_l.is_trivial():
            raise RuntimeError("quotient by the stable image must have trivial limit")
        return Decomposition(epi, limitless, include, project)


def stabilize(s: Tower, horizon: int = DEFAULT_HORIZON) -> Filtration:
    """Decide the image chain once; every tower question reads the result.

    A never-stabilizes witness settles the verdict without any finite
    stage: a multiplication tail goes straight to its omega stage, and any
    other witnessed tail has length at least omega, past every horizon.

    >>> from limtower.groups import fg_group
    >>> f = stabilize(multiplication_tower(fg_group(6), 2))
    >>> str(f.status), str(f.length)
    ('Stabilized(1)', '1')
    >>> lim, lim1 = f.lim_lim1()
    >>> str(lim), str(lim1)
    ('Z/3', 'Zero')
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    m = multiplier_of(s.tail.endo) if isinstance(s.tail, ConstantEndo) else None
    witness = _tail_never_witness(s.tail, m)
    if witness is None:
        chain = tuple(islice(_image_stages(s, _full_stage(s)), horizon + 2))
        if len(chain) <= horizon + 1:  # stage n repeated for some n <= horizon
            n = len(chain) - 1
            length = LengthValue("exact", ord_from_int(n))
            return Filtration(s, horizon, MLStatus("stabilized", stage=n), length, chain[-1], chain, None)
        status = MLStatus("unknown", horizon=horizon)
        length = LengthValue("unknown_beyond", ord_from_int(horizon))
        return Filtration(s, horizon, status, length, None, chain, None)
    status = MLStatus("never", witness=witness)
    if m is None:
        return Filtration(s, horizon, status, LengthValue("unknown_beyond", OMEGA), None, None, None)
    # all levels of the omega stage are finite, so the chain terminates
    omega_chain = tuple(_image_stages(s, _omega_stage_multiplication(s, m)))
    length = LengthValue("exact", ord_add(OMEGA, ord_from_int(len(omega_chain) - 1)))
    return Filtration(s, horizon, status, length, omega_chain[-1], None, omega_chain)


# ---------------------------------------------------------------------------
# Null extensions, products


def _block_map(src: DirectSum, dst: DirectSum, blocks) -> GroupMap:
    """The map src -> dst whose block from summand j to summand k is f, for each (k, j, f)."""
    mat = zero_map(src.group, dst.group).matrix
    for k, j, f in blocks:
        part = dst.injections[k].compose(f).compose(src.projections[j])
        mat = mat_add(mat, part.matrix)
    return GroupMap(src.group, dst.group, mat)


def null_extension(
    s: Tower,
    n_tower: Tower,
    psi_levels,
    psi_tail: GroupMap,
) -> Tower:
    """Twisted level-split extension: S'_i = N_i + S_i, (n, x) -> (psi_i(x), f_i(x)).

    psi_levels[i] : S_{i+1} -> N_i for the covered window; psi_tail serves
    every later level.  N must have all structure maps zero.
    """
    if not is_null_tower(n_tower):
        raise ValueError("extension base must be a null tower")
    psi_levels = tuple(psi_levels)
    k = max(s.stable_index, n_tower.stable_index, len(psi_levels))

    def psi(i: int) -> GroupMap:
        h = psi_levels[i] if i < len(psi_levels) else psi_tail
        if h.domain != s.group(i + 1) or h.codomain != n_tower.group(i):
            raise ValueError(f"psi at level {i} is ill-typed")
        return h

    sums = [direct_sum([n_tower.group(i), s.group(i)]) for i in range(k + 1)]

    def twisted(i: int, upper_idx: int) -> GroupMap:
        return _block_map(sums[upper_idx], sums[i], [(0, 1, psi(i)), (1, 1, s.step_map(i))])

    maps = tuple(twisted(i, i + 1) for i in range(k))
    endo = twisted(k, k)
    groups = tuple(ds.group for ds in sums)
    return Tower(groups, maps, ConstantEndo(groups[k], endo))


def limit_of_towers(family) -> Tower:
    """Levelwise finite product (= direct sum) with the product maps."""
    family = list(family)
    if not family:
        return zero_tower()
    c = max(t.stable_index for t in family)
    sums = [direct_sum([t.group(i) for t in family]) for i in range(c + 1)]

    def product_map(i: int, upper_idx: int) -> GroupMap:
        return _block_map(sums[upper_idx], sums[i], [(k, k, t.step_map(i)) for k, t in enumerate(family)])

    maps = tuple(product_map(i, i + 1) for i in range(c))
    endo = product_map(c, c)
    groups = tuple(ds.group for ds in sums)
    return Tower(groups, maps, ConstantEndo(groups[c], endo))


# ---------------------------------------------------------------------------
# Truncated constant towers and the adjunction


def truncated_constant_tower(group: FgAbGroup, n: int) -> Tower:
    """`group` at levels 0..n with identity maps, zero above."""
    if n < 0:
        raise ValueError("negative truncation level")
    groups = (group,) * (n + 1)
    maps = (identity_map(group),) * n
    return Tower(groups, maps, ZeroTail())


def _truncated_morphism_tuples(a: FgAbGroup, n: int, s: Tower, cap: int = 2_000_000):
    """All tower morphisms from the n-truncated constant tower on A into S,
    as tuples of level maps (phi_0, ..., phi_n).

    Honest enumeration: candidates are filtered by the naturality squares,
    not reconstructed from the deepest level.  The filter prunes hard, so
    the cap counts visited candidates rather than the raw product size.
    """
    hom_sets = [list(enumerate_homs(a, s.group(i))) for i in range(n + 1)]
    out = []
    visited = 0

    def extend(partial):
        nonlocal visited
        i = len(partial)
        if i == n + 1:
            out.append(tuple(partial))
            return
        for phi in hom_sets[i]:
            visited += 1
            if visited > cap:
                raise ValueError("hom-set enumeration exceeds cap")
            # source maps are identities below the truncation, so naturality
            # says exactly phi_{i-1} = f_{i-1} . phi_i
            if partial:
                want = s.step_map(i - 1).compose(phi)
                if want.matrix != partial[-1].matrix:
                    continue
            partial.append(phi)
            extend(partial)
            partial.pop()

    extend([])
    return out


def truncation_adjunction_check(a: FgAbGroup, n: int, s: Tower) -> bool:
    """Morphisms from the truncated constant tower on A correspond to maps A -> S_n.

    Enumerates both sides in full, verifies that phi -> phi_n is a
    bijection, and checks the compatibility square: restricting a morphism
    defined up to level n+1 corresponds to postcomposition with f_n.
    """
    if not a.is_finite():
        raise ValueError("the source group must be finite for exhaustive enumeration")
    tower_homs = _truncated_morphism_tuples(a, n, s)
    group_homs = list(enumerate_homs(a, s.group(n)))
    seen = {}
    for phis in tower_homs:
        key = phis[n].matrix
        if key in seen:
            return False  # phi -> phi_n failed injectivity
        seen[key] = phis
    if len(seen) != len(group_homs):
        return False
    if set(seen) != {h.matrix for h in group_homs}:
        return False  # not surjective onto Hom(A, S_n)
    for psis in _truncated_morphism_tuples(a, n + 1, s):
        restricted_level_n = psis[n]
        pushed = s.step_map(n).compose(psis[n + 1])
        if restricted_level_n.matrix != pushed.matrix:
            return False
    return True


# ---------------------------------------------------------------------------
# Window difference operator


def window_shift_map(s: Tower, w: int) -> GroupMap:
    """F on S_0 + ... + S_{W-1}: component j becomes f_j(x_{j+1}), last drops."""
    if w < 1:
        raise ValueError("window must have at least one level")
    ds = direct_sum([s.group(i) for i in range(w)])
    return _block_map(ds, ds, [(j, j + 1, s.step_map(j)) for j in range(w - 1)])


def window_difference_map(s: Tower, w: int) -> GroupMap:
    """identity - F on the product of the first W levels.

    Strictly unitriangular below the identity, hence always invertible:
    the inverse is the geometric sum of the nilpotent shift operator.
    """
    for i in range(w):
        if not s.group(i).is_finite():
            raise ValueError("window difference map needs finite levels")
    f_op = window_shift_map(s, w)
    mat = mat_add(identity_map(f_op.domain).matrix, f_op.matrix, -1)
    return GroupMap(f_op.domain, f_op.codomain, mat)


# ---------------------------------------------------------------------------
# Aggregate report


@dataclass(frozen=True)
class AnalysisReport:
    ml_status: MLStatus
    length: LengthValue
    lim: FgAbGroup | None
    lim1_status: Lim1Status
    local: bool | None
    omega_complete: bool | None
    omega_witness: int | None
    horizon: int

    def shift_invariant_view(self):
        """The fields a shift cannot change (stage numbers legitimately move)."""
        return (
            self.ml_status.kind,
            self.lim,
            self.lim1_status.kind,
            self.local,
            self.omega_complete,
        )


def analyze(s: Tower, horizon: int = DEFAULT_HORIZON) -> AnalysisReport:
    """Run the whole battery once, sharing one stabilization pass."""
    f = stabilize(s, horizon)
    lim, lim1 = f.lim_lim1()
    complete, witness = f.omega_completion()
    report = AnalysisReport(
        ml_status=f.status,
        length=f.length,
        lim=lim,
        lim1_status=lim1,
        local=f.is_local(),
        omega_complete=complete,
        omega_witness=witness,
        horizon=horizon,
    )
    if report.ml_status.kind == "stabilized" and report.lim1_status.kind != "zero":
        raise RuntimeError("stabilized chain must have vanishing derived limit")
    if report.local is True:
        if report.lim is None or not report.lim.is_trivial() or report.lim1_status.kind != "zero":
            raise RuntimeError("local tower must have lim = lim1 = 0")
    return report
