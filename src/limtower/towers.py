"""Inverse sequences of finitely generated abelian groups.

A tower S is the data of groups S_0, S_1, ... with structure maps
f_i : S_{i+1} -> S_i.  Everything here works on the representable class:
a finite explicit prefix followed by a constant tail, either a fixed group
with a fixed endomorphism or the zero tail.  On this class the transfinite
image filtration, its length, Mittag-Leffler detection, lim and the
lim1 vanishing status, omega-completion, locality, and the epimorphic/local
decomposition are all computed exactly; anything outside the decidable
cases is reported as Unknown or a partial stage, never silently guessed.

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
    mat_mul,
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
        for i, h in enumerate(self.prefix_maps):
            if h.domain != self.prefix_groups[i + 1] or h.codomain != self.prefix_groups[i]:
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
    return tuple(Subgroup.full(s.group(i)) for i in range(s.stable_index + 1))


def _image_step(s: Tower, subs: tuple[Subgroup, ...]) -> tuple[Subgroup, ...]:
    c = s.stable_index
    out = []
    for i in range(c + 1):
        upper = subs[i + 1] if i + 1 <= c else subs[c]
        out.append(image_of_subgroup(s.step_map(i), upper))
    return tuple(out)


def iterate_image(s: Tower, n: int) -> FiltrationStage:
    """I^n(S): at level i, the image of the n-fold composite S_{i+n} -> S_i."""
    if n < 0:
        raise ValueError("negative stage")
    subs = _full_stage(s)
    for _ in range(n):
        nxt = _image_step(s, subs)
        if nxt == subs:
            break  # certified constant from here on
        subs = nxt
    return FiltrationStage(ord_from_int(n), subs, True, ord_from_int(n))


# ---------------------------------------------------------------------------
# Sub/quotient towers from per-level subgroups


def _induced_map(dom: FgAbGroup, cod: FgAbGroup, columns) -> GroupMap:
    mat = tuple(tuple(col[i] for col in columns) for i in range(cod.ngens))
    return GroupMap(dom, cod, mat)


def _induced(dom_sub: Subgroup, cod_sub: Subgroup, h: GroupMap) -> GroupMap:
    """h restricted to dom_sub -> cod_sub, in the canonical forms of both."""
    dom = dom_sub.as_group()
    inc = dom_sub.include()
    n = dom.ngens
    cols = [cod_sub.coords(h.apply(inc.apply(unit_vector(n, j)))) for j in range(n)]
    return _induced_map(dom, cod_sub.as_group(), cols)


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
        maps.append(_induced_map(upper.group, quots[i].group, cols))
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
    stage1 = _image_step(s, _full_stage(s))
    img, include = subtower(s, stage1)
    quot, _ = quotient_tower(s, stage1)
    assert is_null_tower(quot)
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


def _tail_never_witness(tail: TailSpec) -> str | None:
    """A certificate that the tail's image chain strictly decreases forever.

    Let e-bar be the induced endomorphism of the free quotient and V the
    eventual rational image of e-bar.  Each application of e multiplies the
    covolume of the image lattice inside V by |det(e-bar on V)|; a
    descending chain of same-rank lattices with constant covolume must be
    constant, so |det| = 1 forces stabilization and |det| >= 2 forbids it.
    """
    if not isinstance(tail, ConstantEndo):
        return None
    t = tail.group
    r = t.free_rank
    if r == 0:
        return None
    m = multiplier_of(tail.endo)
    if m is not None:
        if abs(m) >= 2:
            return f"free summand Z^{r} with multiplication by {m}"
        return None
    k = len(t.invariant_factors)
    ebar = [[tail.endo.matrix[k + i][k + j] for j in range(r)] for i in range(r)]
    power = ebar
    for _ in range(r - 1):
        power = mat_mul(power, ebar, r)
    cols = [[power[i][j] for i in range(r)] for j in range(r)]
    basis = row_hermite_basis(cols, r)
    if not basis:
        return None  # nilpotent free action: chain bottoms out
    c_rows = []
    for row in basis:
        w = [sum(ebar[i][j] * row[j] for j in range(r)) for i in range(r)]
        coeffs = lattice_solve(basis, w)
        if coeffs is None:
            raise RuntimeError("tail map does not preserve its eventual image lattice")
        c_rows.append(coeffs)
    d = abs_det(c_rows)
    if d == 0:
        raise RuntimeError("tail map is singular on its eventual rational image")
    if d >= 2:
        return f"image lattice covolume grows by {d} per step on the eventual free part"
    return None


def _tail_multiplier(s: Tower) -> int | None:
    if isinstance(s.tail, ConstantEndo):
        return multiplier_of(s.tail.endo)
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


@dataclass(frozen=True)
class _Stabilization:
    status: MLStatus
    length: LengthValue
    stable_subs: tuple[Subgroup, ...] | None  # stage len(S); None when undecided
    finite_chain: tuple[tuple[Subgroup, ...], ...] | None  # stages 0..deepest; None when witnessed
    omega_chain: tuple[tuple[Subgroup, ...], ...] | None  # stages w, w+1, ... for mult tails


def _image_stages(s: Tower, subs: tuple[Subgroup, ...]):
    """subs and its successive image steps, ending before the first repeat.

    Level i of the next stage is the image of level min(i+1, c) under f_i,
    so it is recomputed only when that level moved in the last step and
    reused otherwise.  A recomputed level equal to the old one is replaced
    by the old object, so `is` tells which levels moved.
    """
    c = s.stable_index
    moved = [True] * (c + 1)
    while True:
        yield subs
        nxt = []
        for i in range(c + 1):
            upper = min(i + 1, c)
            if moved[upper]:
                img = image_of_subgroup(s.step_map(i), subs[upper])
                nxt.append(subs[i] if img == subs[i] else img)
            else:
                nxt.append(subs[i])
        moved = [a is not b for a, b in zip(nxt, subs)]
        if not any(moved):
            return
        subs = tuple(nxt)


def _stabilize(s: Tower, horizon: int) -> _Stabilization:
    """Decide the image chain once; `analyze` shares the result.

    A never-stabilizes witness settles the verdict without any finite
    stage: a multiplication tail goes straight to its omega stage, and any
    other witnessed tail has length at least omega, past every horizon.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    witness = _tail_never_witness(s.tail)
    if witness is None:
        chain = tuple(islice(_image_stages(s, _full_stage(s)), horizon + 2))
        if len(chain) <= horizon + 1:  # stage n repeated for some n <= horizon
            n = len(chain) - 1
            return _Stabilization(
                MLStatus("stabilized", stage=n),
                LengthValue("exact", ord_from_int(n)),
                chain[-1],
                chain,
                None,
            )
        return _Stabilization(
            MLStatus("unknown", horizon=horizon),
            LengthValue("unknown_beyond", ord_from_int(horizon)),
            None,
            chain,
            None,
        )
    status = MLStatus("never", witness=witness)
    m = _tail_multiplier(s)
    if m is None:
        return _Stabilization(status, LengthValue("unknown_beyond", OMEGA), None, None, None)
    # all levels of the omega stage are finite, so the chain terminates
    omega_chain = tuple(_image_stages(s, _omega_stage_multiplication(s, m)))
    length = LengthValue("exact", ord_add(OMEGA, ord_from_int(len(omega_chain) - 1)))
    return _Stabilization(status, length, omega_chain[-1], None, omega_chain)


def ml_check(s: Tower, horizon: int = DEFAULT_HORIZON) -> MLStatus:
    """Does the levelwise image chain stabilize at a finite stage?"""
    return _stabilize(s, horizon).status


def length(s: Tower, horizon: int = DEFAULT_HORIZON) -> LengthValue:
    """Least stage from which the image filtration is constant."""
    return _stabilize(s, horizon).length


def transfinite_image(s: Tower, beta: OrdinalCNF, horizon: int = DEFAULT_HORIZON) -> FiltrationStage:
    """I^beta(S); exact whenever the stage is decidable, else partial.

    Finite stages are always exact.  At and past omega: exact when the
    finite chain certified stabilization (the stage equals the stable one)
    or when the tail is multiplication by m (closed form: the intersection
    is the prime-to-m torsion of the window images, and finitely many more
    image steps reach the stable stage).
    """
    st = _stabilize(s, horizon)
    chain = st.finite_chain
    if chain is None:  # witnessed: the verdict needed no finite stage
        chain = tuple(islice(_image_stages(s, _full_stage(s)), horizon + 1))
    if beta.is_finite():
        n = beta.to_int()
        if n < len(chain):
            return FiltrationStage(beta, chain[n], True, beta)
        if st.stable_subs is not None and st.status.kind == "stabilized":
            return FiltrationStage(beta, st.stable_subs, True, beta)
        deepest = ord_from_int(len(chain) - 1)
        return FiltrationStage(beta, chain[-1], False, deepest)
    if st.status.kind == "stabilized":
        assert st.stable_subs is not None
        return FiltrationStage(beta, st.stable_subs, True, beta)
    if st.omega_chain is not None:
        for j, subs in enumerate(st.omega_chain):
            if beta == ord_add(OMEGA, ord_from_int(j)):
                return FiltrationStage(beta, subs, True, beta)
        # beta is past every distinct stage, hence past the length
        return FiltrationStage(beta, st.omega_chain[-1], True, beta)
    deepest = ord_from_int(len(chain) - 1)
    return FiltrationStage(beta, chain[-1], False, deepest)


def lim_lim1(
    s: Tower, horizon: int = DEFAULT_HORIZON
) -> tuple[FgAbGroup | None, Lim1Status]:
    """The limit group and the derived-limit vanishing status.

    lim S is the stable image at the tail level: the structure maps are
    surjective on the stable stage, and a surjective endomorphism of a
    finitely generated group is an isomorphism, so threads are exactly the
    stable-image elements.  Injectivity is still checked explicitly.

    lim1 is Zero iff the chain stabilizes and NonZero iff it certifiably
    never does: with countable levels, stabilization is equivalent to the
    vanishing of the derived limit.
    """
    return _lim_lim1(s, _stabilize(s, horizon))


def _lim_lim1(s: Tower, st: _Stabilization) -> tuple[FgAbGroup | None, Lim1Status]:
    if st.status.kind == "unknown":
        return None, Lim1Status("unknown", f"no stabilization within horizon {st.status.horizon}")
    lim1 = (
        Lim1Status("zero")
        if st.status.kind == "stabilized"
        else Lim1Status("nonzero", st.status.witness)
    )
    if st.stable_subs is None:
        return None, lim1
    c = s.stable_index
    stable_tail = st.stable_subs[c]
    endo = _induced(stable_tail, stable_tail, s.step_map(c))
    if not image(endo).is_full():
        raise RuntimeError("stable image is not epimorphic; stabilization logic is broken")
    if not kernel(endo).is_trivial():
        raise RuntimeError("surjective endomorphism with kernel on a f.g. group")
    return stable_tail.as_group(), lim1


@dataclass(frozen=True)
class Decomposition:
    """S as an extension of a limitless tower by an epimorphic one."""

    epimorphic_part: Tower
    limitless_part: Tower
    include: TowerMorphism
    project: TowerMorphism


def decompose(s: Tower, horizon: int = DEFAULT_HORIZON) -> Decomposition:
    """Split S as E >-> S ->> L with E epimorphic and lim L = 0.

    E_i is the image of lim S -> S_i, which equals the stable image stage.
    Both verifications stated by the decomposition theorem are executed:
    E's maps are surjective, and L's own stable image vanishes.
    """
    st = _stabilize(s, horizon)
    if st.stable_subs is None:
        raise ValueError("decomposition needs a decidable tower (stabilized or multiplication tail)")
    epi, include = subtower(s, st.stable_subs)
    loc, project = quotient_tower(s, st.stable_subs)
    if not is_epimorphic_tower(epi):
        raise RuntimeError("stable image tower must be epimorphic")
    lim_l, _ = lim_lim1(loc, horizon)
    if lim_l is None or not lim_l.is_trivial():
        raise RuntimeError("quotient by the stable image must have trivial limit")
    return Decomposition(epi, loc, include, project)


def is_local(s: Tower, horizon: int = DEFAULT_HORIZON) -> bool | None:
    """True iff some finite image stage vanishes: lim = lim1 = 0.

    With countable levels, local is equivalent to: the chain stabilizes
    (lim1 = 0) and the stable image is trivial (lim = 0), which together
    force I^N = 0 at a finite stage.
    """
    return _is_local(_stabilize(s, horizon))


def _is_local(st: _Stabilization) -> bool | None:
    if st.status.kind == "stabilized":
        assert st.stable_subs is not None
        return all(sub.is_trivial() for sub in st.stable_subs)
    if st.status.kind == "never":
        return False
    return None


# ---------------------------------------------------------------------------
# Null extensions, products


def _add_maps(f: GroupMap, g: GroupMap) -> GroupMap:
    if f.domain != g.domain or f.codomain != g.codomain:
        raise ValueError("map sum type mismatch")
    mat = tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(f.matrix, g.matrix))
    return GroupMap(f.domain, f.codomain, mat)


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
        inj_n, inj_s = sums[i].injections
        proj_s = sums[upper_idx].projections[1]
        part_n = inj_n.compose(psi(i)).compose(proj_s)
        part_s = inj_s.compose(s.step_map(i)).compose(proj_s)
        return _add_maps(part_n, part_s)

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
        total = zero_map(sums[upper_idx].group, sums[i].group)
        for k, t in enumerate(family):
            part = sums[i].injections[k].compose(t.step_map(i)).compose(sums[upper_idx].projections[k])
            total = _add_maps(total, part)
        return total

    maps = tuple(product_map(i, i + 1) for i in range(c))
    endo = product_map(c, c)
    groups = tuple(ds.group for ds in sums)
    return Tower(groups, maps, ConstantEndo(groups[c], endo))


# ---------------------------------------------------------------------------
# Omega-completion


def omega_completion_status(
    s: Tower, horizon: int = DEFAULT_HORIZON
) -> tuple[bool | None, int | None]:
    """Is S -> lim_n S/I^n(S) surjective?  (completeness at the first limit stage)

    Stabilized chains make the quotient system eventually constant, so the
    completion is S/I^N and the map is the canonical surjection: complete.
    A multiplication tail with free rank r > 0 and |m| >= 2 acquires m-adic
    limits no level hits: incomplete, witnessed by r.  Anything else is
    outside the decision class.
    """
    return _omega_completion_status(s, _stabilize(s, horizon))


def _omega_completion_status(s: Tower, st: _Stabilization) -> tuple[bool | None, int | None]:
    if st.status.kind == "stabilized":
        return True, None
    m = _tail_multiplier(s)
    if st.status.kind == "never" and m is not None and isinstance(s.tail, ConstantEndo):
        return False, s.tail.group.free_rank
    return None, None


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
    total = zero_map(ds.group, ds.group)
    for j in range(w - 1):
        part = ds.injections[j].compose(s.step_map(j)).compose(ds.projections[j + 1])
        total = _add_maps(total, part)
    return total


def window_difference_map(s: Tower, w: int) -> GroupMap:
    """identity - F on the product of the first W levels.

    Strictly unitriangular below the identity, hence always invertible:
    the inverse is the geometric sum of the nilpotent shift operator.
    """
    for i in range(w):
        if not s.group(i).is_finite():
            raise ValueError("window difference map needs finite levels")
    f_op = window_shift_map(s, w)
    one = identity_map(f_op.domain)
    mat = tuple(
        tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(one.matrix, f_op.matrix)
    )
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
    st = _stabilize(s, horizon)
    lim, lim1 = _lim_lim1(s, st)
    complete, witness = _omega_completion_status(s, st)
    report = AnalysisReport(
        ml_status=st.status,
        length=st.length,
        lim=lim,
        lim1_status=lim1,
        local=_is_local(st),
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
