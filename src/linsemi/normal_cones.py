"""Normal cones over the category of proper subspaces.

The category has the proper subspaces of GF(p)^n as objects (the zero
subspace included, since it is the image of the zero map) and all
linear maps between them as morphisms. A normal cone is one morphism
into a fixed vertex per object, compatible with inclusions, with an
isomorphism somewhere, and coherent: the components must be the
restrictions of a single global transformation read off the coordinate
lines. Coherence follows from the first two laws once the ambient
dimension exceeds 2, but for n = 2 there are inclusion-compatible
families with an isomorphism component that restrict no global map, so
it is enforced explicitly; the cone census counts only coherent
families, and this is what makes the count match the singular
semigroup.

A principal cone's components are the restrictions of one map alpha to
every object. The objects' bases share few rows (the 130 basis rows of
the proper subspaces of GF(2)^4 are 15 distinct vectors), so each
distinct row is sent through alpha and located in the vertex once, and
every component is assembled from those coordinates. The coherence test
of `validate_cone` uses the same routine.

An `IndexCone` keeps only the vertex index and the vector index of each
distinct row's image, read from alpha's action on the vectors,
`Universe.action`. On it composition (gamma's row images through
delta's row map at gamma's vertex, cached per component) is lookups,
which the composition and cone-table checks use; `cone_table` returns
positions, as `Universe.table` does. The M-set of alpha needs no cone:
it is the objects of alpha's rank that meet alpha's zero set only in 0,
one AND of member bitmasks per object. The `Morphism` cones stay the
definition for the round trip, the idempotent law and the census.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import NotACone, NotClosed, NotSingular, ShapeError, TooLarge
from .gf import Mat, all_matrices, kernel_basis, pivot_complement, projection
from .indexed import Universe, lattice
from .semigroup import Endo
from .subspaces import Morphism, Side, Subspace, SubspaceFilter, canonical, enumerate_subspaces, inclusion
from .subspaces import gaussian_binomial

CENSUS_BUDGET = 2000  # component families `cone_census` enumerates at most


class SubspaceCategory(NamedTuple):
    n: int
    p: int
    side: Side
    objects: tuple[Subspace, ...]

    def index(self, a: Subspace) -> int:
        return _object_index(self.n, self.p, self.side)[a]

    def inclusion_pairs(self) -> tuple[tuple[Subspace, Subspace], ...]:
        return _inclusion_pairs(self.n, self.p, self.side)

    def all_morphisms(self) -> tuple[Morphism, ...]:
        return _all_morphisms(self.n, self.p, self.side)


@lru_cache(maxsize=None)
def category(n: int, p: int, side: Side = Side.PRIMAL) -> SubspaceCategory:
    return SubspaceCategory(n, p, side, enumerate_subspaces(n, p, SubspaceFilter.PROPER, side))


def morphism_count(n: int, p: int) -> int:
    """len(category(n, p).all_morphisms()) in closed form: p^(jk) maps from each j-space to each k-space."""
    gauss = [gaussian_binomial(n, k, p) for k in range(n)]
    return sum(a * b * p ** (j * k) for j, a in enumerate(gauss) for k, b in enumerate(gauss))


@lru_cache(maxsize=None)
def _object_index(n: int, p: int, side: Side) -> dict[Subspace, int]:
    return {a: i for i, a in enumerate(category(n, p, side).objects)}


@lru_cache(maxsize=None)
def hom_between(a: Subspace, b: Subspace) -> tuple[Morphism, ...]:
    """Every linear map a -> b, as morphisms in counting order."""
    return tuple(Morphism(a, b, m) for m in all_matrices(a.dim, b.dim, a.p))


@lru_cache(maxsize=None)
def _inclusion_pairs(n: int, p: int, side: Side) -> tuple[tuple[Subspace, Subspace], ...]:
    objs = category(n, p, side).objects
    return tuple((a, b) for a in objs for b in objs if a != b and b.contains(a))


@lru_cache(maxsize=None)
def _all_morphisms(n: int, p: int, side: Side) -> tuple[Morphism, ...]:
    objs = category(n, p, side).objects
    out: list[Morphism] = []
    for a in objs:
        for b in objs:
            out.extend(hom_between(a, b))
    return tuple(out)


class Factorization(NamedTuple):
    """f = q . u . j with q a retraction, u an isomorphism, j an inclusion."""

    q: Morphism
    u: Morphism
    j: Morphism

    def composite(self) -> Morphism:
        return self.q.compose(self.u).compose(self.j)


def normal_factorization(f: Morphism) -> Factorization:
    """Factor f through the canonical pivot complement of its kernel.

    In the domain's coordinates the complement is `pivot_complement(ker)`, and
    the retraction is `projection(ker, comp)`: the projection onto the complement
    along ker(f), so the middle leg is injective and the image provides the
    inclusion. The complement's basis, comp @ a.basis, is a subset of the
    domain's canonical basis rows, which keeps every coordinate system aligned.
    """
    a = f.dom
    ker = kernel_basis(f.mat)
    comp = pivot_complement(ker)
    a_prime = Subspace(a.n, a.p, a.side, comp @ a.basis)
    onto = epimorphic_component(f)
    q = Morphism(a, a_prime, projection(ker, comp))
    u = Morphism(a_prime, onto.cod, comp @ onto.mat)
    return Factorization(q, u, inclusion(onto.cod, f.cod))


def epimorphic_component(f: Morphism) -> Morphism:
    """f viewed onto its image; equals q . u of the normal factorization."""
    b_prime = f.image()
    return Morphism(f.dom, b_prime, b_prime.coordinates((f.mat @ f.cod.basis).rows))


class NormalCone(NamedTuple):
    """One morphism per object into a fixed proper vertex."""

    n: int
    p: int
    side: Side
    vertex: Subspace
    components: tuple[Morphism, ...]  # aligned with category(n, p, side).objects

    def component(self, a: Subspace) -> Morphism:
        return self.components[category(self.n, self.p, self.side).index(a)]


class ConeValidation(NamedTuple):
    valid: bool
    compatible: bool  # j(A,B) . sigma(B) == sigma(A) on every inclusion
    has_iso: bool  # some component is an isomorphism
    coherent: bool  # the components restrict one global transformation
    induced: Endo | None
    reason: str | None


def _induced_endo(cone: NormalCone) -> Endo:
    """Read the global map off the components at the coordinate lines."""
    units = Mat.identity(cone.n, cone.p).rows
    rows = [cone.component(canonical([e], cone.n, cone.p, cone.side)).apply(e) for e in units]
    return Endo(Mat.make(rows, cone.p, ncols=cone.n))


def validate_cone(cone: NormalCone) -> ConeValidation:
    cat = category(cone.n, cone.p, cone.side)
    if len(cone.components) != len(cat.objects):
        return ConeValidation(False, False, False, False, None, "component count mismatch")
    for obj, comp in zip(cat.objects, cone.components):
        if comp.dom != obj or comp.cod != cone.vertex:
            return ConeValidation(False, False, False, False, None, "component endpoints mismatch")
    compatible = True
    for a, b in cat.inclusion_pairs():
        if inclusion(a, b).compose(cone.component(b)) != cone.component(a):
            compatible = False
            break
    has_iso = any(c.is_iso for c in cone.components)
    coherent = False
    induced = None
    if cone.n == 1:
        induced = Endo.zero(1, cone.p)
        coherent = True
    else:
        cand = _induced_endo(cone)
        coherent = cone.components == _restrictions(cand, cone.side, cone.vertex)
        if coherent:
            induced = cand
    valid = compatible and has_iso and coherent
    reason = None
    if not compatible:
        reason = "inclusion compatibility fails"
    elif not has_iso:
        reason = "no component is an isomorphism"
    elif not coherent:
        reason = "components do not restrict a single global map"
    return ConeValidation(valid, compatible, has_iso, coherent, induced, reason)


@lru_cache(maxsize=None)
def _basis_rows(n: int, p: int, side: Side) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
    """The distinct basis rows of the category's objects, and each object's rows as positions in them."""
    position: dict[tuple[int, ...], int] = {}
    per_object = tuple(
        tuple(position.setdefault(v, len(position)) for v in a.basis.rows)
        for a in category(n, p, side).objects
    )
    return tuple(position), per_object


def _restrictions(alpha: Endo, side: Side, target: Subspace) -> tuple[Morphism | None, ...]:
    """alpha restricted to each object of the category into target, in object order.

    An object with a basis row that alpha sends outside target gets None.
    """
    rows, per_object = _basis_rows(alpha.n, alpha.p, side)
    # coords_of returns reduced entries, so the components skip Mat.make.
    coords = [target.coords_of(alpha.apply(v)) for v in rows]
    out = []
    for a, at in zip(category(alpha.n, alpha.p, side).objects, per_object):
        mat_rows = tuple(coords[i] for i in at)
        out.append(None if None in mat_rows else Morphism(a, target, Mat(mat_rows, target.dim, alpha.p)))
    return tuple(out)


def principal_cone(alpha: Endo, side: Side = Side.PRIMAL) -> NormalCone:
    """The cone whose component at A is the restriction of alpha to A."""
    if not alpha.is_singular:
        raise NotSingular("principal cones require a proper image, so a singular map")
    n, p = alpha.n, alpha.p
    vertex = Subspace(n, p, side, alpha.image.basis)
    return NormalCone(n, p, side, vertex, _restrictions(alpha, side, vertex))


def cone_to_map(cone: NormalCone) -> Endo:
    """The unique transformation inducing the cone; raises NotACone otherwise."""
    check = validate_cone(cone)
    if not check.valid or check.induced is None:
        raise NotACone(check.reason or "invalid cone")
    return check.induced


def cone_compose(gamma: NormalCone, delta: NormalCone) -> NormalCone:
    """Compose cones: follow gamma by the epimorphic part of delta at gamma's vertex."""
    if (gamma.n, gamma.p, gamma.side) != (delta.n, delta.p, delta.side):
        raise ShapeError("cones live over different categories")
    onto = epimorphic_component(delta.component(gamma.vertex))
    comps = tuple(c.compose(onto) for c in gamma.components)
    return NormalCone(gamma.n, gamma.p, gamma.side, onto.cod, comps)


class IndexCone(NamedTuple):
    """A principal cone by lookup: its vertex and the image of each distinct basis row.

    The vertex indexes `Universe.subspaces`; images[k] is the vector index of
    row k of `_basis_rows` sent through the cone, on either side (both share bases).
    """

    vertex: int
    images: tuple[int, ...]


@lru_cache(maxsize=None)
def _rows(u: Universe) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """`_basis_rows` with vector indices; the proper subspaces lead `u.subspaces` in object order."""
    rows, per_object = _basis_rows(u.n, u.p, Side.PRIMAL)
    return tuple(map(u.vector_at.__getitem__, rows)), per_object


def index_cone(u: Universe, x: int) -> IndexCone:
    """The principal cone of element x, each row image read from the action of x."""
    return IndexCone(u.image[x], tuple(map(u.action(x).__getitem__, _rows(u)[0])))


def index_m_set(u: Universe, x: int) -> frozenset[int]:
    """The objects, as subspace indices, where the principal cone of x is an isomorphism: those of x's rank that
    meet x's zero set, read from its action, only in 0, as an injective map of equal dimensions is onto."""
    zero = sum(1 << v for v, w in enumerate(u.action(x)) if not w)
    dims, members, dim = u.dims, lattice(u.n, u.p).members, u.dims[u.image[x]]
    return frozenset(a for a in range(bisect_left(dims, dim), bisect_right(dims, dim)) if members[a] & zero == 1)


@lru_cache(maxsize=None)
def _component(u: Universe, vertex: int, images: tuple[int, ...]) -> tuple[int, dict[int, int]]:
    """A component at a vertex from its images of the vertex's basis rows: their span, and the row map."""
    rows, per_object = _rows(u)
    return u.span(images), u.linear_map([rows[k] for k in per_object[vertex]], images)


def index_compose(u: Universe, gamma: IndexCone, delta: IndexCone) -> IndexCone:
    """`cone_compose` by lookup: gamma's row images through delta's component at gamma's vertex."""
    vertex, extend = _component(u, gamma.vertex, tuple(delta.images[k] for k in _rows(u)[1][gamma.vertex]))
    return IndexCone(vertex, tuple(map(extend.__getitem__, gamma.images)))


def cone_table(u: Universe, members: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Entry [i][j] is the position of the composite of the members' principal cones i and j, by
    lookup; NotClosed if a composite escapes.

    A composite reads delta only at gamma's vertex, so a row composes once per distinct component there.
    """
    cones = tuple(index_cone(u, x) for x in members)
    at = {c: i for i, c in enumerate(cones)}
    per_object = _rows(u)[1]
    spread = {}  # vertex -> (one delta per distinct component there, the slot of each delta)
    for s in {c.vertex for c in cones}:
        keys = [tuple(d.images[k] for k in per_object[s]) for d in cones]
        deltas = dict(zip(keys, cones))
        slot = {key: i for i, key in enumerate(deltas)}
        spread[s] = (deltas.values(), [slot[key] for key in keys])
    table = []
    try:
        for g in cones:
            deltas, slots = spread[g.vertex]
            composites = [at[index_compose(u, g, d)] for d in deltas]
            table.append(tuple(map(composites.__getitem__, slots)))
    except KeyError:
        raise NotClosed("a composite escapes the cones") from None
    return tuple(table)


class ConeCensus(NamedTuple):
    valid_count: int
    inclusion_iso_only_count: int  # families passing just the two written laws
    valid_cones: tuple[NormalCone, ...]


def census_families(n: int, p: int) -> int:
    """The component families `cone_census` enumerates, or 2^64 if more: p^(k D) at each vertex of dimension
    k < n, D the sum of the object dimensions. At (5, 4) the count has over 4300 digits; this stays small."""
    gauss = [gaussian_binomial(n, k, p) for k in range(n)]
    dims = sum(k * g for k, g in enumerate(gauss))
    return min(sum(g * p ** min(k * dims, 64) for k, g in enumerate(gauss)), 1 << 64)


def cone_census(n: int, p: int) -> ConeCensus:
    """Count every component family that is a normal cone, by brute force.

    Enumerates all assignments of a morphism into each candidate vertex
    and validates each family. Families satisfying only the inclusion
    law plus the isomorphism requirement are tallied separately; they
    exceed the coherent ones exactly when n = 2.
    """
    if census_families(n, p) > CENSUS_BUDGET:
        raise TooLarge(f"cone census would enumerate more than {CENSUS_BUDGET} families")
    cat = category(n, p, Side.PRIMAL)
    valid: list[NormalCone] = []
    near = 0
    for vertex in cat.objects:
        hom_lists = [hom_between(a, vertex) for a in cat.objects]
        for assignment in itertools.product(*hom_lists):
            cone = NormalCone(n, p, Side.PRIMAL, vertex, tuple(assignment))
            check = validate_cone(cone)
            if check.compatible and check.has_iso:
                near += 1
            if check.valid:
                valid.append(cone)
    return ConeCensus(len(valid), near, tuple(valid))
