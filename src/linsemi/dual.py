"""H-functors, M-sets and the annihilator category.

An H-functor is determined by the null space of its witness idempotent;
its value at a subspace A is the set of singular maps with kernel above
that null space and image inside A. Annihilators identify the dual of
the subspace category with the category of proper subspaces of V*, and
cones over that category multiply opposite to the singular semigroup.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .errors import NotIdempotent, NotInSandwich, NotSingular, ShapeError
from .gf import Mat, all_matrices, invert
from .indexed import universe
from .normal_cones import NormalCone, category, cone_compose, principal_cone
from .semigroup import Endo, SemigroupTable, idempotent_from, mult_table, sing
from .subspaces import (
    ComplementMode,
    Morphism,
    Side,
    Subspace,
    SubspaceFilter,
    annihilator,
    complement,
    enumerate_subspaces,
    is_direct_sum,
)


@dataclass(frozen=True)
class HFunctor:
    """The set-valued functor attached to an idempotent, keyed by its null space."""

    key: Subspace  # the null space; nonzero for idempotents of the singular part
    witness: Endo = field(compare=False)

    def __post_init__(self) -> None:
        if self.key.is_zero:
            raise NotSingular("H-functors of the singular part have nonzero null spaces")


def hfunctor_for_kernel(null: Subspace) -> HFunctor:
    """Canonical witness: project along null onto its canonical complement."""
    witness = idempotent_from(null, complement(null, ComplementMode.CANONICAL))
    return HFunctor(null, witness)


def hfunctor_of(e: Endo) -> HFunctor:
    _check_idempotent(e)
    return HFunctor(e.kernel, e)


def _check_idempotent(e: Endo) -> None:
    if not e.is_idempotent:
        raise NotIdempotent("expected an idempotent transformation")
    if not e.is_singular:
        raise NotSingular("expected a singular idempotent")


@lru_cache(maxsize=None)
def h_set(e: Endo, a: Subspace) -> frozenset[Endo]:
    """{x singular : ker x >= ker e and im x <= a}, by enumeration."""
    _check_idempotent(e)
    return frozenset(
        x for x in sing(e.n, e.p) if x.kernel.contains(e.kernel) and a.contains(x.image)
    )


def globalize(alpha: Endo, f: Morphism) -> Endo:
    """The global composite of alpha with a partial map whose domain contains im(alpha)."""
    rows = []
    for i in range(alpha.n):
        v = alpha.mat.rows[i]
        coords = f.dom.coords_of(v)
        if coords is None:
            raise ShapeError("image escapes the domain of the partial map")
        rows.append(f.cod.basis.apply(f.mat.apply(coords)))
    return Endo(Mat.make(rows, alpha.p, ncols=alpha.n))


@lru_cache(maxsize=None)
def row_map(f: Morphism) -> tuple[int, ...]:
    """Entry v is the index of vector v followed by f, or -1 when v is outside f.dom.

    Element v < p^n of the universe has vector v as its last row and zero rows above it.
    """
    u = universe(f.dom.n, f.dom.p)
    vectors = u.elements[: f.dom.p ** f.dom.n]
    return tuple(u.index(globalize(e, f)) if f.dom.contains(e.image) else -1 for e in vectors)


def h_map(e: Endo, g: Morphism) -> dict[Endo, Endo]:
    """The functor action on a morphism g: sends x to x . g between h-sets."""
    return {x: globalize(x, g) for x in h_set(e, g.dom)}


def m_set_components(cone: NormalCone) -> frozenset[Subspace]:
    """Objects where the cone component is an isomorphism."""
    objects = category(cone.n, cone.p, cone.side).objects
    return frozenset(a for a, c in zip(objects, cone.components) if c.is_iso)


@lru_cache(maxsize=None)
def m_set_complements(key: Subspace) -> frozenset[Subspace]:
    """Proper subspaces A with A (+) key = V."""
    return frozenset(
        a
        for a in enumerate_subspaces(key.n, key.p, SubspaceFilter.PROPER, key.side)
        if is_direct_sum(a, key)
    )


def m_set(x) -> frozenset[Subspace]:
    if isinstance(x, NormalCone):
        return m_set_components(x)
    if isinstance(x, HFunctor):
        return m_set_complements(x.key)
    raise TypeError(f"no M-set for {type(x).__name__}")


@dataclass(frozen=True)
class DualMorphism:
    """A morphism of the annihilator category, with a sandwich carrier.

    Acts on functional coordinates by w -> w . u^T. The carrier is any
    u = f u e realizing the map; it is excluded from equality because
    carriers are unique only up to maps into the null space of the
    domain's witness.
    """

    dom: Subspace  # DUAL side: (ker e)ann
    cod: Subspace  # DUAL side: (ker f)ann
    fmat: Mat  # dim(dom) x dim(cod) functional-coordinate matrix
    carrier: Endo = field(compare=False)

    def compose(self, other: "DualMorphism") -> "DualMorphism":
        if self.cod != other.dom:
            raise ShapeError("codomain/domain mismatch in composition")
        return DualMorphism(self.dom, other.cod, self.fmat @ other.fmat, other.carrier @ self.carrier)

    @staticmethod
    def identity_at(e: Endo) -> "DualMorphism":
        return nat_trans(e, e, e)


def _functional_matrix(u: Endo, dom: Subspace, cod: Subspace) -> Mat:
    ut = u.mat.transpose()
    rows = []
    for w in dom.basis.rows:
        coords = cod.coords_of(ut.apply(w))
        if coords is None:
            raise NotInSandwich("carrier does not map the annihilator into the target")
        rows.append(coords)
    return Mat.make(rows, u.p, ncols=cod.dim)


def nat_trans(u: Endo, e: Endo, f: Endo) -> DualMorphism:
    """The dual morphism (ker e)ann -> (ker f)ann carried by u = f u e."""
    _check_idempotent(e)
    _check_idempotent(f)
    if f @ u @ e != u:
        raise NotInSandwich("carrier fails u = f u e")
    dom = annihilator(e.kernel)
    cod = annihilator(f.kernel)
    return DualMorphism(dom, cod, _functional_matrix(u, dom, cod), u)


def component_action(dm: DualMorphism, e: Endo, a: Subspace) -> dict[Endo, Endo]:
    """The natural transformation's component at a: x maps to carrier . x."""
    return {x: dm.carrier @ x for x in h_set(e, a)}


@lru_cache(maxsize=None)
def dual_morphisms(y: Subspace, z: Subspace) -> tuple[DualMorphism, ...]:
    """All morphisms y -> z of the annihilator category, via their carriers.

    Carriers for (ker e)ann -> (ker f)ann correspond to linear maps
    im f -> im e, glued with zero on ker f.
    """
    null_e = annihilator(y)
    null_f = annihilator(z)
    e = idempotent_from(null_e, complement(null_e, ComplementMode.CANONICAL))
    f = idempotent_from(null_f, complement(null_f, ComplementMode.CANONICAL))
    im_e, im_f = e.image, f.image
    stacked = null_f.basis.vstack(im_f.basis)
    inv = invert(stacked)
    out = []
    for mm in all_matrices(im_f.dim, im_e.dim, y.p):
        target = Mat.zeros(null_f.dim, y.n, y.p).vstack(mm @ im_e.basis)
        u = Endo(inv @ target)
        out.append(nat_trans(u, e, f))
    return tuple(out)


def functor_p_object(h: HFunctor) -> Subspace:
    """The dual-side object attached to an H-functor: the annihilator of its key."""
    return annihilator(h.key)


class NormalDual(NamedTuple):
    hfunctors: tuple[HFunctor, ...]
    object_map: tuple[tuple[HFunctor, Subspace], ...]
    injective: bool
    object_count_matches: bool
    inclusions_match: bool


def build_normal_dual(n: int, p: int) -> NormalDual:
    """Materialize the dual: H-functors keyed by nonzero null spaces, mapped by annihilator."""
    keys = enumerate_subspaces(n, p, SubspaceFilter.NONZERO)
    hfs = tuple(hfunctor_for_kernel(k) for k in keys)
    images = [functor_p_object(h) for h in hfs]
    injective = len(set(images)) == len(images)
    dual_objects = set(enumerate_subspaces(n, p, SubspaceFilter.PROPER, Side.DUAL))
    count_matches = set(images) == dual_objects
    incl = all(
        h1.key.contains(h2.key) == im2.contains(im1)
        for h1, im1 in zip(hfs, images)
        for h2, im2 in zip(hfs, images)
    )
    return NormalDual(hfs, tuple(zip(hfs, images)), injective, count_matches, incl)


def dual_endo(alpha: Endo) -> Endo:
    """The transpose, acting on functional coordinates of V*."""
    return alpha.transpose()


def dual_cone_table(n: int, p: int) -> tuple[SemigroupTable, tuple[NormalCone, ...]]:
    """Component-level cones over the dual category, one per singular map.

    The cone attached to alpha is the principal cone of its transpose
    over the proper subspaces of V*; composing these reverses the order
    of the matrix product.
    """
    cones = tuple(principal_cone(dual_endo(a), Side.DUAL) for a in sing(n, p))
    return mult_table(cones, cone_compose), cones


def dual_op_table(n: int, p: int) -> SemigroupTable:
    """The same semigroup on transposed matrices under the plain product, read through the transpose."""
    u = universe(n, p)
    members = [u.transpose[x] for x in u.singular]
    return SemigroupTable(tuple(u.elements[t] for t in members), u.table(members))
