"""H-functors, M-sets and the annihilator category.

An H-functor is its null space: for every idempotent e with that kernel,
its value at a subspace A is the set of singular maps x with e x = x
(kernel above the null space) and image inside A, read from the Cayley
table by `index_h_sets`; a morphism g acts on it as the product with
`extension(g)`. The M-set of a null space is its set of complements,
`indexed.Lattice.complements` by index. Annihilators identify the dual
of the subspace category with the category of proper subspaces of V*:
`nat_trans` and `dual_morphisms` give its morphisms by sandwich
carriers. A cone over it is the index cone of a transposed element, so
cones over it multiply opposite to the singular semigroup.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import NotIdempotent, NotInSandwich, NotSingular, ShapeError
from .gf import Mat, all_matrices, projection
from .indexed import Universe, lattice, universe
from .semigroup import Endo, idempotent_from
from .subspaces import (
    Morphism,
    Side,
    Subspace,
    SubspaceFilter,
    annihilator,
    complement,
    enumerate_subspaces,
)


class _HFunctorFields(NamedTuple):
    key: Subspace  # the null space; nonzero for idempotents of the singular part


class HFunctor(_HFunctorFields):
    """The set-valued functor attached to an idempotent, keyed by its null space."""

    __slots__ = ()

    def __new__(cls, key: Subspace) -> "HFunctor":
        self = tuple.__new__(cls, (key,))
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        if self.key.is_zero:
            raise NotSingular("H-functors of the singular part have nonzero null spaces")


def _check_idempotent(e: Endo) -> None:
    if not e.is_idempotent:
        raise NotIdempotent("expected an idempotent transformation")
    if not e.is_singular:
        raise NotSingular("expected a singular idempotent")


def index_h_sets(u: Universe, e: int) -> tuple[frozenset[int], ...]:
    """Entry a is H(e; A) at the object A of subspace index a, as element indices: the singular x
    with e x = x, read from the Cayley table, and image inside A."""
    row = u.products[e]
    fixed = [x for x in u.singular if row[x] == x]
    return tuple(frozenset(x for x in fixed if u.contains(a, u.image[x])) for a in range(u.whole))


def globalize(alpha: Endo, f: Morphism) -> Endo:
    """The global composite of alpha with a partial map whose domain contains im(alpha)."""
    coords = f.dom.coordinates(alpha.rows)
    if coords is None:
        raise ShapeError("image escapes the domain of the partial map")
    return Endo(coords @ f.mat @ f.cod.basis)


@lru_cache(maxsize=None)
def extension(f: Morphism) -> int:
    """The index of the element E that is f on f.dom and 0 on f.dom's canonical complement.

    For every x with image inside f.dom, x followed by f is x E, the lookup `products[x][E]`.
    """
    u = universe(f.dom.n, f.dom.p)
    return u.index(globalize(idempotent_from(complement(f.dom), f.dom), f))


class DualMorphism(NamedTuple):
    """A morphism of the annihilator category, with a sandwich carrier.

    Acts on functional coordinates by w -> w . u^T. The carrier is any
    u = f u e realizing the map; it is excluded from equality and hashing
    because carriers are unique only up to maps into the null space of
    the domain's witness.
    """

    dom: Subspace  # DUAL side: (ker e)ann
    cod: Subspace  # DUAL side: (ker f)ann
    fmat: Mat  # dim(dom) x dim(cod) functional-coordinate matrix
    carrier: Endo

    def __eq__(self, other: object) -> bool:
        return type(other) is DualMorphism and self[:3] == other[:3]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:3])

    def compose(self, other: "DualMorphism") -> "DualMorphism":
        if self.cod != other.dom:
            raise ShapeError("codomain/domain mismatch in composition")
        return DualMorphism(self.dom, other.cod, self.fmat @ other.fmat, other.carrier @ self.carrier)


def nat_trans(u: Endo, e: Endo, f: Endo) -> DualMorphism:
    """The dual morphism (ker e)ann -> (ker f)ann carried by u = f u e."""
    _check_idempotent(e)
    _check_idempotent(f)
    if f @ u @ e != u:
        raise NotInSandwich("carrier fails u = f u e")
    dom = annihilator(e.kernel)
    cod = annihilator(f.kernel)
    fmat = cod.coordinates((dom.basis @ Mat.transpose(u)).rows)
    if fmat is None:
        raise NotInSandwich("carrier does not map the annihilator into the target")
    return DualMorphism(dom, cod, fmat, u)


@lru_cache(maxsize=None)
def dual_morphisms(y: Subspace, z: Subspace) -> tuple[DualMorphism, ...]:
    """All morphisms y -> z of the annihilator category, via their carriers.

    Carriers for (ker e)ann -> (ker f)ann correspond to linear maps
    im f -> im e, glued with zero on ker f: the carrier of mm is the
    projection onto im f along ker f, then mm, read in im e.
    """
    null_e = annihilator(y)
    null_f = annihilator(z)
    im_e = complement(null_e)
    im_f = complement(null_f)
    e = idempotent_from(null_e, im_e)
    f = idempotent_from(null_f, im_f)
    glue = projection(null_f.basis, im_f.basis)
    mms = all_matrices(im_f.dim, im_e.dim, y.p)
    return tuple(nat_trans(Endo(glue @ mm @ im_e.basis), e, f) for mm in mms)


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
    """Materialize the dual: H-functors keyed by nonzero null spaces, mapped by annihilator.

    Inclusions are read from the containment masks of `indexed.lattice`: key k1 contains key k2
    exactly when the image of k2 contains the image of k1, one mask comparison per key.
    """
    hfs = tuple(map(HFunctor, enumerate_subspaces(n, p, SubspaceFilter.NONZERO)))
    images = [functor_p_object(h) for h in hfs]
    injective = len(set(images)) == len(images)
    count_matches = set(images) == set(enumerate_subspaces(n, p, SubspaceFilter.PROPER, Side.DUAL))
    lat = lattice(n, p)
    at = lat.subspace_at
    incl = lat.unreversed_pair({at[h.key]: at[Subspace(n, p, Side.PRIMAL, im.basis)] for h, im in zip(hfs, images)})
    return NormalDual(hfs, tuple(zip(hfs, images)), injective, count_matches, incl is None)

