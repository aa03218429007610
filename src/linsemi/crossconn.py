"""Cross-connections between the subspace category and its annihilator dual.

Every automorphism induces a pair of functors: one conjugates subspace
morphisms, the other transports annihilator objects along the
transpose. The linked-pair semigroup collects the pairs (alpha,
theta^-1 alpha theta) under the slotwise product, read from the Cayley
table: its table is Sing's exactly when the conjugation chi is a
homomorphism. The classification census enumerates the dimension-preserving
object bijections at n = 2 and keeps those whose line action lifts
projectively to an invertible map reproducing the bijection.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from . import indexed as ix
from .errors import NotInduced, NotInvertible, TooLarge
from .gf import Mat, inv_mod, mat_to_text
from .dual import DualMorphism, dual_morphisms, globalize, row_map
from .normal_cones import category, hom_between
from .semigroup import Endo, SemigroupTable, sing
from .subspaces import (
    Morphism,
    Side,
    Subspace,
    annihilator,
    canonical,
    image_subspace,
    inclusion,
    is_direct_sum,
    transport_morphism,
)


@dataclass
class CrossConn:
    """Functor data on a subspace category: object map plus morphism map."""

    n: int
    p: int
    side: Side  # side of the source category
    object_map: dict[Subspace, Subspace]
    morphism_map: dict[Morphism, Morphism]
    theta: Endo | None = None

    def obj(self, a: Subspace) -> Subspace:
        return self.object_map[a]

    def mor(self, f: Morphism) -> Morphism:
        return self.morphism_map[f]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CrossConn):
            return NotImplemented
        return (
            (self.n, self.p, self.side) == (other.n, other.p, other.side)
            and self.object_map == other.object_map
            and self.morphism_map == other.morphism_map
        )


def functor_from_global(g: Mat, objects: Sequence[Subspace]) -> CrossConn:
    """The functor transporting the full subcategory on objects along a global map.

    The map has to be injective on every object; n, p and the side are
    read off the objects.
    """
    a0 = objects[0]
    omap = {a: image_subspace(a, g) for a in objects}
    mmap = {
        f: transport_morphism(f, g) for a in objects for b in objects for f in hom_between(a, b)
    }
    return CrossConn(a0.n, a0.p, a0.side, omap, mmap)


def gamma_delta_theta(theta: Endo) -> tuple[CrossConn, CrossConn]:
    """The dual-side and primal-side functors induced by an automorphism."""
    if theta.inverse() is None:
        raise NotInvertible("the inducing transformation must be invertible")
    n, p = theta.n, theta.p
    delta = functor_from_global(theta.mat, category(n, p, Side.PRIMAL).objects)
    delta.theta = theta
    gamma = functor_from_global(theta.mat.transpose(), category(n, p, Side.DUAL).objects)
    gamma.theta = theta
    return gamma, delta


class FunctorVerdict(NamedTuple):
    ok: bool
    failure: str | None


def is_local_isomorphism(
    objects: Sequence[Subspace], omap: dict, mmap: dict, targets: Iterable[Subspace]
) -> FunctorVerdict:
    """Local isomorphism on the full subcategory spanned by objects.

    Identities and composites are preserved, inclusions go to inclusions,
    every hom-set is mapped bijectively onto the hom-set between the
    images, and each principal ideal is mapped onto the objects of
    targets that lie below the image of its generator.
    """
    homs = {(a, b): hom_between(a, b) for a in objects for b in objects}
    for a in objects:
        if mmap[Morphism.identity(a)] != Morphism.identity(omap[a]):
            return FunctorVerdict(False, "identity not preserved")
    for (a, b), hom in homs.items():
        for g in hom:
            fg = mmap[g]
            for c in objects:
                for h in homs[b, c]:
                    if mmap[g.compose(h)] != fg.compose(mmap[h]):
                        return FunctorVerdict(False, "composition not preserved")
    for a, b in homs:
        if a != b and b.contains(a):
            fa, fb = omap[a], omap[b]
            if not fb.contains(fa):
                return FunctorVerdict(False, "inclusion of objects not preserved")
            if mmap[inclusion(a, b)] != inclusion(fa, fb):
                return FunctorVerdict(False, "inclusion morphism not preserved")
    for (a, b), hom in homs.items():
        images = {mmap[g] for g in hom}
        if len(images) != len(hom):
            return FunctorVerdict(False, "not faithful")
        if images != set(hom_between(omap[a], omap[b])):
            return FunctorVerdict(False, "not full")
    for c in objects:
        ideal_image = {omap[a] for a in objects if c.contains(a)}
        target_ideal = {x for x in targets if omap[c].contains(x)}
        if ideal_image != target_ideal:
            return FunctorVerdict(False, "principal ideal not mapped onto")
    return FunctorVerdict(True, None)


def is_crossconnection(gamma: CrossConn) -> FunctorVerdict:
    """Local isomorphism on the dual side covering every primal object via M-sets.

    The M-set of a dual object is the set of complements of its
    pre-annihilator, so the covering condition asks for a dual object
    whose pre-annihilator splits off the given subspace.
    """
    if gamma.side is not Side.DUAL:
        raise ValueError("cross-connection check expects a dual-side functor")
    primal = category(gamma.n, gamma.p, Side.PRIMAL)
    dual = category(gamma.n, gamma.p, Side.DUAL)
    objects = dual.objects
    verdict = is_local_isomorphism(objects, gamma.object_map, gamma.morphism_map, objects)
    if not verdict.ok:
        return verdict
    for a in primal.objects:
        if not any(is_direct_sum(a, annihilator(gamma.obj(y))) for y in dual.objects):
            return FunctorVerdict(False, f"no M-set contains {a.basis}")
    return FunctorVerdict(True, None)


def _bifunctor_indices(image_in: Subspace, coimage_in: Subspace) -> tuple[int, ...]:
    """Singular x with im x <= image_in and (ker x)ann <= coimage_in, i.e. ker x >= ann(coimage_in)."""
    u = ix.universe(image_in.n, image_in.p)
    return u.confined(u.subspace_at[image_in], u.subspace_at[annihilator(coimage_in)])


def bifunctor_gamma_set(a: Subspace, y: Subspace, gamma: CrossConn) -> tuple[Endo, ...]:
    """{alpha singular : im alpha <= a, (ker alpha)ann <= gamma(y)}."""
    elements = ix.universe(a.n, a.p).elements
    return tuple(elements[x] for x in _bifunctor_indices(a, gamma.obj(y)))


def bifunctor_delta_set(a: Subspace, y: Subspace, delta: CrossConn) -> tuple[Endo, ...]:
    """{alpha singular : im alpha <= delta(a), (ker alpha)ann <= y}."""
    elements = ix.universe(a.n, a.p).elements
    return tuple(elements[x] for x in _bifunctor_indices(delta.obj(a), y))


def gamma_action(f: Morphism, w: DualMorphism, theta: Endo) -> Callable[[Endo], Endo]:
    """alpha maps to y . alpha . f, where y carries the transported dual morphism."""
    theta_inv = theta.inverse()
    if theta_inv is None:
        raise NotInvertible("bifunctor actions are generated by automorphisms here")
    y = theta @ w.carrier @ theta_inv
    return lambda alpha: globalize(y @ alpha, f)


def delta_action(f: Morphism, w: DualMorphism, theta: Endo) -> Callable[[Endo], Endo]:
    """alpha maps to w-carrier . alpha . (conjugated f)."""
    g = transport_morphism(f, theta.mat)
    return lambda alpha: globalize(w.carrier @ alpha, g)


def chi(theta: Endo) -> Callable[[Endo], Endo]:
    theta_inv = theta.inverse()
    if theta_inv is None:
        raise NotInvertible("the duality is conjugation by an automorphism")
    return lambda alpha: theta_inv @ alpha @ theta


def chi_indices(theta: Endo) -> list[int]:
    """Entry x is the index of theta^-1 x theta, read from the Cayley table."""
    theta_inv = theta.inverse()
    if theta_inv is None:
        raise NotInvertible("the duality is conjugation by an automorphism")
    u = ix.universe(theta.n, theta.p)
    prod, q = u.products, len(u.transpose)
    t, t_inv = u.index(theta), u.index(theta_inv)
    return [prod[prod[t_inv * q + x] * q + t] for x in range(q)]


class ChiReport(NamedTuple):
    ok: bool
    squares_checked: int
    failure: tuple[str, ...] | None  # text only: subspace bases, then matrices or a reason


def check_chi_naturality(theta: Endo, gamma: CrossConn, delta: CrossConn) -> ChiReport:
    """Verify the commuting square for every pair (f, w) of morphisms.

    Also checks that the duality map is a bijection between the two
    bifunctor sets at every object pair. Elements are indices: products
    are Cayley-table lookups and the duality is a permutation.
    """
    n, p = theta.n, theta.p
    primal = category(n, p, Side.PRIMAL)
    dual = category(n, p, Side.DUAL)
    chi_of = chi_indices(theta)
    chi_back = chi_indices(theta.inverse())  # theta x theta^-1
    u = ix.universe(n, p)
    prod, q = u.products, len(u.transpose)
    gamma_sets = {
        (a, y): _bifunctor_indices(a, gamma.obj(y)) for a in primal.objects for y in dual.objects
    }
    delta_sets = {
        (a, y): set(_bifunctor_indices(delta.obj(a), y)) for a in primal.objects for y in dual.objects
    }
    for (a, y), gset in gamma_sets.items():
        mapped = {chi_of[x] for x in gset}
        if len(mapped) != len(gset) or mapped != delta_sets[(a, y)]:
            return ChiReport(False, 0, (str(a.basis), str(y.basis), "duality is not a bijection"))
    # The row maps of each f: a -> b and of its image under delta.
    homs = {
        (a, b): [(f, row_map(f), row_map(delta.mor(f))) for f in primal.hom(a, b)]
        for a in primal.objects
        for b in primal.objects
    }
    checked = 0
    for y in dual.objects:
        for z in dual.objects:
            duals = [u.index(w.carrier) for w in dual_morphisms(y, z)]
            carriers = [chi_back[w] for w in duals]
            for a in primal.objects:
                gset_ay = gamma_sets[(a, y)]
                chis = [chi_of[x] for x in gset_ay]
                for b in primal.objects:
                    target = delta_sets[(b, z)]
                    for f, f_rows, g_rows in homs[(a, b)]:
                        for w, carrier_y in zip(duals, carriers):
                            for alpha, alpha_chi in zip(gset_ay, chis):
                                lhs = chi_of[ix.globalize(prod[carrier_y * q + alpha], f_rows)]
                                rhs = ix.globalize(prod[w * q + alpha_chi], g_rows)
                                if lhs != rhs or rhs not in target:
                                    what = mat_to_text(u.elements[alpha].mat) if lhs != rhs else "escapes"
                                    told = (*(str(x.basis) for x in (a, y, b, z)), mat_to_text(f.mat), what)
                                    return ChiReport(False, checked, told)
                            checked += 1
    return ChiReport(True, checked, None)


class LinkedSemigroup(NamedTuple):
    table: SemigroupTable  # Sing's table on the pairs (a, theta^-1 a theta)
    matches_sing: bool  # chi is a homomorphism, so the table is the pairs' slotwise table


def linked_pair_semigroup(theta: Endo) -> LinkedSemigroup:
    """The linked-pair semigroup of an automorphism, aligned with the singular order.

    The slotwise product of the pairs of a and b is (ab, chi(a) chi(b)). It is
    the pair of ab, at the position of ab, exactly when chi(ab) = chi(a) chi(b).
    """
    chi_of = chi_indices(theta)
    u = ix.universe(theta.n, theta.p)
    prod, q, s = u.products, len(u.transpose), u.singular
    matches = all(chi_of[prod[a * q + b]] == prod[chi_of[a] * q + chi_of[b]] for a in s for b in s)
    pairs = tuple((u.elements[a], u.elements[chi_of[a]]) for a in s)
    return LinkedSemigroup(SemigroupTable(pairs, sing_table(theta.n, theta.p).table), matches)


def sing_table(n: int, p: int) -> SemigroupTable:
    """Sing's multiplication table in counting order, read from the Cayley table."""
    u = ix.universe(n, p)
    return SemigroupTable(sing(n, p), u.table(u.singular))


def recover_theta(
    delta: CrossConn | dict[Subspace, Subspace], n: int | None = None, p: int | None = None
) -> Endo:
    """Projective lifting: read the inducing map off the coordinate lines.

    The image of the first coordinate line fixes the scale (leading
    coefficient one); the remaining scalars are pinned by the images of
    the diagonal lines through e1 + ei. The result is verified to
    reproduce the whole functor exactly, otherwise NotInduced is raised.
    """
    if isinstance(delta, CrossConn):
        omap = delta.object_map
        n, p = delta.n, delta.p
    else:
        omap = delta
        if n is None or p is None:
            raise ValueError("object-map recovery needs explicit n and p")
    if n < 2:
        raise NotInduced("recovery needs at least two coordinate lines")

    def unit(i: int) -> tuple[int, ...]:
        return tuple(1 if j == i else 0 for j in range(n))

    def line(v: Sequence[int]) -> Subspace:
        return canonical([v], n, p, Side.PRIMAL)

    def image_generator(src: Subspace) -> tuple[int, ...]:
        img = omap.get(src)
        if img is None or img.dim != 1:
            raise NotInduced("a coordinate line is not sent to a line")
        return img.basis.rows[0]

    rows = [image_generator(line(unit(0)))]
    for i in range(1, n):
        gen = image_generator(line(unit(i)))
        diag_img = omap.get(line(tuple((a + b) % p for a, b in zip(unit(0), unit(i)))))
        if diag_img is None or diag_img.dim != 1:
            raise NotInduced("a diagonal line is not sent to a line")
        scaled = None
        for c in range(1, p):
            candidate = tuple((x + c * y) % p for x, y in zip(rows[0], gen))
            if diag_img.contains_vector(candidate):
                scaled = tuple((c * y) % p for y in gen)
                break
        if scaled is None:
            raise NotInduced("no scalar aligns a diagonal line")
        rows.append(scaled)
    theta = Endo(Mat.make(rows, p, ncols=n))
    if theta.inverse() is None:
        raise NotInduced("recovered map is singular")
    _, delta_theta = gamma_delta_theta(theta)
    if delta_theta.object_map != dict(omap):
        raise NotInduced("recovered map does not reproduce the object map")
    if isinstance(delta, CrossConn) and delta.morphism_map:
        if delta_theta.morphism_map != delta.morphism_map:
            raise NotInduced("recovered map does not reproduce the morphism map")
    return theta


def canonical_scalar_rep(theta: Endo) -> Endo:
    """Scale so the first nonzero coordinate of the first row is one."""
    for x in theta.mat.rows[0]:
        if x:
            return Endo(theta.mat.scale(inv_mod(x, theta.p)))
    raise NotInduced("first basis vector is killed; not an automorphism")


class ClassificationCensus(NamedTuple):
    count: int
    bijections: tuple[dict, ...]
    thetas: tuple[Endo, ...]


def classify_crossconnections(n: int, p: int) -> ClassificationCensus:
    """Census of object bijections extendable to induced cross-connections.

    Enumerates every dimension-preserving bijection of the proper
    subspaces at n = 2 (the zero object is fixed, the lines permute) and
    keeps those whose line action lifts to an invertible map reproducing
    the bijection exactly. The recovered representatives come back
    scale-normalized.
    """
    if n != 2 or p not in (2, 3):
        raise TooLarge("the census is implemented for n = 2, p in {2, 3}")
    cat = category(n, p, Side.PRIMAL)
    lines = [a for a in cat.objects if a.dim == 1]
    zero = next(a for a in cat.objects if a.is_zero)
    kept: list[dict] = []
    thetas: list[Endo] = []
    for perm in itertools.permutations(lines):
        omap = {zero: zero}
        omap.update(dict(zip(lines, perm)))
        try:
            theta = recover_theta(omap, n, p)
        except NotInduced:
            continue
        kept.append(omap)
        thetas.append(theta)
    return ClassificationCensus(len(kept), tuple(kept), tuple(thetas))
