"""Cross-connections between the subspace category and its annihilator dual.

Every automorphism induces a pair of functors: one conjugates subspace
morphisms, the other transports annihilator objects along the
transpose. The duality chi(alpha) = theta^-1 alpha theta is read from
the Cayley table by `chi_indices`; the linked pairs (alpha, chi(alpha))
multiply slotwise like Sing exactly when chi is a homomorphism. The
classification census enumerates the dimension-preserving
object bijections at n = 2 and keeps those whose line action lifts
projectively to an invertible map reproducing the bijection.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from . import indexed as ix
from .errors import NotInduced, NotInvertible, TooLarge
from .gf import Mat, inv_mod, invert, mat_to_text
from .dual import extension
from .normal_cones import category, hom_between
from .semigroup import Endo
from .subspaces import (
    Morphism,
    Side,
    Subspace,
    annihilator,
    canonical,
    image_subspace,
    inclusion,
    is_direct_sum,
)


class CrossConn(NamedTuple):
    """Functor data on a subspace category: object map plus morphism map."""

    n: int
    p: int
    side: Side  # side of the source category
    object_map: dict[Subspace, Subspace]
    morphism_map: dict[Morphism, Morphism]

    def obj(self, a: Subspace) -> Subspace:
        return self.object_map[a]

    def mor(self, f: Morphism) -> Morphism:
        return self.morphism_map[f]


def functor_from_global(g: Mat, objects: Sequence[Subspace]) -> CrossConn:
    """The functor transporting the full subcategory on objects along a global map.

    The map has to be injective on every object; n, p and the side are
    read off the objects. Each object a is transported once, to its image
    a.g and the S_a whose rows are the coordinates of a.basis @ g in it;
    f: a -> b then goes to S_a^-1 f S_b, which is `transport_morphism(f, g)`.
    """
    a0 = objects[0]
    omap, frames = {}, {}
    for a in objects:
        image = omap[a] = image_subspace(a, g)
        if image.dim != a.dim:
            raise NotInvertible("global map is not injective on the domain")
        s = image.coordinates((a.basis @ g).rows)
        frames[a] = (invert(s), s)
    mmap = {
        f: Morphism(omap[a], omap[b], frames[a][0] @ f.mat @ frames[b][1])
        for a in objects for b in objects for f in hom_between(a, b)
    }
    return CrossConn(a0.n, a0.p, a0.side, omap, mmap)


MUST_BE_INVERTIBLE = "the inducing transformation must be invertible"


@lru_cache(maxsize=None)
def gamma_delta_theta(theta: Endo) -> tuple[CrossConn, CrossConn]:
    """The dual-side and primal-side functors induced by an automorphism, built once: callers share them."""
    if theta.inverse() is None:
        raise NotInvertible(MUST_BE_INVERTIBLE)
    n, p = theta.n, theta.p
    delta = functor_from_global(theta, category(n, p, Side.PRIMAL).objects)
    gamma = functor_from_global(Mat.transpose(theta), category(n, p, Side.DUAL).objects)
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
    targets that lie below the image of its generator. Composites are read
    from per-object-triple tables of positions in the hom-sets.
    """
    homs = {(a, b): hom_between(a, b) for a in objects for b in objects}
    for a in objects:
        if mmap[Morphism.identity(a)] != Morphism.identity(omap[a]):
            return FunctorVerdict(False, "identity not preserved")
    pos = {}  # pos[a, b][i] is the position of the image of hom(a, b)[i] in hom(F a, F b)
    for (a, b), hom in homs.items():
        at = _hom_positions(omap[a], omap[b])
        pos[a, b] = [at.get(mmap[g], -1) for g in hom]
    if any(-1 in at for at in pos.values()):  # F(f) outside hom(F a, F b) cannot compose with F(1_a)
        return FunctorVerdict(False, "composition not preserved")
    for a, b, c in itertools.product(objects, repeat=3):
        table, image_table = _compose_table(a, b, c), _compose_table(omap[a], omap[b], omap[c])
        width, pac = len(hom_between(omap[b], omap[c])), pos[a, c]
        pairs = itertools.product(pos[a, b], pos[b, c])  # in the order of the table's entries
        if any(pac[t] != image_table[x * width + y] for t, (x, y) in zip(table, pairs)):
            return FunctorVerdict(False, "composition not preserved")
    for a, b in homs:
        if a != b and b.contains(a):
            fa, fb = omap[a], omap[b]
            if not fb.contains(fa):
                return FunctorVerdict(False, "inclusion of objects not preserved")
            if mmap[inclusion(a, b)] != inclusion(fa, fb):
                return FunctorVerdict(False, "inclusion morphism not preserved")
    for (a, b), hom in homs.items():
        images = set(pos[a, b])
        if len(images) != len(hom):
            return FunctorVerdict(False, "not faithful")
        if len(images) != len(hom_between(omap[a], omap[b])):
            return FunctorVerdict(False, "not full")
    for c in objects:
        ideal_image = {omap[a] for a in objects if c.contains(a)}
        target_ideal = {x for x in targets if omap[c].contains(x)}
        if ideal_image != target_ideal:
            return FunctorVerdict(False, "principal ideal not mapped onto")
    return FunctorVerdict(True, None)


@lru_cache(maxsize=None)
def _hom_positions(a: Subspace, b: Subspace) -> dict[Morphism, int]:
    return {f: i for i, f in enumerate(hom_between(a, b))}


@lru_cache(maxsize=None)
def _compose_table(a: Subspace, b: Subspace, c: Subspace) -> tuple[int, ...]:
    """Entry i |hom(b, c)| + j is the position in hom(a, c) of hom(a, b)[i] . hom(b, c)[j]."""
    at = _hom_positions(a, c)
    return tuple(at[g.compose(h)] for g in hom_between(a, b) for h in hom_between(b, c))


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


def chi_indices(theta: Endo) -> list[int]:
    """Entry x is the index of theta^-1 x theta, read from the Cayley table."""
    theta_inv = theta.inverse()
    if theta_inv is None:
        raise NotInvertible("the duality is conjugation by an automorphism")
    u = ix.universe(theta.n, theta.p)
    prod, t = u.products, u.index(theta)
    return [prod[y][t] for y in prod[u.index(theta_inv)]]


class ChiReport(NamedTuple):
    ok: bool
    squares_checked: int
    failure: tuple[str, ...] | None  # text only: subspace bases, then matrices or a reason


def check_chi_naturality(theta: Endo, gamma: CrossConn, delta: CrossConn) -> ChiReport:
    """Verify that the duality is a bijection of the bifunctor sets and natural in the primal variable.

    chi must map Gamma(a, y) onto Delta(a, y) one to one, and chi(alpha) chi(E_f) = chi(alpha) E_delta(f)
    must hold for each f: a -> b and each alpha in some Gamma(a, y), with E_g = `extension(g)`, "followed
    by g" on the elements with image inside g.dom. That is all of the naturality square left once chi is
    a homomorphism on Sing (crossconn.linked-semigroup) and the table is associative (dual.naturality):
    a dual morphism acts by a carrier w on the left, chi(chi^-1(w) alpha E_f) = w chi(alpha) chi(E_f),
    and w chi(alpha) E_delta(f) lies in Delta(b, z), as ker w >= ann z and im E_delta(f) <= delta(b).
    """
    n, p = theta.n, theta.p
    primal = category(n, p, Side.PRIMAL)
    dual = category(n, p, Side.DUAL)
    chi_of = chi_indices(theta)
    u = ix.universe(n, p)
    prod = u.products
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
    alphas = {a: sorted(set().union(*(gamma_sets[(a, y)] for y in dual.objects))) for a in primal.objects}
    checked = 0
    for a, b in itertools.product(primal.objects, repeat=2):
        for f in hom_between(a, b):
            chi_f, ext_g = chi_of[extension(f)], extension(delta.mor(f))
            for alpha in alphas[a]:
                if prod[chi_of[alpha]][chi_f] != prod[chi_of[alpha]][ext_g]:
                    told = (str(a.basis), str(b.basis), mat_to_text(f.mat), mat_to_text(u.elements[alpha]))
                    return ChiReport(False, checked, told)
                checked += 1
    return ChiReport(True, checked, None)


NEEDS_TWO_LINES = "recovery needs at least two coordinate lines"


def recover_theta(delta: CrossConn) -> Endo:
    """Projective lifting: read the inducing map off the coordinate lines.

    The image of the first coordinate line fixes the scale (leading
    coefficient one); the remaining scalars are pinned by the images of
    the diagonal lines through e1 + ei. The result is verified to
    reproduce the whole functor exactly (its morphism map too, when it has
    one), otherwise NotInduced is raised.
    """
    n, p, omap = delta.n, delta.p, delta.object_map
    if n < 2:
        raise NotInduced(NEEDS_TWO_LINES)

    def line(v: Sequence[int]) -> Subspace:
        return canonical([v], n, p, Side.PRIMAL)

    def image_generator(src: Subspace) -> tuple[int, ...]:
        img = omap.get(src)
        if img is None or img.dim != 1:
            raise NotInduced("a coordinate line is not sent to a line")
        return img.basis.rows[0]

    units = Mat.identity(n, p).rows
    rows = [image_generator(line(units[0]))]
    for i in range(1, n):
        gen = image_generator(line(units[i]))
        diag_img = omap.get(line(tuple((a + b) % p for a, b in zip(units[0], units[i]))))
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
    primal = category(n, p, Side.PRIMAL).objects
    if {a: image_subspace(a, theta) for a in primal} != dict(omap):
        raise NotInduced("recovered map does not reproduce the object map")
    if delta.morphism_map:
        if functor_from_global(theta, primal).morphism_map != delta.morphism_map:
            raise NotInduced("recovered map does not reproduce the morphism map")
    return theta


def canonical_scalar_rep(theta: Endo) -> Endo:
    """Scale so the first nonzero coordinate of the first row is one."""
    for x in theta.rows[0]:
        if x:
            return Endo(theta.scale(inv_mod(x, theta.p)))
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
            theta = recover_theta(CrossConn(n, p, Side.PRIMAL, omap, {}))
        except NotInduced:
            continue
        kept.append(omap)
        thetas.append(theta)
    return ClassificationCensus(len(kept), tuple(kept), tuple(thetas))
