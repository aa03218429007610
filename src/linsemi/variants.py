"""Sandwich variants of the full transformation monoid.

The product twisted by a fixed transformation theta keeps the carrier
set and composes through theta. The regular elements form a
subsemigroup; pairing each with its two theta-translates embeds it into
a product of carrier semigroups cut out by the chosen complement of the
null space. When theta is singular the image-side carrier strictly
exceeds the translates coming from regular elements, which is the
non-principal cone count reported here. Carriers, regular part and census
are element indices read from `indexed.Universe`; only `variant_crossconnection`
multiplies `Endo`s, as the second route to the variant and pair tables. The
regular part is the a with rank(theta a theta) = rank(a) (Dolinka & East,
Semigroup Forum 96, 2018), counted in closed form by `semigroup.variant_reg_order`.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

from .crossconn import CrossConn, FunctorVerdict, functor_from_global, is_local_isomorphism
from .errors import NotInvertible
from .gf import Mat
from .indexed import universe
from .semigroup import Endo, mult_table
from .subspaces import (
    Subspace,
    SubspaceFilter,
    annihilator,
    complement,
    enumerate_subspaces,
    is_direct_sum,
)


class VariantContext(NamedTuple):
    """A sandwich element together with the chosen complement of its null space."""

    theta: Endo
    w: Subspace

    @property
    def n(self) -> int:
        return self.theta.n

    @property
    def p(self) -> int:
        return self.theta.p

    @property
    def null(self) -> Subspace:
        return self.theta.kernel


def make_variant(theta: Endo) -> VariantContext:
    """Choose the complement: the image when it splits the null space, else canonical.

    Only image-compatible choices make the principal-translate claims
    checkable, and the image works exactly when rank(theta^2) equals
    rank(theta).
    """
    if is_direct_sum(theta.kernel, theta.image):
        w = theta.image
    else:
        w = complement(theta.kernel)
    return VariantContext(theta, w)


def sandwich(a: Endo, b: Endo, ctx: VariantContext) -> Endo:
    return a @ ctx.theta @ b


def sandwich_index(ctx: VariantContext) -> Callable[[int, int], int]:
    """The sandwich product on element indices: a theta b is (a theta) b, one table lookup."""
    u = universe(ctx.n, ctx.p)
    prod, right = u.products, u.right_products(u.index(ctx.theta))
    return lambda a, b: prod[right[a]][b]


def reg_indices(ctx: VariantContext) -> tuple[int, ...]:
    """The regular elements in counting order, the a with rank(theta a theta) = rank(a): theta a theta is the
    transpose of (a theta)^T theta^T, read from the right products by theta and theta^T and the transposes."""
    u = universe(ctx.n, ctx.p)
    t = u.index(ctx.theta)
    right, back, transpose = u.right_products(t), u.right_products(u.transpose[t]), u.transpose
    rank = [u.dims[s] for s in u.image]
    return tuple(a for a, at in enumerate(right) if rank[back[transpose[at]]] == rank[a])


def carriers(ctx: VariantContext) -> tuple[list[int], list[int]]:
    """The two carriers as element indices in counting order: image-side, the elements with
    image inside the complement, and kernel-side, those with kernel above the null space."""
    u = universe(ctx.n, ctx.p)
    w, null = u.subspace_at[ctx.w], u.subspace_at[ctx.null]
    image_side = [x for x, s in enumerate(u.image) if u.contains(w, s)]
    return image_side, [x for x, k in enumerate(u.kernel) if u.contains(k, null)]


def phi(a: Endo, ctx: VariantContext) -> tuple[Endo, Endo]:
    """The pair of translates (theta . a, a . theta)."""
    return ctx.theta @ a, a @ ctx.theta


def restricted_objects(ctx: VariantContext) -> tuple[tuple[Subspace, ...], tuple[Subspace, ...]]:
    """Objects of the restricted categories: subspaces inside w, annihilators of those above the null space."""
    spaces = enumerate_subspaces(ctx.n, ctx.p, SubspaceFilter.ALL)
    return (
        tuple(a for a in spaces if ctx.w.contains(a)),
        tuple(annihilator(a) for a in spaces if a.contains(ctx.null)),
    )


class VariantCxnReport(NamedTuple):
    invertible: bool
    delta_verdict: FunctorVerdict | None
    gamma_verdict: FunctorVerdict | None
    proper_not_surjective: bool | None
    reg_size: int
    phi_injective: bool
    phi_table_matches: bool

    @property
    def ok(self) -> bool:
        """phi is injective and matches the table; for singular theta both
        functors are local isomorphisms and neither is onto."""
        functors = self.invertible or (
            self.delta_verdict.ok and self.gamma_verdict.ok and self.proper_not_surjective
        )
        return bool(self.phi_injective and self.phi_table_matches and functors)


def _restricted_verdict(f: CrossConn) -> tuple[FunctorVerdict, bool]:
    """Local-isomorphism verdict against the image objects, and object-surjectivity."""
    images = set(f.object_map.values())
    verdict = is_local_isomorphism(f, images)
    return verdict, images == set(enumerate_subspaces(f.n, f.p, SubspaceFilter.PROPER, f.side))


def variant_crossconnection(ctx: VariantContext) -> VariantCxnReport:
    """Build the restricted functors and the translate semigroup, with verdicts.

    For a singular sandwich element the two functors are checked to be
    local isomorphisms that are not object-surjective; in every case the
    translate pairs of the regular part are checked to multiply exactly
    like the variant product.
    """
    theta = ctx.theta
    reg = [universe(ctx.n, ctx.p).elements[a] for a in reg_indices(ctx)]
    pairs = tuple(phi(a, ctx) for a in reg)
    injective = len(set(pairs)) == len(pairs)
    matches = False
    if injective:
        reg_table = mult_table(reg, lambda a, b: sandwich(a, b, ctx))
        pair_table = mult_table(pairs, lambda x, y: (x[0] @ y[0], x[1] @ y[1]))
        matches = reg_table == pair_table
    if theta.inverse() is not None:
        return VariantCxnReport(True, None, None, None, len(reg), injective, matches)
    r_objects, b_objects = restricted_objects(ctx)
    delta = functor_from_global(theta, r_objects)
    delta_verdict, delta_onto = _restricted_verdict(delta)
    try:
        gamma = functor_from_global(Mat.transpose(theta), b_objects)
    except NotInvertible:
        gamma_verdict = FunctorVerdict(False, "transpose collapses a dual object")
        gamma_onto = False
    else:
        gamma_verdict, gamma_onto = _restricted_verdict(gamma)
    not_surjective = not delta_onto and not gamma_onto
    return VariantCxnReport(
        False, delta_verdict, gamma_verdict, not_surjective, len(reg), injective, matches
    )


class NonprincipalCensus(NamedTuple):
    carrier_size: int
    principal_size: int
    translates_in_carrier: bool
    excess: tuple[Endo, ...]
    example: Endo | None


def nonprincipal_cones(ctx: VariantContext) -> NonprincipalCensus:
    """Image-side carrier elements that are not translates of regular elements.

    When the null space does not split off the image, the chosen
    complement cannot contain the translates; the membership flag
    records this and the excess is taken against the translates that do
    land in the carrier. The translates a theta are Cayley-table lookups,
    and only the excess becomes `Endo`s, in counting order.
    """
    u = universe(ctx.n, ctx.p)
    carrier = set(carriers(ctx)[0])
    right = u.right_products(u.index(ctx.theta))  # entry a is a theta
    principal = {right[a] for a in reg_indices(ctx)}
    inside = principal <= carrier
    excess = tuple(u.elements[x] for x in sorted(carrier - principal))
    return NonprincipalCensus(len(carrier), len(principal), inside, excess, excess[0] if excess else None)
