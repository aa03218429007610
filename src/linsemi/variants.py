"""Sandwich variants of the full transformation monoid.

The product twisted by a fixed transformation theta keeps the carrier
set and composes through theta. The regular elements form a
subsemigroup; pairing each with its two theta-translates embeds it into
a product of carrier semigroups cut out by the chosen complement of the
null space. When theta is singular the image-side carrier strictly
exceeds the translates coming from regular elements, which is the
non-principal cone count reported here.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from .crossconn import CrossConn, FunctorVerdict, functor_from_global, is_local_isomorphism
from .errors import NotInvertible
from .indexed import universe
from .semigroup import Endo, SemigroupTable, mult_table, regular_elements
from .subspaces import (
    ComplementMode,
    Subspace,
    SubspaceFilter,
    annihilator,
    complement,
    enumerate_subspaces,
    is_direct_sum,
)


@dataclass(frozen=True)
class VariantContext:
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

    @property
    def image(self) -> Subspace:
        return self.theta.image


def make_variant(theta: Endo) -> VariantContext:
    """Choose the complement: the image when it splits the null space, else canonical.

    Only image-compatible choices make the principal-translate claims
    checkable, and the image works exactly when rank(theta^2) equals
    rank(theta).
    """
    if is_direct_sum(theta.kernel, theta.image):
        w = theta.image
    else:
        w = complement(theta.kernel, ComplementMode.CANONICAL)
    return VariantContext(theta, w)


def sandwich(a: Endo, b: Endo, ctx: VariantContext) -> Endo:
    return a @ ctx.theta @ b


def sandwich_index(ctx: VariantContext) -> Callable[[int, int], int]:
    """The sandwich product on element indices: a theta b is (a theta) b, one table lookup."""
    u = universe(ctx.n, ctx.p)
    prod, q = u.products, len(u.transpose)
    right = u.right_products(u.index(ctx.theta))
    return lambda a, b: prod[right[a] * q + b]


@lru_cache(maxsize=None)
def reg_indices(ctx: VariantContext) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Indices of the regular elements of the variant, and of their first witnesses."""
    reg, witness = regular_elements(range(ctx.p ** (ctx.n * ctx.n)), sandwich_index(ctx))
    return tuple(reg), tuple(witness.values())


@lru_cache(maxsize=None)
def reg_variant(ctx: VariantContext) -> tuple[tuple[Endo, ...], tuple[tuple[Endo, Endo], ...]]:
    """Regular elements of the variant, with their first witnesses."""
    elements = universe(ctx.n, ctx.p).elements
    reg, witnesses = reg_indices(ctx)
    return tuple(elements[a] for a in reg), tuple((elements[a], elements[b]) for a, b in zip(reg, witnesses))


@lru_cache(maxsize=None)
def tr_elements(ctx: VariantContext) -> tuple[Endo, ...]:
    """Image-side carrier: transformations with image inside the complement."""
    u = universe(ctx.n, ctx.p)
    w = u.subspace_at[ctx.w]
    return tuple(f for f, s in zip(u.elements, u.image) if u.contains(w, s))


@lru_cache(maxsize=None)
def tb_elements(ctx: VariantContext) -> tuple[Endo, ...]:
    """Kernel-side carrier: transformations with kernel above the null space."""
    u = universe(ctx.n, ctx.p)
    null = u.subspace_at[ctx.null]
    return tuple(f for f, k in zip(u.elements, u.kernel) if u.contains(k, null))


def phi(a: Endo, ctx: VariantContext) -> tuple[Endo, Endo]:
    """The pair of translates (theta . a, a . theta)."""
    return ctx.theta @ a, a @ ctx.theta


class VariantCategories(NamedTuple):
    r_objects: tuple[Subspace, ...]
    b_objects: tuple[Subspace, ...]
    tr_table: SemigroupTable
    tb_table: SemigroupTable
    tr_regular: bool
    tb_regular: bool


def variant_categories(ctx: VariantContext) -> VariantCategories:
    """Object sets and carrier semigroups of the two restricted categories.

    The kernel-side carrier is a subsemigroup of the opposite monoid, so
    its table composes in reversed order.
    """
    r_objects = tuple(
        a for a in enumerate_subspaces(ctx.n, ctx.p, SubspaceFilter.ALL) if ctx.w.contains(a)
    )
    b_objects = tuple(
        annihilator(a)
        for a in enumerate_subspaces(ctx.n, ctx.p, SubspaceFilter.ALL)
        if a.contains(ctx.null)
    )
    tr = tr_elements(ctx)
    tb = tb_elements(ctx)
    tr_table = mult_table(tr, lambda a, b: a @ b)
    tb_table = mult_table(tb, lambda a, b: b @ a)
    tr_reg, _ = regular_elements(tr, lambda a, b: a @ b)
    tb_reg, _ = regular_elements(tb, lambda a, b: b @ a)
    return VariantCategories(
        r_objects, b_objects, tr_table, tb_table, len(tr_reg) == len(tr), len(tb_reg) == len(tb)
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
    verdict = is_local_isomorphism(tuple(f.object_map), f.object_map, f.morphism_map, images)
    return verdict, images == set(enumerate_subspaces(f.n, f.p, SubspaceFilter.PROPER, f.side))


def variant_crossconnection(ctx: VariantContext) -> VariantCxnReport:
    """Build the restricted functors and the translate semigroup, with verdicts.

    For a singular sandwich element the two functors are checked to be
    local isomorphisms that are not object-surjective; in every case the
    translate pairs of the regular part are checked to multiply exactly
    like the variant product.
    """
    theta = ctx.theta
    reg, _ = reg_variant(ctx)
    pairs = tuple(phi(a, ctx) for a in reg)
    injective = len(set(pairs)) == len(pairs)
    matches = False
    if injective:
        reg_table = mult_table(reg, lambda a, b: sandwich(a, b, ctx))
        pair_table = mult_table(pairs, lambda x, y: (x[0] @ y[0], x[1] @ y[1]))
        matches = reg_table.table == pair_table.table
    if theta.inverse() is not None:
        return VariantCxnReport(True, None, None, None, len(reg), injective, matches)
    cats = variant_categories(ctx)
    delta = functor_from_global(theta.mat, cats.r_objects)
    delta_verdict, delta_onto = _restricted_verdict(delta)
    try:
        gamma = functor_from_global(theta.mat.transpose(), cats.b_objects)
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
    land in the carrier.
    """
    carrier = set(tr_elements(ctx))
    reg, _ = reg_variant(ctx)
    principal = {a @ ctx.theta for a in reg}
    inside = principal <= carrier
    excess = tuple(sorted(carrier - principal, key=lambda e: e.mat.flat()))
    return NonprincipalCensus(len(carrier), len(principal), inside, excess, excess[0] if excess else None)
