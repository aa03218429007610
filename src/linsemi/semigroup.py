"""The monoid of linear transformations of GF(p)^n and its singular part.

An element is one `Endo` record, its own square `Mat`; `all_endos`, `sing`
and `gl` are `indexed.Elements` views that build a record when it is read. Green's
relations are decided from images and kernels; a brute-force oracle
built from principal ideals is provided so the two routes can be
compared pair by pair. A multiplication table is a tuple of rows of
positions in an ordered element list, the value `indexed.Universe.table`
returns; tables built over the same order are compared entry by entry,
and no isomorphism search is offered.
"""
from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Sequence

from . import indexed
from .errors import NotADirectSum, NotClosed, ShapeError
from .gf import Mat, enum_guard, invert, kernel_basis, projection, row_basis
from .subspaces import Side, Subspace, gaussian_binomial


class Endo(Mat):
    """A linear transformation of GF(p)^n acting on row vectors: its own square `Mat`, so
    `Endo(m) == m` and both hash alike. Mat-level work calls `Mat.__matmul__` and
    `Mat.transpose`, which build no Endo; `@` and `transpose` on Endos give Endos."""

    def __new__(cls, mat: Mat) -> "Endo":
        self = tuple.__new__(cls, mat)
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        if not self.is_square:
            raise ShapeError("an endomorphism needs a square matrix")

    def __getnewargs__(self) -> tuple[Mat]:  # pickle and copy rebuild through `Endo(mat)`
        return (Mat(*self),)

    @property
    def n(self) -> int:
        return self.nrows

    @cached_property
    def kernel(self) -> Subspace:
        return Subspace(self.n, self.p, Side.PRIMAL, kernel_basis(self))

    @cached_property
    def image(self) -> Subspace:
        return Subspace(self.n, self.p, Side.PRIMAL, row_basis(self))

    @property
    def rank(self) -> int:
        return self.image.dim

    @property
    def is_singular(self) -> bool:
        return self.rank < self.n

    @property
    def is_idempotent(self) -> bool:
        return Mat.__matmul__(self, self) == self

    def __matmul__(self, other: "Endo") -> "Endo":
        return Endo(Mat.__matmul__(self, other))

    def transpose(self) -> "Endo":
        return Endo(Mat.transpose(self))

    def inverse(self) -> "Endo | None":
        inv = invert(self)
        return None if inv is None else Endo(inv)

    @staticmethod
    def identity(n: int, p: int) -> "Endo":
        return Endo(Mat.identity(n, p))

    @staticmethod
    def zero(n: int, p: int) -> "Endo":
        return Endo(Mat.zeros(n, n, p))


@lru_cache(maxsize=None)
def all_endos(n: int, p: int) -> indexed.Elements:
    """Every n x n matrix over GF(p) in counting order; no record is built until one is read."""
    enum_guard(n, n, p)
    return indexed.Elements(n, p, range(p ** (n * n)))


@lru_cache(maxsize=None)
def sing(n: int, p: int) -> indexed.Elements:
    """The singular (non-invertible) transformations, in counting order."""
    return indexed.Elements(n, p, indexed.universe(n, p).singular)


@lru_cache(maxsize=None)
def gl(n: int, p: int) -> indexed.Elements:
    return indexed.Elements(n, p, indexed.universe(n, p).invertible)


def gl_order(n: int, p: int) -> int:
    out = 1
    for i in range(n):
        out *= p**n - p**i
    return out


def sing_order(n: int, p: int) -> int:
    return p ** (n * n) - gl_order(n, p)


def variant_reg_order(n: int, p: int, r: int) -> int:
    """|Reg| of End(V)^theta for theta of rank r: the sum over k <= r of N(r, k) p^(2k(n-r)), with
    N(r, k) = [r, k]_p prod_{i<k} (p^r - p^i) the r x r matrices of rank k (Dolinka & East 2018)."""
    of_rank = (gaussian_binomial(r, k, p) * math.prod(p**r - p**i for i in range(k)) for k in range(r + 1))
    return sum(count * p ** (2 * k * (n - r)) for k, count in enumerate(of_rank))


def singular_idempotent_count(n: int, p: int) -> int:
    """Sum over k < n of [n, k]_p p^(k(n-k)): an image of dimension k, then a complement as kernel."""
    return sum(gaussian_binomial(n, k, p) * p ** (k * (n - k)) for k in range(n))


def pgl_order(n: int, p: int) -> int:
    return gl_order(n, p) // (p - 1)


def principal_ideals(u: indexed.Universe, xs: Sequence[int]) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """Per element of xs, its left ideal S^1 a and right ideal a S^1 as positions in xs, from the Cayley table."""
    prod = u.products
    at = {x: i for i, x in enumerate(xs)}
    left = [frozenset([i, *(at[prod[s][a]] for s in xs)]) for i, a in enumerate(xs)]
    right = [frozenset([i, *(at[prod[a][s]] for s in xs)]) for i, a in enumerate(xs)]
    return left, right


class GreenOracleReport(NamedTuple):
    agrees: bool
    counterexample: tuple[int, int, str] | None


def index_green_report(u: indexed.Universe, xs: Sequence[int]) -> GreenOracleReport:
    """Compare image/kernel flags with the principal-ideal oracle on every pair of elements xs.

    The flags read the universe's image, kernel and containment tables,
    not the Cayley table of the oracle. Checks the divisibility preorders
    (membership in S^1 a versus image/kernel containment), the L/R/H
    equivalences, and D both as the join of L and R and as rank equality
    (valid in the full monoid and in its ideals, the singular part included).
    """
    left, right = principal_ideals(u, xs)
    n = len(xs)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    def label(ideals: list[frozenset[int]]) -> list[int]:  # the first position with the same ideal
        first: dict[frozenset[int], int] = {}
        return [first.setdefault(s, i) for i, s in enumerate(ideals)]

    lclass, rclass = label(left), label(right)
    for i in range(n):  # D is the join of L and R
        union(i, lclass[i])
        union(i, rclass[i])
    dclass = [find(i) for i in range(n)]
    spans = [(u.image[x], u.kernel[x], u.dims[u.image[x]]) for x in xs]
    for i, (im_a, ker_a, rank_a) in enumerate(spans):
        left_i, right_i, li, ri, di = left[i], right[i], lclass[i], rclass[i], dclass[i]
        for j, (im_b, ker_b, rank_b) in enumerate(spans):
            l, r = im_a == im_b, ker_a == ker_b
            same_l, same_r = li == lclass[j], ri == rclass[j]
            if (j in left_i) != u.contains(im_a, im_b):
                return GreenOracleReport(False, (i, j, "left divisibility"))
            if (j in right_i) != u.contains(ker_b, ker_a):
                return GreenOracleReport(False, (i, j, "right divisibility"))
            if l != same_l:
                return GreenOracleReport(False, (i, j, "L"))
            if r != same_r:
                return GreenOracleReport(False, (i, j, "R"))
            if (l and r) != (same_l and same_r):
                return GreenOracleReport(False, (i, j, "H"))
            if (rank_a == rank_b) != (di == dclass[j]):
                return GreenOracleReport(False, (i, j, "D"))
    return GreenOracleReport(True, None)


def idempotent_from(null: Subspace, image: Subspace) -> Endo:
    """The projection with the given kernel and image; they must decompose V.

    It is `projection(null.basis, image.basis) @ image.basis`: the projection
    onto image along null, read back in ambient coordinates. The projection
    exists exactly when the two bases together are a basis of V.
    """
    null._match(image)
    proj = projection(null.basis, image.basis)
    if proj is None:
        raise NotADirectSum("kernel and image do not decompose the ambient space")
    return Endo(proj @ image.basis)


@lru_cache(maxsize=None)
def idempotents(n: int, p: int) -> tuple[Endo, ...]:
    """All idempotent transformations, built from direct-sum decompositions, in counting order."""
    u = indexed.universe(n, p)
    return tuple(u.elements[x] for x, _, _ in u.decompositions)


def regular_elements(elements: Sequence, product: Callable) -> list:
    """Elements a admitting a witness b with a*b*a == a, by exhaustive search, in element order."""
    regular = []
    for a in elements:
        for b in elements:
            if product(product(a, b), a) == a:
                regular.append(a)
                break
    return regular


def mult_table(elements: Sequence, product: Callable) -> tuple[tuple[int, ...], ...]:
    """Entry [i][j] is the position of product(elements[i], elements[j]); NotClosed if it escapes."""
    elements = tuple(elements)
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("an element repeats")
    try:
        return tuple(tuple([index[product(a, b)] for b in elements]) for a in elements)
    except KeyError:
        raise NotClosed("a product escapes the elements") from None
