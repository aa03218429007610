"""Canonical subspaces of GF(p)^n and the morphisms between them.

A Subspace stores the unique RREF basis of its span, so equality of
subspaces is plain equality of values. Functionals on V are encoded as
coordinate row vectors w acting by v -> v . w, which makes the dual
space concrete: DUAL-side subspaces live in the same coordinate model
and the annihilator is a kernel computation.

Coordinates are read from a table: for each distinct RREF basis, a dict
from every one of its p^dim vectors to its coordinates, built once on
first use and cached on the basis. A table costs p^dim vector-matrix
products, once per distinct basis; a query is then one reduction mod p
and one lookup, and a vector outside the subspace is simply absent.
Containment compares two bitmasks of member vectors, cached per subspace.
Tables over a whole lattice, built once per size with no `enum_guard`
(member bitmasks, dimensions, containment masks and annihilators by
index) and every complement of a subspace belong to `indexed.lattice`;
the lattice checks read them.
"""
from __future__ import annotations

import itertools
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import NotIncluded, NotInvertible, ShapeError, TooLarge
from .gf import Mat, check_modulus, digit_value, kernel_basis, pivot_complement, projection
from .gf import rank, row_basis, solve_left


class Side(Enum):
    PRIMAL = "primal"
    DUAL = "dual"

    # Members are singletons, so identity is their equality and their hash;
    # Enum's own hash runs in Python, once per Subspace or Morphism hashed.
    __hash__ = object.__hash__

    def flip(self) -> "Side":
        return Side.DUAL if self is Side.PRIMAL else Side.PRIMAL


class SubspaceFilter(Enum):
    ALL = "all"
    PROPER = "proper"
    NONZERO = "nonzero"


class _SubspaceFields(NamedTuple):
    n: int
    p: int
    side: Side
    basis: Mat  # RREF, one row per dimension


class Subspace(_SubspaceFields):
    """A subspace of GF(p)^n, or of its dual on the DUAL side, as its canonical basis."""

    @cached_property
    def dim(self) -> int:  # read often enough to compute once
        return self.basis.nrows

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    def coords_of(self, v: Sequence[int]) -> tuple[int, ...] | None:
        """Coordinates of v in the canonical basis, or None when v is outside."""
        v = tuple(x % self.p for x in v)
        if len(v) != self.n:
            raise ShapeError(f"vector of length {len(v)} in ambient dimension {self.n}")
        return _coordinate_table(self.basis).get(v)

    def coordinates(self, vectors: Iterable[Sequence[int]]) -> Mat | None:
        """The matrix whose row i is coords_of(vectors[i]), or None when one vector is outside."""
        rows = tuple(map(self.coords_of, vectors))
        # coords_of returns reduced entries, so the matrix skips Mat.make.
        return None if None in rows else Mat(rows, self.dim, self.p)

    def contains_vector(self, v: Sequence[int]) -> bool:
        return self.coords_of(v) is not None

    def contains(self, other: "Subspace") -> bool:
        self._match(other)
        return not other.members & ~self.members

    @cached_property
    def members(self) -> int:
        """Bit v is set for every vector of the subspace, v read as a base-p number."""
        return sum(1 << digit_value(v, self.p) for v in self.vectors())

    def _match(self, other: "Subspace") -> None:
        if (self.n, self.p, self.side) != (other.n, other.p, other.side):
            raise ShapeError("subspaces live in different ambient spaces")

    def vectors(self) -> Iterator[tuple[int, ...]]:
        """All p^dim vectors of the subspace, coordinates in counting order."""
        return iter(_coordinate_table(self.basis))


@lru_cache(maxsize=None)
def _coordinate_table(basis: Mat) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Every vector spanned by the rows of basis, mapped to its coordinates.

    Keys are inserted in counting order of the coordinates, which `vectors` relies on.
    """
    return {
        basis.apply(coords): coords for coords in itertools.product(range(basis.p), repeat=basis.nrows)
    }


def canonical(vectors: Sequence[Sequence[int]], n: int, p: int, side: Side = Side.PRIMAL) -> Subspace:
    """Subspace spanned by the given row vectors, in canonical RREF form."""
    check_modulus(p)
    for v in vectors:
        if len(v) != n:
            raise ShapeError(f"vector of length {len(v)} in ambient dimension {n}")
    return Subspace(n, p, side, row_basis(Mat.make(vectors, p, ncols=n)))


def zero_subspace(n: int, p: int, side: Side = Side.PRIMAL) -> Subspace:
    return canonical([], n, p, side)


def full_subspace(n: int, p: int, side: Side = Side.PRIMAL) -> Subspace:
    return Subspace(n, p, side, Mat.identity(n, p))


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of GF(p)^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _rref_bases(n: int, k: int, p: int) -> list[Mat]:
    """Every k x n RREF matrix of rank k."""
    out = []
    for pivots in itertools.combinations(range(n), k):
        free_slots = [
            (i, c)
            for i in range(k)
            for c in range(pivots[i] + 1, n)
            if c not in pivots
        ]
        base = [[0] * n for _ in range(k)]
        for i, c in enumerate(pivots):
            base[i][c] = 1
        for values in itertools.product(range(p), repeat=len(free_slots)):
            rows = [r[:] for r in base]
            for (i, c), val in zip(free_slots, values):
                rows[i][c] = val
            out.append(Mat.make(rows, p, ncols=n))
    return out


def enumerate_subspaces(
    n: int, p: int, which: SubspaceFilter = SubspaceFilter.ALL, side: Side = Side.PRIMAL
) -> tuple[Subspace, ...]:
    """All subspaces in deterministic order: dimension-major, then lexicographic.

    Every filter is a slice of one cached tuple per (n, p, side), zero first
    and V last, so all callers share the same `Subspace` objects.
    """
    spaces = _all_subspaces(n, p, side)
    if which is SubspaceFilter.PROPER:
        return spaces[:-1]
    return spaces[1:] if which is SubspaceFilter.NONZERO else spaces


@lru_cache(maxsize=None)
def _all_subspaces(n: int, p: int, side: Side) -> tuple[Subspace, ...]:
    check_modulus(p)
    total = sum(gaussian_binomial(n, k, p) for k in range(n + 1))
    if total > 2_000_000:
        raise TooLarge(f"{total} subspaces of GF({p})^{n}")
    layers = (sorted(_rref_bases(n, k, p), key=lambda m: m.flat()) for k in range(n + 1))
    return tuple(Subspace(n, p, side, b) for layer in layers for b in layer)


def complement(a: Subspace) -> Subspace:
    """The canonical complement W of a, with a + W = V and a ^ W = 0: the span of the standard basis
    vectors at the non-pivot coordinates of a. `indexed.Lattice.complements` lists every complement."""
    return Subspace(a.n, a.p, a.side, pivot_complement(a.basis))


@lru_cache(maxsize=None)
def annihilator(a: Subspace) -> Subspace:
    """Functionals vanishing on a; maps PRIMAL to DUAL and back."""
    return Subspace(a.n, a.p, a.side.flip(), kernel_basis(a.basis.transpose()))


def is_direct_sum(a: Subspace, b: Subspace) -> bool:
    return a.dim + b.dim == a.n and rank(a.basis.vstack(b.basis)) == a.n


class _MorphismFields(NamedTuple):
    dom: Subspace
    cod: Subspace
    mat: Mat  # dim(dom) x dim(cod)


class Morphism(_MorphismFields):
    """A linear map dom -> cod, stored w.r.t. the canonical bases."""

    __slots__ = ()

    def __new__(cls, dom: Subspace, cod: Subspace, mat: Mat) -> "Morphism":
        self = tuple.__new__(cls, (dom, cod, mat))
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        if self.mat.nrows != self.dom.dim or self.mat.ncols != self.cod.dim:
            raise ShapeError("morphism matrix does not match dom/cod dimensions")

    @staticmethod
    def identity(a: Subspace) -> "Morphism":
        return Morphism(a, a, Mat.identity(a.dim, a.p))

    @staticmethod
    def zero(a: Subspace, b: Subspace) -> "Morphism":
        return Morphism(a, b, Mat.zeros(a.dim, b.dim, a.p))

    def compose(self, other: "Morphism") -> "Morphism":
        """self followed by other (left-to-right, like the matrix product)."""
        if self.cod != other.dom:
            raise ShapeError("codomain/domain mismatch in composition")
        return Morphism(self.dom, other.cod, self.mat @ other.mat)

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        """Image in ambient coordinates of an ambient vector v in dom."""
        coords = self.dom.coords_of(v)
        if coords is None:
            raise ShapeError("vector outside the domain")
        return self.cod.basis.apply(self.mat.apply(coords))

    @property
    def rank(self) -> int:
        return rank(self.mat)

    @property
    def is_iso(self) -> bool:
        return self.dom.dim == self.cod.dim == self.rank

    @property
    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.mat.rows)

    def image(self) -> Subspace:
        return canonical((self.mat @ self.cod.basis).rows, self.dom.n, self.dom.p, self.cod.side)

    def kernel(self) -> Subspace:
        ker = kernel_basis(self.mat)
        return canonical((ker @ self.dom.basis).rows, self.dom.n, self.dom.p, self.dom.side)


def inclusion(a: Subspace, b: Subspace) -> Morphism:
    """The inclusion morphism j(a, b); raises NotIncluded when a is not inside b."""
    a._match(b)
    coords = b.coordinates(a.basis.rows)
    if coords is None:
        raise NotIncluded(f"{a.basis} is not a subspace of {b.basis}")
    return Morphism(a, b, coords)


def retraction(j: Morphism) -> Morphism:
    """The splitting retraction q: b -> a of the inclusion j = inclusion(a, b), with j . q = 1_a.

    In b-coordinates, it is `projection(pivot_complement(j.mat), j.mat)`: the
    projection onto a along the canonical pivot complement of a inside b.
    """
    proj = projection(pivot_complement(j.mat), j.mat)
    if proj is None:
        raise ShapeError("basis completion failed; a is not full rank inside b")
    return Morphism(j.cod, j.dom, proj)


def image_subspace(a: Subspace, m: Mat) -> Subspace:
    """Image of a under the global map m acting on rows."""
    if m.nrows != a.n:
        raise ShapeError("global map has wrong ambient dimension")
    return canonical((a.basis @ m).rows, a.n, a.p, a.side)


def transport_morphism(f: Morphism, g: Mat) -> Morphism:
    """Conjugate f: A -> B into a morphism A.g -> B.g along a global map g.

    Requires g to be injective on the domain of f; this is what an
    automorphism (or a map restricted to a complement of its kernel)
    provides.
    """
    dom2 = image_subspace(f.dom, g)
    cod2 = image_subspace(f.cod, g)
    if dom2.dim != f.dom.dim:
        raise NotInvertible("global map is not injective on the domain")
    lifted = f.dom.basis @ g
    rows = []
    for v in dom2.basis.rows:
        pre = solve_left(lifted, v)
        if pre is None:
            raise NotInvertible("failed to lift a basis vector")
        w = f.cod.basis.apply(f.mat.apply(pre))
        coords = cod2.coords_of(g.apply(w))
        if coords is None:
            raise NotInvertible("transported image escapes the transported codomain")
        rows.append(coords)
    return Morphism(dom2, cod2, Mat.make(rows, f.dom.p, ncols=cod2.dim))
