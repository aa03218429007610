"""The monoid of linear transformations of GF(p)^n and its singular part.

Green's relations are decided from images and kernels; a brute-force
oracle built from principal ideals is provided so the two routes can be
compared pair by pair. Multiplication tables are first-class values and
table isomorphism is decided exactly (invariant refinement, then
backtracking with propagation).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Sequence

from . import indexed
from .errors import NotADirectSum, NotClosed, ShapeError
from .gf import Mat, all_matrices, invert, kernel_basis, row_basis
from .subspaces import (
    ComplementMode,
    Side,
    Subspace,
    SubspaceFilter,
    complement,
    enumerate_subspaces,
    gaussian_binomial,
    is_direct_sum,
)


@dataclass(frozen=True)
class Endo:
    """A linear transformation of GF(p)^n acting on row vectors."""

    mat: Mat

    def __post_init__(self) -> None:
        if not self.mat.is_square:
            raise ShapeError("an endomorphism needs a square matrix")

    @property
    def n(self) -> int:
        return self.mat.nrows

    @property
    def p(self) -> int:
        return self.mat.p

    @cached_property
    def kernel(self) -> Subspace:
        return Subspace(self.n, self.p, Side.PRIMAL, kernel_basis(self.mat))

    @cached_property
    def image(self) -> Subspace:
        return Subspace(self.n, self.p, Side.PRIMAL, row_basis(self.mat))

    @property
    def rank(self) -> int:
        return self.image.dim

    @property
    def is_singular(self) -> bool:
        return self.rank < self.n

    @property
    def is_idempotent(self) -> bool:
        return self.mat @ self.mat == self.mat

    def __matmul__(self, other: "Endo") -> "Endo":
        return Endo(self.mat @ other.mat)

    def transpose(self) -> "Endo":
        return Endo(self.mat.transpose())

    def inverse(self) -> "Endo | None":
        inv = invert(self.mat)
        return None if inv is None else Endo(inv)

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        return self.mat.apply(v)

    @staticmethod
    def identity(n: int, p: int) -> "Endo":
        return Endo(Mat.identity(n, p))

    @staticmethod
    def zero(n: int, p: int) -> "Endo":
        return Endo(Mat.zeros(n, n, p))


@lru_cache(maxsize=None)
def all_endos(n: int, p: int) -> tuple[Endo, ...]:
    """Every n x n matrix over GF(p) in counting order."""
    return tuple(Endo(m) for m in all_matrices(n, n, p))


@lru_cache(maxsize=None)
def sing(n: int, p: int) -> tuple[Endo, ...]:
    """The singular (non-invertible) transformations, in counting order."""
    u = indexed.universe(n, p)
    return tuple(u.elements[x] for x in u.singular)


@lru_cache(maxsize=None)
def gl(n: int, p: int) -> tuple[Endo, ...]:
    u = indexed.universe(n, p)
    return tuple(e for e, s in zip(u.elements, u.image) if u.subspaces[s].dim == n)


def gl_order(n: int, p: int) -> int:
    out = 1
    for i in range(n):
        out *= p**n - p**i
    return out


def sing_order(n: int, p: int) -> int:
    return p ** (n * n) - gl_order(n, p)


def singular_idempotent_count(n: int, p: int) -> int:
    """Sum over k < n of [n, k]_p p^(k(n-k)): an image of dimension k, then a complement as kernel."""
    return sum(gaussian_binomial(n, k, p) * p ** (k * (n - k)) for k in range(n))


def pgl_order(n: int, p: int) -> int:
    return gl_order(n, p) // (p - 1)


class GreenRelations(NamedTuple):
    l: bool
    r: bool
    h: bool
    d: bool


def green(a: Endo, b: Endo) -> GreenRelations:
    """Green's relations via the image/kernel characterisation.

    L compares images, R compares kernels, H is both, and D is rank
    equality (valid in the full monoid and in its ideals, including the
    singular part; arbitrary subsemigroups need the ideal oracle).
    """
    if (a.n, a.p) != (b.n, b.p):
        raise ShapeError("mixed ambient spaces")
    l = a.image == b.image
    r = a.kernel == b.kernel
    return GreenRelations(l, r, l and r, a.rank == b.rank)


def principal_ideals(elements: Sequence[Endo]) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """Left ideals S^1 a and right ideals a S^1 as index sets, per element."""
    index = {e: i for i, e in enumerate(elements)}
    left: list[frozenset[int]] = []
    right: list[frozenset[int]] = []
    for i, a in enumerate(elements):
        ls = {i}
        rs = {i}
        for s in elements:
            ls.add(index[s @ a])
            rs.add(index[a @ s])
        left.append(frozenset(ls))
        right.append(frozenset(rs))
    return left, right


class GreenOracleReport(NamedTuple):
    agrees: bool
    counterexample: tuple[int, int, str] | None


def green_oracle_report(elements: Sequence[Endo]) -> GreenOracleReport:
    """Compare image/kernel flags with the principal-ideal oracle on every pair.

    Checks the divisibility preorders (membership in S^1 a versus
    image/kernel containment), the L/R/H equivalences, and D both as the
    join of L and R and as rank equality.
    """
    left, right = principal_ideals(elements)
    n = len(elements)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    for i in range(n):
        for j in range(i + 1, n):
            if left[i] == left[j] or right[i] == right[j]:
                union(i, j)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            flags = green(a, b)
            if (j in left[i]) != a.image.contains(b.image):
                return GreenOracleReport(False, (i, j, "left divisibility"))
            if (j in right[i]) != b.kernel.contains(a.kernel):
                return GreenOracleReport(False, (i, j, "right divisibility"))
            if flags.l != (left[i] == left[j]):
                return GreenOracleReport(False, (i, j, "L"))
            if flags.r != (right[i] == right[j]):
                return GreenOracleReport(False, (i, j, "R"))
            if flags.h != (left[i] == left[j] and right[i] == right[j]):
                return GreenOracleReport(False, (i, j, "H"))
            if flags.d != (find(i) == find(j)):
                return GreenOracleReport(False, (i, j, "D"))
    return GreenOracleReport(True, None)


def idempotent_from(null: Subspace, image: Subspace) -> Endo:
    """The projection with the given kernel and image; they must decompose V."""
    null._match(image)
    if not is_direct_sum(null, image):
        raise NotADirectSum("kernel and image do not decompose the ambient space")
    stacked = null.basis.vstack(image.basis)
    inv = invert(stacked)
    target = Mat.zeros(null.dim, null.n, null.p).vstack(image.basis)
    return Endo(inv @ target)


@lru_cache(maxsize=None)
def idempotents(n: int, p: int, singular_only: bool = False) -> tuple[Endo, ...]:
    """All idempotent transformations, built from direct-sum decompositions."""
    out = []
    for null in enumerate_subspaces(n, p, SubspaceFilter.ALL):
        if singular_only and null.is_zero:
            continue
        for image in complement(null, ComplementMode.ALL):
            out.append(idempotent_from(null, image))
    return tuple(sorted(out, key=lambda e: e.mat.flat()))


def regular_elements(elements: Sequence, product: Callable) -> tuple[list, dict]:
    """Elements a admitting a witness b with a*b*a == a, plus the witnesses.

    Exhaustive search; the first witness in element order is recorded.
    """
    regular = []
    witness = {}
    for a in elements:
        for b in elements:
            if product(product(a, b), a) == a:
                regular.append(a)
                witness[a] = b
                break
    return regular, witness


@dataclass(frozen=True)
class SemigroupTable:
    """A finite multiplication table over an ordered element list."""

    elements: tuple
    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def idempotent_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.order) if self.table[i][i] == i)

    def is_associative(self) -> bool:
        t = self.table
        n = self.order
        return all(t[t[i][j]][k] == t[i][t[j][k]] for i in range(n) for j in range(n) for k in range(n))

    def to_json(self, label: Callable = str) -> dict:
        return {
            "order": self.order,
            "elements": [label(e) for e in self.elements],
            "table": [list(row) for row in self.table],
        }


def mult_table(elements: Sequence, product: Callable) -> SemigroupTable:
    """Build the table; raises NotClosed when a product escapes the element set."""
    elements = tuple(elements)
    index = {}
    for i, e in enumerate(elements):
        if e in index:
            raise ValueError(f"duplicate element at positions {index[e]} and {i}")
        index[e] = i
    rows = []
    for a in elements:
        row = []
        for b in elements:
            c = product(a, b)
            if c not in index:
                raise NotClosed(f"product of {a!r} and {b!r} escapes the set")
            row.append(index[c])
        rows.append(tuple(row))
    return SemigroupTable(elements, tuple(rows))


def transpose_table(t: SemigroupTable) -> SemigroupTable:
    """The opposite table: same elements, product order reversed."""
    n = t.order
    return SemigroupTable(t.elements, tuple(tuple(t.table[j][i] for j in range(n)) for i in range(n)))


def _joint_refine(t1: SemigroupTable, t2: SemigroupTable) -> tuple[list[int], list[int]]:
    """Iterated signature refinement with a colour namespace shared by both tables."""

    def initial(t: SemigroupTable) -> list[int]:
        return [1 if t.table[i][i] == i else 0 for i in range(t.order)]

    c1, c2 = initial(t1), initial(t2)
    while True:
        sigs: dict = {}

        def signature(t: SemigroupTable, colors: list[int], i: int) -> tuple:
            cnt = Counter(
                (colors[j], colors[t.table[i][j]], colors[t.table[j][i]]) for j in range(t.order)
            )
            return (colors[i], tuple(sorted(cnt.items())))

        s1 = [signature(t1, c1, i) for i in range(t1.order)]
        s2 = [signature(t2, c2, i) for i in range(t2.order)]
        for s in sorted(set(s1) | set(s2)):
            sigs[s] = len(sigs)
        n1 = [sigs[s] for s in s1]
        n2 = [sigs[s] for s in s2]
        if n1 == c1 and n2 == c2:
            return c1, c2
        c1, c2 = n1, n2


def _verify_witness(t1: SemigroupTable, t2: SemigroupTable, phi: Sequence[int]) -> bool:
    n = t1.order
    if sorted(phi) != list(range(n)):
        return False
    return all(phi[t1.table[i][j]] == t2.table[phi[i]][phi[j]] for i in range(n) for j in range(n))


def are_isomorphic(
    t1: SemigroupTable, t2: SemigroupTable, witness: Sequence[int] | None = None
) -> tuple[bool, tuple[int, ...] | None]:
    """Decide table isomorphism; returns the witness index bijection when true.

    A supplied witness is verified instead of searched for. Identical
    tables short-circuit to the identity. Otherwise invariants are
    refined jointly and a backtracking search with forced propagation
    runs over colour-respecting bijections.
    """
    if witness is not None:
        ok = t1.order == t2.order and _verify_witness(t1, t2, list(witness))
        return (ok, tuple(witness) if ok else None)
    n = t1.order
    if n != t2.order:
        return (False, None)
    if t1.table == t2.table:
        return (True, tuple(range(n)))
    c1, c2 = _joint_refine(t1, t2)
    if sorted(c1) != sorted(c2):
        return (False, None)
    by_color: dict[int, list[int]] = {}
    for j, c in enumerate(c2):
        by_color.setdefault(c, []).append(j)
    order = sorted(range(n), key=lambda i: (len(by_color[c1[i]]), i))
    phi = [-1] * n
    used = [False] * n

    def propagate(i: int, j: int, trail: list[int]) -> bool:
        stack = [(i, j)]
        while stack:
            x, y = stack.pop()
            if phi[x] != -1:
                if phi[x] != y:
                    return False
                continue
            if used[y] or c1[x] != c2[y]:
                return False
            phi[x] = y
            used[y] = True
            trail.append(x)
            for k in range(n):
                if phi[k] != -1:
                    stack.append((t1.table[x][k], t2.table[y][phi[k]]))
                    stack.append((t1.table[k][x], t2.table[phi[k]][y]))
        return True

    def undo(trail: list[int], mark: int) -> None:
        while len(trail) > mark:
            x = trail.pop()
            used[phi[x]] = False
            phi[x] = -1

    trail: list[int] = []

    def search(pos: int) -> bool:
        while pos < n and phi[order[pos]] != -1:
            pos += 1
        if pos == n:
            return True
        x = order[pos]
        for y in by_color[c1[x]]:
            if used[y]:
                continue
            mark = len(trail)
            if propagate(x, y, trail) and search(pos + 1):
                return True
            undo(trail, mark)
        return False

    if search(0):
        return (True, tuple(phi))
    return (False, None)
