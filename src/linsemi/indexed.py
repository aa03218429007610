"""Index-coded elements of End(GF(p)^n) with per-size lookup tables.

For a fixed (n, p) an element is its counting-order index: the base-p
value of its flat entries, which is its position in `all_endos(n, p)`.
Equivalently the index is a base-p^n number whose digits are the vector
indices of the rows, row 0 most significant. A subspace is its position
in `enumerate_subspaces(n, p)`.

`Universe.elements` (all p^(n^2) `Endo`s) is built only when read, never
at (2, 4); every table is an `array` of typecode "I", 4 bytes an entry.

The tables are built once per size, on first use:

- `join[s][v]` is the index of s + <v>, for every subspace s and every
  vector v; it costs one row reduction per pair with v outside s.
- `image[i]` comes from the join table by a recurrence on the row
  digits: the span of the first k rows joined with row k is the span of
  the first k + 1, so n rounds of lookups, row 0 first, give the image
  of every element without a row reduction per element. The tests
  compare every table entry with `row_basis`, `kernel_basis` and
  `Mat.transpose`.
- `kernel[i]` uses the identity ker(M) = ann(image(M^T)): v @ M = 0
  says exactly that v is orthogonal to every row of M^T. One annihilator
  per subspace and the transpose table give every kernel without a row
  reduction per element.
- `transpose[i]` is the index of the transposed matrix.
- `below[s]` is a bitmask over subspaces: bit t is set when subspace s
  contains subspace t.
- `squares[i]`, built on its own first use, is the index of M @ M: row r of
  M @ M is the combination of the rows of M with the entries of row r
  as coefficients, summed with addition and scaling tables over the p^n
  vectors.

Products with a fixed right factor t are lookups: the rows of a @ t are
the rows of a acted on by t's row digits, so one p^n-entry action table
maps each row digit.

The Cayley table `products`, built on its own first use column by column
from `right_products`, makes every product a @ b one lookup (Froidure &
Pin 1997); past `MAX_PRODUCTS` entries it raises TooLarge. A subspace
morphism f acts on the rows of an element whose image lies in f.dom:
`dual.row_map(f)`, built on first use per morphism, sends each vector of
f.dom to its image and marks the others -1, so x followed by f
(`globalize`) is one lookup per row digit of x.
"""
from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

from . import semigroup
from .errors import NotClosed, ShapeError, TooLarge
from .gf import enum_guard
from .subspaces import Side, Subspace, annihilator, canonical, enumerate_subspaces

MAX_PRODUCTS = 6_000_000  # (7,2) has 2401^2 = 5 764 801 products, 23 MB
INDEX = "I"  # the typecode of every table


def _value(digits: Sequence[int], base: int) -> int:
    out = 0
    for d in digits:
        out = out * base + d
    return out


def _digit_sums(places: Sequence[Sequence[int]]) -> array:
    """Entry i is the sum of the place values picked by the base-len digits of i."""
    return array(INDEX, map(sum, itertools.product(*places)))


@dataclass(frozen=True, eq=False)
class Universe:
    """Lookup tables for every n x n matrix over GF(p), indexed in counting order."""

    n: int
    p: int
    subspaces: tuple[Subspace, ...]
    subspace_at: dict[Subspace, int]
    image: array
    kernel: array
    transpose: array
    below: tuple[int, ...]

    @cached_property
    def elements(self) -> tuple[semigroup.Endo, ...]:
        return semigroup.all_endos(self.n, self.p)

    @cached_property
    def vectors(self) -> tuple[tuple[int, ...], ...]:  # the p^n rows, in counting order
        return tuple(itertools.product(range(self.p), repeat=self.n))

    @cached_property
    def singular(self) -> array:
        """The singular indices in counting order, the order of `semigroup.sing`."""
        whole = len(self.subspaces) - 1  # subspaces come dimension-major, so V is last
        return array(INDEX, itertools.compress(itertools.count(), map(whole.__ne__, self.image)))

    def index(self, e: semigroup.Endo) -> int:
        return _value(e.mat.flat(), self.p)

    def contains(self, s: int, t: int) -> bool:
        """Whether subspace s contains subspace t."""
        return bool(self.below[s] >> t & 1)

    @lru_cache(maxsize=None)
    def confined(self, top: int, bottom: int) -> tuple[int, ...]:
        """The singular elements with image inside subspace top and kernel above subspace bottom."""
        return tuple(
            x
            for x, (im, ker) in enumerate(zip(self.image, self.kernel))
            if self.subspaces[im].dim < self.n and self.contains(top, im) and self.contains(ker, bottom)
        )

    @cached_property
    def squares(self) -> array:
        """Entry a is the index of a @ a, for every element a."""
        n, p, vectors = self.n, self.p, self.vectors
        q = len(vectors)
        add = [[_value([(x + y) % p for x, y in zip(u, v)], p) for v in vectors] for u in vectors]
        scale = [[_value([c * x % p for x in v], p) for v in vectors] for c in range(p)]
        # terms[v]: the nonzero entries of vector v, as (row position, scaling table).
        terms = [[(j, scale[c]) for j, c in enumerate(v) if c] for v in vectors]
        out = array(INDEX)
        for rows in itertools.product(range(q), repeat=n):
            square = 0
            for r in rows:
                acc = 0
                for j, times in terms[r]:
                    acc = add[acc][times[rows[j]]]
                square = square * q + acc
            out.append(square)
        return out

    @cached_property
    def products(self) -> array:
        """Entry a * q + b is the index of a @ b, for q = p^(n^2)."""
        q = len(self.transpose)
        if q * q > MAX_PRODUCTS:
            raise TooLarge(f"a Cayley table of {q}^2 products exceeds {MAX_PRODUCTS}")
        out = array(INDEX, [0]) * (q * q)
        for b in range(q):
            out[b::q] = self.right_products(b)
        return out

    def table(self, members: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """Entry [i][j] is the position of members[i] @ members[j] in members; NotClosed if it escapes."""
        prod, q = self.products, len(self.transpose)
        at = {x: i for i, x in enumerate(members)}
        try:
            return tuple(tuple([at[prod[a * q + b]] for b in members]) for a in members)
        except KeyError:
            raise NotClosed("a product escapes the members") from None

    def right_products(self, t: int) -> array:
        """Entry a is the index of a @ t, for every element a."""
        n, p, q = self.n, self.p, len(self.vectors)
        rows = [self.vectors[t // q ** (n - 1 - j) % q] for j in range(n)]
        action = [_value([sum(v[j] * rows[j][k] for j in range(n)) % p for k in range(n)], p) for v in self.vectors]
        return _digit_sums([[w * q ** (n - 1 - i) for w in action] for i in range(n)])


def _transpose_table(n: int, p: int) -> array:
    # Row i holding vector v puts v[j] at flat position j * n + i of the transpose.
    places = [
        [
            sum(v[j] * p ** (n * n - 1 - (j * n + i)) for j in range(n))
            for v in itertools.product(range(p), repeat=n)
        ]
        for i in range(n)
    ]
    return _digit_sums(places)


def _join_table(subspaces: Sequence[Subspace], at: dict[Subspace, int]) -> list[array]:
    """Entry [s][v] is the index of subspace s + <v>, vectors in counting order."""
    out = []
    for i, s in enumerate(subspaces):
        inside = set(s.vectors())
        out.append(array(INDEX, (
            i if v in inside else at[canonical((*s.basis.rows, v), s.n, s.p)]
            for v in itertools.product(range(s.p), repeat=s.n)
        )))
    return out


def _image_table(n: int, join: Sequence[array]) -> array:
    # Round k maps each prefix of k rows to its span; the prefix is the
    # more significant part of the index, so appending join[span] extends
    # it by every value of the next row. Subspace 0 is the zero subspace.
    spans = array(INDEX, [0])
    for _ in range(n):
        nxt = array(INDEX)
        for s in spans:
            nxt.extend(join[s])
        spans = nxt
    return spans


@lru_cache(maxsize=None)
def universe(n: int, p: int) -> Universe:
    """Build the tables for End(GF(p)^n); raises TooLarge beyond `all_endos`' limit."""
    enum_guard(n, n, p)
    subspaces = enumerate_subspaces(n, p)
    at = {s: i for i, s in enumerate(subspaces)}
    image = _image_table(n, _join_table(subspaces, at))
    transpose = _transpose_table(n, p)
    ann = [at[Subspace(n, p, Side.PRIMAL, annihilator(s).basis)] for s in subspaces]
    kernel = array(INDEX, (ann[image[t]] for t in transpose))
    below = tuple(
        sum(1 << j for j, b in enumerate(subspaces) if a.contains(b)) for a in subspaces
    )
    return Universe(n, p, subspaces, at, image, kernel, transpose, below)


def globalize(x: int, rows: Sequence[int]) -> int:
    """Element x followed by the morphism of `dual.row_map` rows; ShapeError if a row escapes."""
    q = len(rows)
    out, place = 0, 1
    # Zero rows map to zero, so the leading zero digits need no lookup.
    while x:
        x, v = divmod(x, q)
        w = rows[v]
        if w < 0:
            raise ShapeError("image escapes the domain of the partial map")
        out += w * place
        place *= q
    return out
