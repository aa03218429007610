"""Index-coded elements of End(GF(p)^n) with per-size lookup tables.

For a fixed (n, p) an element is its counting-order index: the base-p
value of its flat entries, which is its position in `all_endos(n, p)`.
Equivalently the index is a base-p^n number whose digits are the vector
indices of the rows, row 0 most significant. A subspace is its position
in `enumerate_subspaces(n, p)`.

The tables are built once per size, on first use:

- `image[i]` is read from the `Endo.image` that `sing()` already
  computed by row reduction, so this module sits beside the field kernel
  in `gf`, not in place of it; the tests compare every table entry with
  `row_basis`, `kernel_basis` and `Mat.transpose`.
- `kernel[i]` uses the identity ker(M) = ann(image(M^T)): v @ M = 0
  says exactly that v is orthogonal to every row of M^T. One annihilator
  per subspace and the transpose table give every kernel without a row
  reduction per element.
- `transpose[i]` is the index of the transposed matrix.
- `below[s]` is a bitmask over subspaces: bit t is set when subspace s
  contains subspace t.

Products with a fixed factor t are lookups: the rows of a @ t are the
rows of a acted on by t, so one p^n-entry action table maps each row
digit, and t @ a = transpose[transpose[a] @ transpose[t]].
"""
from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .semigroup import Endo, all_endos
from .subspaces import Side, Subspace, annihilator, enumerate_subspaces


def _value(digits: Sequence[int], base: int) -> int:
    out = 0
    for d in digits:
        out = out * base + d
    return out


def _digit_sums(places: Sequence[Sequence[int]]) -> array:
    """Entry i is the sum of the place values picked by the base-len digits of i."""
    return array("L", map(sum, itertools.product(*places)))


@dataclass(frozen=True, eq=False)
class Universe:
    """Lookup tables for every n x n matrix over GF(p), indexed in counting order."""

    n: int
    p: int
    elements: tuple[Endo, ...]
    subspaces: tuple[Subspace, ...]
    subspace_at: dict[Subspace, int]
    image: array
    kernel: array
    transpose: array
    below: tuple[int, ...]

    def index(self, e: Endo) -> int:
        return _value(e.mat.flat(), self.p)

    def contains(self, s: int, t: int) -> bool:
        """Whether subspace s contains subspace t."""
        return bool(self.below[s] >> t & 1)

    def right_products(self, t: int) -> array:
        """Entry a is the index of a @ t, for every element a."""
        n, p = self.n, self.p
        rows = self.elements[t].mat.rows
        action = [
            _value([sum(v[j] * rows[j][k] for j in range(n)) % p for k in range(n)], p)
            for v in itertools.product(range(p), repeat=n)
        ]
        q = p**n
        return _digit_sums([[w * q ** (n - 1 - i) for w in action] for i in range(n)])

    def left_products(self, t: int) -> array:
        """Entry a is the index of t @ a, for every element a."""
        tr = self.transpose
        flipped = self.right_products(tr[t])
        return array("L", (tr[flipped[ta]] for ta in tr))


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


@lru_cache(maxsize=None)
def universe(n: int, p: int) -> Universe:
    """Build the tables for End(GF(p)^n); raises TooLarge beyond `all_endos`' limit."""
    elements = all_endos(n, p)
    subspaces = enumerate_subspaces(n, p)
    at = {s: i for i, s in enumerate(subspaces)}
    image = array("L", (at[e.image] for e in elements))
    transpose = _transpose_table(n, p)
    ann = [at[Subspace(n, p, Side.PRIMAL, annihilator(s).basis)] for s in subspaces]
    kernel = array("L", (ann[image[t]] for t in transpose))
    below = tuple(
        sum(1 << j for j, b in enumerate(subspaces) if a.contains(b)) for a in subspaces
    )
    return Universe(n, p, elements, subspaces, at, image, kernel, transpose, below)
