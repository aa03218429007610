"""Exact linear algebra over prime fields GF(p).

Matrices act on row vectors, v -> v @ M, so the product A @ B means
"apply A, then B" and every composite in this package reads left to
right. All values are immutable and hashable; entries are ints reduced
mod p. Values are NamedTuple records: construction, `==` and hashing
are the tuple's own, in C, and assigning a field raises AttributeError.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from .errors import ModulusMismatch, ShapeError, TooLarge

# Hard cap for "enumerate all p^(n*n) matrices" style loops.
MAX_ENUM = 300_000


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_modulus(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def inv_mod(a: int, p: int) -> int:
    """Multiplicative inverse of a mod p; raises ZeroDivisionError on 0."""
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 is not invertible mod {p}")
    return pow(a, p - 2, p)


class Mat(NamedTuple):
    """Immutable matrix over GF(p); may have zero rows or columns."""

    rows: tuple[tuple[int, ...], ...]
    ncols: int
    p: int

    @staticmethod
    def make(rows: Sequence[Sequence[int]], p: int, ncols: int | None = None) -> "Mat":
        check_modulus(p)
        tup = tuple(tuple(x % p for x in row) for row in rows)
        if tup:
            width = len(tup[0])
            if any(len(row) != width for row in tup):
                raise ShapeError("ragged rows")
            if ncols is not None and ncols != width:
                raise ShapeError(f"declared {ncols} columns, rows have {width}")
            ncols = width
        elif ncols is None:
            ncols = 0
        return Mat(tup, ncols, p)

    @staticmethod
    @lru_cache(maxsize=None)
    def identity(n: int, p: int) -> "Mat":  # read by every invert, pivot complement and identity morphism
        return Mat.make([[1 if i == j else 0 for j in range(n)] for i in range(n)], p)

    @staticmethod
    def zeros(r: int, c: int, p: int) -> "Mat":
        return Mat.make([[0] * c for _ in range(r)], p, ncols=c)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __matmul__(self, other: "Mat") -> "Mat":
        p, orows = self.p, other.rows
        if p != other.p:
            raise ModulusMismatch(f"GF({p}) vs GF({other.p})")
        if self.ncols != len(orows):
            raise ShapeError(f"{self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        out = []
        for row in self.rows:
            acc = [0] * other.ncols
            for a, orow in zip(row, orows):
                if a:
                    for j, b in enumerate(orow):
                        if b:
                            acc[j] += a * b
            out.append(tuple(x % p for x in acc))
        return Mat(tuple(out), other.ncols, p)

    def __add__(self, other: "Mat") -> "Mat":
        if self.p != other.p:
            raise ModulusMismatch(f"GF({self.p}) vs GF({other.p})")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("shape mismatch in addition")
        p = self.p
        return Mat(
            tuple(tuple((a + b) % p for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)),
            self.ncols,
            p,
        )

    def scale(self, c: int) -> "Mat":
        p = self.p
        c %= p
        return Mat(tuple(tuple((c * x) % p for x in row) for row in self.rows), self.ncols, p)

    def transpose(self) -> "Mat":
        cols = tuple(zip(*self.rows)) if self.rows else tuple(() for _ in range(self.ncols))
        return Mat(tuple(tuple(col) for col in cols), self.nrows, self.p)

    def vstack(self, other: "Mat") -> "Mat":
        if self.p != other.p:
            raise ModulusMismatch(f"GF({self.p}) vs GF({other.p})")
        if self.ncols != other.ncols:
            raise ShapeError("column counts differ in vstack")
        return Mat(self.rows + other.rows, self.ncols, self.p)

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        """Row vector times matrix."""
        if len(v) != self.nrows:
            raise ShapeError(f"vector of length {len(v)} times {self.nrows}x{self.ncols}")
        p = self.p
        acc = [0] * self.ncols
        for a, row in zip(v, self.rows):
            if a % p:
                for j, b in enumerate(row):
                    acc[j] += a * b
        return tuple(x % p for x in acc)

    def flat(self) -> tuple[int, ...]:
        return tuple(x for row in self.rows for x in row)

    def __str__(self) -> str:
        return mat_to_text(self)


class RrefResult(NamedTuple):
    mat: Mat
    rank: int
    pivots: tuple[int, ...]


def _rref_rows(rows: list[list[int]], ncols: int, p: int) -> tuple[list[list[int]], list[int]]:
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c] % p:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = inv_mod(rows[r][c], p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


@lru_cache(maxsize=None)
def rref(m: Mat) -> RrefResult:
    """Reduced row echelon form with strictly increasing pivot columns."""
    rows = [list(r) for r in m.rows]
    rows, pivots = _rref_rows(rows, m.ncols, m.p)
    return RrefResult(Mat(tuple(tuple(r) for r in rows), m.ncols, m.p), len(pivots), tuple(pivots))


@lru_cache(maxsize=None)
def rref_with_transform(m: Mat) -> tuple[Mat, Mat, tuple[int, ...]]:
    """Return (R, T, pivots) with R = T @ m in RREF and T invertible."""
    n = m.nrows
    aug = [list(r) + [1 if j == i else 0 for j in range(n)] for i, r in enumerate(m.rows)]
    red, aug_pivots = _rref_rows(aug, m.ncols + n, m.p)
    left = Mat(tuple(tuple(row[: m.ncols]) for row in red), m.ncols, m.p)
    right = Mat(tuple(tuple(row[m.ncols :]) for row in red), n, m.p)
    # Columns are reduced left to right, so the pivots among the first
    # ncols columns are exactly those of m.
    pivots = tuple(c for c in aug_pivots if c < m.ncols)
    return left, right, pivots


def rank(m: Mat) -> int:
    return rref(m).rank


def row_basis(m: Mat) -> Mat:
    """Canonical (RREF) basis of the row space."""
    res = rref(m)
    return Mat(res.mat.rows[: res.rank], m.ncols, m.p)


def kernel_basis(m: Mat) -> Mat:
    """Canonical basis of the left kernel {v : v @ m = 0}."""
    left, transform, _ = rref_with_transform(m)
    zero = tuple(0 for _ in range(m.ncols))
    dep = [transform.rows[i] for i in range(m.nrows) if left.rows[i] == zero]
    if not dep:
        return Mat((), m.nrows, m.p)
    return row_basis(Mat(tuple(dep), m.nrows, m.p))


def invert(m: Mat) -> Mat | None:
    """Inverse matrix, or None when m is singular (membership test for GL)."""
    if not m.is_square:
        raise ShapeError("only square matrices can be inverted")
    left, transform, _ = rref_with_transform(m)
    if left != Mat.identity(m.nrows, m.p):
        return None
    return transform


def pivot_complement(m: Mat) -> Mat:
    """The unit rows at the non-pivot columns of rref(m): a basis of a complement of m's row space."""
    pivots = set(rref(m).pivots)
    units = Mat.identity(m.ncols, m.p).rows
    return Mat(tuple(e for c, e in enumerate(units) if c not in pivots), m.ncols, m.p)


def projection(along: Mat, onto: Mat) -> Mat | None:
    """The projection of the ambient space onto the rows of onto along the rows of along.

    Row i holds the coordinates, in the rows of onto, of unit vector i projected:
    the last onto.nrows columns of the inverse of along stacked on onto. None when
    the stacked rows are not a basis.
    """
    stacked = along.vstack(onto)
    inv = invert(stacked) if stacked.is_square else None
    if inv is None:
        return None
    return Mat(tuple(row[along.nrows :] for row in inv.rows), onto.nrows, onto.p)


def solve_left(m: Mat, target: Sequence[int]) -> tuple[int, ...] | None:
    """One solution x of x @ m = target, or None when target is outside the row space."""
    if len(target) != m.ncols:
        raise ShapeError("target length does not match column count")
    left, transform, pivots = rref_with_transform(m)
    target = tuple(x % m.p for x in target)
    coeffs = [0] * m.nrows
    for i, c in enumerate(pivots):
        coeffs[i] = target[c]
    coeff_row = Mat((tuple(coeffs),), m.nrows, m.p)
    if (coeff_row @ left).rows[0] != target:
        return None
    return (coeff_row @ transform).rows[0]


def enum_guard(r: int, c: int, p: int) -> None:
    total = p ** (r * c)
    if total > MAX_ENUM:
        raise TooLarge(f"{total} matrices of shape {r}x{c} over GF({p}) exceed limit {MAX_ENUM}")


def digit_value(digits: Sequence[int], base: int) -> int:
    """The number with these base-`base` digits, most significant first: the position in counting order."""
    out = 0
    for d in digits:
        out = out * base + d
    return out


def matrix_fields(r: int, c: int, p: int) -> Iterator[tuple[tuple[tuple[int, ...], ...], int, int]]:
    """The fields (rows, c, p) of every r x c matrix over GF(p), in row-major counting order, valid
    by construction: a batch builder makes each record by one C-level `tuple.__new__(cls, fields)`."""
    enum_guard(r, c, p)
    # Row 0 is the most significant digit, so this is the flat counting order.
    return zip(itertools.product(row_vectors(c, p), repeat=r), itertools.repeat(c), itertools.repeat(p))


@lru_cache(maxsize=None)
def row_vectors(c: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Every row of length c over GF(p) in counting order: the row tuples every bulk-built matrix shares."""
    return tuple(itertools.product(range(p), repeat=c))


def all_matrices(r: int, c: int, p: int) -> Iterator[Mat]:
    """All r x c matrices over GF(p) in row-major counting order, each checked by construction."""
    return map(tuple.__new__, itertools.repeat(Mat), matrix_fields(r, c, p))


def parse_mat(text: str, p: int) -> Mat:
    """Parse "1,0;0,1" into a Mat; rejects entries >= p."""
    check_modulus(p)
    rows = []
    for chunk in text.strip().split(";"):
        entries = []
        for tok in chunk.split(","):
            tok = tok.strip()
            if not tok.lstrip("-").isdigit():
                raise ValueError(f"bad matrix entry {tok!r}")
            val = int(tok)
            if val < 0 or val >= p:
                raise ValueError(f"entry {val} out of range for GF({p})")
            entries.append(val)
        rows.append(entries)
    if len({len(r) for r in rows}) > 1:
        raise ValueError("ragged matrix text")
    return Mat.make(rows, p)


def mat_to_text(m: Mat) -> str:
    return ";".join(",".join(str(x) for x in row) for row in m.rows)
