"""Index-coded elements of End(GF(p)^n) with per-size lookup tables.

For a fixed (n, p) an element is its counting-order index: the base-p
value of its flat entries, which is its position in `all_endos(n, p)`.
Equivalently the index is a base-p^n number whose digits are the vector
indices of the rows, row 0 most significant. A subspace is its position
in `enumerate_subspaces(n, p)`.

The subspace lattice has its own index, `lattice(n, p)`, built once per
size with no `enum_guard`, so it exists at (2, 5) and (5, 4) too, where
`universe` raises TooLarge. It owns the tables over subspace indices:
`members[s]`, the bitmask of the vectors of subspace s; `dims[s]`;
`below[s]`, whose bit t is set when subspace s contains subspace t, and
its transpose `above[t]`, the AND of the masks of the subspaces holding
each basis row of t, built with one step per containment pair, not one
per pair of subspaces; and `ann[s]`, the index of the annihilator of
subspace s read as a primal subspace, one `annihilator` call per subspace.
It answers by index which subspaces complement s, `complements(s)`, and
whether a map of subspaces reverses containment, `unreversed_pair(f)`.
The lattice checks, `dual.build_normal_dual` and `decompositions` read
it, and a universe holds the same `subspaces`, `subspace_at`, `dims`,
`below` and `ann`.

Every table is an `array` of typecode "I", 4 bytes an entry. `universe`
builds `image`, `join`, `add` and `scale`; `kernel`, `transpose`,
`idempotents`, `decompositions` and `products` wait for their first read.
End(V), Sing(V) and GL(V) are `Elements` views over `range(q)`, `singular`
and `invertible`, which read only `image`: an `Endo` is decoded when read
and not kept, and a pass over a whole view builds its records in bulk.

- `join[s][v]` is the index of s + <v>, for every subspace s and every
  vector v: the members of s + <v> are a + c v over the members a of s
  and every scalar c, read from `add` and `scale`, and their bitmask is
  looked up among the subspaces' `members`, so no pair row-reduces.
- `image[i]` comes from the join table by a recurrence on the row
  digits: the span of the first k rows joined with row k is the span of
  the first k + 1, so n rounds of lookups, row 0 first, give the image
  of every element without a row reduction per element. The tests
  compare every table entry with `row_basis`, `kernel_basis` and
  `Mat.transpose`.
- `kernel[i]` uses the identity ker(M) = ann(image(M^T)): v @ M = 0
  says exactly that v is orthogonal to every row of M^T, so `ann` and
  `transpose[i]`, the index of the transposed matrix, give every kernel
  without a row reduction per element.
- `add[u][v]` and `scale[c][v]` are the vector indices of u + v and c v;
  `combine(v, rows)` sums the given row vectors with the entries of
  vector v as coefficients.
- `span(vectors)` folds the join table, and `linear_map(basis, images)`
  extends images of basis vectors.
- `idempotents`, built on its own first use, lists every M with M @ M = M:
  row r of M @ M combines the rows of M with the entries of row r as
  coefficients, and the test of M stops at the first row that moves. The
  scan runs over the p^(n(n-1)) prefixes of the first n - 1 rows: a
  prefix row r whose last entry c is nonzero forces the last row to be
  c^-1 (r - the combination of the prefix rows by r's other entries), so
  only that candidate is tested; a prefix with no such row tests all p^n,
  unless one of its rows already moves without reading the last row.
- `decompositions` builds the idempotent of each complementary pair (K, W)
  without a matrix inverse: it sends k + w to w, so `add` fills a p^n-entry
  target over the member vectors, and the unit vectors' targets are its rows.

Products with a fixed right factor t are lookups: the rows of a @ t are
the rows of a acted on by t's row digits, so one p^n-entry action table
maps each row digit. `product_images(t)` folds the join table over the
vectors t reaches, deduplicating after each round: the images of all
p^(n^2) products a @ t from at most n * |lattice| * p^n lookups.

The Cayley table `products`, built on its own first use column by column
from `right_products`, makes every product a @ b one lookup (Froidure &
Pin 1997); past `MAX_PRODUCTS` entries it raises TooLarge. Callers read
it as rows, `products[a][b]`, each row a view of one q^2 buffer, and read
V as `whole` and a vector's index from `vector_at`, so no caller computes
a table offset, the index of V or the index of a vector. A subspace
morphism f acts on an element x whose image lies in f.dom as one more
product: `dual.extension(f)` is the index of the element E that is f on
f.dom and 0 on its canonical complement, so x followed by f is
`products[x][E]`.
"""
from __future__ import annotations

import itertools
import operator
from array import array
from bisect import bisect_left, bisect_right
from functools import cached_property, lru_cache, reduce
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import semigroup
from .errors import NotClosed, TooLarge
from .gf import Mat, digit_value, enum_guard, matrix_fields, row_vectors
from .subspaces import Side, Subspace, annihilator, enumerate_subspaces

MAX_PRODUCTS = 6_000_000  # (7,2) has 2401^2 = 5 764 801 products, 23 MB
INDEX = "I"  # the typecode of every table


def _digit_fold(rounds: Sequence[Callable[[int], Iterable[int]]]) -> array:
    """Entry i folds the digits of i from 0, most significant first: round k replaces
    each value s of the first k digits by rounds[k](s), one entry per value of digit k."""
    out = array(INDEX, [0])
    for extend in rounds:
        nxt = array(INDEX)
        for s in out:
            nxt.extend(extend(s))
        out = nxt
    return out


def _digit_sums(places: Sequence[Sequence[int]]) -> array:
    """Entry i is the sum of the place values picked by the base-len digits of i.

    Each round streams every (value so far, place value) pair through `operator.add`
    into the next array, with no Python frame per entry.
    """
    out = array(INDEX, [0])
    for place in places:
        out = array(INDEX, itertools.starmap(operator.add, itertools.product(out, place)))
    return out


class Elements(Sequence):
    """The `Endo`s of the ascending element indices `at`, built when read and not kept; equal to their tuple."""

    def __init__(self, n: int, p: int, at: Sequence[int]):
        self.n, self.p, self.at = n, p, at

    def __len__(self) -> int:
        return len(self.at)

    def __getitem__(self, i: int | slice) -> semigroup.Endo | tuple[semigroup.Endo, ...]:
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        n, x, rows = self.n, self.at[i], row_vectors(self.n, self.p)  # the bulk route's row tuples
        q = len(rows)
        return semigroup.Endo(Mat(tuple(rows[x // q ** (n - 1 - j) % q] for j in range(n)), n, self.p))

    def __iter__(self) -> Iterator[semigroup.Endo]:
        # One C-level `tuple.__new__` a record, square by construction; `compress` keeps those in `at`.
        fields = matrix_fields(self.n, self.n, self.p)
        if len(self.at) < self.p ** (self.n * self.n):
            fields = itertools.compress(fields, map(set(self.at).__contains__, itertools.count()))
        return map(tuple.__new__, itertools.repeat(semigroup.Endo), fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, (tuple, Elements)) and tuple(self) == tuple(other)


class Lattice(NamedTuple):
    """The subspaces of GF(p)^n in `enumerate_subspaces` order, and tables over their indices."""

    subspaces: tuple[Subspace, ...]
    subspace_at: dict[Subspace, int]
    members: tuple[int, ...]  # entry s is `subspaces[s].members`, the bitmask of its vectors
    dims: array
    below: tuple[int, ...]  # bit t of entry s is set when subspace s contains subspace t
    above: tuple[int, ...]  # bit s of entry t is set when subspace s contains subspace t: `below` transposed
    ann: array  # entry s is the index of the annihilator of subspace s, read as a primal subspace

    def complements(self, s: int) -> list[int]:
        """The complements t of s (s + t = V, s ^ t = 0) in enumeration order. They have dimension n - dims[s],
        one slice since subspaces come dimension-major, and hold no line of s: the subspaces holding a line
        l are the bits of `above[l]`, so the complements are the slice bits that the OR of those leaves clear."""
        dims = self.dims
        want, lines = dims[-1] - dims[s], (1 << bisect_right(dims, 1)) - 2  # V is last; lines follow 0
        lo, hi = bisect_left(dims, want), bisect_right(dims, want)
        meets = reduce(operator.or_, map(self.above.__getitem__, set_bits(self.below[s] & lines)), 0)
        window = format((meets >> lo) & ((1 << (hi - lo)) - 1), f"0{hi - lo}b")  # bit lo + i is char -1 - i
        return list(itertools.compress(range(lo, hi), map("0".__eq__, reversed(window))))

    def unreversed_pair(self, f: dict[int, int]) -> tuple[int, int] | None:
        """The first (s, t) of f's domain, s then t in index order, where "t contains s" and "f(s) contains
        f(t)" disagree, or None: `above[s]` must equal the OR of `pre[x]`, the mask of the t that f sends to
        x, over the x below f(s), one step per containment pair; the lowest differing bit is the first t."""
        pre, domain = [0] * len(self.members), 0
        for s, x in f.items():
            pre[x] |= 1 << s
            domain |= 1 << s
        for s, x in f.items():
            reached = reduce(operator.or_, map(pre.__getitem__, set_bits(self.below[x])), 0)
            if differ := (self.above[s] & domain) ^ reached:
                return s, (differ & -differ).bit_length() - 1
        return None


class _UniverseFields(NamedTuple):
    n: int
    p: int
    subspaces: tuple[Subspace, ...]
    subspace_at: dict[Subspace, int]
    dims: array
    image: array
    below: tuple[int, ...]
    join: tuple[array, ...]
    ann: array  # entry s is the index of the annihilator of subspace s, read as a primal subspace
    add: tuple[array, ...]
    scale: tuple[array, ...]


class Universe(_UniverseFields):
    """Lookup tables for every n x n matrix over GF(p), indexed in counting order.

    A universe equals only itself and hashes by identity: its tables are
    arrays and dicts, and `confined` is cached per universe.
    """

    def __eq__(self, other: object) -> bool:
        return self is other

    def __ne__(self, other: object) -> bool:
        return self is not other

    __hash__ = object.__hash__

    @cached_property
    def elements(self) -> Elements:
        return semigroup.all_endos(self.n, self.p)

    @cached_property
    def vectors(self) -> tuple[tuple[int, ...], ...]:  # the p^n rows, in counting order
        return tuple(itertools.product(range(self.p), repeat=self.n))

    @cached_property
    def vector_at(self) -> dict[tuple[int, ...], int]:  # the inverse of `vectors`
        return {v: i for i, v in enumerate(self.vectors)}

    @property
    def whole(self) -> int:
        """The index of V; subspaces come dimension-major, so V is last and the proper ones are range(whole)."""
        return len(self.subspaces) - 1

    @cached_property
    def singular(self) -> array:
        """The singular indices in counting order, the order of `semigroup.sing`."""
        return array(INDEX, itertools.compress(itertools.count(), map(self.whole.__ne__, self.image)))

    @cached_property
    def invertible(self) -> array:
        """The invertible indices in counting order, the order of `semigroup.gl`."""
        return array(INDEX, itertools.compress(itertools.count(), map(self.whole.__eq__, self.image)))

    def index(self, e: Mat) -> int:
        return digit_value(e.flat(), self.p)

    def contains(self, s: int, t: int) -> bool:
        """Whether subspace s contains subspace t."""
        return bool(self.below[s] >> t & 1)

    @cached_property
    def transpose(self) -> array:
        """Entry i is the index of the transpose of element i."""
        return _transpose_table(self.n, self.p)

    @cached_property
    def kernel(self) -> array:
        """Entry i is the subspace index of the kernel of element i: ann(image(M^T))."""
        ann, image = self.ann.tolist(), self.image.tolist()
        return array(INDEX, [ann[image[t]] for t in self.transpose.tolist()])

    @lru_cache(maxsize=None)
    def confined(self, top: int, bottom: int) -> tuple[int, ...]:
        """The singular elements with image inside subspace top and kernel above subspace bottom."""
        dims = self.dims
        return tuple(
            x
            for x, (im, ker) in enumerate(zip(self.image, self.kernel))
            if dims[im] < self.n and self.contains(top, im) and self.contains(ker, bottom)
        )

    @cached_property
    def terms(self) -> tuple[tuple[tuple[int, array], ...], ...]:
        """Entry v: the nonzero entries of vector v, as (position, scaling table)."""
        return tuple(tuple((j, self.scale[c]) for j, c in enumerate(v) if c) for v in self.vectors)

    def combine(self, v: int, rows: Sequence[int]) -> int:
        """The vector index of the sum of rows[j] times entry j of vector v."""
        acc, add = 0, self.add
        for j, times in self.terms[v]:
            acc = add[acc][times[rows[j]]]
        return acc

    def span(self, vectors: Iterable[int]) -> int:
        """The subspace index of the span of the vectors, by folding the join table."""
        s, join = 0, self.join
        for v in vectors:
            s = join[s][v]
        return s

    def linear_map(self, basis: Sequence[int], images: Sequence[int]) -> dict[int, int]:
        """The linear map sending vector basis[j] to vector images[j], on every vector of their span."""
        shift = self.p ** (self.n - len(basis))  # coefficient vectors with zeros past position len(basis)
        coefficients = [c * shift for c in range(self.p ** len(basis))]
        return {self.combine(c, basis): self.combine(c, images) for c in coefficients}

    def rows(self, x: int) -> list[int]:
        """The vector indices of the rows of element x, row 0 first."""
        q = len(self.vectors)
        return [x // q ** (self.n - 1 - j) % q for j in range(self.n)]

    @cached_property
    def idempotents(self) -> array:
        """The indices x with x @ x = x, in counting order; candidates come by row prefix."""
        q, p, combine, add, scale = len(self.vectors), self.p, self.combine, self.add, self.scale
        inverse, out = [0, *(pow(c, p - 2, p) for c in range(1, p))], array(INDEX)
        for head, prefix in enumerate(itertools.product(range(q), repeat=self.n - 1)):
            lasts: Iterable[int] = range(q)
            for r in prefix:
                if c := r % p:  # the last entry of row r; r - c is r with it cleared
                    lasts = (scale[inverse[c]][add[r][scale[p - 1][combine(r - c, prefix)]]],)
                    break
                if combine(r, prefix) != r:  # row r of x @ x does not read the last row
                    lasts = ()
                    break
            for last in lasts:
                rows = (*prefix, last)
                for r in rows:
                    if combine(r, rows) != r:
                        break
                else:
                    out.append(head * q + last)
        return out

    @cached_property
    def decompositions(self) -> tuple[tuple[int, int, int], ...]:
        """(x, k, w) for every complementary pair of subspaces k, w, sorted by x: the
        idempotent x has kernel k and image w."""
        q, add, lat, out = len(self.vectors), self.add, lattice(self.n, self.p), []
        members = [list(set_bits(mask)) for mask in lat.members]
        units = [q // self.p ** (j + 1) for j in range(self.n)]
        for k in range(len(members)):
            for w in lat.complements(k):
                target = [0] * q
                for b in members[w]:
                    for a in members[k]:
                        target[add[a][b]] = b
                out.append((digit_value([target[e] for e in units], q), k, w))
        return tuple(sorted(out))

    @cached_property
    def products(self) -> tuple[memoryview, ...]:
        """Entry [a][b] is the index of a @ b; the q = p^(n^2) rows are views of one q^2 buffer."""
        q = len(self.image)
        if q * q > MAX_PRODUCTS:
            raise TooLarge(f"a Cayley table of {q}^2 products exceeds {MAX_PRODUCTS}")
        out = array(INDEX, [0]) * (q * q)
        for b in range(q):
            out[b::q] = self.right_products(b)
        flat = memoryview(out)
        return tuple(flat[a * q : (a + 1) * q] for a in range(q))

    def table(self, members: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """Entry [i][j] is the position of members[i] @ members[j] in members; NotClosed if it escapes."""
        prod = self.products
        at = {x: i for i, x in enumerate(members)}
        try:
            return tuple(tuple([at[row[b]] for b in members]) for row in map(prod.__getitem__, members))
        except KeyError:
            raise NotClosed("a product escapes the members") from None

    def right_products(self, t: int) -> array:
        """Entry a is the index of a @ t, for every element a."""
        n, q, rows = self.n, len(self.vectors), self.rows(t)
        action = [self.combine(v, rows) for v in range(q)]
        return _digit_sums([[w * q ** (n - 1 - i) for w in action] for i in range(n)])

    def product_images(self, t: int) -> set[int]:
        """The images of a @ t over every element a, as subspace indices."""
        rows = self.rows(t)
        reached, out = {self.combine(v, rows) for v in range(len(self.vectors))}, {0}
        for _ in range(self.n):  # row k of a @ t is any reached vector
            out = {self.join[s][w] for s in out for w in reached}
        return out


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


def _join_table(members: Sequence[int], add: Sequence[array], scale: Sequence[array]) -> tuple[array, ...]:
    """Entry [s][v] is the index of subspace s + <v>, vectors in counting order: the bitmask
    of its members a + c v, over a in s and every c, names it among the subspaces."""
    at = {m: i for i, m in enumerate(members)}
    out = []
    for mask in members:
        inside = [a for a in range(len(add)) if mask >> a & 1]
        joined = ({1 << add[a][c[v]] for c in scale for a in inside} for v in range(len(add)))
        out.append(array(INDEX, (at[sum(bits)] for bits in joined)))
    return tuple(out)


def set_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _containment(subspaces: Sequence[Subspace], members: Sequence[int], q: int) -> tuple[tuple[int, ...], ...]:
    """The `below` and `above` masks from `holders[v]`, the mask of the subspaces holding vector v:
    t lies in s when s holds every basis row of t, so `above[t]` ANDs the holders of t's rows,
    and `below`, its bit-transpose, takes one step per containment pair, not per pair of subspaces."""
    holders = [0] * q
    for s, mask in enumerate(members):
        for v in set_bits(mask):
            holders[v] |= 1 << s
    everything = (1 << len(members)) - 1
    above, below = [], [0] * len(members)
    for t, a in enumerate(subspaces):
        mask = everything
        for row in a.basis.rows:
            mask &= holders[digit_value(row, a.p)]
        above.append(mask)
        for s in set_bits(mask):
            below[s] |= 1 << t
    return tuple(below), tuple(above)


@lru_cache(maxsize=None)
def lattice(n: int, p: int) -> Lattice:
    """Index the subspaces of GF(p)^n; at every size, with no `enum_guard`."""
    subspaces = enumerate_subspaces(n, p)
    at = {s: i for i, s in enumerate(subspaces)}
    members = tuple(s.members for s in subspaces)
    below, above = _containment(subspaces, members, p**n)
    ann = array(INDEX, (at[Subspace(n, p, Side.PRIMAL, annihilator(s).basis)] for s in subspaces))
    return Lattice(subspaces, at, members, array(INDEX, (s.dim for s in subspaces)), below, above, ann)


@lru_cache(maxsize=None)
def universe(n: int, p: int) -> Universe:
    """Build the tables for End(GF(p)^n); raises TooLarge beyond `all_endos`' limit."""
    enum_guard(n, n, p)
    lat = lattice(n, p)
    vs = list(itertools.product(range(p), repeat=n))
    add = tuple(array(INDEX, (digit_value([(x + y) % p for x, y in zip(u, v)], p) for v in vs)) for u in vs)
    scale = tuple(array(INDEX, (digit_value([c * x % p for x in v], p) for v in vs)) for c in range(p))
    join = _join_table(lat.members, add, scale)
    image = _digit_fold([join.__getitem__] * n)  # from the zero subspace 0, join one row a round
    return Universe(n, p, lat.subspaces, lat.subspace_at, lat.dims, image, lat.below, join, lat.ann, add, scale)

