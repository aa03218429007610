"""Subspace lattice: enumeration counts, complements, annihilators, inclusions."""
import itertools
import operator

import pytest

from linsemi import indexed
from linsemi.errors import NotIncluded, ShapeError
from linsemi.gf import Mat, rank, row_basis, rref
from linsemi.normal_cones import category
from linsemi.subspaces import (
    Morphism,
    Side,
    Subspace,
    SubspaceFilter,
    annihilator,
    canonical,
    complement,
    enumerate_subspaces,
    full_subspace,
    gaussian_binomial,
    inclusion,
    is_direct_sum,
    retraction,
    zero_subspace,
)


def gaussian_recursive(n: int, k: int, p: int) -> int:
    """Independent oracle: Pascal-style recursion for subspace counts."""
    if k == 0:
        return 1
    if n == 0:
        return 0
    return gaussian_recursive(n - 1, k - 1, p) * p ** (n - k) + gaussian_recursive(n - 1, k, p)


def spanned_vectors(s: Subspace) -> frozenset:
    return frozenset(s.vectors())


class TestCanonical:
    def test_dependent_vectors(self):
        s = canonical([[1, 1], [0, 0]], 2, 2)
        assert s.basis == Mat.make([[1, 1]], 2)
        assert s.dim == 1

    def test_empty_is_zero(self):
        assert canonical([], 2, 2) == zero_subspace(2, 2)

    def test_full_space_form(self):
        s = canonical([[0, 1], [1, 0]], 2, 2)
        assert s.basis == Mat.identity(2, 2)

    def test_span_preserved(self):
        vecs = [[1, 2, 0], [2, 1, 0]]
        s = canonical(vecs, 3, 3)
        for v in vecs:
            assert s.contains_vector(v)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            canonical([[1, 0, 0]], 2, 2)


def coordinate_table(s: Subspace) -> dict:
    """Independent oracle: every vector the basis spans, mapped to the coefficients that give it."""
    return {s.basis.apply(c): c for c in itertools.product(range(s.p), repeat=s.dim)}


class TestCoordsOf:
    @pytest.mark.parametrize("side", list(Side))
    @pytest.mark.parametrize("n,p", [(3, 2), (2, 3), (2, 7)])
    def test_matches_pivot_reading(self, n, p, side):
        vectors = list(itertools.product(range(p), repeat=n))
        spaces = enumerate_subspaces(n, p, SubspaceFilter.ALL, side)
        # Every subspace the library builds holds its RREF basis, which reading at the pivots relies on.
        for s in (*spaces, *map(complement, spaces), *map(annihilator, spaces)):
            assert row_basis(s.basis) == s.basis
            table = coordinate_table(s)
            assert len(table) == p**s.dim
            for v in vectors:
                want = table.get(v)
                assert s.coords_of(v) == want
                # unreduced and negative representatives of the same vector
                assert s.coords_of([x + p * (i + 1) for i, x in enumerate(v)]) == want
                assert s.coords_of([x - p for x in v]) == want

    def test_wrong_length(self):
        for s in (canonical([[1, 0, 1]], 3, 2), zero_subspace(3, 2), full_subspace(3, 2)):
            for v in [(), (1, 0), (1, 0, 1, 0)]:
                with pytest.raises(ShapeError):
                    s.coords_of(v)


class TestCoordinates:
    @pytest.mark.parametrize("n,p", [(3, 2), (2, 3)])
    def test_rows_are_coords_of(self, n, p):
        vectors = list(itertools.product(range(p), repeat=n))
        for s in enumerate_subspaces(n, p):
            inside = [v for v in vectors if s.coords_of(v) is not None]
            assert s.coordinates(inside) == Mat.make([s.coords_of(v) for v in inside], p, ncols=s.dim)
            for v in vectors:
                if s.coords_of(v) is None:
                    assert s.coordinates([*inside, v]) is None


class TestEnumeration:
    def test_counts_2_2(self):
        assert len(enumerate_subspaces(2, 2)) == 5
        assert len(enumerate_subspaces(2, 2, SubspaceFilter.PROPER)) == 4

    def test_counts_3_2(self):
        assert len(enumerate_subspaces(3, 2)) == 16

    def test_proper_1_2(self):
        spaces = enumerate_subspaces(1, 2, SubspaceFilter.PROPER)
        assert spaces == (zero_subspace(1, 2),)

    @pytest.mark.parametrize("n,p", [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (2, 5)])
    def test_counts_match_recursion(self, n, p):
        spaces = enumerate_subspaces(n, p)
        for k in range(n + 1):
            got = sum(1 for s in spaces if s.dim == k)
            assert got == gaussian_binomial(n, k, p) == gaussian_recursive(n, k, p)

    def test_all_distinct_spans(self):
        spaces = enumerate_subspaces(2, 3)
        spans = {spanned_vectors(s) for s in spaces}
        assert len(spans) == len(spaces)

    def test_order_deterministic(self):
        a = enumerate_subspaces(3, 2)
        dims = [s.dim for s in a]
        assert dims == sorted(dims)
        for k in range(4):
            layer = [s.basis.flat() for s in a if s.dim == k]
            assert layer == sorted(layer)


class TestComplement:
    def test_all_complements_of_line(self):
        lat = indexed.lattice(2, 2)
        found = lat.complements(lat.subspace_at[canonical([[0, 1]], 2, 2)])
        assert {lat.subspaces[w].basis.rows for w in found} == {((1, 0),), ((1, 1),)}
        assert len(found) == 2 ** (1 * 1)

    def test_zero_complement_is_full(self):
        lat = indexed.lattice(2, 2)
        assert lat.complements(0) == [lat.subspace_at[full_subspace(2, 2)]]
        assert lat.complements(len(lat.subspaces) - 1) == [lat.subspace_at[zero_subspace(2, 2)]]

    def test_canonical_uses_nonpivots(self):
        a = canonical([[1, 0]], 2, 2)
        assert complement(a) == canonical([[0, 1]], 2, 2)

    @pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_complement_counts(self, n, p):
        lat = indexed.lattice(n, p)
        for s, a in enumerate(lat.subspaces):
            found = lat.complements(s)
            assert len(found) == p ** (a.dim * (n - a.dim))
            for w in map(lat.subspaces.__getitem__, found):
                assert is_direct_sum(a, w)
                # By vectors: only zero is shared, and the sums x + y cover V.
                assert set(a.vectors()) & set(w.vectors()) == {(0,) * n}
                sums = {tuple((s + t) % p for s, t in zip(x, y)) for x in a.vectors() for y in w.vectors()}
                assert len(sums) == p**n

    @pytest.mark.parametrize("p,n", [(3, 2), (2, 3), (2, 4)])
    def test_bitmask_complements_match_rank_filter(self, p, n):
        lat = indexed.lattice(n, p)
        spaces = lat.subspaces
        for s, a in enumerate(spaces):
            by_rank = [t for t, w in enumerate(spaces) if a.dim + w.dim == n == rank(a.basis.vstack(w.basis))]
            assert lat.complements(s) == by_rank

    @pytest.mark.parametrize("p,n", [(2, 2), (3, 3), (2, 5), (5, 3)])
    def test_lattice_complements_are_the_member_meets(self, p, n):
        # The line route (the slice bits no `above[l]` covers) equals the definition by member bitmask.
        lat = indexed.lattice(n, p)
        members, dims = lat.members, lat.dims
        for s in range(len(members)):
            want = [t for t in range(len(members)) if dims[t] == n - dims[s] and members[s] & members[t] == 1]
            assert lat.complements(s) == want

    def test_canonical_is_a_complement(self):
        for a in enumerate_subspaces(3, 3):
            assert is_direct_sum(a, complement(a))


class TestAnnihilator:
    def test_line_annihilator(self):
        a = canonical([[1, 0]], 2, 2)
        ann = annihilator(a)
        assert ann.side is Side.DUAL
        assert ann.basis == Mat.make([[0, 1]], 2)

    def test_zero_and_full(self):
        assert annihilator(zero_subspace(2, 3)).dim == 2
        assert annihilator(full_subspace(2, 3)).dim == 0

    def test_functional_vanishing(self):
        # every dual basis row pairs to zero with every vector of the subspace
        for a in enumerate_subspaces(3, 2):
            ann = annihilator(a)
            for w in ann.basis.rows:
                for v in a.basis.rows:
                    assert sum(x * y for x, y in zip(v, w)) % 2 == 0

    @pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_dimension_and_involution(self, n, p):
        for a in enumerate_subspaces(n, p):
            ann = annihilator(a)
            assert ann.dim == n - a.dim
            assert annihilator(ann) == a

    @pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_antitone(self, n, p):
        spaces = enumerate_subspaces(n, p)
        for a in spaces:
            for b in spaces:
                assert b.contains(a) == annihilator(a).contains(annihilator(b))


class TestInclusion:
    def test_zero_inclusion_empty(self):
        j = inclusion(zero_subspace(2, 2), canonical([[1, 0]], 2, 2))
        assert j.mat.nrows == 0

    def test_inclusion_into_full(self):
        j = inclusion(canonical([[1, 1]], 2, 2), full_subspace(2, 2))
        assert j.mat == Mat.make([[1, 1]], 2)

    def test_not_included(self):
        with pytest.raises(NotIncluded):
            inclusion(canonical([[1, 0]], 2, 2), canonical([[0, 1]], 2, 2))

    @pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (2, 3)])
    def test_splitting(self, n, p):
        spaces = enumerate_subspaces(n, p)
        for a in spaces:
            for b in spaces:
                if not b.contains(a):
                    continue
                j = inclusion(a, b)
                assert j.compose(retraction(j)) == Morphism.identity(a)

    @pytest.mark.parametrize("rows", [[[0, 0]], [[1, 2], [2, 1]]])
    def test_retraction_of_a_rank_deficient_map_fails(self, rows):
        a, b = canonical([[1, 0], [0, 1]][: len(rows)], 2, 3), full_subspace(2, 3)
        with pytest.raises(ShapeError, match="basis completion failed"):
            retraction(Morphism(a, b, Mat.make(rows, 3)))

    def test_splitting_check_rejects_a_zero_retraction(self, monkeypatch):
        from linsemi import subspaces, verify

        assert verify.check_inclusion_splitting(2, 2) == (True, None)
        monkeypatch.setattr(subspaces, "retraction", lambda j: Morphism.zero(j.cod, j.dom))
        # The zero subspace splits through zero; the first line <(0, 1)> inside itself does not.
        assert verify.check_inclusion_splitting(2, 2) == (False, {"a": "0,1", "b": "0,1"})

    def test_inclusion_preserves_vectors(self):
        a = canonical([[1, 1, 0]], 3, 2)
        b = canonical([[1, 0, 0], [0, 1, 0]], 3, 2)
        j = inclusion(a, b)
        assert j.apply((1, 1, 0)) == (1, 1, 0)


class TestMorphism:
    def test_identity_apply(self):
        a = canonical([[1, 0], [0, 1]], 2, 2)
        assert Morphism.identity(a).apply((1, 1)) == (1, 1)

    def test_compose_matches_apply(self):
        a = canonical([[1, 0]], 2, 2)
        b = full_subspace(2, 2)
        c = canonical([[0, 1]], 2, 2)
        f = Morphism(a, b, Mat.make([[0, 1]], 2))
        g = Morphism(b, c, Mat.make([[0], [1]], 2))
        assert f.compose(g).apply((1, 0)) == g.apply(f.apply((1, 0)))

    def test_image_and_kernel(self):
        a = full_subspace(2, 2)
        f = Morphism(a, a, Mat.make([[1, 0], [1, 0]], 2))
        assert f.image() == canonical([[1, 0]], 2, 2)
        assert f.kernel() == canonical([[1, 1]], 2, 2)


class TestCachedHash:
    """A record's hash is the hash of its field tuple, so set and dict orders keep."""

    @pytest.mark.parametrize("side", list(Side))
    def test_subspace_hash_is_the_field_hash(self, side):
        for s in enumerate_subspaces(2, 3, SubspaceFilter.ALL, side):
            assert hash(s) == hash((s.n, s.p, s.side, s.basis))
            assert hash(s) == hash(s)

    def test_morphism_hash_is_the_field_hash(self):
        a, b = canonical([[1, 0]], 2, 3), full_subspace(2, 3)
        for m in (Morphism(a, b, Mat.make([[1, 2]], 3)), Morphism.identity(b), Morphism.zero(b, a)):
            assert hash(m) == hash((m.dom, m.cod, m.mat))
            assert hash(m) == hash(m)

    def test_equal_values_hash_equal(self):
        a, b = canonical([[2, 1]], 2, 3), canonical([[1, 2]], 2, 3)
        assert a == b and a is not b and hash(a) == hash(b)
        assert hash(Morphism.identity(a)) == hash(Morphism.identity(b))


class TestRrefKernelImage:
    """Reduced form, rank, left kernel and row space of a square matrix."""

    @staticmethod
    def endomorphism(m: Mat) -> Morphism:
        full = full_subspace(m.nrows, m.p)
        return Morphism(full, full, m)

    def test_ones_matrix(self):
        m = Mat.make([[1, 1], [1, 1]], 2)
        f = self.endomorphism(m)
        assert f.rank == 1
        assert f.image() == canonical([[1, 1]], 2, 2)
        assert f.kernel() == canonical([[1, 1]], 2, 2)
        assert rref(m).mat == Mat.make([[1, 1], [0, 0]], 2)

    def test_zero_matrix(self):
        f = self.endomorphism(Mat.zeros(2, 2, 3))
        assert f.rank == 0
        assert f.kernel() == full_subspace(2, 3)

    def test_identity(self):
        f = self.endomorphism(Mat.identity(3, 3))
        assert f.rank == 3
        assert f.kernel() == zero_subspace(3, 3)
        assert f.image() == full_subspace(3, 3)


def test_one_subspace_tuple_per_size():
    # Every filter, the universe, the category and the lattice index share one set of objects.
    spaces = enumerate_subspaces(3, 2)
    u = indexed.universe(3, 2)

    def same(xs, ys):
        return len(xs) == len(ys) and all(map(operator.is_, xs, ys))

    assert enumerate_subspaces(3, 2, SubspaceFilter.ALL, Side.PRIMAL) is spaces
    assert same(u.subspaces, spaces)
    assert same(category(3, 2).objects, spaces[:-1])
    assert same(enumerate_subspaces(3, 2, SubspaceFilter.NONZERO), spaces[1:])
    assert indexed.lattice(3, 2).subspaces is spaces
