"""Field and matrix arithmetic, checked against brute-force oracles."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linsemi.errors import ModulusMismatch, ShapeError
from linsemi.indexed import universe
from linsemi.gf import (
    Mat,
    all_matrices,
    check_modulus,
    invert,
    inv_mod,
    is_prime,
    kernel_basis,
    mat_to_text,
    parse_mat,
    pivot_complement,
    projection,
    rank,
    row_basis,
    rref,
    rref_with_transform,
    solve_left,
)


def brute_inverse(a: int, p: int) -> int:
    """Independent oracle: exhaustive search for the inverse."""
    for x in range(1, p):
        if (a * x) % p == 1:
            return x
    raise AssertionError(f"{a} has no inverse mod {p}")


def mats(r: int, c: int, p: int):
    return list(all_matrices(r, c, p))


class TestScalar:
    """Field inverses in GF(p), on the integer representation that Mat uses."""

    def test_inv_2_mod_3(self):
        assert inv_mod(2, 3) == 2

    def test_inv_3_mod_5_matches_search(self):
        assert brute_inverse(3, 5) == 2
        assert inv_mod(3, 5) == 2

    @given(st.sampled_from([2, 3, 5, 7]), st.integers(min_value=1, max_value=6))
    def test_inverse_roundtrip(self, p, a):
        a %= p
        if a:
            assert a * inv_mod(a, p) % p == 1


class TestMat:
    def test_projection_product_zero(self):
        a = Mat.make([[1, 0], [0, 0]], 2)
        b = Mat.make([[0, 0], [0, 1]], 2)
        assert (a @ b) == Mat.zeros(2, 2, 2)

    def test_identity_neutral(self):
        a = Mat.make([[1, 1], [0, 1]], 2)
        assert Mat.identity(2, 2) @ a == a

    def test_swap_involution(self):
        s = Mat.make([[0, 1], [1, 0]], 2)
        assert s @ s == Mat.identity(2, 2)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            Mat.make([[1, 0]], 2) @ Mat.make([[1, 0]], 2)

    def test_modulus_error(self):
        with pytest.raises(ModulusMismatch):
            Mat.identity(2, 2) @ Mat.identity(2, 3)

    def test_add_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            Mat.identity(2, 2) + Mat.identity(2, 3)

    def test_char_2_addition(self):
        ones = Mat.make([[1, 1], [1, 1]], 2)
        assert ones + ones == Mat.zeros(2, 2, 2)

    def test_empty_shapes(self):
        e = Mat.make([], 2, ncols=2)
        assert (e @ Mat.identity(2, 2)).nrows == 0
        t = e.transpose()
        assert (t.nrows, t.ncols) == (2, 0)


class TestRref:
    def test_ones_matrix(self):
        m = Mat.make([[1, 1], [1, 1]], 2)
        res = rref(m)
        assert res.rank == 1
        assert res.mat == Mat.make([[1, 1], [0, 0]], 2)
        assert row_basis(m) == Mat.make([[1, 1]], 2)
        assert kernel_basis(m) == Mat.make([[1, 1]], 2)

    def test_zero_matrix(self):
        m = Mat.zeros(2, 2, 3)
        assert rank(m) == 0
        assert kernel_basis(m) == Mat.identity(2, 3)

    def test_identity(self):
        m = Mat.identity(3, 3)
        assert rank(m) == 3
        assert kernel_basis(m).nrows == 0
        assert row_basis(m) == m

    @given(st.sampled_from([2, 3, 5]), st.integers(0, 2**12 - 1))
    @settings(max_examples=60)
    def test_rref_idempotent(self, p, seed):
        entries = [(seed // p**i) % p for i in range(9)]
        m = Mat.make([entries[0:3], entries[3:6], entries[6:9]], p)
        assert rref(rref(m).mat).mat == rref(m).mat

    @given(st.sampled_from([2, 3]), st.integers(0, 2**12 - 1))
    @settings(max_examples=60)
    def test_kernel_annihilates(self, p, seed):
        entries = [(seed // p**i) % p for i in range(9)]
        m = Mat.make([entries[0:3], entries[3:6], entries[6:9]], p)
        ker = kernel_basis(m)
        assert ker @ m == Mat.zeros(ker.nrows, 3, p)
        assert ker.nrows + rank(m) == 3

    def test_rank_nullity_exhaustive(self):
        for m in all_matrices(2, 3, 2):
            assert kernel_basis(m).nrows + rank(m) == m.nrows

    @pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (2, 3)])
    def test_transform_pivots_match_rref(self, n, p):
        for m in all_matrices(n, n, p):
            assert rref_with_transform(m)[2] == rref(m).pivots

    def test_transform_reconstructs(self):
        m = Mat.make([[1, 2], [2, 1], [0, 1]], 3)
        left, t, _ = rref_with_transform(m)
        assert t @ m == left
        assert invert(t) is not None


class TestInvert:
    def test_swap_self_inverse(self):
        s = Mat.make([[0, 1], [1, 0]], 2)
        assert invert(s) == s

    def test_rank_one_not_invertible(self):
        assert invert(Mat.make([[1, 0], [0, 0]], 2)) is None

    def test_shear(self):
        m = Mat.make([[1, 1], [0, 1]], 2)
        inv = invert(m)
        assert m @ inv == Mat.identity(2, 2)
        assert inv == m

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeError):
            invert(Mat.make([[1, 0]], 2))

    @given(st.sampled_from([2, 3]), st.integers(0, 2**10 - 1))
    @settings(max_examples=40)
    def test_inverse_roundtrip(self, p, seed):
        entries = [(seed // p**i) % p for i in range(4)]
        m = Mat.make([entries[0:2], entries[2:4]], p)
        inv = invert(m)
        if inv is not None:
            assert m @ inv == Mat.identity(2, p)
            assert inv @ m == Mat.identity(2, p)


def test_rank_submultiplicative_exhaustive():
    """rank(AB) <= min ranks, every pair over GF(2) for n <= 3."""
    for n in (1, 2, 3):
        pool = mats(n, n, 2)
        ranks = {m: rank(m) for m in pool}
        for a in pool:
            ra = ranks[a]
            for b in pool:
                assert rank(a @ b) <= min(ra, ranks[b])


def test_solve_left():
    m = Mat.make([[1, 1, 0], [0, 1, 1]], 2)
    x = solve_left(m, (1, 0, 1))
    assert x is not None
    assert Mat.make([x], 2) @ m == Mat.make([[1, 0, 1]], 2)
    assert solve_left(m, (1, 0, 0)) is None


class TestTextFormat:
    def test_roundtrip(self):
        m = parse_mat("1,0;0,0", 2)
        assert m == Mat.make([[1, 0], [0, 0]], 2)
        assert mat_to_text(m) == "1,0;0,0"

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            parse_mat("2,0;0,0", 2)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_mat("a,b", 2)

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            parse_mat("1,0;1", 2)


class TestDecomposition:
    def test_pivot_complement_is_unit_rows_completing_a_basis(self):
        for m in all_matrices(2, 3, 2):
            comp = pivot_complement(m)
            assert all(sorted(row) == [0, 0, 1] for row in comp.rows)
            assert rank(comp.vstack(row_basis(m))) == 3

    def test_projection_is_none_on_a_non_basis(self):
        line, plane = Mat.make([[1, 1]], 3), Mat.identity(2, 3)
        assert projection(line, line.scale(2)) is None  # square but singular
        assert projection(line, plane) is None  # three rows in a plane

    @pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
    def test_projection_gives_each_listed_idempotent(self, p, n):
        # `decompositions` builds the idempotent of (K, W) from the add table, without an inverse.
        u = universe(n, p)
        for x, k, w in u.decompositions:
            null, image = u.subspaces[k].basis, u.subspaces[w].basis
            assert projection(null, image) @ image == u.elements[x]


@pytest.mark.parametrize("r,c", [(0, 3), (3, 0), (1, 1), (2, 3)])
def test_all_matrices_counting_order(r, c):
    """Matrix number k has the base-3 digits of k as its flat entries, row 0 first."""
    p = 3
    got = list(all_matrices(r, c, p))
    assert len(got) == p ** (r * c)
    for k, m in enumerate(got):
        flat = [k // p ** (r * c - 1 - i) % p for i in range(r * c)]
        assert m == Mat(tuple(tuple(flat[i * c : (i + 1) * c]) for i in range(r)), c, p)


def test_is_prime():
    assert [q for q in range(2, 12) if is_prime(q)] == [2, 3, 5, 7, 11]


def test_inv_mod_matches_oracle():
    for p in (2, 3, 5, 7):
        for a in range(1, p):
            assert inv_mod(a, p) == brute_inverse(a, p)
            assert a * inv_mod(a, p) % p == 1


def test_inv_mod_zero_raises():
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 5)


def test_check_modulus_rejects_nonprime():
    with pytest.raises(ValueError):
        check_modulus(6)
    check_modulus(7)
