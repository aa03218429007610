"""Green's relations, idempotents, regularity and table isomorphism."""
import pytest

from linsemi.errors import NotADirectSum, NotClosed
from linsemi.gf import Mat
from linsemi.semigroup import (
    Endo,
    SemigroupTable,
    all_endos,
    are_isomorphic,
    gl,
    gl_order,
    green,
    green_oracle_report,
    idempotent_from,
    idempotents,
    mult_table,
    regular_elements,
    sing,
    sing_order,
    singular_idempotent_count,
    transpose_table,
)
from linsemi.subspaces import canonical, full_subspace, zero_subspace


def endo(rows, p=2):
    return Endo(Mat.make(rows, p))


E11 = endo([[1, 0], [0, 0]])


class TestGreen:
    def test_shared_image_distinct_kernel(self):
        f = endo([[1, 0], [1, 0]])
        flags = green(E11, f)
        assert flags.l and not flags.r and not flags.h and flags.d
        assert E11.image == f.image == canonical([[1, 0]], 2, 2)
        assert E11.kernel == canonical([[0, 1]], 2, 2)
        assert f.kernel == canonical([[1, 1]], 2, 2)

    def test_reflexive(self):
        flags = green(E11, E11)
        assert flags == (True, True, True, True)

    def test_rank_separates(self):
        flags = green(Endo.zero(2, 2), E11)
        assert flags == (False, False, False, False)

    @pytest.mark.parametrize("n,p", [(2, 2), (2, 3)])
    def test_oracle_agreement(self, n, p):
        assert green_oracle_report(sing(n, p)).agrees


class TestIdempotents:
    def test_counts_2_2(self):
        assert len(idempotents(2, 2)) == 8
        assert len(idempotents(2, 2, singular_only=True)) == 7

    def test_identity_and_zero_present(self):
        es = idempotents(2, 3)
        assert Endo.identity(2, 3) in es
        assert Endo.zero(2, 3) in es

    def test_rank_one_count_matches_pair_oracle(self):
        # lines as images, complements as kernels: 3 * 2 over GF(2)^2
        from linsemi.subspaces import ComplementMode, complement, enumerate_subspaces

        rank_one = [e for e in idempotents(2, 2) if e.rank == 1]
        lines = [s for s in enumerate_subspaces(2, 2) if s.dim == 1]
        oracle = sum(len(complement(w, ComplementMode.ALL)) for w in lines)
        assert len(rank_one) == oracle == 6

    def test_matches_brute_force(self):
        brute = {e for e in all_endos(2, 2) if e.mat @ e.mat == e.mat}
        assert set(idempotents(2, 2)) == brute

    def test_decomposition(self):
        for e in idempotents(3, 2):
            assert idempotent_from(e.kernel, e.image) == e

    @pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (2, 4)])
    def test_singular_count_closed_form(self, p, n):
        assert singular_idempotent_count(n, p) == len(idempotents(n, p, singular_only=True))


class TestIdempotentFrom:
    def test_coordinate_projection(self):
        n = canonical([[0, 1]], 2, 2)
        w = canonical([[1, 0]], 2, 2)
        assert idempotent_from(n, w) == E11

    def test_identity_case(self):
        assert idempotent_from(zero_subspace(2, 2), full_subspace(2, 2)) == Endo.identity(2, 2)

    def test_skew_kernel(self):
        n = canonical([[1, 1]], 2, 2)
        w = canonical([[1, 0]], 2, 2)
        e = idempotent_from(n, w)
        assert e == endo([[1, 0], [1, 0]])
        assert e.is_idempotent

    def test_not_complementary(self):
        with pytest.raises(NotADirectSum):
            idempotent_from(canonical([[1, 0]], 2, 2), canonical([[1, 0]], 2, 2))


class TestRegularElements:
    def test_sing_is_regular(self):
        elements = sing(2, 2)
        reg, witness = regular_elements(elements, lambda a, b: a @ b)
        assert len(reg) == 10
        for a, b in witness.items():
            assert a @ b @ a == a

    def test_zero_alone(self):
        reg, _ = regular_elements([Endo.zero(2, 2)], lambda a, b: a @ b)
        assert reg == [Endo.zero(2, 2)]

    def test_sandwich_regular_count(self):
        theta = E11
        product = lambda a, b: a @ theta @ b
        reg, _ = regular_elements(all_endos(2, 2), product)
        assert len(reg) == 5


class TestTables:
    def test_orders(self):
        assert sing_order(2, 2) == 16 - 6 == 10
        assert len(gl(2, 2)) == gl_order(2, 2) == 6
        assert sing_order(3, 2) == 512 - 168 == 344

    def test_closure_error(self):
        with pytest.raises(NotClosed):
            mult_table([E11, endo([[0, 1], [1, 0]])], lambda a, b: a @ b)

    def test_table_json(self):
        t = mult_table(sing(2, 2), lambda a, b: a @ b)
        data = t.to_json(lambda e: e.mat.rows)
        assert data["order"] == 10
        assert len(data["table"]) == 10
        assert t.is_associative()

    def test_transpose_table(self):
        t = mult_table(sing(2, 2), lambda a, b: a @ b)
        op = transpose_table(t)
        i, j = 3, 7
        assert op.table[i][j] == t.table[j][i]


class TestIsomorphism:
    def test_self_isomorphic_identity(self):
        t = mult_table(sing(2, 2), lambda a, b: a @ b)
        ok, phi = are_isomorphic(t, t)
        assert ok and phi == tuple(range(10))

    def test_left_zero_vs_group(self):
        left_zero = SemigroupTable(("a", "b"), ((0, 0), (1, 1)))
        z2 = SemigroupTable(("e", "g"), ((0, 1), (1, 0)))
        assert left_zero.idempotent_indices() == (0, 1)
        assert z2.idempotent_indices() == (0,)
        ok, _ = are_isomorphic(left_zero, z2)
        assert not ok

    def test_relabelled_tables(self):
        t = mult_table(sing(2, 2), lambda a, b: a @ b)
        perm = tuple(reversed(range(10)))
        relabelled = SemigroupTable(
            tuple(t.elements[perm.index(i)] for i in range(10)),
            tuple(
                tuple(perm[t.table[perm.index(i)][perm.index(j)]] for j in range(10))
                for i in range(10)
            ),
        )
        ok, phi = are_isomorphic(t, relabelled)
        assert ok
        okw, _ = are_isomorphic(t, relabelled, witness=phi)
        assert okw

    def test_witness_rejected_when_wrong(self):
        t = mult_table(sing(2, 2), lambda a, b: a @ b)
        bad = tuple([1, 0] + list(range(2, 10)))
        ok, _ = are_isomorphic(t, t, witness=bad)
        assert not ok

    def test_different_orders(self):
        t1 = SemigroupTable(("x",), ((0,),))
        t2 = SemigroupTable(("x", "y"), ((0, 0), (0, 0)))
        assert are_isomorphic(t1, t2) == (False, None)


def test_enumeration_bound_guard():
    from linsemi.errors import TooLarge

    for build in (all_endos, sing, gl):
        with pytest.raises(TooLarge):
            build(5, 2)
