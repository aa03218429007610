"""H-functors, M-sets, dual morphisms and the annihilator category."""
import pytest

from linsemi import crossconn as cx
from linsemi import semigroup, verify
from linsemi.errors import NotIdempotent, NotInSandwich, NotSingular
from linsemi.gf import Mat
from linsemi.dual import (
    DualMorphism,
    HFunctor,
    build_normal_dual,
    component_action,
    dual_cone_table,
    dual_morphisms,
    dual_op_table,
    functor_p_object,
    globalize,
    h_map,
    h_set,
    hfunctor_for_kernel,
    hfunctor_of,
    m_set,
    m_set_complements,
    m_set_components,
    nat_trans,
)
from linsemi.normal_cones import category, principal_cone
from linsemi.semigroup import Endo, idempotents, mult_table, sing, transpose_table
from linsemi.subspaces import (
    Morphism,
    Side,
    SubspaceFilter,
    annihilator,
    canonical,
    enumerate_subspaces,
    inclusion,
    zero_subspace,
)


def endo(rows, p=2):
    return Endo(Mat.make(rows, p))


E11 = endo([[1, 0], [0, 0]])
E22 = endo([[0, 0], [0, 1]])


class TestHSet:
    def test_example_on_image_line(self):
        got = h_set(E11, canonical([[1, 0]], 2, 2))
        assert got == {Endo.zero(2, 2), E11}

    def test_zero_object(self):
        assert h_set(E11, zero_subspace(2, 2)) == {Endo.zero(2, 2)}

    def test_brute_force_definition(self):
        for a in enumerate_subspaces(2, 2, SubspaceFilter.PROPER):
            got = h_set(E11, a)
            brute = {
                x
                for x in sing(2, 2)
                if x.kernel.contains(E11.kernel) and a.contains(x.image)
            }
            assert got == brute

    def test_requires_idempotent(self):
        with pytest.raises(NotIdempotent):
            h_set(endo([[0, 1], [0, 0]]), zero_subspace(2, 2))

    def test_requires_singular(self):
        with pytest.raises(NotSingular):
            h_set(Endo.identity(2, 2), zero_subspace(2, 2))

    def test_determined_by_kernel(self):
        groups = {}
        for e in idempotents(2, 2, singular_only=True):
            groups.setdefault(e.kernel, []).append(e)
        for kernel, group in groups.items():
            for a in enumerate_subspaces(2, 2, SubspaceFilter.PROPER):
                assert len({h_set(e, a) for e in group}) == 1


class TestHMap:
    def test_inclusion_acts_as_identity(self):
        a = canonical([[1, 0]], 2, 2)
        b = canonical([[1, 0], [0, 1]], 2, 2)
        j = inclusion(a, canonical([[1, 0]], 2, 2))
        action = h_map(E11, Morphism.identity(a))
        for x, y in action.items():
            assert x == y

    def test_lands_in_target_hset(self):
        cat = category(2, 2)
        for a in cat.objects:
            for b in cat.objects:
                for g in cat.hom(a, b):
                    action = h_map(E11, g)
                    target = h_set(E11, b)
                    assert set(action.values()) <= target


class TestMSet:
    def test_projection_mset(self):
        cone = principal_cone(E11)
        want = {canonical([[1, 0]], 2, 2), canonical([[1, 1]], 2, 2)}
        assert m_set_components(cone) == want
        assert m_set_complements(E11.kernel) == want
        assert m_set(cone) == m_set(hfunctor_of(E11))

    def test_zero_map_mset_is_zero_object(self):
        cone = principal_cone(Endo.zero(2, 2))
        assert m_set_components(cone) == {zero_subspace(2, 2)}
        assert m_set_complements(Endo.zero(2, 2).kernel) == {zero_subspace(2, 2)}

    @pytest.mark.parametrize("n", [2, 3])
    def test_size_formula(self, n):
        for e in idempotents(n, 2, singular_only=True):
            k = e.kernel.dim
            got = m_set_components(principal_cone(e))
            assert got == m_set_complements(e.kernel)
            assert len(got) == 2 ** (k * (n - k))

    def test_sweep_bound_decided_before_building(self):
        # 20 833 singular idempotents at (2, 5); the closed form says so without building them.
        semigroup.idempotents.cache_clear()
        check = verify.run_check("dual.mset-characterizations", verify.check_msets, 2, 5)
        assert check.witness == {"skipped": "idempotent sweep bounded to 1000"}
        assert semigroup.idempotents.cache_info().currsize == 0


class TestNatTrans:
    def test_identity_carrier(self):
        dm = DualMorphism.identity_at(E11)
        assert dm.dom == dm.cod == annihilator(E11.kernel)
        assert dm.fmat == Mat.identity(1, 2)

    def test_zero_carrier_example(self):
        x = endo([[0, 1], [0, 0]])
        u = E22 @ x @ E11
        assert u == Endo.zero(2, 2)
        dm = nat_trans(u, E11, E22)
        assert dm.fmat == Mat.zeros(1, 1, 2)

    def test_sandwich_membership_enforced(self):
        with pytest.raises(NotInSandwich):
            nat_trans(Endo.identity(2, 2) @ E11, E22, E22)

    def test_component_action_matches_functional_action(self):
        # the same carrier acts on h-sets and on annihilator coordinates
        for e in idempotents(2, 2, singular_only=True):
            for f in idempotents(2, 2, singular_only=True):
                carriers = {f @ x @ e for x in sing(2, 2)}
                for u in carriers:
                    dm = nat_trans(u, e, f)
                    for a in enumerate_subspaces(2, 2, SubspaceFilter.PROPER):
                        action = component_action(dm, e, a)
                        for x, y in action.items():
                            assert y == u @ x
                            assert y.kernel.contains(f.kernel)
                            assert a.contains(y.image)

    def test_naturality_squares(self):
        cat = category(2, 2)
        for e in idempotents(2, 2, singular_only=True):
            for f in idempotents(2, 2, singular_only=True):
                for u in sorted({f @ x @ e for x in sing(2, 2)}, key=lambda m: m.mat.flat()):
                    dm = nat_trans(u, e, f)
                    for g in cat.all_morphisms():
                        for x in h_set(e, g.dom):
                            assert globalize(dm.carrier @ x, g) == dm.carrier @ globalize(x, g)


class TestDualMorphisms:
    def test_count_matches_homset(self):
        # morphisms between dual objects correspond to all matrices
        dual_objs = enumerate_subspaces(2, 2, SubspaceFilter.PROPER, Side.DUAL)
        for y in dual_objs:
            for z in dual_objs:
                ms = dual_morphisms(y, z)
                assert len(ms) == 2 ** (y.dim * z.dim)
                assert len({dm.fmat for dm in ms}) == len(ms)

    def test_compose_carriers_reverse(self):
        dual_objs = [s for s in enumerate_subspaces(2, 2, SubspaceFilter.PROPER, Side.DUAL) if s.dim == 1]
        y, z = dual_objs[0], dual_objs[1]
        for d1 in dual_morphisms(y, z):
            for d2 in dual_morphisms(z, y):
                comp = d1.compose(d2)
                assert comp.fmat == d1.fmat @ d2.fmat
                got = nat_trans(
                    comp.carrier,
                    hfunctor_for_kernel(annihilator(y)).witness,
                    hfunctor_for_kernel(annihilator(y)).witness,
                )
                assert got.fmat == comp.fmat


class TestFunctorP:
    def test_object_example(self):
        h = hfunctor_for_kernel(canonical([[0, 1]], 2, 2))
        assert functor_p_object(h) == canonical([[1, 0]], 2, 2, Side.DUAL)

    def test_injective_on_objects(self):
        keys = enumerate_subspaces(2, 3, SubspaceFilter.NONZERO)
        images = {functor_p_object(hfunctor_for_kernel(k)) for k in keys}
        assert len(images) == len(keys)

    @pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (2, 3)])
    def test_normal_dual_summary(self, n, p):
        nd = build_normal_dual(n, p)
        assert nd.injective and nd.object_count_matches and nd.inclusions_match
        proper_dual = enumerate_subspaces(n, p, SubspaceFilter.PROPER, Side.DUAL)
        assert len(nd.hfunctors) == len(proper_dual)

    def test_hfunctor_equality_by_key(self):
        es = [e for e in idempotents(2, 2, singular_only=True) if e.kernel == canonical([[0, 1]], 2, 2)]
        assert len(es) >= 2
        assert len({hfunctor_of(e) for e in es}) == 1

    def test_zero_kernel_rejected(self):
        with pytest.raises(NotSingular):
            HFunctor(zero_subspace(2, 2), Endo.identity(2, 2))


class TestDualTables:
    @pytest.mark.parametrize("n,p", [(2, 2), (2, 3)])
    def test_component_level_anti_isomorphism(self, n, p):
        table, cones = dual_cone_table(n, p)
        sing_table = mult_table(sing(n, p), lambda a, b: a @ b)
        assert table.table == transpose_table(sing_table).table

    @pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
    def test_op_representation(self, n, p):
        sing_table = mult_table(sing(n, p), lambda a, b: a @ b)
        assert cx.sing_table(n, p).table == sing_table.table
        assert dual_op_table(n, p).table == transpose_table(sing_table).table
