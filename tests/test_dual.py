"""H-functors, M-sets, dual morphisms and the annihilator category."""
import pytest

from linsemi import dual, indexed, semigroup, verify
from linsemi.errors import NotIdempotent, NotInSandwich, NotSingular
from linsemi.gf import Mat
from linsemi.dual import (
    HFunctor,
    build_normal_dual,
    dual_morphisms,
    extension,
    functor_p_object,
    globalize,
    index_h_sets,
    nat_trans,
)
from linsemi.indexed import Universe, universe
from linsemi.normal_cones import category, cone_table, principal_cone
from linsemi.semigroup import Endo, idempotent_from, idempotents, mult_table, sing
from linsemi.subspaces import (
    Side,
    SubspaceFilter,
    annihilator,
    canonical,
    complement,
    enumerate_subspaces,
    inclusion,
    is_direct_sum,
    zero_subspace,
)


def endo(rows, p=2):
    return Endo(Mat.make(rows, p))


E11 = endo([[1, 0], [0, 0]])
E22 = endo([[0, 0], [0, 1]])


def singular_idempotents(n, p):
    return [e for e in idempotents(n, p) if not e.kernel.is_zero]


def h_set(e, a):
    """H(e; A) on `Endo`s, as `index_h_sets` reads it off the Cayley table."""
    u = universe(e.n, e.p)
    return frozenset(u.elements[x] for x in index_h_sets(u, u.index(e))[u.subspace_at[a]])


def h_set_by_definition(e, a):
    """H(e; A) by definition: the singular x with ker x >= ker e and im x <= A."""
    return {x for x in sing(e.n, e.p) if x.kernel.contains(e.kernel) and a.contains(x.image)}


def m_set(key):
    """The M-set of a null space by complements: its proper complements, read from the lattice index."""
    lat = indexed.lattice(key.n, key.p)
    return {lat.subspaces[t] for t in lat.complements(lat.subspace_at[key]) if lat.dims[t] < key.n}


def iso_components(cone):
    """The M-set of a cone by definition: the objects where its component is an isomorphism."""
    return {a for a, c in zip(category(cone.n, cone.p, cone.side).objects, cone.components) if c.is_iso}


class TestHSet:
    def test_example_on_image_line(self):
        got = h_set(E11, canonical([[1, 0]], 2, 2))
        assert got == {Endo.zero(2, 2), E11}

    def test_zero_object(self):
        assert h_set(E11, zero_subspace(2, 2)) == {Endo.zero(2, 2)}

    def test_brute_force_definition(self):
        # The fixed points of e x = x, by Endo products, are the maps whose kernel contains ker e.
        for a in enumerate_subspaces(2, 2, SubspaceFilter.PROPER):
            brute = {x for x in sing(2, 2) if E11 @ x == x and a.contains(x.image)}
            assert h_set(E11, a) == brute == h_set_by_definition(E11, a)

    @pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (2, 3)])
    def test_index_h_sets_match_h_set(self, n, p):
        u = universe(n, p)
        objects = category(n, p).objects
        for e in singular_idempotents(n, p):
            got = index_h_sets(u, u.index(e))
            assert len(got) == len(objects)
            for a, h in zip(objects, got):
                assert {u.elements[x] for x in h} == h_set_by_definition(e, a)

    def test_check_rejects_doctored_decompositions(self, monkeypatch):
        assert verify.check_hfunctor_keys(2, 2) == (True, {"kernels_checked": 4})
        # File the zero map, first in counting order, under the kernel of the next
        # idempotent: that kernel's idempotents no longer share their H-sets.
        u = universe(2, 2)
        real = u.decompositions
        (x, _, w), null = real[0], real[1][1]
        doctored = ((x, null, w), *real[1:])
        monkeypatch.setattr(Universe, "decompositions", property(lambda u: doctored))
        assert verify.check_hfunctor_keys(2, 2) == (False, str(u.subspaces[null].basis))

    def test_determined_by_kernel(self):
        groups = {}
        for e in singular_idempotents(2, 2):
            groups.setdefault(e.kernel, []).append(e)
        for kernel, group in groups.items():
            for a in enumerate_subspaces(2, 2, SubspaceFilter.PROPER):
                assert len({h_set(e, a) for e in group}) == 1


class TestHMap:
    """A morphism g: a -> b acts on H(e; a) by x -> x E_g, the lookup products[x][extension(g)]."""

    def test_inclusion_acts_as_identity(self):
        # At (3, 2) the lines lie in planes, so H(e; a) holds nonzero x for a proper inclusion a -> b.
        u = universe(3, 2)
        objects = category(3, 2).objects
        pairs = [(a, b) for a in objects for b in objects if a != b and b.contains(a) and not a.is_zero]
        assert pairs
        for e in singular_idempotents(3, 2):
            h = index_h_sets(u, u.index(e))
            for a, b in pairs:
                ext = extension(inclusion(a, b))
                assert all(u.products[x][ext] == x for x in h[u.subspace_at[a]])

    def test_lands_in_target_hset(self):
        u = universe(2, 2)
        cat = category(2, 2)
        for e in singular_idempotents(2, 2):
            h = index_h_sets(u, u.index(e))
            for g in cat.all_morphisms():
                ext = extension(g)
                for x in h[u.subspace_at[g.dom]]:
                    y = u.products[x][ext]
                    assert y in h[u.subspace_at[g.cod]]
                    assert u.elements[y] == globalize(u.elements[x], g)


class TestMSet:
    def test_projection_mset(self):
        cone = principal_cone(E11)
        want = {canonical([[1, 0]], 2, 2), canonical([[1, 1]], 2, 2)}
        assert iso_components(cone) == want
        assert m_set(E11.kernel) == want

    def test_zero_map_mset_is_zero_object(self):
        cone = principal_cone(Endo.zero(2, 2))
        assert iso_components(cone) == {zero_subspace(2, 2)}
        assert m_set(Endo.zero(2, 2).kernel) == {zero_subspace(2, 2)}

    @pytest.mark.parametrize("n", [2, 3])
    def test_size_formula(self, n):
        for e in singular_idempotents(n, 2):
            k = e.kernel.dim
            got = iso_components(principal_cone(e))
            assert got == m_set(e.kernel)
            assert len(got) == 2 ** (k * (n - k))

    @pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (2, 4)])
    def test_complements_match_rank_definition(self, p, n):
        # Every key, the zero key (no proper complement) and V (complement 0) included.
        proper = enumerate_subspaces(n, p, SubspaceFilter.PROPER)
        for key in enumerate_subspaces(n, p):
            assert m_set(key) == {a for a in proper if is_direct_sum(a, key)}

    def test_check_rejects_a_dropped_complement(self, monkeypatch):
        # Drop <e2>, the canonical complement of <e1>: the M-sets of E22, the first idempotent with
        # kernel <e1>, disagree, as its cone is still an isomorphism on <e2>.
        lat, real = indexed.lattice(2, 2), indexed.Lattice.complements
        key, dropped = (lat.subspace_at[a] for a in (E22.kernel, complement(E22.kernel)))

        def fewer(lat, s):
            return [t for t in real(lat, s) if (s, t) != (key, dropped)]

        monkeypatch.setattr(indexed.Lattice, "complements", fewer)
        check = verify.run_check("dual.mset-characterizations", verify.check_msets, 2, 2)
        assert (check.passed, check.witness) == (False, "0,0;0,1")

    def test_sweep_bound_decided_before_building(self):
        # 20 833 singular idempotents at (2, 5); the closed form says so without building them.
        semigroup.idempotents.cache_clear()
        check = verify.run_registered("dual.mset-characterizations", verify.check_msets, 2, 5)
        assert check.witness == {"skipped": "singular idempotents = 20833 > 1000"}
        assert semigroup.idempotents.cache_info().currsize == 0

    def test_sweep_reads_idempotents_from_the_universe(self, monkeypatch):
        # The 801 singular idempotents at (2, 4) come from `Universe.idempotents`, not as Endos.
        semigroup.idempotents.cache_clear()
        built = []
        monkeypatch.setattr(Endo, "__post_init__", lambda self: built.append(self))
        assert verify.check_msets(2, 4) == (True, None)
        assert built == []


class TestNatTrans:
    def test_identity_carrier(self):
        dm = nat_trans(E11, E11, E11)
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

    def test_requires_idempotent(self):
        with pytest.raises(NotIdempotent):
            nat_trans(Endo.zero(2, 2), endo([[0, 1], [0, 0]]), E11)
        with pytest.raises(NotIdempotent):
            nat_trans(Endo.zero(2, 2), E11, endo([[0, 1], [0, 0]]))

    def test_requires_singular(self):
        with pytest.raises(NotSingular):
            nat_trans(Endo.zero(2, 2), Endo.identity(2, 2), E11)
        with pytest.raises(NotSingular):
            nat_trans(Endo.zero(2, 2), E11, Endo.identity(2, 2))

    def test_component_action_matches_functional_action(self):
        # The component at a sends x in H(e; a) to carrier . x, which lies in H(f; a).
        for e in singular_idempotents(2, 2):
            for f in singular_idempotents(2, 2):
                carriers = {f @ x @ e for x in sing(2, 2)}
                for u in carriers:
                    dm = nat_trans(u, e, f)
                    for a in enumerate_subspaces(2, 2, SubspaceFilter.PROPER):
                        for x in h_set_by_definition(e, a):
                            assert dm.carrier @ x in h_set_by_definition(f, a)

    def test_naturality_squares(self):
        cat = category(2, 2)
        for e in singular_idempotents(2, 2):
            for f in singular_idempotents(2, 2):
                for u in sorted({f @ x @ e for x in sing(2, 2)}, key=lambda m: m.flat()):
                    dm = nat_trans(u, e, f)
                    for g in cat.all_morphisms():
                        for x in h_set_by_definition(e, g.dom):
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
        null = annihilator(y)
        e = idempotent_from(null, complement(null))
        for d1 in dual_morphisms(y, z):
            for d2 in dual_morphisms(z, y):
                comp = d1.compose(d2)
                assert comp.fmat == d1.fmat @ d2.fmat
                got = nat_trans(comp.carrier, e, e)
                assert got.fmat == comp.fmat


class TestFunctorP:
    def test_object_example(self):
        h = HFunctor(canonical([[0, 1]], 2, 2))
        assert functor_p_object(h) == canonical([[1, 0]], 2, 2, Side.DUAL)

    def test_injective_on_objects(self):
        keys = enumerate_subspaces(2, 3, SubspaceFilter.NONZERO)
        images = {functor_p_object(HFunctor(k)) for k in keys}
        assert len(images) == len(keys)

    @pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (2, 3)])
    def test_normal_dual_summary(self, n, p):
        nd = build_normal_dual(n, p)
        assert nd.injective and nd.object_count_matches and nd.inclusions_match
        proper_dual = enumerate_subspaces(n, p, SubspaceFilter.PROPER, Side.DUAL)
        assert len(nd.hfunctors) == len(proper_dual)

    def test_hfunctor_equality_by_key(self):
        es = [e for e in singular_idempotents(2, 2) if e.kernel == canonical([[0, 1]], 2, 2)]
        assert len(es) >= 2
        assert len({HFunctor(e.kernel) for e in es}) == 1

    def test_zero_kernel_rejected(self):
        with pytest.raises(NotSingular):
            HFunctor(zero_subspace(2, 2))


class TestDualTables:
    @pytest.mark.parametrize("n,p", [(2, 2), (2, 3)])
    def test_component_level_anti_isomorphism(self, n, p):
        # The cones over the dual category are the index cones of the transposes.
        u = universe(n, p)
        opposite = tuple(zip(*mult_table(sing(n, p), lambda a, b: a @ b)))
        assert cone_table(u, [u.transpose[x] for x in u.singular]) == opposite

    @pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
    def test_op_representation(self, n, p):
        u = universe(n, p)
        sing_table = mult_table(sing(n, p), lambda a, b: a @ b)
        assert u.table(u.singular) == sing_table
        assert u.table([u.transpose[x] for x in u.singular]) == tuple(zip(*sing_table))
