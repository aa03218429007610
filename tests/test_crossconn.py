"""Automorphism-induced functor pairs, the duality, and the classification."""
import dataclasses
import json

import pytest

from linsemi import crossconn, verify

from linsemi.errors import NotInduced, NotInvertible, TooLarge
from linsemi.gf import Mat, mat_to_text
from linsemi.crossconn import (
    CrossConn,
    bifunctor_delta_set,
    bifunctor_gamma_set,
    canonical_scalar_rep,
    check_chi_naturality,
    chi,
    classify_crossconnections,
    functor_from_global,
    gamma_delta_theta,
    is_crossconnection,
    is_local_isomorphism,
    linked_pair_semigroup,
    recover_theta,
    sing_table,
)
from linsemi.normal_cones import category
from linsemi.semigroup import Endo, are_isomorphic, gl, pgl_order, sing
from linsemi.subspaces import Morphism, Side, annihilator, canonical, zero_subspace
from linsemi.variants import make_variant, variant_categories


def endo(rows, p=2):
    return Endo(Mat.make(rows, p))


SWAP = endo([[0, 1], [1, 0]])


class TestGammaDelta:
    def test_identity_gives_identity_functors(self):
        gamma, delta = gamma_delta_theta(Endo.identity(2, 2))
        for a, fa in delta.object_map.items():
            assert a == fa
        for f, ff in delta.morphism_map.items():
            assert f == ff
        for y, gy in gamma.object_map.items():
            assert y == gy

    def test_swap_moves_lines(self):
        _, delta = gamma_delta_theta(SWAP)
        assert delta.obj(canonical([[1, 0]], 2, 2)) == canonical([[0, 1]], 2, 2)

    def test_singular_rejected(self):
        with pytest.raises(NotInvertible):
            gamma_delta_theta(endo([[1, 0], [0, 0]]))

    @pytest.mark.parametrize("p", [2, 3])
    def test_gamma_commutes_with_annihilator(self, p):
        # gamma on a dual object equals the annihilator of the inverse image
        from linsemi.subspaces import image_subspace

        for theta in gl(2, p):
            gamma, _ = gamma_delta_theta(theta)
            inv = theta.inverse()
            for a in category(2, p, Side.PRIMAL).objects:
                if a.is_zero:
                    continue  # its annihilator is the whole dual space
                lhs = gamma.obj(annihilator(a))
                rhs = annihilator(image_subspace(a, inv.mat))
                assert lhs == rhs


class TestLocalIso:
    def test_delta_theta_passes(self):
        objects = category(2, 2, Side.PRIMAL).objects
        for theta in gl(2, 2):
            _, delta = gamma_delta_theta(theta)
            assert is_local_isomorphism(objects, delta.object_map, delta.morphism_map, objects).ok

    def test_constant_functor_fails(self):
        cat = category(2, 2, Side.PRIMAL)
        zero = zero_subspace(2, 2)
        omap = {a: zero for a in cat.objects}
        mmap = {f: Morphism.zero(zero, zero) for f in cat.all_morphisms()}
        verdict = is_local_isomorphism(cat.objects, omap, mmap, cat.objects)
        assert not verdict.ok

    def test_collapsing_functor_fails(self):
        cat = category(2, 2, Side.DUAL)
        lines = [a for a in cat.objects if a.dim == 1]
        omap = {a: (lines[0] if a.dim == 1 else a) for a in cat.objects}
        mmap = {}
        for f in cat.all_morphisms():
            dom, cod = omap[f.dom], omap[f.cod]
            mmap[f] = Morphism(dom, cod, Mat.zeros(dom.dim, cod.dim, 2))
        verdict = is_crossconnection(CrossConn(2, 2, Side.DUAL, omap, mmap))
        assert not verdict.ok


class TestIsCrossconnection:
    @pytest.mark.parametrize("p", [2, 3])
    def test_all_automorphisms_pass(self, p):
        for theta in gl(2, p):
            gamma, _ = gamma_delta_theta(theta)
            assert is_crossconnection(gamma).ok

    def test_identity_witnessed_by_canonical_complement(self):
        gamma, _ = gamma_delta_theta(Endo.identity(2, 2))
        assert is_crossconnection(gamma).ok


class TestBifunctors:
    def test_example_sets(self):
        gamma, delta = gamma_delta_theta(Endo.identity(2, 2))
        a = canonical([[1, 0]], 2, 2)
        y = annihilator(canonical([[0, 1]], 2, 2))
        got = set(bifunctor_gamma_set(a, y, gamma))
        assert got == {Endo.zero(2, 2), endo([[1, 0], [0, 0]])}

    def test_zero_object_collapses(self):
        gamma, delta = gamma_delta_theta(SWAP)
        a = zero_subspace(2, 2)
        y = annihilator(canonical([[0, 1]], 2, 2))
        assert set(bifunctor_gamma_set(a, y, gamma)) == {Endo.zero(2, 2)}

    def test_chi_is_bijection_between_sets(self):
        gamma, delta = gamma_delta_theta(SWAP)
        chi_map = chi(SWAP)
        for a in category(2, 2, Side.PRIMAL).objects:
            for y in category(2, 2, Side.DUAL).objects:
                gset = bifunctor_gamma_set(a, y, gamma)
                dset = set(bifunctor_delta_set(a, y, delta))
                assert len(gset) == len(dset)
                assert {chi_map(x) for x in gset} == dset


class TestChiNaturality:
    @pytest.mark.parametrize("p", [2])
    def test_all_squares_commute(self, p):
        for theta in gl(2, p):
            gamma, delta = gamma_delta_theta(theta)
            report = check_chi_naturality(theta, gamma, delta)
            assert report.ok, report.failure

    def test_mismatched_pair_fails_with_text_witness(self):
        # theta1's duality against theta2's functors: the bijection test fails.
        theta1, theta2 = gl(2, 2)[:2]
        report = check_chi_naturality(theta1, *gamma_delta_theta(theta2))
        assert not report.ok
        assert report.failure[-1] == "duality is not a bijection"
        witness = (mat_to_text(theta1.mat), report.failure)
        json.dumps(verify.Check("crossconn.chi-naturality", False, witness).to_json())

    def test_failing_square_gives_text_witness(self, monkeypatch):
        # Zero morphisms keep delta's objects, so every bijection holds and a square fails.
        real = crossconn.gamma_delta_theta

        def zeroed(theta):
            gamma, delta = real(theta)
            zero = {f: Morphism.zero(g.dom, g.cod) for f, g in delta.morphism_map.items()}
            return gamma, dataclasses.replace(delta, morphism_map=zero)

        monkeypatch.setattr(crossconn, "gamma_delta_theta", zeroed)
        check = verify.run_check("crossconn.chi-naturality", verify.check_chi, 2, 2)
        assert not check.passed
        theta, failure = check.witness
        assert len(failure) == 6 and failure[-1] != "duality is not a bijection"
        json.dumps(check.to_json())


class TestLinkedSemigroup:
    def test_identity_is_diagonal(self):
        linked = linked_pair_semigroup(Endo.identity(2, 2))
        assert all(pr[0] == pr[1] for pr in linked.table.elements)
        assert linked.matches_sing

    def test_swap_table(self):
        linked = linked_pair_semigroup(SWAP)
        assert linked.table.order == 10
        assert linked.matches_sing
        ok, phi = are_isomorphic(linked.table, sing_table(2, 2), witness=tuple(range(linked.table.order)))
        assert ok

    @pytest.mark.parametrize("p", [2, 3])
    def test_batch_all_automorphisms(self, p):
        for theta in gl(2, p):
            linked = linked_pair_semigroup(theta)
            assert linked.matches_sing

    def test_projection_to_first_is_isomorphism(self):
        linked = linked_pair_semigroup(SWAP)
        firsts = [pr[0] for pr in linked.table.elements]
        assert firsts == list(sing(2, 2))


class TestRecoverTheta:
    def test_swap_roundtrip(self):
        _, delta = gamma_delta_theta(SWAP)
        assert recover_theta(delta) == SWAP

    def test_identity_roundtrip(self):
        _, delta = gamma_delta_theta(Endo.identity(2, 2))
        assert recover_theta(delta) == Endo.identity(2, 2)

    def test_scalar_ambiguity_gf3(self):
        theta = endo([[1, 1], [1, 2]], 3)
        double = Endo(theta.mat.scale(2))
        _, d1 = gamma_delta_theta(theta)
        _, d2 = gamma_delta_theta(double)
        assert d1 == d2
        got = recover_theta(d1)
        assert got == canonical_scalar_rep(theta) == canonical_scalar_rep(double)
        assert got in (theta, double)

    def test_all_gl3_roundtrip(self):
        for theta in gl(2, 3):
            _, delta = gamma_delta_theta(theta)
            assert recover_theta(delta) == canonical_scalar_rep(theta)

    def test_non_functor_rejected(self):
        lines = [a for a in category(2, 2, Side.PRIMAL).objects if a.dim == 1]
        omap = {zero_subspace(2, 2): zero_subspace(2, 2)}
        omap.update({a: lines[0] for a in lines})  # collapses, not induced
        with pytest.raises(NotInduced):
            recover_theta(omap, 2, 2)


class TestClassification:
    def test_census_2_2(self):
        census = classify_crossconnections(2, 2)
        assert census.count == pgl_order(2, 2) == 6

    def test_census_2_3(self):
        census = classify_crossconnections(2, 3)
        assert census.count == pgl_order(2, 3) == 24
        for omap, theta in zip(census.bijections, census.thetas):
            _, delta = gamma_delta_theta(theta)
            assert delta.object_map == omap

    def test_every_member_linked_to_sing(self):
        census = classify_crossconnections(2, 2)
        for theta in census.thetas:
            assert linked_pair_semigroup(theta).matches_sing

    def test_scalar_invariance_gf3(self):
        for theta in gl(2, 3):
            g1, d1 = gamma_delta_theta(theta)
            g2, d2 = gamma_delta_theta(Endo(theta.mat.scale(2)))
            assert g1 == g2 and d1 == d2

    def test_out_of_scope(self):
        with pytest.raises(TooLarge):
            classify_crossconnections(3, 2)
        with pytest.raises(TooLarge):
            classify_crossconnections(2, 5)


def test_bifunctor_actions_land_in_target_sets():
    from linsemi.crossconn import delta_action, gamma_action
    from linsemi.dual import dual_morphisms

    theta = SWAP
    gamma, delta = gamma_delta_theta(theta)
    primal = category(2, 2, Side.PRIMAL)
    dual = category(2, 2, Side.DUAL)
    a, b = primal.objects[1], primal.objects[2]
    y, z = dual.objects[1], dual.objects[2]
    for f in primal.hom(a, b):
        for w in dual_morphisms(y, z):
            act_g = gamma_action(f, w, theta)
            act_d = delta_action(f, w, theta)
            for alpha in bifunctor_gamma_set(a, y, gamma):
                assert act_g(alpha) in set(bifunctor_gamma_set(b, z, gamma))
            for alpha in bifunctor_delta_set(a, y, delta):
                assert act_d(alpha) in set(bifunctor_delta_set(b, z, delta))


def test_functor_check_catches_broken_composition():
    _, delta = gamma_delta_theta(SWAP)
    cat = category(2, 2, Side.PRIMAL)
    a = canonical([[1, 0]], 2, 2)
    broken = dict(delta.morphism_map)
    target = next(f for f in cat.all_morphisms() if f.dom == a and f.cod == a and f.is_iso)
    broken[target] = Morphism.zero(delta.obj(a), delta.obj(a))
    assert not is_local_isomorphism(cat.objects, delta.object_map, broken, cat.objects).ok


class TestRestrictedLocalIso:
    """The merged checker on the restricted functors of sandwich variants."""

    def test_corrupted_composite_breaks_composition(self):
        # theta = E11 at (2, 2): the restricted delta lives on {0, L}, L = <e1>.
        ctx = make_variant(endo([[1, 0], [0, 0]]))
        objects = variant_categories(ctx).r_objects
        delta = functor_from_global(ctx.theta.mat, objects)
        images = set(delta.object_map.values())
        assert is_local_isomorphism(objects, delta.object_map, delta.morphism_map, images).ok
        line = next(a for a in objects if a.dim == 1)
        # The zero endomorphism of L is the composite L -> 0 -> L; send it
        # to the identity instead.
        broken = dict(delta.morphism_map)
        broken[Morphism.zero(line, line)] = Morphism.identity(delta.obj(line))
        verdict = is_local_isomorphism(objects, delta.object_map, broken, images)
        assert verdict == (False, "composition not preserved")

    def test_extra_target_in_an_ideal(self):
        # The full subcategory on {0, P} for a plane P of GF(2)^3, carried
        # identically: a line of P among the targets is missed by the ideal of P.
        plane = canonical([[1, 0, 0], [0, 1, 0]], 3, 2)
        objects = (zero_subspace(3, 2), plane)
        f = functor_from_global(Mat.identity(3, 2), objects)
        images = set(f.object_map.values())
        assert is_local_isomorphism(objects, f.object_map, f.morphism_map, images).ok
        targets = images | {canonical([[1, 0, 0]], 3, 2)}
        verdict = is_local_isomorphism(objects, f.object_map, f.morphism_map, targets)
        assert verdict == (False, "principal ideal not mapped onto")
