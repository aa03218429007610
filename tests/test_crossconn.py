"""Automorphism-induced functor pairs, the duality, and the classification."""
import itertools
import json

import pytest

from linsemi import crossconn, indexed, verify

from linsemi.errors import NotInduced, NotInvertible, TooLarge
from linsemi.gf import Mat, mat_to_text
from linsemi.crossconn import (
    CrossConn,
    _bifunctor_indices,
    canonical_scalar_rep,
    check_chi_naturality,
    classify_crossconnections,
    functor_from_global,
    gamma_delta_theta,
    is_crossconnection,
    is_local_isomorphism,
    recover_theta,
)
from linsemi.normal_cones import category
from linsemi.semigroup import Endo, gl, mult_table, pgl_order, sing
from linsemi.normal_cones import hom_between
from linsemi.subspaces import Morphism, Side, annihilator, canonical, transport_morphism, zero_subspace
from linsemi.variants import make_variant, restricted_objects


def endo(rows, p=2):
    return Endo(Mat.make(rows, p))


SWAP = endo([[0, 1], [1, 0]])


class TestGammaDelta:
    def test_functors_are_built_once_per_automorphism(self, monkeypatch):
        builds = []
        real = crossconn.functor_from_global
        monkeypatch.setattr(crossconn, "functor_from_global", lambda g, objects: builds.append(g) or real(g, objects))
        gamma_delta_theta.cache_clear()
        verify.run_all(2, 2)  # gl-batch, chi-naturality, scalar-invariance and classification share them
        assert len(builds) == 2 * len(gl(2, 2))
        assert gamma_delta_theta(SWAP) is gamma_delta_theta(endo([[0, 1], [1, 0]]))

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
                rhs = annihilator(image_subspace(a, inv))
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


def conjugate(theta):
    """The duality by definition: alpha -> theta^-1 alpha theta, by Endo products."""
    theta_inv = theta.inverse()
    return lambda alpha: theta_inv @ alpha @ theta


def gamma_set(a, y, gamma):
    return {indexed.universe(a.n, a.p).elements[x] for x in _bifunctor_indices(a, gamma.obj(y))}


def delta_set(a, y, delta):
    return {indexed.universe(a.n, a.p).elements[x] for x in _bifunctor_indices(delta.obj(a), y)}


class TestBifunctors:
    def test_example_sets(self):
        gamma, delta = gamma_delta_theta(Endo.identity(2, 2))
        a = canonical([[1, 0]], 2, 2)
        y = annihilator(canonical([[0, 1]], 2, 2))
        assert gamma_set(a, y, gamma) == {Endo.zero(2, 2), endo([[1, 0], [0, 0]])}

    def test_zero_object_collapses(self):
        gamma, delta = gamma_delta_theta(SWAP)
        a = zero_subspace(2, 2)
        y = annihilator(canonical([[0, 1]], 2, 2))
        assert gamma_set(a, y, gamma) == {Endo.zero(2, 2)}

    def test_chi_is_bijection_between_sets(self):
        gamma, delta = gamma_delta_theta(SWAP)
        chi_map = conjugate(SWAP)
        for a in category(2, 2, Side.PRIMAL).objects:
            for y in category(2, 2, Side.DUAL).objects:
                gset = gamma_set(a, y, gamma)
                dset = delta_set(a, y, delta)
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
        witness = (mat_to_text(theta1), report.failure)
        json.dumps(verify.Check("crossconn.chi-naturality", False, witness).to_json())

    def test_failing_square_gives_text_witness(self, monkeypatch):
        # Zero morphisms keep delta's objects, so every bijection holds and a square fails.
        real = crossconn.gamma_delta_theta

        def zeroed(theta):
            gamma, delta = real(theta)
            zero = {f: Morphism.zero(g.dom, g.cod) for f, g in delta.morphism_map.items()}
            return gamma, delta._replace(morphism_map=zero)

        monkeypatch.setattr(crossconn, "gamma_delta_theta", zeroed)
        check = verify.run_check("crossconn.chi-naturality", verify.check_chi, 2, 2)
        assert not check.passed
        theta, failure = check.witness
        # (a, b, f, alpha) for the swap, f the identity of <e2>: chi(E22) chi(E_f) = E11 E11 = E11,
        # while the zeroed delta(f) extends to 0.
        assert (theta, failure) == ("0,1;1,0", ("0,1", "0,1", "1", "0,0;0,1"))
        json.dumps(check.to_json())


def linked_pairs(theta):
    """The pairs (a, chi(a)) over Sing in counting order, chi read from the Cayley table."""
    u, chi_of = indexed.universe(theta.n, theta.p), crossconn.chi_indices(theta)
    return [(u.elements[x], u.elements[chi_of[x]]) for x in u.singular]


def break_chi_for(monkeypatch, target):
    """Swap chi at the first two singular elements for target alone, breaking chi(ab) = chi(a) chi(b)."""
    u, real = indexed.universe(2, 2), crossconn.chi_indices

    def broken(theta):
        chi_of = real(theta)
        if theta == target:
            a, b = u.singular[:2]
            chi_of[a], chi_of[b] = chi_of[b], chi_of[a]
        return chi_of

    monkeypatch.setattr(crossconn, "chi_indices", broken)


class TestLinkedSemigroup:
    def test_identity_is_diagonal(self):
        identity = Endo.identity(2, 2)
        assert all(a == b for a, b in linked_pairs(identity))
        assert verify.theta_linked_semigroup(identity)[0]

    def test_swap_table(self):
        assert verify.theta_linked_semigroup(SWAP) == (True, {"order": 10})
        chi_map = conjugate(SWAP)
        assert linked_pairs(SWAP) == [(a, chi_map(a)) for a in sing(2, 2)]

    @pytest.mark.parametrize("p", [2, 3])
    def test_batch_all_automorphisms(self, p):
        for theta in gl(2, p):
            assert verify.theta_linked_semigroup(theta)[0]

    def test_check_rejects_a_broken_homomorphism_for_one_theta(self, monkeypatch):
        # The thetas of GL(2, 2) before the last pass, so the witness is the last.
        last = gl(2, 2)[-1]
        break_chi_for(monkeypatch, last)
        check = verify.run_check("crossconn.linked-semigroup", verify.check_linked_semigroups, 2, 2)
        assert (check.passed, check.witness) == (False, mat_to_text(last))

    def test_projection_to_first_is_isomorphism(self):
        # The first slots are Sing in counting order, so the linked table is Sing's table,
        # which the Cayley table and the Endo products give alike.
        assert [a for a, _ in linked_pairs(SWAP)] == list(sing(2, 2))
        u = indexed.universe(2, 2)
        assert u.table(u.singular) == mult_table(sing(2, 2), lambda a, b: a @ b)


class TestRecoverTheta:
    def test_swap_roundtrip(self):
        _, delta = gamma_delta_theta(SWAP)
        assert recover_theta(delta) == SWAP

    def test_identity_roundtrip(self):
        _, delta = gamma_delta_theta(Endo.identity(2, 2))
        assert recover_theta(delta) == Endo.identity(2, 2)

    def test_scalar_ambiguity_gf3(self):
        theta = endo([[1, 1], [1, 2]], 3)
        double = Endo(theta.scale(2))
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
            recover_theta(CrossConn(2, 2, Side.PRIMAL, omap, {}))


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
            assert verify.theta_linked_semigroup(theta)[0]

    def test_check_rejects_a_broken_homomorphism_for_one_census_theta(self, monkeypatch):
        # The census members before the last pass, so the witness is the last one's theta.
        last = classify_crossconnections(2, 2).thetas[-1]
        break_chi_for(monkeypatch, last)
        check = verify.run_check("crossconn.classification", verify.check_classification, 2, 2)
        assert (check.passed, check.witness) == (False, mat_to_text(last))

    def test_scalar_invariance_check_rejects_one_doctored_scaled_theta(self, monkeypatch):
        # 2 theta gets another automorphism's functors for the first theta alone; p = 2 has no scalar to test.
        first, other = gl(2, 3)[0], gl(2, 3)[1]
        real = crossconn.gamma_delta_theta
        doctored = Endo(first.scale(2))
        monkeypatch.setattr(crossconn, "gamma_delta_theta", lambda t: real(other if t == doctored else t))
        check = verify.run_check("crossconn.scalar-invariance", verify.check_scalar_invariance, 3, 2)
        assert (check.passed, check.witness) == (False, (mat_to_text(first), 2))

    def test_scalar_invariance_gf3(self):
        for theta in gl(2, 3):
            g1, d1 = gamma_delta_theta(theta)
            g2, d2 = gamma_delta_theta(Endo(theta.scale(2)))
            assert g1 == g2 and d1 == d2

    def test_out_of_scope(self):
        with pytest.raises(TooLarge):
            classify_crossconnections(3, 2)
        with pytest.raises(TooLarge):
            classify_crossconnections(2, 5)


def test_bifunctor_actions_land_in_target_sets():
    # The index actions of the naturality square: f acts through its extension element, a dual
    # morphism y -> z through its carrier w. The reduced chi-naturality verdict relies on the
    # second loop: w chi(alpha) E_delta(f) lies in Delta(b, z) for every alpha in Delta(a, y).
    from linsemi.dual import dual_morphisms, extension

    theta = SWAP
    gamma, delta = gamma_delta_theta(theta)
    u = indexed.universe(2, 2)
    prod, chi_back = u.products, crossconn.chi_indices(theta.inverse())
    primal = category(2, 2, Side.PRIMAL).objects
    dual = category(2, 2, Side.DUAL).objects
    for a, b, y, z in itertools.product(primal, primal, dual, dual):
        carriers = {u.index(dm.carrier) for dm in dual_morphisms(y, z)}
        for f in hom_between(a, b):
            ext_f, ext_g = extension(f), extension(delta.mor(f))
            for w in carriers:
                for alpha in _bifunctor_indices(a, gamma.obj(y)):
                    assert prod[prod[chi_back[w]][alpha]][ext_f] in _bifunctor_indices(b, gamma.obj(z))
                for alpha in _bifunctor_indices(delta.obj(a), y):
                    assert prod[prod[w][alpha]][ext_g] in _bifunctor_indices(delta.obj(b), z)


def test_functor_check_catches_broken_composition():
    _, delta = gamma_delta_theta(SWAP)
    cat = category(2, 2, Side.PRIMAL)
    a = canonical([[1, 0]], 2, 2)
    broken = dict(delta.morphism_map)
    target = next(f for f in cat.all_morphisms() if f.dom == a and f.cod == a and f.is_iso)
    broken[target] = Morphism.zero(delta.obj(a), delta.obj(a))
    assert not is_local_isomorphism(cat.objects, delta.object_map, broken, cat.objects).ok


def test_functor_check_catches_image_outside_the_hom_set():
    # The swap sends <e1> to <e2>; the morphism 0 -> <e1> is sent into hom(0, <e1 + e2>) instead.
    _, delta = gamma_delta_theta(SWAP)
    cat = category(2, 2, Side.PRIMAL)
    zero, line = zero_subspace(2, 2), canonical([[1, 0]], 2, 2)
    broken = dict(delta.morphism_map)
    broken[Morphism.zero(zero, line)] = Morphism.zero(zero, canonical([[1, 1]], 2, 2))
    verdict = is_local_isomorphism(cat.objects, delta.object_map, broken, cat.objects)
    assert verdict == (False, "composition not preserved")


class TestRestrictedLocalIso:
    """The merged checker on the restricted functors of sandwich variants."""

    def test_corrupted_composite_breaks_composition(self):
        # theta = E11 at (2, 2): the restricted delta lives on {0, L}, L = <e1>.
        ctx = make_variant(endo([[1, 0], [0, 0]]))
        objects, _ = restricted_objects(ctx)
        delta = functor_from_global(ctx.theta, objects)
        images = set(delta.object_map.values())
        assert is_local_isomorphism(objects, delta.object_map, delta.morphism_map, images).ok
        line = next(a for a in objects if a.dim == 1)
        # The zero endomorphism of L is the composite L -> 0 -> L; send it
        # to the identity instead.
        broken = dict(delta.morphism_map)
        broken[Morphism.zero(line, line)] = Morphism.identity(delta.obj(line))
        verdict = is_local_isomorphism(objects, delta.object_map, broken, images)
        assert verdict == (False, "composition not preserved")

    def test_noncommuting_composites(self):
        # 2 x 2 endomorphisms of a plane do not commute, so each table entry must sit in its own slot.
        line, plane = canonical([[1, 0, 0]], 3, 2), canonical([[1, 0, 0], [0, 1, 0]], 3, 2)
        objects = (zero_subspace(3, 2), line, plane)
        for g in ([[0, 1, 0], [1, 1, 0], [0, 0, 1]], [[1, 1, 0], [0, 1, 0], [0, 1, 1]]):
            f = functor_from_global(Mat.make(g, 2), objects)
            images = set(f.object_map.values())
            assert is_local_isomorphism(objects, f.object_map, f.morphism_map, images).ok

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


class TestTransportOncePerObject:
    """`functor_from_global` against the per-morphism reference `transport_morphism`."""

    @staticmethod
    def assert_matches_reference(g, objects):
        functor = functor_from_global(g, objects)
        assert list(functor.morphism_map) == [f for a in objects for b in objects for f in hom_between(a, b)]
        for f, image in functor.morphism_map.items():
            assert image == transport_morphism(f, g)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("side", list(Side))
    def test_every_automorphism(self, p, side):
        objects = category(2, p, side).objects
        for theta in gl(2, p):
            g = theta if side is Side.PRIMAL else theta.transpose()
            self.assert_matches_reference(g, objects)

    @pytest.mark.parametrize("n,p,step", [(3, 2, 28), (2, 5, 80)])
    def test_planes_and_larger_fields(self, n, p, step):
        # Frames that differ from their inverses: 2 x 2 over GF(2), scalars over GF(5).
        objects = category(n, p, Side.PRIMAL).objects
        for theta in gl(n, p)[::step]:
            self.assert_matches_reference(theta, objects)

    @pytest.mark.parametrize("p", [2, 3])
    def test_restricted_delta_of_e11(self, p):
        ctx = make_variant(endo([[1, 0], [0, 0]], p))
        self.assert_matches_reference(ctx.theta, restricted_objects(ctx)[0])

    def test_not_injective_raises(self):
        # E11 kills the second coordinate line.
        with pytest.raises(NotInvertible, match="not injective"):
            functor_from_global(endo([[1, 0], [0, 0]]), category(2, 2, Side.PRIMAL).objects)


def test_gl_batch_fails_with_the_one_theta_whose_verdict_fails(monkeypatch):
    target, real = gl(2, 2)[2], verify.theta_crossconnection
    monkeypatch.setattr(verify, "theta_crossconnection", lambda t: (False, "doctored") if t == target else real(t))
    check = verify.run_check("crossconn.gl-batch", verify.check_gl_crossconnections, 2, 2)
    assert (check.passed, check.witness) == (False, (mat_to_text(target), "doctored"))


def _without_identity(functor, a):
    """The functor with the identity of object a sent to the zero map of its image."""
    image = functor.obj(a)
    broken = {**functor.morphism_map, Morphism.identity(a): Morphism(image, image, Mat.zeros(a.dim, a.dim, a.p))}
    return functor._replace(morphism_map=broken)


@pytest.mark.parametrize("side", list(Side))
def test_theta_crossconnection_fails_when_a_functor_loses_an_identity(monkeypatch, side):
    # The dual-side gamma fails with its own reason; the primal-side delta is named.
    theta, real = SWAP, crossconn.gamma_delta_theta
    gamma, delta = real(theta)
    if side is Side.DUAL:
        doctored, want = (_without_identity(gamma, category(2, 2, side).objects[-1]), delta), "identity not preserved"
    else:
        doctored, want = (gamma, _without_identity(delta, category(2, 2, side).objects[-1])), "delta"
    monkeypatch.setattr(crossconn, "gamma_delta_theta", lambda t: doctored if t == theta else real(t))
    assert verify.theta_crossconnection(theta) == (False, want)
    assert verify.theta_crossconnection(gl(2, 2)[1]) == (True, None)


def test_theta_recover_roundtrip_fails_on_another_automorphisms_delta(monkeypatch):
    # Over GF(2) every scalar is 1, so the delta of `other` gives back `other` itself.
    theta, other, real = SWAP, gl(2, 2)[1], crossconn.gamma_delta_theta
    monkeypatch.setattr(crossconn, "gamma_delta_theta", lambda t: real(other))
    assert verify.theta_recover_roundtrip(theta) == (False, mat_to_text(other))
    assert verify.theta_recover_roundtrip(other) == (True, mat_to_text(other))


def test_gl_batch_composes_each_pair_at_most_once(monkeypatch):
    # Composites come from one table per object triple, shared by every functor.
    crossconn._compose_table.cache_clear()  # an earlier test at (3,2) may have filled it
    calls = []
    compose = Morphism.compose
    monkeypatch.setattr(Morphism, "compose", lambda f, g: calls.append(1) or compose(f, g))
    assert verify.check_gl_crossconnections(3, 2) == (True, {"automorphisms": 48})
    pairs = 0
    for side in Side:
        objects = category(2, 3, side).objects
        pairs += sum(
            len(hom_between(a, b)) * len(hom_between(b, c)) for a in objects for b in objects for c in objects
        )
    assert pairs == 1402
    assert 0 < len(calls) <= pairs
