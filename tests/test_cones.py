"""Normal factorization and the cone semigroup over the proper subspaces."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linsemi import dual, indexed
from linsemi import normal_cones as nc
from linsemi.errors import NotACone, NotSingular, TooLarge
from linsemi.gf import Mat, row_basis, solve_left
from linsemi.normal_cones import (
    NormalCone,
    _basis_rows,
    _restrictions,
    category,
    cone_table,
    cone_census,
    cone_compose,
    cone_to_map,
    epimorphic_component,
    hom_between,
    index_compose,
    index_cone,
    index_m_set,
    normal_factorization,
    principal_cone,
    validate_cone,
)
from linsemi.semigroup import Endo, idempotent_from, mult_table, sing
from linsemi.subspaces import (
    Morphism,
    Side,
    Subspace,
    canonical,
    complement,
    image_subspace,
    inclusion,
    zero_subspace,
)
from linsemi.verify import (
    check_cone_census,
    check_cone_homomorphism,
    check_cone_table,
    check_dual_tables,
    check_factorization,
    check_idempotent_cones,
    check_msets,
    check_principal_roundtrip,
    run_check,
    run_registered,
)


def endo(rows, p=2):
    return Endo(Mat.make(rows, p))


def restriction(alpha: Endo, a: Subspace, target: Subspace) -> Morphism:
    """Per-object reference: solve for each basis row of a, sent through alpha, in target."""
    rows = [solve_left(target.basis, alpha.apply(v)) for v in a.basis.rows]
    return Morphism(a, target, Mat.make(rows, a.p, ncols=target.dim))


E11 = endo([[1, 0], [0, 0]])
E22 = endo([[0, 0], [0, 1]])


class TestFactorization:
    def test_explicit_3d_example(self):
        # (x, y, 0) -> (0, 0, x) from the e1,e2-plane onto the e3-line
        dom = canonical([[1, 0, 0], [0, 1, 0]], 3, 2)
        cod = canonical([[0, 0, 1]], 3, 2)
        f = Morphism(dom, cod, Mat.make([[1], [0]], 2))
        fact = normal_factorization(f)
        assert fact.q.cod == canonical([[1, 0, 0]], 3, 2)
        assert fact.u.is_iso
        assert fact.j.dom == cod
        assert fact.composite() == f

    def test_iso_trivial_legs(self):
        a = canonical([[1, 0]], 2, 2)
        b = canonical([[0, 1]], 2, 2)
        f = Morphism(a, b, Mat.identity(1, 2))
        fact = normal_factorization(f)
        assert fact.q == Morphism.identity(a)
        assert fact.j == Morphism.identity(b)

    def test_zero_morphism(self):
        a = canonical([[1, 0]], 2, 2)
        f = Morphism.zero(a, zero_subspace(2, 2))
        fact = normal_factorization(f)
        assert fact.q.cod == zero_subspace(2, 2)
        assert fact.u.dom.dim == 0
        assert fact.composite() == f

    @pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_identity_on_every_morphism(self, n, p):
        cat = category(n, p)
        for f in cat.all_morphisms():
            fact = normal_factorization(f)
            assert fact.composite() == f
            assert fact.u.is_iso
            assert row_basis(fact.u.dom.basis) == fact.u.dom.basis  # the middle object holds its RREF basis
            # splitting: the inclusion into the domain followed by q is the identity
            assert inclusion(fact.q.cod, fact.q.dom).compose(fact.q) == Morphism.identity(fact.q.cod)

    def test_check_rejects_a_wrong_factorization_of_one_morphism(self, monkeypatch):
        # The last morphism, a nonzero map between lines, is factored as the zero map between them.
        last, real = category(2, 2).all_morphisms()[-1], nc.normal_factorization
        zero = Morphism.zero(last.dom, last.cod)
        monkeypatch.setattr(nc, "normal_factorization", lambda f: real(zero if f == last else f))
        check = run_check("cones.factorization", check_factorization, 2, 2)
        assert (check.passed, check.witness) == (False, {"dom": str(last.dom.basis)})

    @pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (5, 2), (7, 2), (3, 3)])
    def test_morphism_count_closed_form(self, p, n):
        count = {(2, 2): 25, (3, 2): 57, (2, 3): 1303, (5, 2): 193, (7, 2): 465, (3, 3): 17291}[p, n]
        assert nc.morphism_count(n, p) == len(category(n, p).all_morphisms()) == count


class TestEpimorphicComponent:
    def test_surjective_unchanged(self):
        a = canonical([[1, 0]], 2, 2)
        f = Morphism(a, a, Mat.identity(1, 2))
        assert epimorphic_component(f) == f

    def test_plane_example(self):
        dom = canonical([[1, 0, 0], [0, 1, 0]], 3, 2)
        cod = canonical([[0, 0, 1]], 3, 2)
        f = Morphism(dom, cod, Mat.make([[1], [0]], 2))
        epi = epimorphic_component(f)
        assert epi.cod == cod
        assert epi.apply((1, 0, 0)) == (0, 0, 1)

    def test_zero_onto_zero(self):
        a = canonical([[1, 0]], 2, 2)
        f = Morphism.zero(a, canonical([[0, 1]], 2, 2))
        assert epimorphic_component(f).cod == zero_subspace(2, 2)

    def test_equals_q_u(self):
        for f in category(2, 2).all_morphisms():
            fact = normal_factorization(f)
            epi = epimorphic_component(f)
            assert fact.q.compose(fact.u) == epi
            assert epi.compose(inclusion(epi.cod, f.cod)) == f


class TestPrincipalCone:
    def test_zero_cone(self):
        cone = principal_cone(Endo.zero(2, 2))
        assert cone.vertex == zero_subspace(2, 2)
        assert all(c.is_zero for c in cone.components)
        assert validate_cone(cone).valid

    def test_component_at_diagonal_line(self):
        cone = principal_cone(E11)
        comp = cone.component(canonical([[1, 1]], 2, 2))
        assert comp.apply((1, 1)) == (1, 0)
        assert comp.is_iso

    def test_idempotent_cone_has_identity_component(self):
        cone = principal_cone(E11)
        assert cone.component(cone.vertex) == Morphism.identity(cone.vertex)

    def test_invertible_rejected(self):
        with pytest.raises(NotSingular):
            principal_cone(Endo.identity(2, 2))

    @pytest.mark.parametrize("side", list(Side))
    @pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
    def test_components_match_per_object_restriction(self, n, p, side):
        objects = category(n, p, side).objects
        for alpha in sing(n, p):
            cone = principal_cone(alpha, side)
            assert cone.vertex == Subspace(n, p, side, alpha.image.basis)
            assert cone.components == tuple(restriction(alpha, a, cone.vertex) for a in objects)

    def test_escaping_row_gives_no_restriction(self):
        # validate_cone's coherence test relies on this: an object with a
        # basis row sent outside the target has no restriction into it.
        objects = category(2, 3, Side.PRIMAL).objects
        for alpha in sing(2, 3):
            for target in objects:
                inside = [target.contains(image_subspace(a, alpha)) for a in objects]
                want = tuple(restriction(alpha, a, target) if ok else None for a, ok in zip(objects, inside))
                assert _restrictions(alpha, Side.PRIMAL, target) == want


class TestConeToMap:
    def test_roundtrip_all_sing(self):
        for alpha in sing(2, 2):
            assert cone_to_map(principal_cone(alpha)) == alpha

    def test_roundtrip_check_fails_when_a_cone_maps_elsewhere(self, monkeypatch):
        # A bare Mat with alpha's entries is alpha, so the check passes every cone but the
        # one whose map is replaced by its transpose, and names that alpha.
        real, moved = nc.cone_to_map, endo([[1, 1], [0, 0]])

        def doctored(cone):
            alpha = real(cone)
            return alpha.transpose() if alpha == moved else Mat(*alpha)

        monkeypatch.setattr(nc, "cone_to_map", doctored)
        check = run_check("cones.principal-roundtrip", check_principal_roundtrip, 2, 2)
        assert (check.passed, check.witness) == (False, "1,1;0,0")

    def test_zero_components(self):
        cone = principal_cone(Endo.zero(2, 2))
        assert cone_to_map(cone) == Endo.zero(2, 2)

    def test_projection_construction(self):
        # cone built from the map fixing the target pointwise is a projection
        target = canonical([[1, 0]], 2, 2)
        cone = principal_cone(idempotent_from(complement(target), target))
        alpha = cone_to_map(cone)
        assert alpha.is_idempotent
        assert alpha.image == target

    def test_incoherent_family_rejected(self):
        base = principal_cone(E11)
        cat = category(2, 2, Side.PRIMAL)
        diag = canonical([[1, 1]], 2, 2)
        comps = list(base.components)
        comps[cat.index(diag)] = Morphism.zero(diag, base.vertex)
        broken = NormalCone(2, 2, Side.PRIMAL, base.vertex, tuple(comps))
        check = validate_cone(broken)
        assert check.compatible and check.has_iso and not check.coherent
        with pytest.raises(NotACone):
            cone_to_map(broken)


class TestConeCompose:
    def test_orthogonal_projections_compose_to_zero(self):
        assert E11 @ E22 == Endo.zero(2, 2)
        composed = cone_compose(principal_cone(E11), principal_cone(E22))
        assert composed.vertex == zero_subspace(2, 2)
        assert cone_to_map(composed) == Endo.zero(2, 2)

    def test_right_identity_on_l_class(self):
        gamma = principal_cone(endo([[1, 0], [1, 0]]))
        idem = principal_cone(idempotent_from(complement(gamma.vertex), gamma.vertex))
        assert cone_compose(gamma, idem) == gamma

    def test_agrees_with_matrix_product(self):
        elements = sing(2, 2)
        cones = {a: principal_cone(a) for a in elements}
        for a in elements:
            for b in elements:
                assert cone_to_map(cone_compose(cones[a], cones[b])) == a @ b

    def test_composite_is_valid(self):
        elements = sing(2, 2)
        for a in elements[:4]:
            for b in elements[:4]:
                assert validate_cone(cone_compose(principal_cone(a), principal_cone(b))).valid


class TestValidateAndCensus:
    def test_compatibility_violation_detected(self):
        cat = category(3, 2, Side.PRIMAL)
        alpha = endo([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        cone = principal_cone(alpha)
        comps = list(cone.components)
        line = canonical([[1, 0, 0]], 3, 2)
        comps[cat.index(line)] = Morphism.zero(line, cone.vertex)
        broken = NormalCone(3, 2, Side.PRIMAL, cone.vertex, tuple(comps))
        check = validate_cone(broken)
        assert not check.valid and not check.compatible

    def test_census_2_2(self):
        census = cone_census(2, 2)
        assert census.valid_count == 10
        # the two written laws alone admit extra families in dimension 2
        assert census.inclusion_iso_only_count == 22
        assert set(census.valid_cones) == {principal_cone(a) for a in sing(2, 2)}

    def test_census_2_3(self):
        census = cone_census(2, 3)
        assert census.valid_count == len(sing(2, 3)) == 33

    @pytest.mark.parametrize("count_drop", [1, 0], ids=["count-and-cone", "cone-only"])
    def test_check_rejects_a_census_missing_one_valid_cone(self, monkeypatch, count_drop):
        # The first valid cone goes missing, from the count too or in the cones alone.
        real = cone_census(2, 2)
        missing = nc.ConeCensus(real.valid_count - count_drop, real.inclusion_iso_only_count, real.valid_cones[1:])
        monkeypatch.setattr(nc, "cone_census", lambda n, p: missing)
        check = run_check("cones.census", check_cone_census, 2, 2)
        witness = {"valid": 10 - count_drop, "inclusion_iso_only": real.inclusion_iso_only_count}
        assert (check.passed, check.witness) == (False, witness)

    def test_census_too_large(self):
        with pytest.raises(TooLarge):
            cone_census(3, 2)

    def test_census_budget_stops_before_a_huge_count(self):
        # At (5, 4) the family count has more than 4300 digits, which str() refuses; the
        # message states the budget instead, and the registry skip states 2^64 as a bound.
        with pytest.raises(TooLarge, match="more than 2000 families"):
            cone_census(4, 5)
        check = run_registered("cones.census", check_cone_census, 5, 4)
        assert check.passed and check.witness == {"skipped": "cone families >= 2^64 > 2000"}

    def test_idempotent_cones_are_vertex_identities(self):
        for alpha in sing(2, 2):
            cone = principal_cone(alpha)
            idem = cone_compose(cone, cone) == cone
            assert idem == (cone.component(cone.vertex) == Morphism.identity(cone.vertex))

    def test_idempotent_law_rejects_a_composition_that_keeps_its_first_cone(self, monkeypatch):
        # Every cone is then its own square: the first non-idempotent in counting order is the witness.
        monkeypatch.setattr(nc, "cone_compose", lambda gamma, delta: gamma)
        check = run_check("cones.idempotent-law", check_idempotent_cones, 2, 2)
        assert (check.passed, check.witness) == (False, "0,0;1,0")


class TestConeAssociativity:
    @given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9))
    @settings(max_examples=60, deadline=None)
    def test_compose_associative_2_2(self, i, j, k):
        elements = sing(2, 2)
        a, b, c = principal_cone(elements[i]), principal_cone(elements[j]), principal_cone(elements[k])
        assert cone_compose(cone_compose(a, b), c) == cone_compose(a, cone_compose(b, c))

    @given(st.integers(0, 32), st.integers(0, 32), st.integers(0, 32))
    @settings(max_examples=40, deadline=None)
    def test_compose_associative_2_3(self, i, j, k):
        elements = sing(2, 3)
        a, b, c = principal_cone(elements[i]), principal_cone(elements[j]), principal_cone(elements[k])
        assert cone_compose(cone_compose(a, b), c) == cone_compose(a, cone_compose(b, c))


class TestConeSemigroup:
    def test_table_matches_sing(self):
        u = indexed.universe(2, 2)
        assert cone_table(u, u.singular) == mult_table(sing(2, 2), lambda a, b: a @ b)

    def test_two_laws_imply_coherence_in_dim_3(self):
        # Lines lie in common proper planes once n = 3, so inclusion
        # compatibility alone forces a global map. Enumerate every
        # compatible family onto a fixed line vertex by assigning the
        # plane components and deriving the line components.
        import itertools

        cat = category(3, 2, Side.PRIMAL)
        lines = [a for a in cat.objects if a.dim == 1]
        planes = [a for a in cat.objects if a.dim == 2]
        zero = zero_subspace(3, 2)
        vertex = lines[0]
        with_iso = 0
        for assignment in itertools.product(*(hom_between(pl, vertex) for pl in planes)):
            line_comps = {}
            consistent = True
            for line in lines:
                derived = {
                    inclusion(line, pl).compose(assignment[i])
                    for i, pl in enumerate(planes)
                    if pl.contains(line)
                }
                if len(derived) != 1:
                    consistent = False
                    break
                line_comps[line] = derived.pop()
            if not consistent:
                continue
            comps = []
            for obj in cat.objects:
                if obj == zero:
                    comps.append(Morphism.zero(zero, vertex))
                elif obj.dim == 1:
                    comps.append(line_comps[obj])
                else:
                    comps.append(assignment[planes.index(obj)])
            cone = NormalCone(3, 2, Side.PRIMAL, vertex, tuple(comps))
            check = validate_cone(cone)
            assert check.compatible
            assert check.coherent
            if check.has_iso:
                with_iso += 1
        # coherent families with an isomorphism onto the vertex are exactly
        # the nonzero maps from V into that line
        assert with_iso == 2**3 - 1


def decode(u, cone, side):
    """The vertex and components an index cone stands for, located in the vertex per basis row."""
    rows, _ = _basis_rows(u.n, u.p, side)
    image_of = dict(zip(rows, (u.vectors[w] for w in cone.images)))
    vertex = Subspace(u.n, u.p, side, u.subspaces[cone.vertex].basis)
    comps = tuple(
        Morphism(a, vertex, Mat(tuple(vertex.coords_of(image_of[v]) for v in a.basis.rows), vertex.dim, u.p))
        for a in category(u.n, u.p, side).objects
    )
    return vertex, comps


SIZES = [(2, 2), (3, 2), (2, 3)]


class TestIndexCones:
    @pytest.mark.parametrize("p,n", SIZES)
    @pytest.mark.parametrize("side", [Side.PRIMAL, Side.DUAL])
    def test_decodes_to_principal_cone(self, p, n, side):
        u = indexed.universe(n, p)
        for x in u.singular:
            cone = principal_cone(u.elements[x], side)
            assert decode(u, index_cone(u, x), side) == (cone.vertex, cone.components)

    @pytest.mark.parametrize("p,n", SIZES)
    def test_dual_table_holds_the_cones_of_transposes(self, p, n):
        u = indexed.universe(n, p)
        for x in u.singular:
            cone = principal_cone(u.elements[x].transpose(), Side.DUAL)
            assert decode(u, index_cone(u, u.transpose[x]), Side.DUAL) == (cone.vertex, cone.components)

    @pytest.mark.parametrize("p,n", SIZES)
    def test_m_set_matches_components(self, p, n):
        u = indexed.universe(n, p)
        for x in u.singular:
            got = {u.subspaces[a] for a in index_m_set(u, index_cone(u, x))}
            cone = principal_cone(u.elements[x])
            assert got == {a for a, c in zip(category(n, p).objects, cone.components) if c.is_iso}

    @pytest.mark.parametrize("p,n,pairs", [(2, 2, None), (3, 2, None), (2, 3, 2000)])
    def test_compose_matches_cone_compose(self, p, n, pairs):
        u = indexed.universe(n, p)
        singular = list(u.singular)
        if pairs is None:
            chosen = [(a, b) for a in singular for b in singular]
        else:
            rng = random.Random(11)
            chosen = [(rng.choice(singular), rng.choice(singular)) for _ in range(pairs)]
        for a, b in chosen:
            want = cone_compose(principal_cone(u.elements[a]), principal_cone(u.elements[b]))
            got = index_compose(u, index_cone(u, a), index_cone(u, b))
            assert decode(u, got, Side.PRIMAL) == (want.vertex, want.components)

    def test_msets_check_builds_no_morphism(self, monkeypatch):
        built = []
        monkeypatch.setattr(Morphism, "__post_init__", lambda self: built.append(self))
        assert check_msets(2, 4) == (True, None)
        assert built == []

    @pytest.mark.parametrize("check", [check_cone_homomorphism, check_cone_table, check_dual_tables])
    def test_table_checks_compose_by_lookup(self, monkeypatch, check):
        calls = []
        for module, name in [(nc, "cone_compose"), (nc, "validate_cone"), (dual, "cone_compose")]:
            original = getattr(module, name, None)

            def spy(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, spy, raising=False)
        passed, _ = check(3, 2)
        assert passed
        assert calls == []
