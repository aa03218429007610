"""Sandwich products, the regular part, translate pairs and restricted categories."""
from linsemi.gf import Mat
from linsemi.semigroup import Endo, all_endos
from linsemi.variants import (
    make_variant,
    nonprincipal_cones,
    phi,
    reg_variant,
    sandwich,
    tb_elements,
    tr_elements,
    variant_categories,
    variant_crossconnection,
)


def endo(rows, p=2):
    return Endo(Mat.make(rows, p))


E11 = endo([[1, 0], [0, 0]])
REG_E11 = {
    endo([[0, 0], [0, 0]]),
    endo([[1, 0], [0, 0]]),
    endo([[1, 1], [0, 0]]),
    endo([[1, 0], [1, 0]]),
    endo([[1, 1], [1, 1]]),
}


class TestRegVariant:
    def test_identity_theta_gives_everything(self):
        ctx = make_variant(Endo.identity(2, 2))
        reg, _ = reg_variant(ctx)
        assert len(reg) == 16

    def test_e11_regular_part(self):
        ctx = make_variant(E11)
        reg, witnesses = reg_variant(ctx)
        assert set(reg) == REG_E11
        for a, b in witnesses:
            assert sandwich(sandwich(a, b, ctx), a, ctx) == a

    def test_zero_theta(self):
        ctx = make_variant(Endo.zero(2, 2))
        reg, _ = reg_variant(ctx)
        assert set(reg) == {Endo.zero(2, 2)}

    def test_closure_under_sandwich_all_thetas(self):
        for theta in all_endos(2, 2):
            ctx = make_variant(theta)
            reg, _ = reg_variant(ctx)
            reg_set = set(reg)
            for a in reg:
                for b in reg:
                    assert sandwich(a, b, ctx) in reg_set


class TestPhi:
    def test_zero(self):
        ctx = make_variant(E11)
        pair = phi(Endo.zero(2, 2), ctx)
        assert pair[0] == pair[1] == Endo.zero(2, 2)

    def test_worked_example(self):
        ctx = make_variant(E11)
        pair = phi(endo([[1, 1], [1, 1]]), ctx)
        assert pair[0] == endo([[1, 1], [0, 0]])
        assert pair[1] == endo([[1, 0], [1, 0]])

    def test_injective_on_regular_part_only(self):
        ctx = make_variant(E11)
        reg, _ = reg_variant(ctx)
        assert len({phi(a, ctx) for a in reg}) == len(reg) == 5
        assert len({phi(a, ctx) for a in all_endos(2, 2)}) < 16

    def test_homomorphism_all_thetas(self):
        for theta in all_endos(2, 2):
            ctx = make_variant(theta)
            for a in all_endos(2, 2):
                for b in all_endos(2, 2):
                    (xa, ya), (xb, yb) = phi(a, ctx), phi(b, ctx)
                    assert phi(sandwich(a, b, ctx), ctx) == (xa @ xb, ya @ yb)

    def test_membership_laws(self):
        for theta in all_endos(2, 2):
            for a in all_endos(2, 2):
                assert theta.image.contains((a @ theta).image)
                assert (theta @ a).kernel.contains(theta.kernel)


class TestVariantCategories:
    def test_e11_carriers(self):
        ctx = make_variant(E11)
        assert ctx.w == E11.image
        tr = tr_elements(ctx)
        tb = tb_elements(ctx)
        assert len(tr) == 4
        assert all(row in ((0, 0), (1, 0)) for f in tr for row in f.mat.rows)
        assert len(tb) == 4
        assert all(f.mat.rows[1] == (0, 0) for f in tb)

    def test_e11_objects(self):
        cats = variant_categories(make_variant(E11))
        assert len(cats.r_objects) == 2
        assert len(cats.b_objects) == 2

    def test_carriers_closed(self):
        # mult_table construction itself raises NotClosed on failure
        for theta in all_endos(2, 2):
            if theta.inverse() is not None:
                continue
            cats = variant_categories(make_variant(theta))
            assert cats.tr_table.order == len(tr_elements(make_variant(theta)))

    def test_carrier_regularity_is_reported_not_assumed(self):
        # the image-side carrier of the coordinate projection is not regular:
        # the nilpotent member has no witness inside the carrier
        cats = variant_categories(make_variant(E11))
        assert cats.tr_regular is False
        nilpotent = endo([[0, 0], [1, 0]])
        assert nilpotent in tr_elements(make_variant(E11))
        for g in tr_elements(make_variant(E11)):
            assert nilpotent @ g @ nilpotent != nilpotent


class TestVariantCrossconnection:
    def test_e11_report(self):
        report = variant_crossconnection(make_variant(E11))
        assert not report.invertible
        assert report.delta_verdict.ok
        assert report.gamma_verdict.ok
        assert report.proper_not_surjective
        assert report.reg_size == 5
        assert report.phi_injective and report.phi_table_matches

    def test_identity_degenerates(self):
        report = variant_crossconnection(make_variant(Endo.identity(2, 2)))
        assert report.invertible
        assert report.reg_size == 16
        assert report.phi_injective and report.phi_table_matches

    def test_phi_image_lands_in_carriers(self):
        ctx = make_variant(E11)
        reg, _ = reg_variant(ctx)
        tr = set(tr_elements(ctx))
        tb = set(tb_elements(ctx))
        for a in reg:
            pair = phi(a, ctx)
            assert pair[1] in tr  # image-side coordinate a . theta
            assert pair[0] in tb  # kernel-side coordinate theta . a

    def test_rank_one_3d_spot_check(self):
        theta = Endo(Mat.make([[1, 0, 0], [0, 0, 0], [0, 0, 0]], 2))
        report = variant_crossconnection(make_variant(theta))
        assert report.delta_verdict.ok and report.gamma_verdict.ok
        assert report.proper_not_surjective
        assert report.phi_injective and report.phi_table_matches


class TestNonprincipal:
    def test_e11_census(self):
        census = nonprincipal_cones(make_variant(E11))
        assert census.carrier_size == 4
        assert census.principal_size == 3
        assert census.translates_in_carrier
        assert [e.mat.rows for e in census.excess] == [((0, 0), (1, 0))]
        assert census.example == endo([[0, 0], [1, 0]])

    def test_invertible_no_excess(self):
        census = nonprincipal_cones(make_variant(Endo.identity(2, 2)))
        assert census.excess == ()

    def test_every_singular_nonzero_theta_has_excess(self):
        for theta in all_endos(2, 2):
            if theta.inverse() is not None:
                continue
            if all(x == 0 for x in theta.mat.flat()):
                continue
            census = nonprincipal_cones(make_variant(theta))
            assert len(census.excess) >= 1
