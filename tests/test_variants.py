"""Sandwich products, the regular part, translate pairs and restricted categories."""
import pytest

from linsemi import indexed, variants, verify
from linsemi.errors import NotClosed
from linsemi.gf import Mat
from linsemi.indexed import universe
from linsemi.semigroup import Endo, all_endos, regular_elements, variant_reg_order
from linsemi.variants import (
    carriers,
    make_variant,
    nonprincipal_cones,
    phi,
    reg_indices,
    restricted_objects,
    sandwich,
    sandwich_index,
    variant_crossconnection,
)


def endo(rows, p=2):
    return Endo(Mat.make(rows, p))


def reg_variant(ctx):
    """The regular part by the rank test, as `Endo`s."""
    elements = universe(ctx.n, ctx.p).elements
    return [elements[a] for a in reg_indices(ctx)]


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
        assert reg_indices(make_variant(Endo.identity(2, 2))) == tuple(range(16))

    def test_e11_regular_part(self):
        ctx = make_variant(E11)
        assert set(reg_variant(ctx)) == REG_E11
        for a in all_endos(2, 2):  # a witness b with a theta b theta a = a exists exactly on the part
            assert any(sandwich(sandwich(a, b, ctx), a, ctx) == a for b in all_endos(2, 2)) == (a in REG_E11)

    def test_zero_theta(self):
        assert reg_variant(make_variant(Endo.zero(2, 2))) == [Endo.zero(2, 2)]

    def test_closure_under_sandwich_all_thetas(self):
        for theta in all_endos(2, 2):
            ctx = make_variant(theta)
            reg = reg_variant(ctx)
            reg_set = set(reg)
            for a in reg:
                for b in reg:
                    assert sandwich(a, b, ctx) in reg_set


def test_reg_closed_fails_with_the_one_theta_whose_verdict_fails(monkeypatch):
    real = verify.theta_variant_reg
    monkeypatch.setattr(verify, "theta_variant_reg", lambda t: (False, None) if t == E11 else real(t))
    check = verify.run_check("variant.reg-closed", verify.check_variant_regularity, 2, 2)
    assert (check.passed, check.witness) == (False, "1,0;0,0")


# Every theta when there are at most 100, else the four of `_variant_mats`.
@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (5, 2)])
def test_rank_test_agrees_with_the_witness_search(p, n):
    u = universe(n, p)
    for theta in verify._variant_thetas(p, n):
        ctx = make_variant(theta)
        reg = reg_indices(ctx)
        assert list(reg) == regular_elements(range(len(u.image)), sandwich_index(ctx))[0], theta
        assert len(reg) == variant_reg_order(n, p, theta.rank), theta


def test_reg_closed_fails_on_a_closed_part_of_the_wrong_size(monkeypatch):
    # All of End(V) is closed under any sandwich product; only the closed form for rank 1 rejects it.
    monkeypatch.setattr(variants, "reg_indices", lambda ctx: tuple(range(16)))
    assert verify.theta_variant_reg(E11) == (False, {"reg_size": 16, "closed_form": 5})


def test_reg_closed_fails_when_the_rank_test_misreads_a_rank(monkeypatch):
    # For theta = 0,1;0,0 the rank test reads (a theta)^T theta^T from the column of right products by
    # theta^T = 0,0;1,0. Reading its entry 0 as 0,0;0,1, of rank 1, drops the zero map from the regular part
    # and adds the three rank-one a with a theta = 0: 7 elements, not the closed form's 5.
    real = indexed.Universe.right_products

    def doctored(self, t):
        out = real(self, t)
        if (self.n, self.p, t) == (2, 2, self.index(endo([[0, 0], [1, 0]]))):
            out[0] = self.index(endo([[0, 0], [0, 1]]))
        return out

    monkeypatch.setattr(indexed.Universe, "right_products", doctored)
    check = verify.run_check("theta_variant_reg", verify.theta_variant_reg, endo([[0, 1], [0, 0]]))
    assert (check.passed, check.witness) == (False, {"reg_size": 7, "closed_form": 5})


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
        reg = reg_variant(ctx)
        assert len({phi(a, ctx) for a in reg}) == len(reg) == 5
        assert len({phi(a, ctx) for a in all_endos(2, 2)}) < 16

    def test_homomorphism_all_thetas(self):
        elements = universe(2, 2).elements
        for theta in all_endos(2, 2):
            ctx = make_variant(theta)
            product = sandwich_index(ctx)
            for i, a in enumerate(elements):
                for j, b in enumerate(elements):
                    assert elements[product(i, j)] == sandwich(a, b, ctx)
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
        u = universe(2, 2)
        tr, tb = carriers(ctx)
        assert len(tr) == 4
        assert all(row in ((0, 0), (1, 0)) for x in tr for row in u.elements[x].rows)
        assert len(tb) == 4
        assert all(u.elements[x].rows[1] == (0, 0) for x in tb)

    def test_e11_objects(self):
        r_objects, b_objects = restricted_objects(make_variant(E11))
        assert len(r_objects) == 2
        assert len(b_objects) == 2

    def test_carriers_closed(self):
        # Universe.table raises NotClosed when a product escapes; the
        # kernel-side carrier lives in the opposite monoid, closed all the same
        u = universe(2, 2)
        for theta in all_endos(2, 2):
            if theta.inverse() is not None:
                continue
            for carrier in carriers(make_variant(theta)):
                assert len(u.table(carrier)) == len(carrier)
        with pytest.raises(NotClosed):
            u.table([u.index(E11), u.index(endo([[0, 1], [0, 0]]))])

    def test_carrier_regularity_is_reported_not_assumed(self):
        # the image-side carrier of the coordinate projection is not regular:
        # the nilpotent member has no witness inside the carrier
        u = universe(2, 2)
        tr = carriers(make_variant(E11))[0]
        prod = u.products
        assert len(regular_elements(tr, lambda a, b: prod[a][b])[0]) < len(tr)
        nilpotent = u.index(endo([[0, 0], [1, 0]]))
        assert nilpotent in tr
        for g in tr:
            assert prod[prod[nilpotent][g]][nilpotent] != nilpotent


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

    def test_builds_only_the_variant_and_pair_tables(self, monkeypatch):
        # The restricted functors need the object sets only, not the carrier tables.
        sizes = []
        real = variants.mult_table
        monkeypatch.setattr(variants, "mult_table", lambda xs, prod: sizes.append(len(xs)) or real(xs, prod))
        assert variant_crossconnection(make_variant(E11)).ok
        assert sizes == [5, 5]

    def test_check_rejects_translates_that_multiply_otherwise(self, monkeypatch):
        # Swapping the translate pairs of the first two regular elements keeps phi injective and the
        # pairs closed, but relabels the pair table so that it is no longer the variant's table. The
        # witness keeps what names the failed part: both functors pass, and no iso_witness is given.
        real = variants.phi
        first, second = reg_variant(make_variant(E11))[:2]
        swap = {first: second, second: first}
        monkeypatch.setattr(variants, "phi", lambda a, ctx: real(swap.get(a, a), ctx))
        check = verify.run_check("variant.crossconnection", verify.check_variant_crossconnection, 2, 2)
        assert (check.passed, check.witness) == (False, {"reg_size": 5, "invertible": False})

    def test_check_rejects_a_variant_table_that_multiplies_otherwise(self, monkeypatch):
        # The sandwich product relabelled by swapping the first two regular elements, 0 and E11, gives a
        # closed variant table that is no longer the pair table; the translate pairs are untouched.
        real = variants.sandwich
        first, second = reg_variant(make_variant(E11))[:2]
        swap = {first: second, second: first}

        def relabelled(a, b, ctx):
            c = real(swap.get(a, a), swap.get(b, b), ctx)
            return swap.get(c, c)

        monkeypatch.setattr(variants, "sandwich", relabelled)
        check = verify.run_check("variant.crossconnection", verify.check_variant_crossconnection, 2, 2)
        assert (check.passed, check.witness) == (False, {"reg_size": 5, "invertible": False})

    def test_check_names_the_functors_that_fail(self, monkeypatch):
        # With both restricted functors failing and the tables intact, the witness says so.
        monkeypatch.setattr(variants, "is_local_isomorphism", lambda *args: variants.FunctorVerdict(False, "doctored"))
        check = verify.run_check("variant.crossconnection", verify.check_variant_crossconnection, 2, 2)
        failed = {"delta_failure": "doctored", "gamma_failure": "doctored"}
        want = {"reg_size": 5, "invertible": False, **failed, "iso_witness": [0, 1, 2, 3, 4]}
        assert (check.passed, check.witness) == (False, want)

    def test_phi_image_lands_in_carriers(self):
        ctx = make_variant(E11)
        reg = reg_variant(ctx)
        u = universe(2, 2)
        tr, tb = ({u.elements[x] for x in carrier} for carrier in carriers(ctx))
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
        assert [e.rows for e in census.excess] == [((0, 0), (1, 0))]
        assert census.example == endo([[0, 0], [1, 0]])

    def test_invertible_no_excess(self):
        census = nonprincipal_cones(make_variant(Endo.identity(2, 2)))
        assert census.excess == ()

    def test_every_singular_nonzero_theta_has_excess(self):
        for theta in all_endos(2, 2):
            if theta.inverse() is not None:
                continue
            if all(x == 0 for x in theta.flat()):
                continue
            census = nonprincipal_cones(make_variant(theta))
            assert len(census.excess) >= 1

    def test_census_fails_when_every_element_counts_as_regular(self, monkeypatch):
        # With every element regular, every a theta is a translate, so E11's carrier has no excess.
        q = 16
        monkeypatch.setattr(variants, "reg_indices", lambda ctx: tuple(range(q)))
        assert verify.theta_nonprincipal_census(E11) == (False, {"carrier": 4, "principal": 4, "excess": 0})
        assert verify.check_variant_nonprincipal(2, 2) == (False, "0,0;0,1")
