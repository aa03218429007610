"""The index-coded element core against the row-reduction route in `gf`."""
import itertools
import random
import sys
from array import array

import pytest

from linsemi import dual, gf, indexed, semigroup, variants, verify
from linsemi.errors import ShapeError, TooLarge
from linsemi.gf import kernel_basis, row_basis
from linsemi.normal_cones import category
from linsemi.semigroup import Endo, all_endos, gl, sing
from linsemi.subspaces import canonical, is_direct_sum
from linsemi.verify import (
    REGISTRY,
    _variant_thetas,
    check_idempotents,
    check_msets,
    check_sing_order,
    check_variant_membership,
)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (5, 2)])
def test_tables_match_gf(p, n):
    u = indexed.universe(n, p)
    assert len(u.elements) == p ** (n * n)
    for i, e in enumerate(u.elements):
        assert u.index(e) == i
        assert u.subspaces[u.image[i]].basis == row_basis(e)
        assert u.subspaces[u.kernel[i]].basis == kernel_basis(e)
        assert row_basis(e.kernel.basis) == e.kernel.basis and row_basis(e.image.basis) == e.image.basis
        assert u.elements[u.transpose[i]] == gf.Mat.transpose(e)


@pytest.mark.parametrize("p,n", [(2, 5), (3, 4)])
def test_too_large_universe_says_what_all_endos_says(p, n):
    # The message is the skip reason of the checks that read the universe.
    with pytest.raises(TooLarge) as from_universe:
        indexed.universe(n, p)
    with pytest.raises(TooLarge) as from_endos:
        all_endos(n, p)
    assert str(from_universe.value) == str(from_endos.value)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (2, 4)])
def test_join_table_matches_canonical(p, n):
    u = indexed.universe(n, p)
    for s, row in zip(u.subspaces, u.join):
        assert [u.subspaces[t] for t in row] == [canonical((*s.basis.rows, v), n, p) for v in u.vectors]


# n = 1 scans the empty prefix; (3, 2), (5, 2) and (7, 2) force last rows with c^-1 other than 1.
@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (5, 2), (7, 2)])
def test_idempotents_match_gf(p, n):
    u = indexed.universe(n, p)
    assert u.idempotents.tolist() == [i for i, e in enumerate(u.elements) if e @ e == e]


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_decompositions_match_idempotent_from(p, n):
    u = indexed.universe(n, p)
    pairs = [(a, w) for a in u.subspaces for w in u.subspaces if is_direct_sum(a, w)]
    by_index = sorted((u.subspace_at[a], u.subspace_at[w]) for a, w in pairs)
    assert by_index == sorted((k, w) for _, k, w in u.decompositions)
    for x, k, w in u.decompositions:
        assert u.elements[x] == semigroup.idempotent_from(u.subspaces[k], u.subspaces[w])


def test_idempotents_match_construction():
    # 19 683 elements at (3, 3); the direct-sum construction is the reference.
    u = indexed.universe(3, 3)
    assert u.idempotents.tolist() == sorted(u.index(e) for e in semigroup.idempotents(3, 3))


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (5, 2)])
def test_sing_and_gl_match_rank_filter(p, n):
    ranks = [row_basis(e).nrows for e in all_endos(n, p)]
    assert sing(n, p) == tuple(e for e, r in zip(all_endos(n, p), ranks) if r < n)
    assert gl(n, p) == tuple(e for e, r in zip(all_endos(n, p), ranks) if r == n)


def _assert_products(u, thetas):
    for theta in thetas:
        right = u.right_products(u.index(theta))
        for a, e in enumerate(u.elements):
            assert u.elements[right[a]] == e @ theta


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
def test_products_all_pairs(p, n):
    u = indexed.universe(n, p)
    _assert_products(u, u.elements)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
def test_cayley_table_all_pairs(p, n):
    u = indexed.universe(n, p)
    q = len(u.elements)
    assert len(u.products) == q and all(len(row) == q for row in u.products)
    assert len({id(row.obj) for row in u.products}) == 1  # views of one q^2 buffer, not copies
    for a, x in enumerate(u.elements):
        for b, y in enumerate(u.elements):
            assert u.elements[u.products[a][b]] == x @ y


def test_cayley_table_seeded_pairs():
    u = indexed.universe(3, 2)
    q = len(u.elements)
    rng = random.Random(20190101)
    for _ in range(2000):
        a, b = rng.randrange(q), rng.randrange(q)
        assert u.elements[u.products[a][b]] == u.elements[a] @ u.elements[b]


def _multiply_like(monkeypatch, a, like):
    """Give every universe the (2, 2) Cayley table in which element a multiplies as element like does."""
    doctored = list(indexed.universe(2, 2).products)
    doctored[a] = doctored[like]
    # A data descriptor on the class outranks the value the cached property stored on the instance.
    monkeypatch.setattr(indexed.Universe, "products", property(lambda self: doctored))


E22, E11 = 1, 8  # the coordinate projections 0,0;0,1 and 1,0;0,0 at (2, 2)


PRODUCT_VERDICTS = [
    ("semigroup.green-oracle", verify.check_green_oracle, (2, 2), (1, 2, "right divisibility")),
    ("semigroup.sing-regular", verify.check_sing_regular, (2, 2), {"regular": 9}),
    ("cones.compose-homomorphism", verify.check_cone_homomorphism, (2, 2), ("0,0;0,1", "0,0;0,1")),
    ("cones.table-isomorphic", verify.check_cone_table, (2, 2), {"order": 10}),
    ("dual.table-op", verify.check_dual_tables, (2, 2), "component-level dual cones"),
    ("dual.naturality", verify.check_nat_trans, (2, 2), ("0,1;0,0", "escapes the h-set")),
    ("variant.phi-homomorphism", verify.check_variant_phi, (2, 2), "0,0;0,1"),
    ("theta_linked_semigroup", verify.theta_linked_semigroup, (Endo(gf.parse_mat("0,1;1,0", 2)),), {"order": 10}),
    ("theta_variant_reg", verify.theta_variant_reg, (Endo.identity(2, 2),), {"reg_size": 15}),
]


@pytest.mark.parametrize("name,verdict,args,witness", PRODUCT_VERDICTS, ids=[case[0] for case in PRODUCT_VERDICTS])
def test_product_verdicts_reject_a_doctored_cayley_table(monkeypatch, name, verdict, args, witness):
    # Each verdict passes on the true table; E22 multiplying as E11 must fail it.
    assert verify.run_check(name, verdict, *args).passed is True
    variants.reg_indices.cache_clear()  # the regular part is cached per variant, from the table
    _multiply_like(monkeypatch, E22, E11)
    try:
        check = verify.run_check(name, verdict, *args)
    finally:
        variants.reg_indices.cache_clear()
    assert check.passed is False
    assert check.witness == witness


def test_naturality_verdicts_reject_every_doctored_row(monkeypatch):
    # All 240 ordered pairs (a, like) at (2, 2): a table in which a multiplies as like must fail
    # both naturality verdicts, whichever part of each catches it.
    for a, like in itertools.permutations(range(16), 2):
        with monkeypatch.context() as m:
            _multiply_like(m, a, like)
            assert not verify.run_check("dual.naturality", verify.check_nat_trans, 2, 2).passed, (a, like)
            assert not verify.run_check("crossconn.chi-naturality", verify.check_chi, 2, 2).passed, (a, like)


def test_light_test_catches_what_the_escape_test_misses(monkeypatch):
    # E22 multiplying as 0 keeps every h-set closed, but (x g) y = x (g y) fails for g the swap.
    _multiply_like(monkeypatch, E22, 0)
    assert verify.check_nat_trans(2, 2) == (False, ("0,0;1,0", "0,1;1,0", "(x g) y != x (g y)"))


def test_light_test_needs_generators_that_reach_every_element(monkeypatch):
    monkeypatch.setattr(verify, "_end_generators", lambda p, n: (gf.Mat.identity(n, p),))
    passed, witness = verify.check_nat_trans(2, 2)
    assert not passed
    assert (witness["generators"], witness["reached"]) == (["1,0;0,1"], 1)


# Every size at which dual.naturality runs (Sing of order at most 600).
@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2), (7, 2), (2, 3)])
def test_end_generators_generate_every_matrix(p, n):
    # By `Mat` products, so the closure does not rest on the Cayley table it is used to test.
    gens = verify._end_generators(p, n)
    reached, frontier = set(gens), gens
    while frontier:
        frontier = [y for y in {x @ g for x in frontier for g in gens} if y not in reached]
        reached.update(frontier)
    assert len(reached) == p ** (n * n)


@pytest.mark.parametrize("p", [2, 3])
def test_extension_products_match_dual_globalize(p):
    u = indexed.universe(2, p)
    for f in category(2, p).all_morphisms():
        ext = dual.extension(f)
        for x, e in enumerate(u.elements):
            if f.dom.contains(e.image):
                assert u.elements[u.products[x][ext]] == dual.globalize(e, f)
            else:
                with pytest.raises(ShapeError):
                    dual.globalize(e, f)


def test_products_with_variant_thetas():
    u = indexed.universe(3, 2)
    thetas = _variant_thetas(2, 3)
    assert len(thetas) == 4
    _assert_products(u, thetas)


@pytest.mark.parametrize("law", ["image", "kernel"])
def test_membership_check_reads_the_containment_table(monkeypatch, law):
    # theta = 0 comes first at (2, 2). Its image law needs "zero contains
    # zero"; its kernel law needs "V contains V". Clearing either bit must
    # make the check fail with theta = 0 as the witness.
    real = indexed.universe(2, 2)
    s = 0 if law == "image" else real.whole
    below = list(real.below)
    below[s] &= ~(1 << s)
    tampered = real._replace(below=tuple(below))
    monkeypatch.setattr(indexed, "universe", lambda n, p: tampered)
    passed, witness = check_variant_membership(2, 2)
    assert not passed
    assert witness == "0,0;0,0"


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3)])
def test_product_images_match_right_products(p, n):
    u = indexed.universe(n, p)
    tr = u.transpose
    for t in range(len(tr)):
        assert u.product_images(t) == {u.image[x] for x in u.right_products(t)}
        # The kernels of t @ a over every a, read through ann from the images of a^T @ t^T.
        kernels = {u.kernel[tr[y]] for y in u.right_products(tr[t])}
        assert {u.ann[s] for s in u.product_images(tr[t])} == kernels


def test_membership_check_reads_the_annihilator_table(monkeypatch):
    # theta = 0 comes first at (2, 2): its kernel law needs ann(0) = V to contain
    # ker(0) = V. Making every subspace its own annihilator must fail it; the
    # kernels, which the universe reads off `ann` on first use, stay the true ones.
    real = indexed.universe(2, 2)
    tampered = real._replace(ann=array("I", range(len(real.subspaces))))
    tampered.kernel = real.kernel
    monkeypatch.setattr(indexed, "universe", lambda n, p: tampered)
    assert check_variant_membership(2, 2) == (False, "0,0;0,0")


def test_idempotent_and_membership_checks_build_no_endo_at_2_4(monkeypatch):
    endos, sweeps = [], []
    post_init, right_products = Endo.__post_init__, indexed.Universe.right_products
    monkeypatch.setattr(Endo, "__post_init__", lambda e: endos.append(1) or post_init(e))
    monkeypatch.setattr(indexed.Universe, "right_products", lambda u, t: sweeps.append(t) or right_products(u, t))
    assert check_idempotents(2, 4) == (True, {"count": 802})
    assert check_variant_membership(2, 4) == (True, None)
    assert endos == [] and sweeps == []


def test_lattice_checks_row_reduce_nothing_at_2_4(monkeypatch):
    # Once the universe is built, the order, idempotent and M-set checks read its
    # tables: no rank test, no row reduction.
    indexed.universe(4, 2)
    calls = []
    rref = gf.rref
    # Every linsemi module that binds rref, so a row reduction is seen wherever it is called.
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "linsemi"]:
        if getattr(module, "rref", None) is rref:
            monkeypatch.setattr(module, "rref", lambda m: calls.append(m) or rref(m))
    assert check_sing_order(2, 4) == (True, {"order": 45_376})
    assert check_idempotents(2, 4) == (True, {"count": 802})
    assert check_msets(2, 4) == (True, None)
    assert calls == []


def test_sing_and_the_order_check_build_no_kernel_or_transpose_table(monkeypatch):
    # Both read only `image`; `kernel` and `transpose` are built on first read.
    u = indexed.universe.__wrapped__(4, 2)
    monkeypatch.setattr(indexed, "universe", lambda n, p: u)
    assert len(semigroup.sing.__wrapped__(4, 2)) == 45_376
    assert check_sing_order(2, 4) == (True, {"order": 45_376})
    assert {"kernel", "transpose"}.isdisjoint(vars(u))
    assert u.kernel[0] == u.whole and {"kernel", "transpose"} <= set(vars(u))


def test_products_build_no_transpose_table():
    u = indexed.universe.__wrapped__(2, 2)
    assert len(u.products) == 16
    assert "transpose" not in vars(u)
    assert len(u.transpose) == 16 and "transpose" in vars(u)


def test_order_check_fails_on_a_doctored_image(monkeypatch):
    # Element 0 is the zero map; recording its image as V leaves 9 singular elements, not 10.
    real = indexed.universe(2, 2)
    image = array("I", real.image)
    image[0] = real.whole
    tampered = real._replace(image=image)
    monkeypatch.setattr(indexed, "universe", lambda n, p: tampered)
    check = verify.run_check("semigroup.order-formula", check_sing_order, 2, 2)
    assert (check.passed, check.witness) == (False, {"order": 9})


@pytest.mark.parametrize(
    "name",
    [
        "crossconn.linked-semigroup",
        "crossconn.classification",
        "dual.table-op",
        "variant.nonprincipal-excess",
        "crossconn.chi-naturality",
    ],
)
def test_sing_tables_make_no_endo_product(monkeypatch, name):
    # Every table of Sing and every carrier these checks compare is read from the index tables.
    calls = []
    matmul = Endo.__matmul__
    monkeypatch.setattr(Endo, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))
    passed, _ = dict(REGISTRY)[name](3, 2)
    assert passed and not calls


def test_only_the_variant_second_route_multiplies_endos(monkeypatch):
    # The variant cross-connection keeps its Endo tables as a second route; every other check reads indices.
    current, callers = [None], set()
    matmul = Endo.__matmul__
    monkeypatch.setattr(Endo, "__matmul__", lambda a, b: callers.add(current[0]) or matmul(a, b))

    def named(name, fn):
        def run(p, n):
            current[0] = name
            return fn(p, n)

        return run

    monkeypatch.setattr(verify, "REGISTRY", tuple((name, named(name, fn)) for name, fn in REGISTRY))
    assert all(check.passed for check in verify.run_all(2, 2))
    assert callers == {"variant.crossconnection"}


def test_run_all_builds_no_endo_at_2_4(monkeypatch):
    # Every check that runs at (2, 4) reads the index tables.
    built = []
    monkeypatch.setattr(Endo, "__post_init__", lambda self: built.append(self))
    verify.run_all(2, 4)
    assert built == []
