"""The index-coded element core against the row-reduction route in `gf`."""
import dataclasses
import random

import pytest

from linsemi import dual, indexed, semigroup
from linsemi.errors import ShapeError, TooLarge
from linsemi.gf import kernel_basis, row_basis
from linsemi.normal_cones import category
from linsemi.semigroup import Endo, all_endos, gl, sing
from linsemi.verify import REGISTRY, _variant_thetas, check_variant_membership


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (5, 2)])
def test_tables_match_gf(p, n):
    u = indexed.universe(n, p)
    assert len(u.elements) == p ** (n * n)
    for i, e in enumerate(u.elements):
        assert u.index(e) == i
        assert u.subspaces[u.image[i]].basis == row_basis(e.mat)
        assert u.subspaces[u.kernel[i]].basis == kernel_basis(e.mat)
        assert u.elements[u.transpose[i]].mat == e.mat.transpose()


@pytest.mark.parametrize("p,n", [(2, 5), (3, 4)])
def test_too_large_universe_says_what_all_endos_says(p, n):
    # The message is the skip reason of the checks that read the universe.
    with pytest.raises(TooLarge) as from_universe:
        indexed.universe(n, p)
    with pytest.raises(TooLarge) as from_endos:
        all_endos(n, p)
    assert str(from_universe.value) == str(from_endos.value)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (5, 2)])
def test_idempotents_match_gf(p, n):
    u = indexed.universe(n, p)
    assert u.idempotents.tolist() == [i for i, e in enumerate(u.elements) if e.mat @ e.mat == e.mat]


def test_idempotents_match_construction():
    # 19 683 elements at (3, 3); the direct-sum construction is the reference.
    u = indexed.universe(3, 3)
    assert u.idempotents.tolist() == sorted(u.index(e) for e in semigroup.idempotents(3, 3))


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (5, 2)])
def test_sing_and_gl_match_rank_filter(p, n):
    ranks = [row_basis(e.mat).nrows for e in all_endos(n, p)]
    assert sing(n, p) == tuple(e for e, r in zip(all_endos(n, p), ranks) if r < n)
    assert gl(n, p) == tuple(e for e, r in zip(all_endos(n, p), ranks) if r == n)


def _assert_products(u, thetas):
    for theta in thetas:
        right = u.right_products(u.index(theta))
        for a, e in enumerate(u.elements):
            assert u.elements[right[a]].mat == e.mat @ theta.mat


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
def test_products_all_pairs(p, n):
    u = indexed.universe(n, p)
    _assert_products(u, u.elements)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
def test_cayley_table_all_pairs(p, n):
    u = indexed.universe(n, p)
    q = len(u.elements)
    assert len(u.products) == q * q
    for a, x in enumerate(u.elements):
        for b, y in enumerate(u.elements):
            assert u.elements[u.products[a * q + b]] == x @ y


def test_cayley_table_seeded_pairs():
    u = indexed.universe(3, 2)
    q = len(u.elements)
    rng = random.Random(20190101)
    for _ in range(2000):
        a, b = rng.randrange(q), rng.randrange(q)
        assert u.elements[u.products[a * q + b]] == u.elements[a] @ u.elements[b]


@pytest.mark.parametrize("p", [2, 3])
def test_row_map_globalize_matches_dual(p):
    u = indexed.universe(2, p)
    for f in category(2, p).all_morphisms():
        rows = dual.row_map(f)
        for x, e in enumerate(u.elements):
            if f.dom.contains(e.image):
                assert u.elements[indexed.globalize(x, rows)] == dual.globalize(e, f)
            else:
                with pytest.raises(ShapeError):
                    dual.globalize(e, f)
                with pytest.raises(ShapeError):
                    indexed.globalize(x, rows)


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
    s = 0 if law == "image" else len(real.subspaces) - 1
    below = list(real.below)
    below[s] &= ~(1 << s)
    tampered = dataclasses.replace(real, below=tuple(below))
    monkeypatch.setattr(indexed, "universe", lambda n, p: tampered)
    passed, witness = check_variant_membership(2, 2)
    assert not passed
    assert witness == "0,0;0,0"


@pytest.mark.parametrize("name", ["crossconn.linked-semigroup", "crossconn.classification", "dual.table-op"])
def test_sing_tables_make_no_endo_product(monkeypatch, name):
    # Every table of Sing these checks compare is read from the Cayley table.
    calls = []
    matmul = Endo.__matmul__
    monkeypatch.setattr(Endo, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))
    passed, _ = dict(REGISTRY)[name](3, 2)
    assert passed and not calls
