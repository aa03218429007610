"""The lattice checks and `indexed.lattice`, the index of the subspace lattice they read.

The doctored-input tests change one function that every route of a check
reads, a function of `subspaces` in every linsemi module that binds it or
`indexed.Lattice.complements`, and pin the failing verdict and its witness.
Each of them builds its own lattice index, from the doctored function, and
drops it afterwards.
"""
import itertools
import sys
from functools import lru_cache

import pytest

from linsemi import dual, gf, indexed, subspaces, verify
from linsemi.gf import Mat
from linsemi.subspaces import Subspace, annihilator, enumerate_subspaces


def _put(monkeypatch, home, name, fake):
    real = getattr(home, name)
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "linsemi"]:
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, fake)


@pytest.fixture
def rebind(monkeypatch):
    """rebind(name, fake) puts fake in place of `subspaces.<name>` wherever a linsemi module holds it."""
    _put(monkeypatch, indexed, "lattice", lru_cache(maxsize=None)(indexed.lattice.__wrapped__))
    return lambda name, fake: _put(monkeypatch, subspaces, name, fake)


def test_subspace_counts_compare_with_the_gaussian_binomials(rebind):
    real = subspaces.gaussian_binomial
    rebind("gaussian_binomial", lambda n, k, p: real(n, k, p) + (k == 1))
    assert verify.check_subspace_counts(2, 2) == (False, {"per_dim": [1, 3, 1]})


def test_complement_counts_compare_each_count(rebind, monkeypatch):
    # Route 1: the line <(0, 1)> loses one of its two complements.
    real = indexed.Lattice.complements

    def fewer(lat, s):
        found = real(lat, s)
        return found[:-1] if lat.dims[s] == 1 else found

    monkeypatch.setattr(indexed.Lattice, "complements", fewer)
    assert verify.check_complement_counts(2, 2) == (False, {"subspace": "0,1"})


def test_complement_counts_test_each_complement(rebind, monkeypatch):
    # Route 2: the count is right, but the first complement of <(0, 1)> is the line itself.
    real = indexed.Lattice.complements

    def itself(lat, s):
        found = real(lat, s)
        return [s, *found[1:]] if lat.dims[s] == 1 else found

    monkeypatch.setattr(indexed.Lattice, "complements", itself)
    assert verify.check_complement_counts(2, 2) == (False, {"subspace": "0,1"})


def test_annihilator_involution_reads_every_annihilator(rebind):
    # ann(<(1, 0)>) is made <(1, 1)>: ann ann <(0, 1)> is then <(1, 1)>, not <(0, 1)>.
    real = subspaces.annihilator
    line = Mat.make([[1, 1]], 2)
    rebind("annihilator", lambda a: Subspace(2, 2, a.side.flip(), line) if a.basis.rows == ((1, 0),) else real(a))
    assert verify.check_annihilator_involution(2, 2) == (False, {"subspace": "0,1"})


def test_annihilator_antitone_reads_every_pair(rebind):
    # ann(<(0, 1)>) is made 0: <(1, 0)> does not contain <(0, 1)>, yet ann(<(1, 0)>) contains 0.
    real = subspaces.annihilator
    rebind("annihilator", lambda a: subspaces.zero_subspace(2, 2, a.side.flip()) if a.basis.rows == ((0, 1),) else real(a))
    assert verify.check_annihilator_antitone(2, 2) == (False, {"a": "1,0", "b": "0,1"})


def test_dual_object_count_compares_the_inclusions(rebind):
    # Two lines of GF(2)^3 swap annihilators: the map on objects is still a bijection
    # onto the proper subspaces of V*, but it no longer reverses inclusion.
    real = subspaces.annihilator
    one, two = ((0, 0, 1),), ((0, 1, 0),)
    swap = {one: two, two: one}

    def swapped(a):
        rows = swap.get(a.basis.rows)
        return real(a if rows is None else Subspace(3, 2, a.side, Mat.make(rows, 2)))

    rebind("annihilator", swapped)
    d = dual.build_normal_dual(3, 2)
    assert d.injective and d.object_count_matches and not d.inclusions_match
    assert verify.check_dual_objects(2, 3) == (False, {"objects": 15})


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (2, 5)])
def test_lattice_tables_equal_their_definitions(p, n):
    lat = indexed.lattice(n, p)
    spaces = enumerate_subspaces(n, p)
    assert lat.subspaces is spaces
    assert list(lat.dims) == [a.dim for a in spaces]
    vectors = list(itertools.product(range(p), repeat=n))
    for s, a in enumerate(spaces):
        # v is in a exactly when adding it to a's basis keeps the rank.
        inside = [v for v in vectors if gf.rank(a.basis.vstack(Mat.make([v], p))) == a.dim]
        assert lat.members[s] == sum(1 << gf.digit_value(v, p) for v in inside)
        assert lat.below[s] == sum(1 << t for t, b in enumerate(spaces) if a.contains(b))
        assert lat.above[s] == sum(1 << t for t, b in enumerate(spaces) if b.contains(a))
        assert spaces[lat.ann[s]].basis == annihilator(a).basis


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (2, 4)])
def test_universe_shares_the_lattice_tables(p, n):
    u, lat = indexed.universe(n, p), indexed.lattice(n, p)
    assert u.subspaces is lat.subspaces and u.subspace_at is lat.subspace_at
    assert u.below is lat.below and u.ann is lat.ann and u.dims is lat.dims


def test_lattice_exists_past_the_universe_limit():
    # (2, 5) has 374 subspaces; its 2^25 matrices are past `gf.MAX_ENUM`.
    assert len(indexed.lattice(5, 2).subspaces) == 374


def test_lattice_checks_read_the_index_at_2_4(monkeypatch):
    # Once the index is built, no lattice check and not dual.object-count tests containment
    # pair by pair, and only inclusion-splitting row-reduces: one retraction per distinct
    # inclusion matrix (the bases of the subspaces of GF(2)^m, m <= 4, 91 in all), each at
    # most a pivot search and an inverse. complement-counts' rank route took 802.
    indexed.lattice(4, 2)
    calls = {"contains": 0, "rows": 0, "retraction": 0}

    def counted(key, fn):
        return lambda *args: calls.__setitem__(key, calls[key] + 1) or fn(*args)

    monkeypatch.setattr(subspaces.Subspace, "contains", counted("contains", subspaces.Subspace.contains))
    monkeypatch.setattr(gf, "_rref_rows", counted("rows", gf._rref_rows))
    monkeypatch.setattr(subspaces, "retraction", counted("retraction", subspaces.retraction))
    checks = dict(verify.REGISTRY)
    for name in [
        "lattice.subspace-counts",
        "lattice.complement-counts",
        "lattice.annihilator-involution",
        "lattice.annihilator-antitone",
        "dual.object-count",
    ]:
        assert checks[name](2, 4)[0]
    assert calls == {"contains": 0, "rows": 0, "retraction": 0}
    assert checks["lattice.inclusion-splitting"](2, 4) == (True, None)
    distinct = sum(len(enumerate_subspaces(m, 2)) for m in range(5))
    assert calls["contains"] == 0 and calls["retraction"] == distinct == 91
    assert calls["rows"] <= 2 * distinct


def test_inclusion_splitting_builds_one_inclusion_per_matrix_at_2_4(monkeypatch):
    # The verdicts are keyed on the coordinates of a's basis in b's: of the 513
    # containment pairs, only the 91 whose matrix is new build an inclusion.
    calls = []
    real = subspaces.inclusion
    monkeypatch.setattr(subspaces, "inclusion", lambda a, b: calls.append((a, b)) or real(a, b))
    assert verify.check_inclusion_splitting(2, 4) == (True, None)
    assert len(calls) == 91


def _first_unreversed_by_pairs(lat, f):
    """The definition `Lattice.unreversed_pair` states, pair by pair: s, then t, in index order."""
    for s, x in f.items():
        for t, y in f.items():
            if lat.below[t] >> s & 1 != lat.below[x] >> y & 1:
                return s, t
    return None


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3)])
def test_unreversed_pair_is_the_pair_test(p, n):
    lat = indexed.lattice(n, p)
    size = len(lat.subspaces)
    ann = dict(enumerate(lat.ann))
    nonzero = {s: x for s, x in ann.items() if s}
    swapped = {**ann, 1: ann[2], 2: ann[1]}
    identity, constant = {s: s for s in range(size)}, {s: 0 for s in range(size)}
    maps = [ann, nonzero, swapped, identity, constant, {size - 1: 0, 0: size - 1}]
    found = [lat.unreversed_pair(f) for f in maps]
    assert found == [_first_unreversed_by_pairs(lat, f) for f in maps]
    assert found[:2] == [None, None] and found[3] == (0, 1) and found[5] is None
