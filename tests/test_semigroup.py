"""Green's relations, idempotents, regularity and multiplication tables."""
import copy
import gc
import os
import pickle
import sys
from array import array

import pytest

from linsemi import gf, indexed
from linsemi.errors import NotADirectSum, NotClosed, ShapeError
from linsemi.gf import Mat, all_matrices
from linsemi.semigroup import (
    Endo,
    all_endos,
    gl,
    gl_order,
    idempotent_from,
    idempotents,
    index_green_report,
    mult_table,
    principal_ideals,
    regular_elements,
    sing,
    sing_order,
    singular_idempotent_count,
)
from linsemi.subspaces import canonical, full_subspace, zero_subspace


def endo(rows, p=2):
    return Endo(Mat.make(rows, p))


E11 = endo([[1, 0], [0, 0]])


class TestGreen:
    @pytest.mark.parametrize("n,p", [(2, 2), (2, 3)])
    def test_oracle_agreement(self, n, p):
        u = indexed.universe(n, p)
        assert index_green_report(u, u.singular).agrees

    def test_oracle_flags_read_the_kernel_table(self):
        # R and the right divisibility flags come from `Universe.kernel`: swapping
        # the kernels of two singular elements must make the oracle disagree.
        real = indexed.universe(2, 2)
        a = real.singular[1]
        b = next(x for x in real.singular if real.kernel[x] != real.kernel[a])
        kernel = array("I", real.kernel)
        kernel[a], kernel[b] = kernel[b], kernel[a]
        tampered = real._replace()
        tampered.kernel = kernel  # a table built on first read can be given in advance
        assert not index_green_report(tampered, tampered.singular).agrees

    def test_principal_ideals_read_the_cayley_table(self, monkeypatch):
        u, elements = indexed.universe(2, 3), sing(2, 3)
        calls = []
        real = Mat.__matmul__
        monkeypatch.setattr(Mat, "__matmul__", lambda a, b: calls.append(1) or real(a, b))
        left, right = principal_ideals(u, u.singular)
        assert calls == []
        monkeypatch.undo()
        index = {e: i for i, e in enumerate(elements)}
        assert left == [frozenset({i} | {index[s @ a] for s in elements}) for i, a in enumerate(elements)]
        assert right == [frozenset({i} | {index[a @ s] for s in elements}) for i, a in enumerate(elements)]


class TestIdempotents:
    def test_counts_2_2(self):
        assert len(idempotents(2, 2)) == 8
        assert len([e for e in idempotents(2, 2) if not e.kernel.is_zero]) == 7

    def test_identity_and_zero_present(self):
        es = idempotents(2, 3)
        assert Endo.identity(2, 3) in es
        assert Endo.zero(2, 3) in es

    def test_rank_one_count_matches_pair_oracle(self):
        # lines as images, complements as kernels: 3 * 2 over GF(2)^2
        lat = indexed.lattice(2, 2)
        rank_one = [e for e in idempotents(2, 2) if e.rank == 1]
        oracle = sum(len(lat.complements(s)) for s, w in enumerate(lat.subspaces) if w.dim == 1)
        assert len(rank_one) == oracle == 6

    def test_matches_brute_force(self):
        brute = {e for e in all_endos(2, 2) if e @ e == e}
        assert set(idempotents(2, 2)) == brute

    def test_decomposition(self):
        for e in idempotents(3, 2):
            assert idempotent_from(e.kernel, e.image) == e

    @pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
    def test_decompositions_are_the_built_idempotents(self, p, n):
        u = indexed.universe(n, p)
        assert [(e, e.kernel, e.image) for e in idempotents(n, p)] == [
            (u.elements[x], u.subspaces[null], u.subspaces[image]) for x, null, image in u.decompositions
        ]

    def test_check_rejects_swapped_decompositions(self, monkeypatch):
        from linsemi import indexed, verify

        assert verify.check_idempotents(2, 2) == (True, {"count": 8})
        # The check reads the index-built decompositions; a data descriptor on the
        # class outranks the value the cached property stored on the instance.
        swapped = tuple((x, image, null) for x, null, image in indexed.universe(2, 2).decompositions)
        monkeypatch.setattr(indexed.Universe, "decompositions", property(lambda u: swapped))
        passed, witness = verify.check_idempotents(2, 2)
        assert not passed and witness == "0,0;0,0"  # the zero map, first in counting order

    def test_certificate_rejects_another_complement_as_kernel(self, monkeypatch):
        from linsemi import indexed, verify

        # Entry 1 is E22 = 0,0;0,1 with kernel <e1> and image <e2>. <e1 + e2> is the other complement
        # of <e2>; E22 does not send it to 0, so the row-action certificate rejects the entry.
        real = indexed.universe(2, 2)
        x, null, image = real.decompositions[1]
        other = next(t for t in indexed.lattice(2, 2).complements(image) if t != null)
        tampered = real._replace()
        tampered.decompositions = (real.decompositions[0], (x, other, image), *real.decompositions[2:])
        monkeypatch.setattr(indexed, "universe", lambda n, p: tampered)
        assert verify.check_idempotents(2, 2) == (False, "0,0;0,1")

    @pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (2, 4)])
    def test_singular_count_closed_form(self, p, n):
        assert singular_idempotent_count(n, p) == len([e for e in idempotents(n, p) if not e.kernel.is_zero])


class TestIdempotentFrom:
    def test_coordinate_projection(self):
        n = canonical([[0, 1]], 2, 2)
        w = canonical([[1, 0]], 2, 2)
        assert idempotent_from(n, w) == E11

    def test_identity_case(self):
        assert idempotent_from(zero_subspace(2, 2), full_subspace(2, 2)) == Endo.identity(2, 2)

    def test_skew_kernel(self):
        n = canonical([[1, 1]], 2, 2)
        w = canonical([[1, 0]], 2, 2)
        e = idempotent_from(n, w)
        assert e == endo([[1, 0], [1, 0]])
        assert e.is_idempotent

    def test_not_complementary(self):
        with pytest.raises(NotADirectSum):
            idempotent_from(canonical([[1, 0]], 2, 2), canonical([[1, 0]], 2, 2))
        with pytest.raises(NotADirectSum):  # independent, but short of V
            idempotent_from(canonical([[1, 0, 0]], 3, 2), canonical([[0, 1, 0]], 3, 2))


class TestRegularElements:
    def test_sing_is_regular(self):
        elements = sing(2, 2)
        reg = regular_elements(elements, lambda a, b: a @ b)
        assert len(reg) == 10 and reg == list(elements)  # every singular map is regular

    def test_zero_alone(self):
        reg = regular_elements([Endo.zero(2, 2)], lambda a, b: a @ b)
        assert reg == [Endo.zero(2, 2)]

    def test_sandwich_regular_count(self):
        theta = E11
        product = lambda a, b: a @ theta @ b
        reg = regular_elements(all_endos(2, 2), product)
        assert len(reg) == 5


class TestTables:
    def test_orders(self):
        assert sing_order(2, 2) == 16 - 6 == 10
        assert len(gl(2, 2)) == gl_order(2, 2) == 6
        assert sing_order(3, 2) == 512 - 168 == 344

    def test_closure_error(self):
        with pytest.raises(NotClosed):
            mult_table([E11, endo([[0, 1], [1, 0]])], lambda a, b: a @ b)


def test_enumeration_bound_guard():
    from linsemi.errors import TooLarge

    for build in (all_endos, sing, gl):
        with pytest.raises(TooLarge):
            build(5, 2)


class TestBulkConstruction:
    """`all_endos`, `sing` and `gl` are views that build records when read; a whole pass builds them
    without `Endo.__new__`, and the values are those it builds."""

    @pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (2, 4)])
    def test_all_endos_is_endo_of_each_matrix(self, p, n):
        built = all_endos(n, p)
        reference = tuple(Endo(m) for m in all_matrices(n, n, p))
        assert tuple(built) == reference and built == reference and reference == built
        assert all(type(e) is Endo and isinstance(e, Mat) for e in built)
        assert indexed.universe(n, p).elements is built

    def test_one_tracked_record_per_element(self):
        # A view holds no record; a pass makes one GC-tracked object per element, an Endo that is its own Mat.
        indexed.universe(4, 2)
        gc.collect()
        before = len(gc.get_objects())
        views = [build.__wrapped__(4, 2) for build in (all_endos, sing, gl)]
        gc.collect()
        assert len(gc.get_objects()) - before <= 2 * len(views)
        built = tuple(all_endos.__wrapped__(3, 2))
        gc.collect()
        assert len(gc.get_objects()) - before <= 2 * len(views) + 1.05 * len(built)
        # Read by index, a record shares the row tuples of the bulk route, and is again one object.
        view = all_endos.__wrapped__(3, 2)
        gc.collect()
        before = len(gc.get_objects())
        read = tuple(map(view.__getitem__, range(len(view))))
        gc.collect()
        assert len(gc.get_objects()) - before <= 1.05 * len(read)
        assert read == built

    @pytest.mark.parametrize("build", [all_endos, sing, gl])
    def test_a_view_reads_like_its_tuple(self, build):
        view = build(2, 3)
        records = tuple(view)
        assert len(view) == len(records) and list(view) == [view[i] for i in range(len(view))]
        assert view[-1] == records[-1] and view[-len(view)] == records[0]
        for cut in (slice(3, 9), slice(None, None, -7), slice(-5, None), slice(40, 2, -3)):
            assert view[cut] == records[cut]
        with pytest.raises(IndexError):
            view[len(view)]
        assert all(type(view[i]) is Endo for i in (0, -1))

    def test_views_compare_as_their_records(self):
        assert sing(2, 2) == tuple(e for e in all_endos(2, 2) if gf.rank(e) < 2) != gl(2, 2)
        assert all_endos(2, 2) != list(all_endos(2, 2)) and all_endos(2, 2) != all_endos(2, 3)

    @pytest.mark.parametrize("build", [all_endos, sing, gl])
    def test_a_whole_pass_makes_no_python_call_per_element(self, build):
        view, calls, package = build(3, 2), [], os.path.dirname(indexed.__file__)
        sys.setprofile(lambda frame, event, arg: event == "call" and frame.f_code.co_filename.startswith(package)
                       and calls.append(frame.f_code.co_name))
        try:
            records = list(view)
        finally:
            sys.setprofile(None)
        assert len(records) == len(view) > 100 and len(calls) <= 4, calls

    def test_an_endo_equals_its_matrix(self):
        # Endo(m) is m with the square check passed: equal, hashed alike, and the same key.
        m = Mat.make([[1, 1], [0, 1]], 2)
        e = Endo(m)
        assert e == m and hash(e) == hash(m) and {m: "m"}[e] == "m"
        assert e.p == 2 and e.apply((1, 0)) == (1, 1)
        assert type(e @ e) is Endo and e @ e == Mat.__matmul__(m, m)
        assert type(e.transpose()) is Endo and e.transpose() == m.transpose()
        again = pickle.loads(pickle.dumps(e))
        assert type(again) is Endo and again == e and type(copy.copy(e)) is Endo

    @pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3)])
    def test_sing_is_the_rank_deficient_endos(self, p, n):
        singular = sing(n, p)
        assert singular == tuple(e for e in all_endos(n, p) if gf.rank(e) < n)
        assert all(type(e) is Endo for e in singular)

    def test_endo_still_validates_its_shape(self):
        with pytest.raises(ShapeError):
            Endo(Mat.make([[1, 0]], 2))

    def test_the_2_4_check_path_builds_no_endo(self, monkeypatch):
        from linsemi import semigroup, verify

        semigroup.all_endos.cache_clear()
        indexed.universe.cache_clear()
        seen = []
        build, elements, check = semigroup.all_endos, indexed.Universe.elements, Endo.__post_init__
        monkeypatch.setattr(semigroup, "all_endos", lambda n, p: seen.append("all_endos") or build(n, p))
        monkeypatch.setattr(indexed.Universe, "elements", property(lambda u: seen.append("elements") or elements.func(u)))
        monkeypatch.setattr(Endo, "__post_init__", lambda e: seen.append("Endo") or check(e))
        assert all(c.passed for c in verify.run_all(2, 4))
        assert seen == []

    def test_the_table_checks_read_no_element_list(self, monkeypatch):
        # The cone, dual and linked tables are position tables: none of them pairs with an Endo list.
        from linsemi import semigroup, verify

        thetas = gl(2, 2)
        semigroup.sing.cache_clear()
        indexed.universe.cache_clear()
        seen = []
        elements = indexed.Universe.elements
        monkeypatch.setattr(indexed.Universe, "elements", property(lambda u: seen.append((u.p, u.n)) or elements.func(u)))
        for p, n in [(2, 2), (3, 2)]:
            assert verify.check_cone_table(p, n)[0] and verify.check_dual_tables(p, n)[0]
        assert all(verify.theta_linked_semigroup(theta)[0] for theta in thetas)
        assert seen == []
