"""Named verification checks over a given field size, shared by the CLI.

Each check returns a Check record with a witness small enough to print.
The registry order is fixed and the checks run one after another in
that order, so report output is deterministic.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from . import crossconn as cx
from . import dual as du
from . import indexed as ix
from . import normal_cones as nc
from . import semigroup as sg
from . import subspaces as sub
from . import variants as va
from .errors import AlgebraError, TooLarge
from .gf import Mat, mat_to_text
from .subspaces import ComplementMode, Side, SubspaceFilter


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: object = None

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.passed, "witness": self.witness}


def _endo_text(e: sg.Endo) -> str:
    return mat_to_text(e.mat)


def _skip(name: str, reason: str) -> Check:
    return Check(name, True, {"skipped": reason})


def check_subspace_counts(p: int, n: int) -> Check:
    per_dim = [
        sum(1 for a in sub.enumerate_subspaces(n, p) if a.dim == k) for k in range(n + 1)
    ]
    expected = [sub.gaussian_binomial(n, k, p) for k in range(n + 1)]
    return Check("lattice.subspace-counts", per_dim == expected, {"per_dim": per_dim})


def check_complement_counts(p: int, n: int) -> Check:
    for a in sub.enumerate_subspaces(n, p):
        found = sub.complement(a, ComplementMode.ALL)
        want = p ** (a.dim * (n - a.dim))
        if len(found) != want:
            return Check("lattice.complement-counts", False, {"subspace": str(a.basis)})
        for w in found:
            if not sub.is_direct_sum(a, w):
                return Check("lattice.complement-counts", False, {"subspace": str(a.basis)})
    return Check("lattice.complement-counts", True, None)


def check_annihilator_involution(p: int, n: int) -> Check:
    for a in sub.enumerate_subspaces(n, p):
        ann = sub.annihilator(a)
        if ann.dim != n - a.dim or sub.annihilator(ann) != a:
            return Check("lattice.annihilator-involution", False, {"subspace": str(a.basis)})
    return Check("lattice.annihilator-involution", True, None)


def check_annihilator_antitone(p: int, n: int) -> Check:
    spaces = sub.enumerate_subspaces(n, p)
    anns = [sub.annihilator(a) for a in spaces]
    for a, ann_a in zip(spaces, anns):
        for b, ann_b in zip(spaces, anns):
            if b.contains(a) != ann_a.contains(ann_b):
                return Check(
                    "lattice.annihilator-antitone", False, {"a": str(a.basis), "b": str(b.basis)}
                )
    return Check("lattice.annihilator-antitone", True, None)


def check_inclusion_splitting(p: int, n: int) -> Check:
    spaces = sub.enumerate_subspaces(n, p)
    for a in spaces:
        for b in spaces:
            if not b.contains(a):
                continue
            j = sub.inclusion(a, b)
            q = sub.retraction(a, b)
            if j.compose(q) != sub.Morphism.identity(a):
                return Check("lattice.inclusion-splitting", False, {"a": str(a.basis), "b": str(b.basis)})
    return Check("lattice.inclusion-splitting", True, None)


def check_sing_order(p: int, n: int) -> Check:
    u = ix.universe(n, p)
    got = sum(1 for s in u.image if u.subspaces[s].dim < n)
    want = sg.sing_order(n, p)
    return Check("semigroup.order-formula", got == want, {"order": got})


def check_green_oracle(p: int, n: int) -> Check:
    ix.universe(n, p)  # past MAX_ENUM its TooLarge is the skip reason
    if sg.sing_order(n, p) > 600:
        return _skip("semigroup.green-oracle", "ideal oracle bounded to order 600")
    report = sg.green_oracle_report(sg.sing(n, p))
    return Check("semigroup.green-oracle", report.agrees, report.counterexample)


def check_idempotents(p: int, n: int) -> Check:
    es = sg.idempotents(n, p)
    if any(not e.is_idempotent for e in es):
        return Check("semigroup.idempotents", False, "a non-idempotent was produced")
    u = ix.universe(n, p)
    brute = {i for i, sq in enumerate(u.squares) if sq == i}
    if len(es) != len(brute) or {u.index(e) for e in es} != brute:
        return Check("semigroup.idempotents", False, {"built": len(es), "brute": len(brute)})
    for e in es:
        if not sub.is_direct_sum(e.kernel, e.image):
            return Check("semigroup.idempotents", False, _endo_text(e))
        if sg.idempotent_from(e.kernel, e.image) != e:
            return Check("semigroup.idempotents", False, _endo_text(e))
    return Check("semigroup.idempotents", True, {"count": len(es)})


def check_sing_regular(p: int, n: int) -> Check:
    ix.universe(n, p)  # past MAX_ENUM its TooLarge is the skip reason
    if sg.sing_order(n, p) > 600:
        return _skip("semigroup.sing-regular", "witness search bounded to order 600")
    elements = sg.sing(n, p)
    reg, _ = sg.regular_elements(elements, lambda a, b: a @ b)
    return Check("semigroup.sing-regular", len(reg) == len(elements), {"regular": len(reg)})


def check_factorization(p: int, n: int) -> Check:
    cat = nc.category(n, p)
    if cat.morphism_count() > 20000:
        return _skip("cones.factorization", "morphism sweep bounded to 20000")
    for f in cat.all_morphisms():
        fact = nc.normal_factorization(f)
        if fact.composite() != f:
            return Check("cones.factorization", False, {"dom": str(f.dom.basis)})
        if not fact.u.is_iso:
            return Check("cones.factorization", False, "middle leg is not an isomorphism")
        if sub.inclusion(fact.q.cod, fact.q.dom).compose(fact.q) != sub.Morphism.identity(fact.q.cod):
            return Check("cones.factorization", False, "retraction does not split")
        epi = nc.epimorphic_component(f)
        if fact.q.compose(fact.u) != epi:
            return Check("cones.factorization", False, "epimorphic component mismatch")
        if epi.compose(sub.inclusion(epi.cod, f.cod)) != f:
            return Check("cones.factorization", False, "f is not epi followed by inclusion")
    return Check("cones.factorization", True, None)


def check_principal_roundtrip(p: int, n: int) -> Check:
    if sg.sing_order(n, p) > 2000:
        return _skip("cones.principal-roundtrip", "cone sweep bounded to order 2000")
    for alpha in sg.sing(n, p):
        cone = nc.principal_cone(alpha)
        if nc.cone_to_map(cone) != alpha:
            return Check("cones.principal-roundtrip", False, _endo_text(alpha))
    return Check("cones.principal-roundtrip", True, None)


def check_cone_homomorphism(p: int, n: int) -> Check:
    if sg.sing_order(n, p) > 2000:
        return _skip("cones.compose-homomorphism", "cone sweep bounded to order 2000")
    elements = sg.sing(n, p)
    cap = 40000
    pairs_checked = 0
    cones = {a: nc.principal_cone(a) for a in elements}
    for a in elements:
        for b in elements:
            if pairs_checked >= cap:
                return Check(
                    "cones.compose-homomorphism", True, {"pairs_checked": pairs_checked, "capped": True}
                )
            if nc.cone_to_map(nc.cone_compose(cones[a], cones[b])) != a @ b:
                return Check("cones.compose-homomorphism", False, (_endo_text(a), _endo_text(b)))
            pairs_checked += 1
    return Check("cones.compose-homomorphism", True, {"pairs_checked": pairs_checked})


def check_idempotent_cones(p: int, n: int) -> Check:
    if sg.sing_order(n, p) > 2000:
        return _skip("cones.idempotent-law", "cone sweep bounded to order 2000")
    for alpha in sg.sing(n, p):
        cone = nc.principal_cone(alpha)
        is_idem = nc.cone_compose(cone, cone) == cone
        vertex_identity = cone.component(cone.vertex) == sub.Morphism.identity(cone.vertex)
        if is_idem != vertex_identity:
            return Check("cones.idempotent-law", False, _endo_text(alpha))
    return Check("cones.idempotent-law", True, None)


def check_cone_census(p: int, n: int) -> Check:
    try:
        census = nc.cone_census(n, p)
    except TooLarge:
        return _skip("cones.census", "beyond census budget")
    expected = sg.sing_order(n, p)
    principal = {nc.principal_cone(a) for a in sg.sing(n, p)}
    ok = census.valid_count == expected and set(census.valid_cones) == principal
    return Check(
        "cones.census",
        ok,
        {"valid": census.valid_count, "inclusion_iso_only": census.inclusion_iso_only_count},
    )


def check_cone_table(p: int, n: int) -> Check:
    if sg.sing_order(n, p) > 600:
        return _skip("cones.table-isomorphic", "table build bounded to order 600")
    table, _ = nc.build_cone_semigroup(n, p)
    sing_tab = cx.sing_table(n, p)
    ok, _ = sg.are_isomorphic(table, sing_tab, witness=tuple(range(table.order)))
    return Check("cones.table-isomorphic", ok, {"order": table.order})


def check_hfunctor_keys(p: int, n: int) -> Check:
    if sg.sing_order(n, p) > 1000:
        return _skip("dual.hfunctor-determined", "h-set enumeration bounded to order 1000")
    groups: dict[sub.Subspace, list[sg.Endo]] = {}
    for e in sg.idempotents(n, p, singular_only=True):
        groups.setdefault(e.kernel, []).append(e)
    if p ** (n * n) > 5000:
        groups = dict(list(groups.items())[:4])
    objects = nc.category(n, p).objects
    for key, es in groups.items():
        for a in objects:
            sets = {du.h_set(e, a) for e in es}
            if len(sets) != 1:
                return Check("dual.hfunctor-determined", False, str(key.basis))
    return Check("dual.hfunctor-determined", True, {"kernels_checked": len(groups)})


def check_msets(p: int, n: int) -> Check:
    if len(sg.idempotents(n, p, singular_only=True)) > 1000:
        return _skip("dual.mset-characterizations", "idempotent sweep bounded to 1000")
    for e in sg.idempotents(n, p, singular_only=True):
        cone = nc.principal_cone(e)
        by_iso = du.m_set_components(cone)
        by_comp = du.m_set_complements(e.kernel)
        k = e.kernel.dim
        if by_iso != by_comp or len(by_iso) != p ** (k * (n - k)):
            return Check("dual.mset-characterizations", False, _endo_text(e))
    return Check("dual.mset-characterizations", True, None)


def check_dual_objects(p: int, n: int) -> Check:
    images = {
        sub.annihilator(a) for a in sub.enumerate_subspaces(n, p, SubspaceFilter.NONZERO)
    }
    proper_dual = set(sub.enumerate_subspaces(n, p, SubspaceFilter.PROPER, Side.DUAL))
    dual_data = du.build_normal_dual(n, p)
    ok = images == proper_dual and dual_data.injective and dual_data.object_count_matches and dual_data.inclusions_match
    return Check("dual.object-count", ok, {"objects": len(images)})


def check_dual_tables(p: int, n: int) -> Check:
    if sg.sing_order(n, p) > 600:
        return _skip("dual.table-op", "table build bounded to order 600")
    sing_tab = cx.sing_table(n, p)
    op_expected = sg.transpose_table(sing_tab).table
    if n <= 2:
        table, _ = du.dual_cone_table(n, p)
        if table.table != op_expected:
            return Check("dual.table-op", False, "component-level dual cones")
    op_table = du.dual_op_table(n, p)
    ok = op_table.table == op_expected
    return Check("dual.table-op", ok, {"order": op_table.order, "component_level": n <= 2})


def check_nat_trans(p: int, n: int) -> Check:
    """Naturality of carrier action: act then push along g equals push then act."""
    if sg.sing_order(n, p) > 600:
        return _skip("dual.naturality", "h-set enumeration bounded to order 600")
    u = ix.universe(n, p)
    prod, q = u.products, len(u.transpose)
    idems = [u.index(e) for e in sg.idempotents(n, p, singular_only=True)]
    singular = [x for x, s in enumerate(u.image) if u.subspaces[s].dim < n]
    morphisms = [(g, u.subspace_at[g.dom], du.row_map(g)) for g in nc.category(n, p).all_morphisms()]
    checked = 0
    cap = 50000
    for e in idems:
        for f in idems:
            for c in sorted({prod[prod[f * q + x] * q + e] for x in singular}):
                row = prod[c * q : (c + 1) * q]  # entry x is c x
                for g, dom, rows in morphisms:
                    for x in u.confined(dom, u.kernel[e]):  # the h-set of e at g.dom
                        acted = row[x]
                        if not (u.contains(u.kernel[acted], u.kernel[f]) and u.contains(dom, u.image[acted])):
                            return Check("dual.naturality", False, (_endo_text(u.elements[c]), "escapes the h-set"))
                        if ix.globalize(acted, rows) != row[ix.globalize(x, rows)]:
                            return Check("dual.naturality", False, (_endo_text(u.elements[c]), str(g.dom.basis)))
                    checked += 1
                    if checked >= cap:
                        return Check("dual.naturality", True, {"squares_checked": checked, "capped": True})
    return Check("dual.naturality", True, {"squares_checked": checked})


def _gl_scope(p: int, n: int, full: int = 48, sample: int = 6) -> tuple[sg.Endo, ...]:
    autos = sg.gl(n, p)
    return autos if len(autos) <= full else autos[:sample]


def check_gl_crossconnections(p: int, n: int) -> Check:
    if n != 2:
        return _skip("crossconn.gl-batch", "run at n = 2")
    autos = _gl_scope(p, n)
    objects = nc.category(n, p).objects
    for theta in autos:
        gamma, delta = cx.gamma_delta_theta(theta)
        verdict = cx.is_crossconnection(gamma)
        if not verdict.ok:
            return Check("crossconn.gl-batch", False, (_endo_text(theta), verdict.failure))
        if not cx.is_local_isomorphism(objects, delta.object_map, delta.morphism_map, objects).ok:
            return Check("crossconn.gl-batch", False, (_endo_text(theta), "delta"))
    return Check("crossconn.gl-batch", True, {"automorphisms": len(autos)})


def check_chi(p: int, n: int) -> Check:
    if n != 2:
        return _skip("crossconn.chi-naturality", "run at n = 2")
    total = 0
    for theta in _gl_scope(p, n, sample=2):
        gamma, delta = cx.gamma_delta_theta(theta)
        report = cx.check_chi_naturality(theta, gamma, delta)
        if not report.ok:
            return Check("crossconn.chi-naturality", False, (_endo_text(theta), report.failure))
        total += report.squares_checked
    return Check("crossconn.chi-naturality", True, {"squares": total})


def check_linked_semigroups(p: int, n: int) -> Check:
    if n != 2:
        return _skip("crossconn.linked-semigroup", "run at n = 2")
    for theta in _gl_scope(p, n):
        linked = cx.linked_pair_semigroup(theta)
        # matches_sing compares the table with Sing's entry by entry.
        if not (linked.pairing_ok and linked.matches_sing):
            return Check("crossconn.linked-semigroup", False, _endo_text(theta))
    return Check("crossconn.linked-semigroup", True, {"order": sg.sing_order(n, p)})


def check_scalar_invariance(p: int, n: int) -> Check:
    if n != 2:
        return _skip("crossconn.scalar-invariance", "run at n = 2")
    if p == 2:
        return Check("crossconn.scalar-invariance", True, {"note": "only the unit scalar exists"})
    for theta in _gl_scope(p, n):
        gamma, delta = cx.gamma_delta_theta(theta)
        for c in range(2, p):
            gamma_c, delta_c = cx.gamma_delta_theta(sg.Endo(theta.mat.scale(c)))
            if gamma_c != gamma or delta_c != delta:
                return Check("crossconn.scalar-invariance", False, (_endo_text(theta), c))
    return Check("crossconn.scalar-invariance", True, None)


def check_classification(p: int, n: int) -> Check:
    try:
        census = cx.classify_crossconnections(n, p)
    except TooLarge:
        return _skip("crossconn.classification", "census bounded to n = 2, p <= 3")
    want = sg.pgl_order(n, p)
    if census.count != want:
        return Check("crossconn.classification", False, {"count": census.count, "expected": want})
    for omap, theta in zip(census.bijections, census.thetas):
        _, delta = cx.gamma_delta_theta(theta)
        if delta.object_map != omap:
            return Check("crossconn.classification", False, _endo_text(theta))
        linked = cx.linked_pair_semigroup(theta)
        if not linked.matches_sing:
            return Check("crossconn.classification", False, _endo_text(theta))
    return Check("crossconn.classification", True, {"count": census.count})


def _variant_thetas(p: int, n: int) -> tuple[sg.Endo, ...]:
    if p ** (n * n) <= 100:
        return sg.all_endos(n, p)
    mats = [Mat.zeros(n, n, p), Mat.identity(n, p)]
    e11 = [[0] * n for _ in range(n)]
    e11[0][0] = 1
    mats.append(Mat.make(e11, p))
    nilp = [[0] * n for _ in range(n)]
    nilp[1][0] = 1
    mats.append(Mat.make(nilp, p))
    return tuple(sg.Endo(m) for m in mats)


def check_variant_regularity(p: int, n: int) -> Check:
    if p ** (n * n) > 1000:
        return _skip("variant.reg-closed", "regular-part search bounded to 1000 elements")
    thetas = _variant_thetas(p, n)
    for theta in thetas:
        ctx = va.make_variant(theta)
        sandwich = va.sandwich_index(ctx)
        reg, witnesses = va.reg_indices(ctx)
        reg_set = set(reg)
        if not reg_set.issuperset(sandwich(a, b) for a in reg for b in reg):
            return Check("variant.reg-closed", False, _endo_text(theta))
        if any(sandwich(sandwich(a, b), a) != a for a, b in zip(reg, witnesses)):
            return Check("variant.reg-closed", False, _endo_text(theta))
    return Check("variant.reg-closed", True, {"thetas": len(thetas)})


def check_variant_phi(p: int, n: int) -> Check:
    if p ** (n * n) > 1000:
        return _skip("variant.phi-homomorphism", "regular-part search bounded to 1000 elements")
    thetas = _variant_thetas(p, n)
    u = ix.universe(n, p)
    prod, q = u.products, len(u.transpose)
    cap = 40000
    capped = False
    for theta in thetas:
        ctx = va.make_variant(theta)
        t = u.index(theta)
        # phi(a) = (theta a, a theta); the product of two pairs multiplies slotwise.
        left, right = u.left_products(t), u.right_products(t)
        for a, b in itertools.islice(itertools.product(range(q), repeat=2), cap):
            s = prod[right[a] * q + b]  # the sandwich a theta b
            if left[s] != prod[left[a] * q + left[b]] or right[s] != prod[right[a] * q + right[b]]:
                return Check("variant.phi-homomorphism", False, _endo_text(theta))
        capped = capped or q * q >= cap
        reg, _ = va.reg_indices(ctx)
        if len({(left[a], right[a]) for a in reg}) != len(reg):
            return Check("variant.phi-homomorphism", False, (_endo_text(theta), "not injective"))
    return Check("variant.phi-homomorphism", True, {"thetas": len(thetas), "capped": capped})


def check_variant_membership(p: int, n: int) -> Check:
    """For every a: image(a @ theta) lies in image(theta), ker(theta @ a) contains ker(theta)."""
    u = ix.universe(n, p)
    for theta in _variant_thetas(p, n):
        t = u.index(theta)
        image, null = u.image[t], u.kernel[t]
        if not all(u.contains(image, s) for s in {u.image[x] for x in u.right_products(t)}):
            return Check("variant.membership-laws", False, _endo_text(theta))
        if not all(u.contains(s, null) for s in {u.kernel[x] for x in u.left_products(t)}):
            return Check("variant.membership-laws", False, _endo_text(theta))
    return Check("variant.membership-laws", True, None)


def check_variant_crossconnection(p: int, n: int) -> Check:
    if n == 1:
        return Check(
            "variant.crossconnection", True, {"not_applicable": "the only singular theta at n = 1 is 0"}
        )
    if p ** (n * n) > 1000:
        return _skip("variant.crossconnection", "regular-part search bounded to 1000 elements")
    e11 = [[0] * n for _ in range(n)]
    e11[0][0] = 1
    ctx = va.make_variant(sg.Endo(Mat.make(e11, p)))
    report = va.variant_crossconnection(ctx)
    ok = (
        report.delta_verdict is not None
        and report.delta_verdict.ok
        and report.gamma_verdict is not None
        and report.gamma_verdict.ok
        and bool(report.proper_not_surjective)
        and report.phi_injective
        and report.phi_table_matches
    )
    return Check("variant.crossconnection", ok, {"reg_size": report.reg_size})


def check_variant_nonprincipal(p: int, n: int) -> Check:
    if p ** (n * n) > 1000:
        return _skip("variant.nonprincipal-excess", "carrier search bounded to 1000 elements")
    if p ** (n * n) > 100:
        theta = _variant_thetas(p, n)[2]
        census = va.nonprincipal_cones(va.make_variant(theta))
        ok = len(census.excess) >= 1
        return Check("variant.nonprincipal-excess", ok, {"excess": len(census.excess)})
    for theta in sg.all_endos(n, p):
        ctx = va.make_variant(theta)
        census = va.nonprincipal_cones(ctx)
        if theta.inverse() is not None or all(x == 0 for x in theta.mat.flat()):
            continue
        if len(census.excess) < 1:
            return Check("variant.nonprincipal-excess", False, _endo_text(theta))
    return Check("variant.nonprincipal-excess", True, None)


REGISTRY: tuple[tuple[str, Callable[[int, int], Check]], ...] = (
    ("lattice.subspace-counts", check_subspace_counts),
    ("lattice.complement-counts", check_complement_counts),
    ("lattice.annihilator-involution", check_annihilator_involution),
    ("lattice.annihilator-antitone", check_annihilator_antitone),
    ("lattice.inclusion-splitting", check_inclusion_splitting),
    ("semigroup.order-formula", check_sing_order),
    ("semigroup.green-oracle", check_green_oracle),
    ("semigroup.idempotents", check_idempotents),
    ("semigroup.sing-regular", check_sing_regular),
    ("cones.factorization", check_factorization),
    ("cones.principal-roundtrip", check_principal_roundtrip),
    ("cones.compose-homomorphism", check_cone_homomorphism),
    ("cones.idempotent-law", check_idempotent_cones),
    ("cones.census", check_cone_census),
    ("cones.table-isomorphic", check_cone_table),
    ("dual.hfunctor-determined", check_hfunctor_keys),
    ("dual.mset-characterizations", check_msets),
    ("dual.object-count", check_dual_objects),
    ("dual.table-op", check_dual_tables),
    ("dual.naturality", check_nat_trans),
    ("crossconn.gl-batch", check_gl_crossconnections),
    ("crossconn.chi-naturality", check_chi),
    ("crossconn.linked-semigroup", check_linked_semigroups),
    ("crossconn.scalar-invariance", check_scalar_invariance),
    ("crossconn.classification", check_classification),
    ("variant.reg-closed", check_variant_regularity),
    ("variant.phi-homomorphism", check_variant_phi),
    ("variant.membership-laws", check_variant_membership),
    ("variant.crossconnection", check_variant_crossconnection),
    ("variant.nonprincipal-excess", check_variant_nonprincipal),
)


def run_all(p: int, n: int) -> list[Check]:
    """Run every registered check in registry order; TooLarge skips a check, other AlgebraErrors fail it."""
    checks = []
    for name, fn in REGISTRY:
        try:
            checks.append(fn(p, n))
        except TooLarge as exc:
            checks.append(_skip(name, str(exc)))
        except AlgebraError as exc:
            checks.append(Check(name, False, {"error": f"{type(exc).__name__}: {exc}"}))
    return checks
