"""Named verification checks over a given field size, shared by the CLI.

A check is a verdict function (p, n) -> (passed, witness), the witness
small enough to print. A check that does not run past a bound raises
TooLarge, and its message is the reason. Only `REGISTRY` names the
checks, and `run_check` is the one place that turns a verdict into a
Check record: TooLarge becomes a skip, any other AlgebraError a failed
check. The registry order is fixed and the checks run one after another
in that order, so report output is deterministic.
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

Verdict = tuple[bool, object]  # (passed, witness)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: object = None

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.passed, "witness": self.witness}


def _endo_text(e: sg.Endo) -> str:
    return mat_to_text(e.mat)


def check_subspace_counts(p: int, n: int) -> Verdict:
    per_dim = [
        sum(1 for a in sub.enumerate_subspaces(n, p) if a.dim == k) for k in range(n + 1)
    ]
    expected = [sub.gaussian_binomial(n, k, p) for k in range(n + 1)]
    return per_dim == expected, {"per_dim": per_dim}


def check_complement_counts(p: int, n: int) -> Verdict:
    for a in sub.enumerate_subspaces(n, p):
        found = sub.complement(a, ComplementMode.ALL)
        want = p ** (a.dim * (n - a.dim))
        if len(found) != want:
            return False, {"subspace": str(a.basis)}
        for w in found:
            if not sub.is_direct_sum(a, w):
                return False, {"subspace": str(a.basis)}
    return True, None


def check_annihilator_involution(p: int, n: int) -> Verdict:
    for a in sub.enumerate_subspaces(n, p):
        ann = sub.annihilator(a)
        if ann.dim != n - a.dim or sub.annihilator(ann) != a:
            return False, {"subspace": str(a.basis)}
    return True, None


def check_annihilator_antitone(p: int, n: int) -> Verdict:
    spaces = sub.enumerate_subspaces(n, p)
    anns = [sub.annihilator(a) for a in spaces]
    for a, ann_a in zip(spaces, anns):
        for b, ann_b in zip(spaces, anns):
            if b.contains(a) != ann_a.contains(ann_b):
                return False, {"a": str(a.basis), "b": str(b.basis)}
    return True, None


def check_inclusion_splitting(p: int, n: int) -> Verdict:
    spaces = sub.enumerate_subspaces(n, p)
    for a in spaces:
        for b in spaces:
            if not b.contains(a):
                continue
            j = sub.inclusion(a, b)
            q = sub.retraction(a, b)
            if j.compose(q) != sub.Morphism.identity(a):
                return False, {"a": str(a.basis), "b": str(b.basis)}
    return True, None


def check_sing_order(p: int, n: int) -> Verdict:
    u = ix.universe(n, p)
    got = sum(1 for s in u.image if u.subspaces[s].dim < n)
    want = sg.sing_order(n, p)
    return got == want, {"order": got}


def check_green_oracle(p: int, n: int) -> Verdict:
    ix.universe(n, p)  # past MAX_ENUM its TooLarge is the skip reason
    if sg.sing_order(n, p) > 600:
        raise TooLarge("ideal oracle bounded to order 600")
    report = sg.green_oracle_report(sg.sing(n, p))
    return report.agrees, report.counterexample


def check_idempotents(p: int, n: int) -> Verdict:
    u = ix.universe(n, p)  # past MAX_ENUM its TooLarge is the skip reason
    es = sg.idempotents(n, p)
    if any(not e.is_idempotent for e in es):
        return False, "a non-idempotent was produced"
    at = [u.index(e) for e in es]
    brute = {i for i, sq in enumerate(u.squares) if sq == i}
    if len(es) != len(brute) or set(at) != brute:
        return False, {"built": len(es), "brute": len(brute)}
    for e, i in zip(es, at):
        kernel, image = u.subspaces[u.kernel[i]], u.subspaces[u.image[i]]
        if not sub.is_direct_sum(kernel, image) or sg.idempotent_from(kernel, image) != e:
            return False, _endo_text(e)
    return True, {"count": len(es)}


def check_sing_regular(p: int, n: int) -> Verdict:
    ix.universe(n, p)  # past MAX_ENUM its TooLarge is the skip reason
    if sg.sing_order(n, p) > 600:
        raise TooLarge("witness search bounded to order 600")
    elements = sg.sing(n, p)
    reg, _ = sg.regular_elements(elements, lambda a, b: a @ b)
    return len(reg) == len(elements), {"regular": len(reg)}


def check_factorization(p: int, n: int) -> Verdict:
    cat = nc.category(n, p)
    if cat.morphism_count() > 20000:
        raise TooLarge("morphism sweep bounded to 20000")
    for f in cat.all_morphisms():
        fact = nc.normal_factorization(f)
        if fact.composite() != f:
            return False, {"dom": str(f.dom.basis)}
        if not fact.u.is_iso:
            return False, "middle leg is not an isomorphism"
        if sub.inclusion(fact.q.cod, fact.q.dom).compose(fact.q) != sub.Morphism.identity(fact.q.cod):
            return False, "retraction does not split"
        epi = nc.epimorphic_component(f)
        if fact.q.compose(fact.u) != epi:
            return False, "epimorphic component mismatch"
        if epi.compose(sub.inclusion(epi.cod, f.cod)) != f:
            return False, "f is not epi followed by inclusion"
    return True, None


def check_principal_roundtrip(p: int, n: int) -> Verdict:
    if sg.sing_order(n, p) > 2000:
        raise TooLarge("cone sweep bounded to order 2000")
    for alpha in sg.sing(n, p):
        cone = nc.principal_cone(alpha)
        if nc.cone_to_map(cone) != alpha:
            return False, _endo_text(alpha)
    return True, None


def check_cone_homomorphism(p: int, n: int) -> Verdict:
    if sg.sing_order(n, p) > 2000:
        raise TooLarge("cone sweep bounded to order 2000")
    elements = sg.sing(n, p)
    cap = 40000
    pairs_checked = 0
    cones = {a: nc.principal_cone(a) for a in elements}
    for a in elements:
        for b in elements:
            if pairs_checked >= cap:
                return True, {"pairs_checked": pairs_checked, "capped": True}
            if nc.cone_to_map(nc.cone_compose(cones[a], cones[b])) != a @ b:
                return False, (_endo_text(a), _endo_text(b))
            pairs_checked += 1
    return True, {"pairs_checked": pairs_checked}


def check_idempotent_cones(p: int, n: int) -> Verdict:
    if sg.sing_order(n, p) > 2000:
        raise TooLarge("cone sweep bounded to order 2000")
    for alpha in sg.sing(n, p):
        cone = nc.principal_cone(alpha)
        is_idem = nc.cone_compose(cone, cone) == cone
        vertex_identity = cone.component(cone.vertex) == sub.Morphism.identity(cone.vertex)
        if is_idem != vertex_identity:
            return False, _endo_text(alpha)
    return True, None


def check_cone_census(p: int, n: int) -> Verdict:
    try:
        census = nc.cone_census(n, p)
    except TooLarge:
        raise TooLarge("beyond census budget") from None
    expected = sg.sing_order(n, p)
    principal = {nc.principal_cone(a) for a in sg.sing(n, p)}
    ok = census.valid_count == expected and set(census.valid_cones) == principal
    return ok, {"valid": census.valid_count, "inclusion_iso_only": census.inclusion_iso_only_count}


def check_cone_table(p: int, n: int) -> Verdict:
    if sg.sing_order(n, p) > 600:
        raise TooLarge("table build bounded to order 600")
    table, _ = nc.build_cone_semigroup(n, p)
    return table.table == cx.sing_table(n, p).table, {"order": table.order}


def check_hfunctor_keys(p: int, n: int) -> Verdict:
    if sg.sing_order(n, p) > 1000:
        raise TooLarge("h-set enumeration bounded to order 1000")
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
                return False, str(key.basis)
    return True, {"kernels_checked": len(groups)}


def check_msets(p: int, n: int) -> Verdict:
    if sg.singular_idempotent_count(n, p) > 1000:
        raise TooLarge("idempotent sweep bounded to 1000")
    u = ix.universe(n, p)
    for e in sg.idempotents(n, p, singular_only=True):
        cone = nc.principal_cone(e)
        by_iso = du.m_set_components(cone)
        null = u.subspaces[u.kernel[u.index(e)]]
        by_comp = du.m_set_complements(null)
        k = null.dim
        if by_iso != by_comp or len(by_iso) != p ** (k * (n - k)):
            return False, _endo_text(e)
    return True, None


def check_dual_objects(p: int, n: int) -> Verdict:
    images = {
        sub.annihilator(a) for a in sub.enumerate_subspaces(n, p, SubspaceFilter.NONZERO)
    }
    proper_dual = set(sub.enumerate_subspaces(n, p, SubspaceFilter.PROPER, Side.DUAL))
    dual_data = du.build_normal_dual(n, p)
    ok = images == proper_dual and dual_data.injective and dual_data.object_count_matches and dual_data.inclusions_match
    return ok, {"objects": len(images)}


def check_dual_tables(p: int, n: int) -> Verdict:
    if sg.sing_order(n, p) > 600:
        raise TooLarge("table build bounded to order 600")
    sing_tab = cx.sing_table(n, p)
    op_expected = sg.transpose_table(sing_tab).table
    if n <= 2:
        table, _ = du.dual_cone_table(n, p)
        if table.table != op_expected:
            return False, "component-level dual cones"
    op_table = du.dual_op_table(n, p)
    ok = op_table.table == op_expected
    return ok, {"order": op_table.order, "component_level": n <= 2}


def check_nat_trans(p: int, n: int) -> Verdict:
    """Naturality of carrier action: act then push along g equals push then act."""
    if sg.sing_order(n, p) > 600:
        raise TooLarge("h-set enumeration bounded to order 600")
    u = ix.universe(n, p)
    prod, q = u.products, len(u.transpose)
    idems = [u.index(e) for e in sg.idempotents(n, p, singular_only=True)]
    morphisms = [(g, u.subspace_at[g.dom], du.row_map(g)) for g in nc.category(n, p).all_morphisms()]
    checked = 0
    cap = 50000
    for e in idems:
        for f in idems:
            for c in sorted({prod[prod[f * q + x] * q + e] for x in u.singular}):
                row = prod[c * q : (c + 1) * q]  # entry x is c x
                for g, dom, rows in morphisms:
                    for x in u.confined(dom, u.kernel[e]):  # the h-set of e at g.dom
                        acted = row[x]
                        if not (u.contains(u.kernel[acted], u.kernel[f]) and u.contains(dom, u.image[acted])):
                            return False, (_endo_text(u.elements[c]), "escapes the h-set")
                        if ix.globalize(acted, rows) != row[ix.globalize(x, rows)]:
                            return False, (_endo_text(u.elements[c]), str(g.dom.basis))
                    checked += 1
                    if checked >= cap:
                        return True, {"squares_checked": checked, "capped": True}
    return True, {"squares_checked": checked}


def _gl_scope(p: int, n: int, full: int = 48, sample: int = 6) -> tuple[sg.Endo, ...]:
    autos = sg.gl(n, p)
    return autos if len(autos) <= full else autos[:sample]


def check_gl_crossconnections(p: int, n: int) -> Verdict:
    if n != 2:
        raise TooLarge("run at n = 2")
    autos = _gl_scope(p, n)
    objects = nc.category(n, p).objects
    for theta in autos:
        gamma, delta = cx.gamma_delta_theta(theta)
        verdict = cx.is_crossconnection(gamma)
        if not verdict.ok:
            return False, (_endo_text(theta), verdict.failure)
        if not cx.is_local_isomorphism(objects, delta.object_map, delta.morphism_map, objects).ok:
            return False, (_endo_text(theta), "delta")
    return True, {"automorphisms": len(autos)}


def check_chi(p: int, n: int) -> Verdict:
    if n != 2:
        raise TooLarge("run at n = 2")
    total = 0
    for theta in _gl_scope(p, n, sample=2):
        gamma, delta = cx.gamma_delta_theta(theta)
        report = cx.check_chi_naturality(theta, gamma, delta)
        if not report.ok:
            return False, (_endo_text(theta), report.failure)
        total += report.squares_checked
    return True, {"squares": total}


def check_linked_semigroups(p: int, n: int) -> Verdict:
    if n != 2:
        raise TooLarge("run at n = 2")
    for theta in _gl_scope(p, n):
        if not cx.linked_pair_semigroup(theta).matches_sing:
            return False, _endo_text(theta)
    return True, {"order": sg.sing_order(n, p)}


def check_scalar_invariance(p: int, n: int) -> Verdict:
    if n != 2:
        raise TooLarge("run at n = 2")
    if p == 2:
        return True, {"note": "only the unit scalar exists"}
    for theta in _gl_scope(p, n):
        gamma, delta = cx.gamma_delta_theta(theta)
        for c in range(2, p):
            gamma_c, delta_c = cx.gamma_delta_theta(sg.Endo(theta.mat.scale(c)))
            if gamma_c != gamma or delta_c != delta:
                return False, (_endo_text(theta), c)
    return True, None


def check_classification(p: int, n: int) -> Verdict:
    try:
        census = cx.classify_crossconnections(n, p)
    except TooLarge:
        raise TooLarge("census bounded to n = 2, p <= 3") from None
    want = sg.pgl_order(n, p)
    if census.count != want:
        return False, {"count": census.count, "expected": want}
    for omap, theta in zip(census.bijections, census.thetas):
        _, delta = cx.gamma_delta_theta(theta)
        if delta.object_map != omap:
            return False, _endo_text(theta)
        linked = cx.linked_pair_semigroup(theta)
        if not linked.matches_sing:
            return False, _endo_text(theta)
    return True, {"count": census.count}


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


def check_variant_regularity(p: int, n: int) -> Verdict:
    if p ** (n * n) > 1000:
        raise TooLarge("regular-part search bounded to 1000 elements")
    thetas = _variant_thetas(p, n)
    for theta in thetas:
        ctx = va.make_variant(theta)
        sandwich = va.sandwich_index(ctx)
        reg, witnesses = va.reg_indices(ctx)
        reg_set = set(reg)
        if not reg_set.issuperset(sandwich(a, b) for a in reg for b in reg):
            return False, _endo_text(theta)
        if any(sandwich(sandwich(a, b), a) != a for a, b in zip(reg, witnesses)):
            return False, _endo_text(theta)
    return True, {"thetas": len(thetas)}


def check_variant_phi(p: int, n: int) -> Verdict:
    if p ** (n * n) > 1000:
        raise TooLarge("regular-part search bounded to 1000 elements")
    thetas = _variant_thetas(p, n)
    u = ix.universe(n, p)
    prod, q = u.products, len(u.transpose)
    cap = 40000
    capped = False
    for theta in thetas:
        ctx = va.make_variant(theta)
        t = u.index(theta)
        # phi(a) = (theta a, a theta); the product of two pairs multiplies slotwise.
        left, right = prod[t * q : (t + 1) * q], u.right_products(t)
        for a, b in itertools.islice(itertools.product(range(q), repeat=2), cap):
            s = prod[right[a] * q + b]  # the sandwich a theta b
            if left[s] != prod[left[a] * q + left[b]] or right[s] != prod[right[a] * q + right[b]]:
                return False, _endo_text(theta)
        capped = capped or q * q >= cap
        reg, _ = va.reg_indices(ctx)
        if len({(left[a], right[a]) for a in reg}) != len(reg):
            return False, (_endo_text(theta), "not injective")
    return True, {"thetas": len(thetas), "capped": capped}


def check_variant_membership(p: int, n: int) -> Verdict:
    """For every a: image(a @ theta) lies in image(theta), ker(theta @ a) contains ker(theta)."""
    u = ix.universe(n, p)
    for theta in _variant_thetas(p, n):
        t = u.index(theta)
        image, null = u.image[t], u.kernel[t]
        if not all(u.contains(image, s) for s in {u.image[x] for x in u.right_products(t)}):
            return False, _endo_text(theta)
        # theta a = (a^T theta^T)^T, and a^T runs over every element.
        tr = u.transpose
        if not all(u.contains(s, null) for s in {u.kernel[tr[y]] for y in u.right_products(tr[t])}):
            return False, _endo_text(theta)
    return True, None


def check_variant_crossconnection(p: int, n: int) -> Verdict:
    if n == 1:
        return True, {"not_applicable": "the only singular theta at n = 1 is 0"}
    if p ** (n * n) > 1000:
        raise TooLarge("regular-part search bounded to 1000 elements")
    e11 = [[0] * n for _ in range(n)]
    e11[0][0] = 1
    ctx = va.make_variant(sg.Endo(Mat.make(e11, p)))
    report = va.variant_crossconnection(ctx)
    return report.ok, {"reg_size": report.reg_size}


def check_variant_nonprincipal(p: int, n: int) -> Verdict:
    if p ** (n * n) > 1000:
        raise TooLarge("carrier search bounded to 1000 elements")
    if p ** (n * n) > 100:
        theta = _variant_thetas(p, n)[2]
        census = va.nonprincipal_cones(va.make_variant(theta))
        ok = len(census.excess) >= 1
        return ok, {"excess": len(census.excess)}
    for theta in sg.all_endos(n, p):
        ctx = va.make_variant(theta)
        census = va.nonprincipal_cones(ctx)
        if theta.inverse() is not None or all(x == 0 for x in theta.mat.flat()):
            continue
        if len(census.excess) < 1:
            return False, _endo_text(theta)
    return True, None


REGISTRY: tuple[tuple[str, Callable[[int, int], Verdict]], ...] = (
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


def run_check(name: str, fn: Callable[[int, int], Verdict], p: int, n: int) -> Check:
    """The record of one check: TooLarge makes it a skip, any other AlgebraError a failure."""
    try:
        passed, witness = fn(p, n)
    except TooLarge as exc:
        return Check(name, True, {"skipped": str(exc)})
    except AlgebraError as exc:
        return Check(name, False, {"error": f"{type(exc).__name__}: {exc}"})
    return Check(name, passed, witness)


def run_all(p: int, n: int) -> list[Check]:
    """Every registered check in registry order."""
    return [run_check(name, fn, p, n) for name, fn in REGISTRY]
