"""Named verification checks over a given field size, shared by the CLI.

A check is a verdict function (p, n) -> (passed, witness), the witness small enough to print. Only
`REGISTRY` names the checks, and `BUDGETS` alone decides where each runs, from closed forms, before
anything is built. The `theta_*` verdicts judge one theta, for `crossconn --theta` and `variant`, under
no budget; a registry check that repeats such a rule loops over the verdict and keeps its witness.
`run_check` alone turns a verdict into a Check record: TooLarge, from a guard inside the library, becomes
a skip, any other AlgebraError a failed check. Checks run one at a time in registry order, so reports
are deterministic.
"""
from __future__ import annotations

import itertools
from array import array
from operator import itemgetter
from typing import Callable, NamedTuple

from . import crossconn as cx
from . import dual as du
from . import indexed as ix
from . import normal_cones as nc
from . import semigroup as sg
from . import subspaces as sub
from . import variants as va
from .errors import AlgebraError, TooLarge
from .gf import MAX_ENUM, Mat, all_matrices, mat_to_text

Verdict = tuple[bool, object]  # (passed, witness)


class Check(NamedTuple):
    name: str
    passed: bool
    witness: object = None

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.passed, "witness": self.witness}


def check_subspace_counts(p: int, n: int) -> Verdict:
    dims = ix.lattice(n, p).dims
    per_dim = [dims.count(k) for k in range(n + 1)]
    expected = [sub.gaussian_binomial(n, k, p) for k in range(n + 1)]
    return per_dim == expected, {"per_dim": per_dim}


def check_complement_counts(p: int, n: int) -> Verdict:
    """Route 1 counts `Lattice.complements(s)`, a meet by member bitmask; route 2 tests each found t
    by s + t = V, that is ann(s) ^ ann(t) = 0: the members of the two annihilators share only 0."""
    lat = ix.lattice(n, p)
    dims, ann_members = lat.dims, [lat.members[x] for x in lat.ann]
    for s, a in enumerate(lat.subspaces):
        k, found = dims[s], lat.complements(s)
        meets = set(map(ann_members[s].__and__, map(ann_members.__getitem__, found)))
        if len(found) != p ** (k * (n - k)) or {dims[t] for t in found} - {n - k} or meets - {1}:
            return False, {"subspace": str(a.basis)}
    return True, None


def check_annihilator_involution(p: int, n: int) -> Verdict:
    lat = ix.lattice(n, p)
    dims, ann = lat.dims, lat.ann
    for s, a in enumerate(lat.subspaces):
        if dims[ann[s]] != n - dims[s] or ann[ann[s]] != s:
            return False, {"subspace": str(a.basis)}
    return True, None


def check_annihilator_antitone(p: int, n: int) -> Verdict:
    """b contains a exactly when ann(a) contains ann(b), read from the containment masks."""
    lat = ix.lattice(n, p)
    pair = lat.unreversed_pair(dict(enumerate(lat.ann)))
    if pair is None:
        return True, None
    return False, dict(zip("ab", (str(lat.subspaces[s].basis) for s in pair)))


def check_inclusion_splitting(p: int, n: int) -> Verdict:
    """j . q = 1 for the inclusion j of every a inside b and its retraction q, tested once per
    distinct inclusion matrix: the identity reads j.mat alone, the coordinates of a's basis
    in b's, so j and q are built only for a pair whose matrix is new."""
    lat = ix.lattice(n, p)
    spaces, verdicts = lat.subspaces, {}
    for s, a in enumerate(spaces):
        for b in map(spaces.__getitem__, ix.set_bits(lat.above[s])):
            mat = b.coordinates(a.basis.rows)
            if mat not in verdicts:
                j = sub.inclusion(a, b)
                verdicts[mat] = j.compose(sub.retraction(j)) == sub.Morphism.identity(a)
            if not verdicts[mat]:
                return False, {"a": str(a.basis), "b": str(b.basis)}
    return True, None


def check_sing_order(p: int, n: int) -> Verdict:
    u = ix.universe(n, p)
    got = len(u.image) - u.image.count(u.whole)
    want = sg.sing_order(n, p)
    return got == want, {"order": got}


def check_green_oracle(p: int, n: int) -> Verdict:
    u = ix.universe(n, p)
    report = sg.index_green_report(u, u.singular)
    return report.agrees, report.counterexample


def check_idempotents(p: int, n: int) -> Verdict:
    u = ix.universe(n, p)
    built = u.decompositions
    if [x for x, _, _ in built] != u.idempotents.tolist():  # both in counting order
        return False, {"built": len(built), "brute": len(u.idempotents)}
    for x, null, image in built:  # the table's kernel and image must be x's decomposition
        kernel, img = u.kernel[x], u.image[x]
        span = u.span(u.vector_at[v] for s in (kernel, img) for v in u.subspaces[s].basis.rows)  # kernel + image
        if u.dims[kernel] + u.dims[img] != n or span != u.whole or (kernel, img) != (null, image):
            return False, mat_to_text(u.elements[x])
    return True, {"count": len(built)}


def check_sing_regular(p: int, n: int) -> Verdict:
    u = ix.universe(n, p)
    prod = u.products
    reg, _ = sg.regular_elements(u.singular, lambda a, b: prod[a][b])
    return len(reg) == len(u.singular), {"regular": len(reg)}


def check_factorization(p: int, n: int) -> Verdict:
    for f in nc.category(n, p).all_morphisms():
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
    for alpha in sg.sing(n, p):
        cone = nc.principal_cone(alpha)
        if nc.cone_to_map(cone) != alpha:
            return False, mat_to_text(alpha)
    return True, None


def check_cone_homomorphism(p: int, n: int) -> Verdict:
    u = ix.universe(n, p)
    prod = u.products
    cones = {x: nc.index_cone(u, x) for x in u.singular}
    cap = 40000
    for a, b in itertools.islice(itertools.product(u.singular, repeat=2), cap):
        if nc.index_compose(u, cones[a], cones[b]) != cones[prod[a][b]]:
            return False, (mat_to_text(u.elements[a]), mat_to_text(u.elements[b]))
    if len(cones) ** 2 > cap:
        return True, {"pairs_checked": cap, "capped": True}
    return True, {"pairs_checked": len(cones) ** 2}


def check_idempotent_cones(p: int, n: int) -> Verdict:
    for alpha in sg.sing(n, p):
        cone = nc.principal_cone(alpha)
        is_idem = nc.cone_compose(cone, cone) == cone
        vertex_identity = cone.component(cone.vertex) == sub.Morphism.identity(cone.vertex)
        if is_idem != vertex_identity:
            return False, mat_to_text(alpha)
    return True, None


def check_cone_census(p: int, n: int) -> Verdict:
    census = nc.cone_census(n, p)
    principal = {nc.principal_cone(a) for a in sg.sing(n, p)}
    ok = census.valid_count == sg.sing_order(n, p) and set(census.valid_cones) == principal
    return ok, {"valid": census.valid_count, "inclusion_iso_only": census.inclusion_iso_only_count}


def check_cone_table(p: int, n: int) -> Verdict:
    u = ix.universe(n, p)
    table = nc.cone_table(u, u.singular)
    return table == u.table(u.singular), {"order": len(table)}


def check_hfunctor_keys(p: int, n: int) -> Verdict:
    u = ix.universe(n, p)
    groups: dict[int, set[tuple[frozenset[int], ...]]] = {}  # kernel -> the H-sets of its idempotents
    for e, null, _ in u.decompositions:
        if null:  # kernel 0 is the identity
            groups.setdefault(null, set()).add(du.index_h_sets(u, e))
    for null, h_sets in groups.items():
        if len(h_sets) != 1:
            return False, str(u.subspaces[null].basis)
    return True, {"kernels_checked": len(groups)}


def check_msets(p: int, n: int) -> Verdict:
    """Each singular idempotent's M-set, where its cone is an isomorphism, is its kernel's complements."""
    u, lat = ix.universe(n, p), ix.lattice(n, p)
    complements = {null: set(lat.complements(null)) for null in {u.kernel[x] for x in u.idempotents}}
    for x in u.idempotents:
        null = u.kernel[x]
        k = u.dims[null]
        if k == 0:  # the identity, the one invertible idempotent
            continue
        by_iso = nc.index_m_set(u, nc.index_cone(u, x))
        if by_iso != complements[null] or len(by_iso) != p ** (k * (n - k)):
            return False, mat_to_text(u.elements[x])
    return True, None


def check_dual_objects(p: int, n: int) -> Verdict:
    d = du.build_normal_dual(n, p)
    ok = d.injective and d.object_count_matches and d.inclusions_match
    return ok, {"objects": len({image for _, image in d.object_map})}


def check_dual_tables(p: int, n: int) -> Verdict:
    """Sing's transposes multiply by the opposite of Sing's table: as the cones over the dual
    category, which are the index cones of the transposes, and as matrices."""
    u = ix.universe(n, p)
    opposite = tuple(zip(*u.table(u.singular)))
    transposed = [u.transpose[x] for x in u.singular]
    if n <= 2 and nc.cone_table(u, transposed) != opposite:
        return False, "component-level dual cones"
    op_table = u.table(transposed)
    return op_table == opposite, {"order": len(op_table), "component_level": n <= 2}


def check_nat_trans(p: int, n: int) -> Verdict:
    """Naturality of the carrier action, as the two claims it still makes.

    Acting by c = f x e on the h-set of e at A, then following g: A -> B, is (c x) E_g with
    E_g = `dual.extension(g)`; following g first is c (x E_g). These agree in any associative
    table, so the escape test runs first, uncapped: c x stays in the h-set of f at A, for every
    (e, f, c, A). Then Light's test (Clifford & Preston, vol. 1, 1.2) proves the Cayley table
    associative: right products of `_end_generators` reach every element, and (x g) y = x (g y)
    for all x, y and each generator g. crossconn.chi-naturality relies on this second half.
    """
    u = ix.universe(n, p)
    prod = u.products
    idems = [x for x, null, _ in u.decompositions if null]  # kernel 0 is the identity
    objects = [u.subspace_at[a] for a in nc.category(n, p).objects]
    left = {f: {prod[f][x] for x in u.singular} for f in idems}  # f x, for every singular x
    h_sets = {(a, k): frozenset(u.confined(a, k)) for a in objects for k in {u.kernel[f] for f in idems}}
    checked = 0
    for e, f in itertools.product(idems, repeat=2):
        for c in sorted({prod[y][e] for y in left[f]}):
            act = prod[c].__getitem__  # x -> c x
            for a in objects:  # c must send the h-set of e at A into the h-set of f at A
                if not h_sets[a, u.kernel[f]].issuperset(map(act, h_sets[a, u.kernel[e]])):
                    return False, (mat_to_text(u.elements[c]), "escapes the h-set")
                checked += 1
    gens = [u.index(g) for g in _end_generators(p, n)]
    reached, frontier = set(gens), gens
    while frontier:
        frontier = [y for y in {prod[x][g] for x in frontier for g in gens} if y not in reached]
        reached.update(frontier)
    scope = {"squares_checked": checked, "associativity": "Light's test",
             "generators": [mat_to_text(u.elements[g]) for g in gens], "reached": len(reached)}
    if len(reached) != len(prod):
        return False, scope
    for g in gens:
        times_g = itemgetter(*prod[g])  # row x, read at g y for every y
        for x, row in enumerate(prod):
            if prod[row[g]] != array(ix.INDEX, times_g(row)):
                return False, (mat_to_text(u.elements[x]), mat_to_text(u.elements[g]), "(x g) y != x (g y)")
    return True, scope


def _end_generators(p: int, n: int) -> tuple[Mat, ...]:
    """Generators of End(GF(p)^n), without repeats: diag(w, 1, ..., 1) for a primitive root w, the cyclic
    shift and I + E12 generate GL(n, p), and with the idempotent diag(1, ..., 1, 0) every singular map."""
    w = next(c for c in range(1, p) if len({pow(c, k, p) for k in range(p - 1)}) == p - 1)
    entries = (
        lambda i, j: (w if i == 0 else 1) * (i == j),
        lambda i, j: int(j == (i + 1) % n),
        lambda i, j: int(i == j or (i, j) == (0, 1)),
        lambda i, j: int(i == j < n - 1),
    )
    return tuple(dict.fromkeys(Mat.make([[at(i, j) for j in range(n)] for i in range(n)], p) for at in entries))


def _gl_scope(p: int, n: int) -> tuple[sg.Endo, ...]:
    autos = sg.gl(n, p)
    return autos if len(autos) <= 48 else autos[:6]  # all of GL(2, p) for p <= 3


def theta_crossconnection(theta: sg.Endo) -> Verdict:
    """The automorphism's gamma is a cross-connection and its delta a local isomorphism."""
    gamma, delta = cx.gamma_delta_theta(theta)
    verdict = cx.is_crossconnection(gamma)
    if not verdict.ok:
        return False, verdict.failure
    objects = nc.category(theta.n, theta.p).objects
    if not cx.is_local_isomorphism(objects, delta.object_map, delta.morphism_map, objects).ok:
        return False, "delta"
    return True, None


def theta_chi_naturality(theta: sg.Endo) -> Verdict:
    gamma, delta = cx.gamma_delta_theta(theta)
    report = cx.check_chi_naturality(theta, gamma, delta)
    return report.ok, {"squares": report.squares_checked} if report.ok else report.failure


def theta_linked_semigroup(theta: sg.Endo) -> Verdict:
    """The linked-pair semigroup of an automorphism, aligned with the singular order.

    The slotwise product of the pairs of a and b is (ab, chi(a) chi(b)). It is
    the pair of ab, at the position of ab, exactly when chi(ab) = chi(a) chi(b).
    """
    u = ix.universe(theta.n, theta.p)
    s, prod, chi_of = u.singular, u.products, cx.chi_indices(theta)
    table = u.table(s)
    ok = all(chi_of[s[k]] == prod[chi_of[a]][chi_of[b]] for a, row in zip(s, table) for b, k in zip(s, row))
    return ok, {"order": len(table)}


def theta_recover_roundtrip(theta: sg.Endo) -> Verdict:
    """delta gives theta back up to a scalar; one coordinate line cannot pin it down."""
    if theta.n < 2:
        return True, {"not_applicable": cx.NEEDS_TWO_LINES}
    _, delta = cx.gamma_delta_theta(theta)
    recovered = cx.recover_theta(delta)
    return recovered == cx.canonical_scalar_rep(theta), mat_to_text(recovered)


def check_gl_crossconnections(p: int, n: int) -> Verdict:
    autos = _gl_scope(p, n)
    for theta in autos:
        ok, failure = theta_crossconnection(theta)
        if not ok:
            return False, (mat_to_text(theta), failure)
    return True, {"automorphisms": len(autos)}


def check_chi(p: int, n: int) -> Verdict:
    total = 0
    for theta in _gl_scope(p, n):
        ok, witness = theta_chi_naturality(theta)
        if not ok:
            return False, (mat_to_text(theta), witness)
        total += witness["squares"]
    return True, {"squares": total}


def check_linked_semigroups(p: int, n: int) -> Verdict:
    for theta in _gl_scope(p, n):
        ok, witness = theta_linked_semigroup(theta)
        if not ok:
            return False, mat_to_text(theta)
    return True, witness


def check_scalar_invariance(p: int, n: int) -> Verdict:
    if p == 2:
        return True, {"note": "only the unit scalar exists"}
    for theta in _gl_scope(p, n):
        for c in range(2, p):
            if cx.gamma_delta_theta(sg.Endo(theta.scale(c))) != cx.gamma_delta_theta(theta):
                return False, (mat_to_text(theta), c)
    return True, None


def check_classification(p: int, n: int) -> Verdict:
    census = cx.classify_crossconnections(n, p)
    want = sg.pgl_order(n, p)
    if census.count != want:
        return False, {"count": census.count, "expected": want}
    for omap, theta in zip(census.bijections, census.thetas):
        _, delta = cx.gamma_delta_theta(theta)
        if delta.object_map != omap or not theta_linked_semigroup(theta)[0]:
            return False, mat_to_text(theta)
    return True, {"count": census.count}


def _variant_thetas(p: int, n: int) -> tuple[sg.Endo, ...]:
    return tuple(map(sg.Endo, _variant_mats(p, n)))


def _e11(p: int, n: int) -> Mat:
    """The projection onto the first coordinate line: 1 in the corner, 0 elsewhere."""
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = 1
    return Mat.make(rows, p)


def _variant_mats(p: int, n: int) -> tuple[Mat, ...]:
    """Every matrix when there are at most 100, else 0, 1, E11 and a nilpotent."""
    if p ** (n * n) <= 100:
        return tuple(all_matrices(n, n, p))
    nilp = [[0] * n for _ in range(n)]
    nilp[1][0] = 1
    return Mat.zeros(n, n, p), Mat.identity(n, p), _e11(p, n), Mat.make(nilp, p)


def theta_variant_reg(theta: sg.Endo) -> Verdict:
    """The regular part, by the rank test, is closed under the sandwich product, and its size is
    `semigroup.variant_reg_order` for the rank of theta."""
    ctx = va.make_variant(theta)
    sandwich = va.sandwich_index(ctx)
    reg = va.reg_indices(ctx)
    closed = set(reg).issuperset(sandwich(a, b) for a in reg for b in reg)
    want = sg.variant_reg_order(theta.n, theta.p, theta.rank)
    witness = {"reg_size": len(reg)} if len(reg) == want else {"reg_size": len(reg), "closed_form": want}
    return closed and len(reg) == want, witness


def theta_variant_crossconnection(theta: sg.Endo) -> Verdict:
    if theta.n == 1 and theta.inverse() is None:
        return True, {"not_applicable": "the only singular theta at n = 1 is 0"}
    ctx = va.make_variant(theta)
    cxn = va.variant_crossconnection(ctx)
    witness = {
        "reg_size": cxn.reg_size,
        "invertible": cxn.invertible,
        "carrier_sizes": list(map(len, va.carriers(ctx))),
    }
    if not cxn.invertible:
        verdicts = (("delta", cxn.delta_verdict), ("gamma", cxn.gamma_verdict))
        witness.update({f"{side}_failure": v.failure for side, v in verdicts if not v.ok})
    if cxn.phi_table_matches:  # the identity carries the variant table onto the pair table
        witness["iso_witness"] = list(range(cxn.reg_size))
    return cxn.ok, witness


def theta_nonprincipal_census(theta: sg.Endo) -> Verdict:
    """The image-side carrier holds a non-translate exactly when theta is singular and nonzero."""
    census = va.nonprincipal_cones(va.make_variant(theta))
    expected_excess = theta.inverse() is None and any(theta.flat())
    witness = {"carrier": census.carrier_size, "principal": census.principal_size, "excess": len(census.excess)}
    if census.example is not None:
        witness["example"] = mat_to_text(census.example)
    return (len(census.excess) >= 1) == expected_excess, witness


def check_variant_regularity(p: int, n: int) -> Verdict:
    thetas = _variant_thetas(p, n)
    for theta in thetas:
        if not theta_variant_reg(theta)[0]:
            return False, mat_to_text(theta)
    return True, {"thetas": len(thetas)}


def check_variant_phi(p: int, n: int) -> Verdict:
    thetas = _variant_thetas(p, n)
    u = ix.universe(n, p)
    prod = u.products
    q = len(prod)  # the number of elements
    cap = 40000
    capped = False
    for theta in thetas:
        ctx = va.make_variant(theta)
        t = u.index(theta)
        # phi(a) = (theta a, a theta); the product of two pairs multiplies slotwise.
        left, right = prod[t], u.right_products(t)
        for a, b in itertools.islice(itertools.product(range(q), repeat=2), cap):
            s = prod[right[a]][b]  # the sandwich a theta b
            if left[s] != prod[left[a]][left[b]] or right[s] != prod[right[a]][right[b]]:
                return False, mat_to_text(theta)
        capped = capped or q * q >= cap
        reg = va.reg_indices(ctx)
        if len({(left[a], right[a]) for a in reg}) != len(reg):
            return False, (mat_to_text(theta), "not injective")
    return True, {"thetas": len(thetas), "capped": capped}


def check_variant_membership(p: int, n: int) -> Verdict:
    """For every a: image(a @ theta) lies in image(theta), ker(theta @ a) contains ker(theta)."""
    u = ix.universe(n, p)
    for theta in _variant_mats(p, n):
        t = u.index(theta)
        image, null = u.image[t], u.kernel[t]
        if not all(u.contains(image, s) for s in u.product_images(t)):
            return False, mat_to_text(theta)
        # ker(theta a) = ann(image(a^T theta^T)), and a^T runs over every element.
        if not all(u.contains(u.ann[s], null) for s in u.product_images(u.transpose[t])):
            return False, mat_to_text(theta)
    return True, None


def check_variant_crossconnection(p: int, n: int) -> Verdict:
    if n == 1:  # the only singular theta is 0
        return theta_variant_crossconnection(sg.Endo(Mat.zeros(1, 1, p)))
    ok, witness = theta_variant_crossconnection(sg.Endo(_e11(p, n)))
    kept = ("reg_size",) if ok else ("reg_size", "invertible", "delta_failure", "gamma_failure", "iso_witness")
    return ok, {key: witness[key] for key in kept if key in witness}


def check_variant_nonprincipal(p: int, n: int) -> Verdict:
    if p ** (n * n) > 100:
        ok, witness = theta_nonprincipal_census(sg.Endo(_e11(p, n)))
        return ok, {"excess": witness["excess"]}
    for theta in _variant_thetas(p, n):
        if not theta_nonprincipal_census(theta)[0]:
            return False, mat_to_text(theta)
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


class Budget(NamedTuple):
    """A registry check runs while cost(n, p), a closed form, is at most limit; with no limit, where it holds."""
    label: str
    cost: Callable[[int, int], int]
    limit: int | None = None

    def skip(self, p: int, n: int) -> str | None:
        value = self.cost(n, p)
        if self.limit is None:
            return None if value else f"runs at {self.label}, not at p = {p}, n = {n}"
        shown = f"= {value}" if value < 1 << 64 else f">= 2^{value.bit_length() - 1}"  # census counts stop there
        return None if value <= self.limit else f"{self.label} {shown} > {self.limit}"


# A check with no row runs at every size. The q^2 row picks the sizes any |Sing| bound from 385 to 8450 would.
# The |L|^2 row bounds the bits of the lattice's `below` and `above` masks: (5,5) runs, (7,5) skips.
BUDGETS = {name: row for row, names in (
    (Budget("containment masks |L|^2", lambda n, p: sum(sub.gaussian_binomial(n, k, p) for k in range(n + 1)) ** 2,
            1 << 32),
     "lattice.subspace-counts lattice.complement-counts lattice.annihilator-involution lattice.annihilator-antitone "
     "lattice.inclusion-splitting dual.object-count"),
    (Budget("universe q = p^(n^2)", lambda n, p: p ** (n * n), MAX_ENUM),
     "semigroup.order-formula semigroup.idempotents variant.membership-laws"),
    (Budget("Cayley table q^2", lambda n, p: p ** (2 * n * n), ix.MAX_PRODUCTS),
     "semigroup.green-oracle semigroup.sing-regular cones.compose-homomorphism cones.table-isomorphic "
     "dual.hfunctor-determined dual.table-op dual.naturality"),
    (Budget("|Sing|", sg.sing_order, 2000), "cones.principal-roundtrip cones.idempotent-law"),
    (Budget("morphisms", nc.morphism_count, 20000), "cones.factorization"),
    (Budget("singular idempotents", sg.singular_idempotent_count, 1000), "dual.mset-characterizations"),
    (Budget("sandwich search q = p^(n^2)", lambda n, p: p ** (n * n), 1000),
     "variant.reg-closed variant.phi-homomorphism variant.crossconnection variant.nonprincipal-excess"),
    (Budget("cone families", nc.census_families, nc.CENSUS_BUDGET), "cones.census"),
    (Budget("n = 2", lambda n, p: n == 2),
     "crossconn.gl-batch crossconn.chi-naturality crossconn.linked-semigroup crossconn.scalar-invariance"),
    (Budget("n = 2 and p <= 3", lambda n, p: n == 2 and p <= 3), "crossconn.classification"),
) for name in names.split()}


def run_check(name: str, fn: Callable[..., Verdict], *args) -> Check:
    """The record of the verdict fn(*args): TooLarge makes it a skip, any other AlgebraError a failure."""
    try:
        passed, witness = fn(*args)
    except TooLarge as exc:
        return Check(name, True, {"skipped": str(exc)})
    except AlgebraError as exc:
        return Check(name, False, {"error": f"{type(exc).__name__}: {exc}"})
    return Check(name, passed, witness)


def run_registered(name: str, fn: Callable[[int, int], Verdict], p: int, n: int) -> Check:
    """The record of a registry check at (p, n), skipped without a call where its `BUDGETS` row says so."""
    reason = name in BUDGETS and BUDGETS[name].skip(p, n)
    return run_check(name, (lambda *_: (True, {"skipped": reason})) if reason else fn, p, n)


def run_all(p: int, n: int) -> list[Check]:
    """Every registered check in registry order."""
    return [run_registered(name, fn, p, n) for name, fn in REGISTRY]
