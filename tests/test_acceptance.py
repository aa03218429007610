"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance here is exact (these are finite algebraic computations),
so each criterion asserts equality of the computed and expected values.
The table-isomorphism clause of the duality suite runs at the orders the
table machinery is specified for (up to the singular semigroup of
GF(2)^3, order 344); at p = 3, n = 3 the non-table clauses still run.
"""
import json

from linsemi import crossconn as cx
from linsemi import dual as du
from linsemi import normal_cones as nc
from linsemi import semigroup as sg
from linsemi import subspaces as sub
from linsemi import variants as va
from linsemi.cli import main
from linsemi.gf import Mat
from linsemi.subspaces import Side, SubspaceFilter


def report(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    assert ok, name


def endo(rows, p=2):
    return sg.Endo(Mat.make(rows, p))


def test_criterion_1_green_oracle():
    ok = True
    for n in (2, 3):
        ok = ok and sg.green_oracle_report(sg.sing(n, 2)).agrees
    report("criterion-1 green-relations oracle equivalence (p=2, n=2,3)", ok)


def test_criterion_2_cone_theorem():
    census = nc.cone_census(2, 2)
    ok = census.valid_count == 10
    table, cones = nc.build_cone_semigroup(2, 2)
    sing_table = cx.sing_table(2, 2)
    iso, witness = sg.are_isomorphic(table, sing_table)
    ok = ok and iso and witness is not None
    ok = ok and all(nc.cone_to_map(nc.principal_cone(a)) == a for a in sg.sing(2, 2))
    report("criterion-2 cone census = 10, cone table = Sing table, roundtrip", ok)


def test_criterion_3_duality_suite():
    ok = True
    for p in (2, 3):
        for n in (1, 2, 3):
            spaces = sub.enumerate_subspaces(n, p)
            for a in spaces:
                ann = sub.annihilator(a)
                ok = ok and ann.dim == n - a.dim and sub.annihilator(ann) == a
            for a in spaces:
                for b in spaces:
                    ok = ok and b.contains(a) == sub.annihilator(a).contains(sub.annihilator(b))
            images = {sub.annihilator(a) for a in sub.enumerate_subspaces(n, p, SubspaceFilter.NONZERO)}
            proper_dual = set(sub.enumerate_subspaces(n, p, SubspaceFilter.PROPER, Side.DUAL))
            ok = ok and images == proper_dual
    # anti-isomorphism of the dual cone semigroup, at table scale
    for n, p in ((2, 2), (2, 3)):
        table, _ = du.dual_cone_table(n, p)
        expected = sg.transpose_table(cx.sing_table(n, p))
        iso, _ = sg.are_isomorphic(table, expected, witness=tuple(range(table.order)))
        ok = ok and iso
    op_table = du.dual_op_table(3, 2)
    expected = sg.transpose_table(cx.sing_table(3, 2))
    iso, _ = sg.are_isomorphic(op_table, expected, witness=tuple(range(op_table.order)))
    ok = ok and iso
    # at (3, 3) the full table (order 8451) is beyond the specified table
    # scale; the anti-homomorphism is still exercised component-level on a
    # deterministic block of pairs
    sample = sg.sing(3, 3)[:40]
    cones = {a: nc.principal_cone(du.dual_endo(a), Side.DUAL) for a in sample}
    for a in sample:
        for b in sample:
            composed = nc.cone_compose(cones[a], cones[b])
            ok = ok and composed == nc.principal_cone(du.dual_endo(b @ a), Side.DUAL)
    report("criterion-3 duality suite (p=2,3, n<=3; tables up to order 344)", ok)


def test_criterion_4_msets():
    ok = True
    for n in (2, 3):
        for e in sg.idempotents(n, 2, singular_only=True):
            by_iso = du.m_set_components(nc.principal_cone(e))
            by_complement = du.m_set_complements(e.kernel)
            k = e.kernel.dim
            ok = ok and by_iso == by_complement and len(by_iso) == 2 ** (k * (n - k))
    report("criterion-4 M-set characterizations agree with size p^(k(n-k))", ok)


def test_criterion_5_crossconnections():
    ok = True
    for p in (2, 3):
        autos = sg.gl(2, p)
        ok = ok and len(autos) == (6 if p == 2 else 48)
        for theta in autos:
            gamma, delta = cx.gamma_delta_theta(theta)
            ok = ok and cx.is_crossconnection(gamma).ok
            ok = ok and cx.check_chi_naturality(theta, gamma, delta).ok
            linked = cx.linked_pair_semigroup(theta)
            ok = ok and linked.table.order == sg.sing_order(2, p)
            ok = ok and linked.matches_sing
            iso, _ = sg.are_isomorphic(linked.table, cx.sing_table(2, p), witness=tuple(range(linked.table.order)))
            ok = ok and iso
    report("criterion-5 cross-connection suite over GL(2,2) and GL(2,3)", ok)


def test_criterion_6_classification():
    census2 = cx.classify_crossconnections(2, 2)
    ok = census2.count == sg.pgl_order(2, 2) == 6
    for omap, theta in zip(census2.bijections, census2.thetas):
        _, delta = cx.gamma_delta_theta(theta)
        ok = ok and delta.object_map == omap
    census3 = cx.classify_crossconnections(2, 3)
    ok = ok and census3.count == sg.pgl_order(2, 3) == 24
    for omap, theta in zip(census3.bijections, census3.thetas):
        _, delta = cx.gamma_delta_theta(theta)
        ok = ok and delta.object_map == omap
    for theta in sg.gl(2, 3):
        g1, d1 = cx.gamma_delta_theta(theta)
        g2, d2 = cx.gamma_delta_theta(sg.Endo(theta.mat.scale(2)))
        ok = ok and g1 == g2 and d1 == d2
    report("criterion-6 classification census 6 and 24, scalar invariance", ok)


def test_criterion_7_variants():
    e11 = endo([[1, 0], [0, 0]])
    ctx = va.make_variant(e11)
    reg, _ = va.reg_variant(ctx)
    expected = {
        endo([[0, 0], [0, 0]]),
        endo([[1, 0], [0, 0]]),
        endo([[1, 1], [0, 0]]),
        endo([[1, 0], [1, 0]]),
        endo([[1, 1], [1, 1]]),
    }
    ok = set(reg) == expected
    reg_set = set(reg)
    ok = ok and all(va.sandwich(a, b, ctx) in reg_set for a in reg for b in reg)
    pairs = [va.phi(a, ctx) for a in reg]
    ok = ok and len(set(pairs)) == len(reg)
    cxn = va.variant_crossconnection(ctx)
    ok = ok and cxn.phi_table_matches and cxn.phi_injective
    census = va.nonprincipal_cones(ctx)
    ok = ok and len(census.excess) >= 1
    # closure and translate-pair checks across every sandwich element
    for theta in sg.all_endos(2, 2):
        tctx = va.make_variant(theta)
        treg, _ = va.reg_variant(tctx)
        treg_set = set(treg)
        ok = ok and all(va.sandwich(a, b, tctx) in treg_set for a in treg for b in treg)
        ok = ok and len({va.phi(a, tctx) for a in treg}) == len(treg)
        for a in sg.all_endos(2, 2):
            for b in sg.all_endos(2, 2):
                (xa, ya), (xb, yb) = va.phi(a, tctx), va.phi(b, tctx)
                if va.phi(va.sandwich(a, b, tctx), tctx) != (xa @ xb, ya @ yb):
                    ok = False
                    break
    # one rank-one sandwich element in dimension 3
    theta3 = sg.Endo(Mat.make([[1, 0, 0], [0, 0, 0], [0, 0, 0]], 2))
    ctx3 = va.make_variant(theta3)
    reg3, _ = va.reg_variant(ctx3)
    reg3_set = set(reg3)
    ok = ok and all(va.sandwich(a, b, ctx3) in reg3_set for a in reg3 for b in reg3)
    cxn3 = va.variant_crossconnection(ctx3)
    ok = ok and cxn3.phi_injective and cxn3.phi_table_matches
    report("criterion-7 variant suite (theta = E11, all 16 thetas, one 3d theta)", ok)


def test_criterion_8_determinism(capsys):
    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out.encode()

    code1, out1 = run(["verify-all", "--p", "2", "--n", "2", "--json"])
    code2, out2 = run(["verify-all", "--p", "2", "--n", "2", "--json"])
    code3, out3 = run(["verify-all", "--p", "2", "--n", "2", "--json", "--threads", "3"])
    ok = code1 == code2 == code3 == 0 and out1 == out2 == out3
    data = json.loads(out1)
    ok = ok and all(c["pass"] for c in data["checks"]) and len(data["checks"]) == 30
    # fresh interpreters with different hash seeds must agree byte for byte;
    # the child gets this interpreter's import path, so it finds linsemi
    # whether it is installed or only on PYTHONPATH
    import os
    import subprocess
    import sys

    def spawn(seed):
        env = {"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join(sys.path)}
        return subprocess.run(
            [sys.executable, "-m", "linsemi.cli", "semigroup", "--p", "2", "--n", "2", "--json"],
            capture_output=True,
            env=env,
        )

    r1, r2 = spawn("1"), spawn("99")
    ok = ok and r1.returncode == r2.returncode == 0 and r1.stdout == r2.stdout
    report("criterion-8 verify-all byte-identical across runs and thread counts", ok)
