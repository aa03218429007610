"""CLI behaviour: exit codes, report schema, determinism."""
import json
import re

import pytest

from linsemi import crossconn as cx
from linsemi import verify
from linsemi.cli import Report, emit, main
from linsemi.verify import Check


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestExitCodes:
    def test_verify_all_passes(self, capsys):
        code, out = run(["verify-all", "--p", "2", "--n", "2"], capsys)
        assert code == 0
        assert "30/30 passed" in out

    def test_nonprime_p(self, capsys):
        assert main(["lattice", "--p", "4", "--n", "2"]) == 2

    def test_out_of_range_n(self, capsys):
        assert main(["lattice", "--p", "2", "--n", "9"]) == 2

    def test_bad_matrix_entry(self, capsys):
        assert main(["variant", "--p", "2", "--n", "2", "--theta", "2,0;0,0"]) == 2

    def test_unparseable_matrix(self, capsys):
        assert main(["variant", "--p", "2", "--n", "2", "--theta", "x,y"]) == 2

    @pytest.mark.parametrize("command", ["crossconn", "variant"])
    def test_empty_theta_is_a_bad_matrix(self, command, capsys):
        # An explicit empty --theta is parsed, and refused, like any other matrix.
        assert main([command, "--theta", ""]) == 2
        assert "bad matrix entry ''" in capsys.readouterr().err

    def test_wrong_shape_theta(self, capsys):
        assert main(["variant", "--p", "2", "--n", "2", "--theta", "1,0,0;0,1,0;0,0,1"]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("p,n", [(3, 3), (2, 4)])
    def test_crossconn_theta_past_the_cayley_bound(self, p, n, monkeypatch, capsys):
        # chi-naturality needs the Cayley table: the bound is tested before any functor is built.
        for name in ("functor_from_global", "is_crossconnection"):
            monkeypatch.setattr(cx, name, lambda *args: pytest.fail("built a functor past the bound"))
        identity = ";".join(",".join(str(int(i == j)) for j in range(n)) for i in range(n))
        assert main(["crossconn", "--p", str(p), "--n", str(n), "--theta", identity]) == 2
        assert "Cayley table" in capsys.readouterr().err

    def test_crossconn_singular_theta_is_refused_first(self, capsys):
        assert main(["crossconn", "--p", "3", "--n", "3", "--theta", "1,0,0;0,1,0;0,0,0"]) == 2
        assert "must be invertible" in capsys.readouterr().err


class TestReports:
    def test_variant_reg_size(self, capsys):
        code, out = run(
            ["variant", "--p", "2", "--n", "2", "--theta", "1,0;0,0", "--reg", "--json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"command", "params", "checks", "elapsed_ms"}
        assert data["checks"][0]["witness"]["reg_size"] == 5

    def test_variant_crossconnection_needs_gamma(self, capsys):
        # rank(theta^2) < rank(theta): the transpose collapses a dual object.
        code, out = run(["variant", "--p", "3", "--n", "2", "--theta", "0,0;1,0", "--cxn"], capsys)
        assert code == 1
        assert "FAIL variant.crossconnection" in out
        assert "transpose collapses a dual object" in out
        for p in ("2", "3"):
            code, out = run(["variant", "--p", p, "--n", "2", "--theta", "1,0;0,0", "--cxn"], capsys)
            assert code == 0
            assert "PASS variant.crossconnection" in out

    def test_variant_crossconnection_not_applicable_at_n1(self, capsys):
        # theta = 0 is the only singular theta at n = 1; the subcommand gives
        # the registry's verdict instead of a bare failure.
        code, out = run(["variant", "--p", "2", "--n", "1", "--theta", "0", "--json"], capsys)
        assert code == 0
        got = {c["name"]: c for c in json.loads(out)["checks"]}["variant.crossconnection"]
        code, out = run(["verify-all", "--p", "2", "--n", "1", "--json"], capsys)
        assert code == 0
        want = {c["name"]: c for c in json.loads(out)["checks"]}["variant.crossconnection"]
        assert got == want
        assert want["witness"] == {"not_applicable": "the only singular theta at n = 1 is 0"}

    def test_crossconn_with_theta_at_n1(self, capsys):
        # One coordinate line cannot pin theta: only the recovery is not applicable.
        code, out = run(["crossconn", "--p", "2", "--n", "1", "--theta", "1", "--json"], capsys)
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [c["name"] for c in checks] == [
            "crossconn.is-crossconnection",
            "crossconn.chi-naturality",
            "crossconn.linked-semigroup",
            "crossconn.recover-roundtrip",
        ]
        assert all(c["pass"] for c in checks)
        assert checks[-1]["witness"] == {"not_applicable": "recovery needs at least two coordinate lines"}
        assert checks[2]["witness"] == {"order": 1}

    def test_lattice_listing(self, capsys):
        code, out = run(["lattice", "--p", "2", "--n", "3"], capsys)
        assert code == 0
        assert "subspaces: 16" in out

    def test_crossconn_with_theta(self, capsys):
        code, out = run(["crossconn", "--p", "2", "--n", "2", "--theta", "0,1;1,0"], capsys)
        assert code == 0
        assert "PASS crossconn.is-crossconnection" in out

    def test_classify(self, capsys):
        code, out = run(["crossconn", "--p", "2", "--n", "2", "--classify", "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        names = [c["name"] for c in data["checks"]]
        assert "crossconn.classification" in names

    def test_cones_census_flag(self, capsys):
        code, out = run(["cones", "--p", "2", "--n", "2", "--census"], capsys)
        assert code == 0
        assert "PASS cones.census" in out


class TestEmit:
    def test_empty_checks(self):
        report = Report("demo", {"p": 2, "n": 2})
        data = json.loads(emit(report, "json"))
        assert data["checks"] == []

    def test_failure_carries_witness_in_text(self):
        report = Report("demo", {})
        report.checks.append(Check("demo.check", False, "1,0;0,0"))
        text = emit(report, "text").decode()
        assert "FAIL demo.check" in text
        assert "counterexample: 1,0;0,0" in text

    def test_json_is_sorted_and_stable(self):
        report = Report("demo", {"p": 2})
        report.checks.append(Check("a", True, {"z": 1, "b": 2}))
        assert emit(report, "json") == emit(report, "json")


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        _, first = run(["semigroup", "--p", "2", "--n", "2", "--json"], capsys)
        _, second = run(["semigroup", "--p", "2", "--n", "2", "--json"], capsys)
        assert first == second

    def test_thread_count_invariance(self, capsys):
        _, one = run(["verify-all", "--p", "2", "--n", "2", "--threads", "1", "--json"], capsys)
        _, four = run(["verify-all", "--p", "2", "--n", "2", "--threads", "4", "--json"], capsys)
        assert one == four


def test_timing_flag_fills_elapsed(capsys):
    code, out = run(["semigroup", "--p", "2", "--n", "2", "--json", "--timing"], capsys)
    assert code == 0
    assert json.loads(out)["elapsed_ms"] >= 0


def test_failing_check_exits_one(monkeypatch, capsys):
    import linsemi.verify as verify_mod

    def forced(p, n):
        return False, "forced"

    registry = tuple(
        (name, forced if name == "lattice.subspace-counts" else fn) for name, fn in verify_mod.REGISTRY
    )
    monkeypatch.setattr(verify_mod, "REGISTRY", registry)
    code, out = run(["lattice", "--p", "2", "--n", "2"], capsys)
    assert code == 1
    assert "FAIL lattice.subspace-counts" in out


def test_too_large_check_becomes_a_skip(monkeypatch, capsys):
    import linsemi.verify as verify_mod
    from linsemi.errors import TooLarge

    def too_large(p, n):
        raise TooLarge("forced bound")

    registry = (("lattice.subspace-counts", too_large),) + verify_mod.REGISTRY[1:3]
    monkeypatch.setattr(verify_mod, "REGISTRY", registry)
    code, out = run(["verify-all", "--p", "2", "--n", "2", "--json"], capsys)
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == [name for name, _ in registry]
    assert checks[0] == {"name": "lattice.subspace-counts", "pass": True, "witness": {"skipped": "forced bound"}}


def test_algebra_error_in_a_check_fails_it(monkeypatch, capsys):
    import linsemi.verify as verify_mod
    from linsemi.errors import ShapeError

    def escapes(p, n):
        raise ShapeError("image escapes the domain of the partial map")

    registry = (("lattice.subspace-counts", escapes),) + verify_mod.REGISTRY[1:3]
    monkeypatch.setattr(verify_mod, "REGISTRY", registry)
    code, out = run(["verify-all", "--p", "2", "--n", "2"], capsys)
    assert code == 1
    assert "FAIL lattice.subspace-counts" in out
    code, out = run(["verify-all", "--p", "2", "--n", "2", "--json"], capsys)
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [c["pass"] for c in checks] == [False, True, True]
    assert checks[0]["witness"] == {"error": "ShapeError: image escapes the domain of the partial map"}


def test_subcommand_skips_as_verify_all_does(capsys):
    # Past MAX_ENUM the semigroup checks skip by the universe's budget row;
    # the subcommand reports the same records instead of exiting 2.
    code, out = run(["semigroup", "--p", "2", "--n", "5", "--json"], capsys)
    assert code == 0
    group = json.loads(out)["checks"]
    assert group[0]["witness"] == {"skipped": "universe q = p^(n^2) = 33554432 > 300000"}
    code, out = run(["verify-all", "--p", "2", "--n", "5", "--json"], capsys)
    assert code == 0
    full = {c["name"]: c for c in json.loads(out)["checks"]}
    assert group == [full[c["name"]] for c in group]


ALL_CHECKS = {name for name, _ in verify.REGISTRY}
CROSSCONN = {name for name in ALL_CHECKS if name.startswith("crossconn.")}
LATTICE = {name for name in ALL_CHECKS if name.startswith("lattice.")} | {"dual.object-count"}
SANDWICH = {"variant.reg-closed", "variant.phi-homomorphism", "variant.crossconnection", "variant.nonprincipal-excess"}
# The checks that run at each accepted size, the same cells as when each check raised its own skip.
# The lattice checks and dual.object-count run wherever the lattice's containment masks fit, all but (7, 5).
RUNS = {
    **{(p, 1): ALL_CHECKS - CROSSCONN for p in (2, 3, 5, 7)},
    (2, 2): ALL_CHECKS,
    (3, 2): ALL_CHECKS,
    (5, 2): ALL_CHECKS - {"cones.census", "crossconn.classification"},
    (7, 2): ALL_CHECKS - {"cones.census", "crossconn.classification"} - SANDWICH,
    (2, 3): ALL_CHECKS - CROSSCONN - {"cones.census"},
    (3, 3): LATTICE | {"semigroup.order-formula", "semigroup.idempotents", "cones.factorization",
                          "dual.mset-characterizations", "variant.membership-laws"},
    (2, 4): LATTICE | {"semigroup.order-formula", "semigroup.idempotents", "dual.mset-characterizations",
                          "variant.membership-laws"},
    **{size: LATTICE for size in [(5, 3), (7, 3), (3, 4), (5, 4), (7, 4), (2, 5), (3, 5), (5, 5)]},
    (7, 5): set(),
}
SKIP_TEXT = re.compile(r".+ (= \d+|>= 2\^\d+) > \d+|runs at n = 2( and p <= 3)?, not at p = \d, n = \d")


@pytest.mark.parametrize("p,n", sorted(RUNS))
def test_budget_table_alone_decides_every_skip(p, n, monkeypatch):
    # Nothing that builds a universe, lattice, category or element list may run; a check the table
    # lets through is called and reports that it ran.
    from linsemi import indexed, normal_cones, semigroup

    def builds(*args):
        pytest.fail("the budget table built something")

    for module, attr in [(indexed, "universe"), (indexed, "lattice"), (normal_cones, "category"),
                         (semigroup, "sing"), (semigroup, "all_endos")]:
        monkeypatch.setattr(module, attr, builds)
    checks = [verify.run_registered(name, lambda p, n: (False, "ran"), p, n) for name, _ in verify.REGISTRY]
    assert {c.name for c in checks if c.witness == "ran"} == RUNS[p, n]
    skips = [c.witness["skipped"] for c in checks if c.passed]
    assert len(skips) == 30 - len(RUNS[p, n]) and all(SKIP_TEXT.fullmatch(text) for text in skips)


def test_algebra_error_fails_the_check_under_a_subcommand(monkeypatch, capsys):
    import linsemi.verify as verify_mod
    from linsemi.errors import ShapeError

    def escapes(p, n):
        raise ShapeError("image escapes the domain of the partial map")

    registry = tuple(
        (name, escapes if name == "lattice.annihilator-antitone" else fn) for name, fn in verify_mod.REGISTRY
    )
    monkeypatch.setattr(verify_mod, "REGISTRY", registry)
    code, out = run(["lattice", "--p", "2", "--n", "2", "--json"], capsys)
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["lattice.annihilator-antitone"] == {
        "name": "lattice.annihilator-antitone",
        "pass": False,
        "witness": {"error": "ShapeError: image escapes the domain of the partial map"},
    }
    assert all(c["pass"] for name, c in checks.items() if name != "lattice.annihilator-antitone")


def test_registry_names_every_public_check_once():
    import linsemi.verify as verify_mod

    names = [name for name, _ in verify_mod.REGISTRY]
    fns = [fn for _, fn in verify_mod.REGISTRY]
    public = {
        obj
        for attr, obj in vars(verify_mod).items()
        if attr.startswith("check_") and getattr(obj, "__module__", None) == verify_mod.__name__
    }
    assert len(set(names)) == len(names)
    assert len(set(fns)) == len(fns)
    assert set(fns) == public


THETA_VERDICTS = {
    "crossconn --p 2 --n 2 --theta 0,1;1,0 --json": ("theta_chi_naturality", "crossconn.chi-naturality"),
    "variant --p 2 --n 2 --theta 1,0;0,0 --json": ("theta_variant_reg", "variant.reg"),
}


@pytest.mark.parametrize("argv", sorted(THETA_VERDICTS))
def test_algebra_error_in_a_theta_verdict_fails_it(argv, monkeypatch, capsys):
    import linsemi.verify as verify_mod
    from linsemi.errors import ShapeError

    def escapes(theta):
        raise ShapeError("image escapes the domain of the partial map")

    attr, name = THETA_VERDICTS[argv]
    monkeypatch.setattr(verify_mod, attr, escapes)
    code, out = run(argv.split(), capsys)
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks[name]["witness"] == {"error": "ShapeError: image escapes the domain of the partial map"}
    assert not checks[name]["pass"]
    assert all(c["pass"] for other, c in checks.items() if other != name)


@pytest.mark.parametrize(
    "p,n,message", [(2, 4, "Cayley table"), (3, 3, "Cayley table"), (2, 5, "exceed limit")]
)
def test_variant_past_the_bound_runs_no_verdict(p, n, message, monkeypatch, capsys):
    import linsemi.verify as verify_mod

    for attr in ("theta_variant_reg", "theta_variant_crossconnection", "theta_nonprincipal_census"):
        monkeypatch.setattr(verify_mod, attr, lambda theta: pytest.fail("ran a verdict past the bound"))
    e11 = ";".join(",".join(str(int(i == j == 0)) for j in range(n)) for i in range(n))
    assert main(["variant", "--p", str(p), "--n", str(n), "--theta", e11]) == 2
    assert message in capsys.readouterr().err


def test_only_run_check_builds_a_check():
    import ast
    import pathlib

    import linsemi

    builders = set()
    for path in pathlib.Path(linsemi.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                calls = [c for c in ast.walk(fn) if isinstance(c, ast.Call)]
                if any(getattr(c.func, "id", getattr(c.func, "attr", None)) == "Check" for c in calls):
                    builders.add(f"{path.stem}.{fn.name}")
    assert builders == {"verify.run_check"}
