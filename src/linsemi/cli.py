"""Command-line front end: batch verifications with stable exit codes.

Exit 0 means every check passed, 1 means some verification failed (the
report names it), 2 means the input was invalid. Output is
deterministic for fixed arguments; wall-clock timing is only included
when asked for, since the default report must be byte-stable.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from . import crossconn as cx
from . import semigroup as sg
from . import subspaces as sub
from . import variants as va
from . import verify
from .errors import AlgebraError
from .gf import is_prime, mat_to_text, parse_mat
from .subspaces import SubspaceFilter
from .verify import Check


@dataclass
class Report:
    command: str
    params: dict
    checks: list[Check] = field(default_factory=list)
    elapsed_ms: int = 0
    listing: list[str] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "checks": [c.to_json() for c in self.checks],
            "elapsed_ms": self.elapsed_ms,
        }


def emit(report: Report, fmt: str) -> bytes:
    """Render a report as UTF-8 bytes, JSON or line-per-check text."""
    if fmt == "json":
        return (json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n").encode()
    lines = list(report.listing)
    for c in report.checks:
        lines.append(f"{'PASS' if c.passed else 'FAIL'} {c.name}")
        if not c.passed and c.witness is not None:
            lines.append(f"  counterexample: {c.witness}")
    lines.append(f"checks: {sum(c.passed for c in report.checks)}/{len(report.checks)} passed")
    return ("\n".join(lines) + "\n").encode()


def _require_params(p: int, n: int) -> None:
    if not is_prime(p):
        raise ValueError(f"--p must be prime, got {p}")
    if p > 7:
        raise ValueError("--p is limited to primes up to 7")
    if not 1 <= n <= 5:
        raise ValueError("--n is limited to 1..5")


def _parse_theta(text: str, p: int, n: int) -> sg.Endo:
    mat = parse_mat(text, p)
    if mat.nrows != n or mat.ncols != n:
        raise ValueError(f"--theta must be {n}x{n}, got {mat.nrows}x{mat.ncols}")
    return sg.Endo(mat)


# Registry checks a subcommand runs only when its flag asks for them.
OPT_IN = {"cones.census": "census", "crossconn.classification": "classify"}


def _registry_checks(args, group: str, defaults: bool) -> list[Check]:
    """The group's registry checks in registry order, flagged opt-in checks last."""
    members = [(name, fn) for name, fn in verify.REGISTRY if name.startswith(group + ".")]
    chosen = [(name, fn) for name, fn in members if defaults and name not in OPT_IN]
    chosen += [(name, fn) for name, fn in members if name in OPT_IN and getattr(args, OPT_IN[name])]
    return [verify.run_check(name, fn, args.p, args.n) for name, fn in chosen]


def cmd_lattice(args) -> Report:
    report = Report("lattice", {"p": args.p, "n": args.n})
    spaces = sub.enumerate_subspaces(args.n, args.p, SubspaceFilter.ALL)
    for a in spaces:
        rows = mat_to_text(a.basis) if a.dim else "-"
        report.listing.append(f"dim {a.dim}: {rows}")
    report.listing.append(f"subspaces: {len(spaces)}")
    report.checks = _registry_checks(args, "lattice", True)
    return report


def cmd_semigroup(args) -> Report:
    return Report("semigroup", {"p": args.p, "n": args.n}, _registry_checks(args, "semigroup", True))


def cmd_cones(args) -> Report:
    return Report("cones", {"p": args.p, "n": args.n}, _registry_checks(args, "cones", True))


def cmd_dual(args) -> Report:
    return Report("dual", {"p": args.p, "n": args.n}, _registry_checks(args, "dual", True))


def cmd_crossconn(args) -> Report:
    params = {"p": args.p, "n": args.n}
    if args.theta:
        params["theta"] = args.theta
    report = Report("crossconn", params)
    if args.theta:
        theta = _parse_theta(args.theta, args.p, args.n)
        gamma, delta = cx.gamma_delta_theta(theta)
        verdict = cx.is_crossconnection(gamma)
        report.checks.append(Check("crossconn.is-crossconnection", verdict.ok, verdict.failure))
        chi_rep = cx.check_chi_naturality(theta, gamma, delta)
        report.checks.append(
            Check("crossconn.chi-naturality", chi_rep.ok, {"squares": chi_rep.squares_checked})
        )
        linked = cx.linked_pair_semigroup(theta)
        report.checks.append(
            Check("crossconn.linked-semigroup", linked.matches_sing, {"order": linked.table.order})
        )
        recovered = cx.recover_theta(delta)
        report.checks.append(
            Check(
                "crossconn.recover-roundtrip",
                recovered == cx.canonical_scalar_rep(theta),
                mat_to_text(recovered.mat),
            )
        )
    report.checks += _registry_checks(args, "crossconn", not args.theta)
    return report


def cmd_variant(args) -> Report:
    params = {"p": args.p, "n": args.n, "theta": args.theta}
    report = Report("variant", params)
    theta = _parse_theta(args.theta, args.p, args.n)
    ctx = va.make_variant(theta)
    run_all_groups = not (args.reg or args.cxn or args.census)
    if args.reg or run_all_groups:
        reg, _ = va.reg_variant(ctx)
        reg_set = set(reg)
        closed = all(va.sandwich(a, b, ctx) in reg_set for a in reg for b in reg)
        report.checks.append(Check("variant.reg", closed, {"reg_size": len(reg)}))
    if args.cxn or run_all_groups:
        cxn = va.variant_crossconnection(ctx)
        witness = {
            "reg_size": cxn.reg_size,
            "invertible": cxn.invertible,
            "carrier_sizes": [len(va.tr_elements(ctx)), len(va.tb_elements(ctx))],
        }
        if not cxn.invertible:
            verdicts = (("delta", cxn.delta_verdict), ("gamma", cxn.gamma_verdict))
            witness.update({f"{side}_failure": v.failure for side, v in verdicts if not v.ok})
        if cxn.phi_table_matches:  # the identity carries the variant table onto the pair table
            witness["iso_witness"] = list(range(cxn.reg_size))
        report.checks.append(Check("variant.crossconnection", cxn.ok, witness))
    if args.census or run_all_groups:
        census = va.nonprincipal_cones(ctx)
        invertible = theta.inverse() is not None
        zero = all(x == 0 for x in theta.mat.flat())
        expected_excess = not invertible and not zero
        ok = (len(census.excess) >= 1) == expected_excess
        witness = {
            "carrier": census.carrier_size,
            "principal": census.principal_size,
            "excess": len(census.excess),
        }
        if census.example is not None:
            witness["example"] = mat_to_text(census.example.mat)
        report.checks.append(Check("variant.nonprincipal-census", ok, witness))
    return report


def cmd_verify_all(args) -> Report:
    report = Report("verify-all", {"p": args.p, "n": args.n})
    report.checks = verify.run_all(args.p, args.n)
    return report


COMMANDS = {
    "lattice": cmd_lattice,
    "semigroup": cmd_semigroup,
    "cones": cmd_cones,
    "dual": cmd_dual,
    "crossconn": cmd_crossconn,
    "variant": cmd_variant,
    "verify-all": cmd_verify_all,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linsemi",
        description="Exact verifications for singular linear transformation semigroups.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=int, default=2, help="field characteristic (prime <= 7)")
        sp.add_argument("--n", type=int, default=2, help="ambient dimension (1..5)")
        sp.add_argument("--json", action="store_true", help="emit the JSON report")
        sp.add_argument(
            "--timing", action="store_true", help="include wall-clock time (breaks byte determinism)"
        )

    common(subparsers.add_parser("lattice", help="subspace lattice listing and checks"))
    common(subparsers.add_parser("semigroup", help="Green's relations and idempotent checks"))
    cones = subparsers.add_parser("cones", help="normal factorization and cone checks")
    common(cones)
    cones.add_argument("--census", action="store_true", help="run the brute-force cone census")
    common(subparsers.add_parser("dual", help="annihilator duality checks"))
    cross = subparsers.add_parser("crossconn", help="cross-connection checks")
    common(cross)
    cross.add_argument("--theta", type=str, default=None, help='matrix like "0,1;1,0"')
    cross.add_argument("--classify", action="store_true", help="run the classification census")
    variant = subparsers.add_parser("variant", help="sandwich variant checks")
    common(variant)
    variant.add_argument("--theta", type=str, required=True, help='matrix like "1,0;0,0"')
    variant.add_argument("--reg", action="store_true", help="regular part checks only")
    variant.add_argument("--cxn", action="store_true", help="cross-connection checks only")
    variant.add_argument("--census", action="store_true", help="non-principal cone census only")
    vall = subparsers.add_parser("verify-all", help="run the full check registry")
    common(vall)
    vall.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; has no effect, checks run one after another",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    started = time.monotonic()
    try:
        _require_params(args.p, args.n)
        report = COMMANDS[args.command](args)
    except (ValueError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.timing:
        report.elapsed_ms = int((time.monotonic() - started) * 1000)
    fmt = "json" if args.json else "text"
    sys.stdout.write(emit(report, fmt).decode())
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
