"""Closed-form oracle and scope classifier for `linsemi verify-all` reports.

Everything here is computed from (p, n) alone, independently of linsemi, so a
report that drifts from the mathematics is caught even when linsemi's own
checks agree with themselves.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

# The check names of the registry as it stood when this benchmark was
# defined, in registry order. A report that lacks one of them, or lists them
# in another order, fails every check of its run.
SEED_CHECKS = (
    "lattice.subspace-counts",
    "lattice.complement-counts",
    "lattice.annihilator-involution",
    "lattice.annihilator-antitone",
    "lattice.inclusion-splitting",
    "semigroup.order-formula",
    "semigroup.green-oracle",
    "semigroup.idempotents",
    "semigroup.sing-regular",
    "cones.factorization",
    "cones.principal-roundtrip",
    "cones.compose-homomorphism",
    "cones.idempotent-law",
    "cones.census",
    "cones.table-isomorphic",
    "dual.hfunctor-determined",
    "dual.mset-characterizations",
    "dual.object-count",
    "dual.table-op",
    "dual.naturality",
    "crossconn.gl-batch",
    "crossconn.chi-naturality",
    "crossconn.linked-semigroup",
    "crossconn.scalar-invariance",
    "crossconn.classification",
    "variant.reg-closed",
    "variant.phi-homomorphism",
    "variant.membership-laws",
    "variant.crossconnection",
    "variant.nonprincipal-excess",
)

# Witness counters that say how many items a check really went through.
SCOPE_COUNTERS = (
    "pairs_checked",
    "squares_checked",
    "squares",
    "automorphisms",
    "thetas",
    "kernels_checked",
)


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of GF(p)^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def gl_order(n: int, p: int) -> int:
    out = 1
    for i in range(n):
        out *= p**n - p**i
    return out


def expected_witnesses(p: int, n: int) -> dict[str, tuple[str, object]]:
    """Check name -> (witness key, value the closed form gives)."""
    sing = p ** (n * n) - gl_order(n, p)
    per_dim = [gaussian_binomial(n, k, p) for k in range(n + 1)]
    idempotents = sum(per_dim[k] * p ** (k * (n - k)) for k in range(n + 1))
    return {
        "semigroup.order-formula": ("order", sing),
        "lattice.subspace-counts": ("per_dim", per_dim),
        "semigroup.idempotents": ("count", idempotents),
        "dual.object-count": ("objects", sum(per_dim) - 1),
        "semigroup.sing-regular": ("regular", sing),
        "cones.table-isomorphic": ("order", sing),
        "dual.table-op": ("order", sing),
        "cones.census": ("valid", sing),
        "crossconn.classification": ("count", gl_order(n, p) // (p - 1)),
    }


@dataclass
class Verdict:
    """What one report says, check by check, once the oracle has read it."""

    attempted: int
    failed: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    partial: list[str] = field(default_factory=list)
    scope_items: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def verified(self) -> int:
        """Checks that passed in full: not failed, not skipped, not capped."""
        return self.attempted - len(set(self.failed) | set(self.skipped) | set(self.partial))

    def summary(self) -> dict:
        return {
            "checks_attempted": self.attempted,
            "checks_failed": len(self.failed),
            "checks_failed_share": len(self.failed) / self.attempted,
            "checks_skipped": len(self.skipped),
            "checks_partial": len(self.partial),
            "checks_verified": self.verified,
            "scope_items": self.scope_items,
        }


def _all_failed(reason: str) -> Verdict:
    return Verdict(len(SEED_CHECKS), failed=list(SEED_CHECKS), errors=[reason])


def classify(report: bytes, returncode: int, p: int, n: int) -> Verdict:
    """Classify every seed check of one `verify-all --json` report.

    A check fails when its `pass` is false, when its witness contradicts the
    closed form, or when it is missing. A run that exited nonzero, whose
    report does not parse, or whose check names differ from SEED_CHECKS
    fails all of its checks.
    """
    if returncode != 0:
        return _all_failed(f"exit code {returncode}")
    try:
        data = json.loads(report)
        checks = data["checks"]
        names = tuple(c["name"] for c in checks)
    except (ValueError, KeyError, TypeError) as exc:
        return _all_failed(f"report does not parse: {exc!r}")
    if data.get("command") != "verify-all" or data.get("params") != {"p": p, "n": n}:
        return _all_failed(f"report is for {data.get('command')} {data.get('params')}")
    if names != SEED_CHECKS:
        missing = [c for c in SEED_CHECKS if c not in names]
        return _all_failed(f"check names differ from the seed registry (missing {missing})")
    oracle = expected_witnesses(p, n)
    verdict = Verdict(len(SEED_CHECKS))
    for check in checks:
        name, witness = check["name"], check["witness"]
        extent = witness if isinstance(witness, dict) else {}
        if "skipped" in extent:
            verdict.skipped.append(name)
        elif extent.get("capped") is True:
            verdict.partial.append(name)
        verdict.scope_items += sum(
            extent[k] for k in SCOPE_COUNTERS if isinstance(extent.get(k), int)
        )
        if check["pass"] is not True:
            verdict.failed.append(name)
            verdict.errors.append(f"{name}: pass is {check['pass']!r}")
        elif name in oracle and "skipped" not in extent:
            key, want = oracle[name]
            if extent.get(key) != want:
                verdict.failed.append(name)
                verdict.errors.append(f"{name}: {key} is {extent.get(key)!r}, closed form gives {want!r}")
    return verdict
