"""Tests of the benchmark itself, at (2,2), where verify-all takes about 1.5 s.

    python3 -m pytest perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import sys
import time

import pytest

from layertrace import HOT_METHODS, COUNTED_METHODS, traced_verify_all
from oracle import SEED_CHECKS, classify
from run import BENCH_DIR, OUT, SRC, spawn

sys.path.insert(0, str(SRC))

P, N = 2, 2
ENV = {"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}


def _spawn(argv: list[str]):
    OUT.mkdir(exist_ok=True)
    return spawn([sys.executable, *argv], ENV, OUT / "test.stderr", time.monotonic() + 120)


@pytest.fixture(scope="module")
def untraced_report() -> bytes:
    child = _spawn(["-m", "linsemi.cli", "verify-all", "--p", str(P), "--n", str(N), "--json"])
    assert child.returncode == 0
    return child.stdout


def _traced_child() -> dict:
    child = _spawn([str(BENCH_DIR / "layertrace.py"), "--p", str(P), "--n", str(N),
                    "--spans", str(OUT / "test.spans.json")])
    assert child.returncode == 0
    return json.loads(child.stdout.decode().splitlines()[-1])


def _bindings() -> dict:
    """Every object a linsemi namespace, registry or hot class slot holds now."""
    out = {}
    for key, module in list(sys.modules.items()):
        if key == "linsemi" or key.startswith("linsemi."):
            for attr, obj in vars(module).items():
                out[(key, attr)] = obj
                if isinstance(obj, dict) and attr != "__builtins__":
                    out.update({(key, attr, k): v for k, v in obj.items()})
                if isinstance(obj, tuple):
                    out.update({(key, attr, i): v for i, v in enumerate(obj)})
    for layer, cls, method in [*HOT_METHODS, *COUNTED_METHODS]:
        out[(layer, cls, method)] = vars(getattr(sys.modules[f"linsemi.{layer}"], cls))[method]
    return out


def test_traced_report_equals_untraced(untraced_report):
    trace = _traced_child()
    assert trace["rc"] == 0 and trace["restored"]
    assert trace["report"].encode() == untraced_report


def test_every_wrapped_attribute_is_restored():
    import linsemi.cli  # noqa: F401

    before = _bindings()
    rc, _, restored, tracer = traced_verify_all(P, N)
    after = _bindings()
    assert rc == 0 and restored and tracer.slots
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())


def test_call_counts_repeat_exactly():
    first, second = _traced_child()["metrics"], _traced_child()["metrics"]
    counts = [k for k in first if k.endswith((".calls", ".cells", ".endos_built"))]
    assert counts and all(first[k] > 0 for k in counts)
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def _doctored(report: bytes, name: str, witness) -> bytes:
    data = json.loads(report)
    for check in data["checks"]:
        if check["name"] == name:
            check["witness"] = witness
    return json.dumps(data).encode()


def test_seed_report_is_all_verified(untraced_report):
    verdict = classify(untraced_report, 0, P, N)
    assert verdict.summary()["checks_verified"] == len(SEED_CHECKS)
    assert not verdict.errors


@pytest.mark.parametrize("name", ["semigroup.order-formula", "cones.table-isomorphic", "dual.table-op"])
def test_oracle_rejects_order_off_by_one(untraced_report, name):
    witness = json.loads(untraced_report)["checks"][SEED_CHECKS.index(name)]["witness"]
    report = _doctored(untraced_report, name, dict(witness, order=witness["order"] + 1))
    verdict = classify(report, 0, P, N)
    assert verdict.failed == [name]


def test_classifier_counts_doctored_skip(untraced_report):
    report = _doctored(untraced_report, "dual.naturality", {"skipped": "doctored"})
    summary = classify(report, 0, P, N).summary()
    assert (summary["checks_skipped"], summary["checks_verified"]) == (1, len(SEED_CHECKS) - 1)
    assert summary["scope_items"] < classify(untraced_report, 0, P, N).scope_items


def test_broken_runs_fail_every_check(untraced_report):
    data = json.loads(untraced_report)
    data["checks"] = data["checks"][1:]
    for report, rc in ((untraced_report, 1), (b"Traceback", 0), (json.dumps(data).encode(), 0)):
        assert len(classify(report, rc, P, N).failed) == len(SEED_CHECKS)
