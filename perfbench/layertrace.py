"""Outside-in layer trace of one `linsemi verify-all` run.

Wraps every public function of linsemi's layer modules, plus a few hot
methods, in a timing wrapper that lives here, not in linsemi. Each wrapper is
rebound in every linsemi namespace and registry that holds the original
object, because the modules import by name (`from .gf import rref`), and
everything is put back afterwards.

Run as a script it is the traced child of the benchmark:

    PYTHONPATH=src python3 perfbench/layertrace.py --p 2 --n 2 --spans out.json

It prints one JSON line with the exit code, the report text, whether every
wrapped object was restored, and the per-layer metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import sys
import time
from collections import defaultdict

from oracle import SEED_CHECKS

LAYERS = ("gf", "subspaces", "semigroup", "normal_cones", "dual", "crossconn", "variants", "verify", "cli")

# (module, class, method) -> span name
HOT_METHODS = {
    ("gf", "Mat", "__matmul__"): "gf.matmul",
    ("semigroup", "Endo", "__matmul__"): "semigroup.endo_matmul",
    ("subspaces", "Subspace", "coords_of"): "subspaces.coords_of",
    ("subspaces", "Subspace", "contains"): "subspaces.contains",
    ("subspaces", "Morphism", "compose"): "subspaces.compose",
}
# Counted only: one call per Endo built.
COUNTED_METHODS = {("semigroup", "Endo", "__post_init__"): "semigroup.endos_built"}

CACHED = ("gf.rref", "gf.rref_with_transform", "dual.h_set", "normal_cones.hom_between")

# Full span records are kept only for these coarse spans; the hot spans are
# aggregated as they close, so memory stays flat at millions of calls.
RECORDED_PREFIXES = ("verify.", "cli.")

# The per-layer metrics the benchmark reports, in the order it prints them.
CALLS = (
    "gf.matmul", "semigroup.endo_matmul", "variants.sandwich", "variants.phi", "dual.globalize",
    "subspaces.coords_of", "subspaces.contains", "normal_cones.cone_compose",
    "normal_cones.validate_cone", "subspaces.compose", "subspaces.inclusion", "gf.rref",
    "gf.kernel_basis",
)
SELF_S = (
    "gf.matmul", "semigroup.endo_matmul", "crossconn.functor_from_global",
    "crossconn.check_chi_naturality", "dual.globalize", "subspaces.coords_of",
    "subspaces.contains", "normal_cones.validate_cone", "semigroup.mult_table", "semigroup.are_isomorphic",
    "semigroup.green_oracle_report", "semigroup.regular_elements", "normal_cones.hom_between",
)


def metric_names() -> list[str]:
    return (
        [f"{name}.calls" for name in CALLS]
        + [f"{name}.self_s" for name in SELF_S]
        + [f"{name}.hit_ratio" for name in CACHED]
        + ["semigroup.mult_table.cells", "semigroup.endos_built"]
        + [f"{layer}.self_s" for layer in LAYERS]
        + [f"verify.{check}.s" for check in SEED_CHECKS]
        + ["cli.emit.s"]
    )


def unit_of(metric: str) -> str:
    stat = metric.rsplit(".", 1)[1]
    if stat == "hit_ratio":
        return "ratio"
    return "count" if stat in ("calls", "cells", "endos_built") else "s"


def _get(container, key):
    if isinstance(container, dict):
        return container[key]
    if isinstance(container, type):
        return container.__dict__[key]  # the function itself, not a bound method
    return getattr(container, key)


def _put(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class Tracer:
    """Installs timing wrappers into the loaded linsemi modules and removes them."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.cells = 0
        self.spans: list[tuple[int, str, int | None, float, float]] = []
        self._child_s = [0.0]  # time covered by closed child spans, per open span
        self._open: list[int] = []  # ids of the open recorded spans
        self.slots: list[tuple[object, object, object]] = []  # (container, key, original)
        self.originals: dict[str, object] = {}

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        child_s, open_ids, spans = self._child_s, self._open, self.spans
        clock = time.perf_counter
        record = name.startswith(RECORDED_PREFIXES)
        is_table = name == "semigroup.mult_table"
        tracer = self

        def traced(*args, **kwargs):
            calls[name] += 1
            if is_table:
                tracer.cells += len(args[0]) ** 2
            if record:
                span_id = len(spans)
                spans.append((span_id, name, open_ids[-1] if open_ids else None, 0.0, 0.0))
                open_ids.append(span_id)
            child_s.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                self_s[name] += duration - child_s.pop()
                total_s[name] += duration
                child_s[-1] += duration
                if record:
                    open_ids.pop()
                    spans[span_id] = (span_id, name, spans[span_id][2], start, end)

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- install / restore ------------------------------------------------

    def _set(self, container, key, value) -> None:
        self.slots.append((container, key, _get(container, key)))
        _put(container, key, value)

    def install(self) -> None:
        """Wrap and rebind; call restore() in a finally block."""
        import linsemi.cli  # noqa: F401  loads every layer module
        import linsemi.verify as verify

        modules = {m: importlib.import_module(f"linsemi.{m}") for m in LAYERS}
        by_id: dict[int, object] = {}
        names: dict[int, str] = {}
        for check_name, fn in verify.REGISTRY:
            names[id(fn)] = f"verify.{check_name}"
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = names.setdefault(id(obj), f"{layer}.{attr}")
                self.originals[name] = obj
                by_id[id(obj)] = self._wrap(name, obj)

        for (layer, cls_name, method), name in {**HOT_METHODS, **COUNTED_METHODS}.items():
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[method]
            self.originals[name] = original
            make = self._count if name in COUNTED_METHODS.values() else self._wrap
            self._set(cls, method, make(name, original))

        # Rebind in every namespace and container that holds an original.
        namespaces = [m for key, m in sys.modules.items() if key == "linsemi" or key.startswith("linsemi.")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if id(obj) in by_id:
                    self._set(module, attr, by_id[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in by_id:
                            self._set(obj, key, by_id[id(value)])
                elif isinstance(obj, tuple) and any(
                    isinstance(item, tuple) and any(id(x) in by_id for x in item) for item in obj
                ):
                    rebound = tuple(
                        tuple(by_id.get(id(x), x) for x in item) if isinstance(item, tuple) else item
                        for item in obj
                    )
                    self._set(module, attr, rebound)

    def restore(self) -> None:
        for container, key, original in reversed(self.slots):
            _put(container, key, original)

    def restored(self) -> bool:
        """True when every slot install() rebound holds its original object again."""
        return all(_get(container, key) is original for container, key, original in self.slots)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in CALLS:
            out[f"{name}.calls"] = self.calls[name]
        for name in SELF_S:
            out[f"{name}.self_s"] = self.self_s[name]
        for name in CACHED:
            info = self.originals[name].cache_info() if name in self.originals else None
            looked_up = info.hits + info.misses if info else 0
            out[f"{name}.hit_ratio"] = info.hits / looked_up if looked_up else 0.0
        out["semigroup.mult_table.cells"] = self.cells
        out["semigroup.endos_built"] = self.calls["semigroup.endos_built"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s for name, s in self.self_s.items() if name.split(".", 1)[0] == layer
            )
        for check in SEED_CHECKS:
            out[f"verify.{check}.s"] = self.total_s[f"verify.{check}"]
        out["cli.emit.s"] = self.total_s["cli.emit"]
        return out


def traced_verify_all(p: int, n: int) -> tuple[int, str, bool, Tracer]:
    """Run `verify-all --p P --n N --json` in-process under the tracer."""
    import linsemi.cli as cli

    tracer = Tracer()
    buf = io.StringIO()
    try:
        tracer.install()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["verify-all", "--p", str(p), "--n", str(n), "--json"])
    finally:
        tracer.restore()
    return rc, buf.getvalue(), tracer.restored(), tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--p", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--spans", required=True, help="file to write the recorded spans to")
    args = parser.parse_args(argv)
    rc, report, restored, tracer = traced_verify_all(args.p, args.n)
    with open(args.spans, "w") as fh:
        json.dump(
            [dict(zip(("id", "name", "parent", "start", "end"), span)) for span in tracer.spans], fh
        )
    print(json.dumps({"rc": rc, "report": report, "restored": restored, "metrics": tracer.metrics()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
