"""End-to-end benchmark of `linsemi verify-all`: time to a checked verdict.

    python3 perfbench/run.py --workload full-p2n2 --seed 1 --seconds 40 --trace 0

Run from anywhere; the repository is the parent of this file's directory, and
the children import linsemi from its `src` directory, never from an installed
package. A workload is a closed loop with one client: each child is a fresh
`python -m linsemi.cli verify-all --p P --n N --json` process, started when
the previous one has exited, for `--seconds` seconds (at least one child).
The seed is the children's PYTHONHASHSEED; the report bytes must not depend
on it.

Each child is timed from outside, from spawn to exit, with its CPU time and
peak RSS from wait4. Its report is checked against closed forms computed
here (oracle.py) and classified as verified, skipped, partial or failed. A
child that exits nonzero or whose report does not parse fails all 30 checks.

With `--trace 0` the last line of stdout carries the end-to-end metrics.
With `--trace 1` the untraced loop runs as well, then one traced child
(layertrace.py) gives the per-layer metrics, whose report bytes must equal
the untraced ones. Full results, spans and provenance go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from layertrace import metric_names, unit_of
from oracle import classify

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Sizes whose `verify-all` fits a run of about a minute; (3,2) and (2,3)
# take 70 s to 150 s per child and do not. On a shared 2-CPU machine whose
# CPU speed drifts by up to 2x for tens of seconds, the medians of 40 s
# runs still differ by 10-13% (interquartile range over ten seeds).
WORKLOADS = {
    "full-p2n2": (2, 2),  # all 30 checks run, none skipped or capped; pairwise products dominate
    "enum-p2n4": (2, 4),  # 65 536-element universe, 20 checks skip; RREF of distinct fresh matrices
}

SETUP_CODE = (
    "import sys\n"
    "from linsemi import normal_cones, semigroup, subspaces\n"
    "n, p = int(sys.argv[1]), int(sys.argv[2])\n"
    "semigroup.all_endos(n, p)\n"
    "semigroup.sing(n, p)\n"
    "subspaces.enumerate_subspaces(n, p)\n"
    "normal_cones.category(n, p)\n"
)
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 5.0
# A child still running this long after the run started is killed and its
# checks count as failed, so a run always ends inside the 180 s it is given.
RUN_DEADLINE_S = 170.0


@dataclass
class Child:
    stdout: bytes
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(argv: list[str], env: dict, log: Path, deadline: float) -> Child:
    """Run one child to exit; time it from spawn to exit and read its rusage."""
    start = time.perf_counter()
    with open(log, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        guard = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        guard.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            guard.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(out, proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    ordered = sorted(values)
    k = len(ordered) - 10
    return f"p{100 * k // len(ordered)} {ordered[k - 1]:.6g}" if k >= 1 else "no tail (10 or fewer)"


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="linsemi verify-all benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "linsemi" / "cli.py").is_file():
        print(f"error: no linsemi sources under {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    p, n = WORKLOADS[args.workload]
    hash_seed = str(args.seed % 2**32)
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    log = OUT / f"{tag}.stderr"
    py = sys.executable

    # Compile the .pyc files once, untimed: users of an installed package do
    # not pay for that on every run.
    spawn([py, "-c", "import linsemi.cli"], env, log, deadline)

    setup: list[float] = []
    errors: list[str] = []
    if args.trace == 0:
        t0 = time.monotonic()
        while len(setup) < SETUP_MIN or (len(setup) < SETUP_MAX and time.monotonic() - t0 < SETUP_BUDGET_S):
            child = spawn([py, "-c", SETUP_CODE, str(n), str(p)], env, log, deadline)
            if child.returncode != 0:
                errors.append(f"set-up child exited {child.returncode}, see {log}")
            setup.append(child.wall_s)

    cmd = [py, "-m", "linsemi.cli", "verify-all", "--p", str(p), "--n", str(n), "--json"]
    children: list[Child] = []
    t0 = time.monotonic()
    while not children or time.monotonic() - t0 < args.seconds:
        children.append(spawn(cmd, env, log, deadline))
    window_s = time.monotonic() - t0

    verdicts = [classify(c.stdout, c.returncode, p, n) for c in children]
    reports = {c.stdout for c in children}
    errors += sorted({e for v in verdicts for e in v.errors})
    if len(reports) > 1:
        errors.append(f"{len(reports)} different report byte strings under one hash seed")
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(len(v.failed) for v in verdicts)
    wall = [c.wall_s for c in children]
    report_sha = hashlib.sha256(children[0].stdout).hexdigest()
    reference = json.loads((BENCH_DIR / "reference_digests.json").read_text()).get(f"p{p}n{n}")
    scope = verdicts[0].summary()

    result = {
        "workload": args.workload,
        "command": cmd[1:],
        "provenance": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": commit(),
            "hash_seed": hash_seed,
            "report_sha256": report_sha,
            "reference_sha256": reference,
            "report_matches_reference": report_sha == reference,
        },
        "window_s": window_s,
        "samples": {
            "verify_s": wall,
            "verify_cpu_s": [c.cpu_s for c in children],
            "peak_rss_mb": [c.rss_mb for c in children],
            "setup_s": setup,
        },
        "scope": scope,
        "errors": errors,
    }

    if args.trace == 0:
        metrics = {
            "verify_s": (statistics.median(wall), "s"),
            "verify_cpu_s": (statistics.median(c.cpu_s for c in children), "s"),
            "peak_rss_mb": (statistics.median(c.rss_mb for c in children), "MB"),
            "setup_s": (statistics.median(setup), "s"),
            "checks_verified": (min(v.verified for v in verdicts), "count"),
        }
    else:
        spans = OUT / f"{tag}.spans.json"
        traced = spawn(
            [py, str(BENCH_DIR / "layertrace.py"), "--p", str(p), "--n", str(n), "--spans", str(spans)],
            env,
            log,
            deadline,
        )
        try:
            trace = json.loads(traced.stdout.decode().splitlines()[-1])
            traced_report = trace["report"].encode()
        except (ValueError, IndexError, KeyError) as exc:
            trace, traced_report = {"rc": traced.returncode, "restored": False, "metrics": {}}, b""
            errors.append(f"traced child gave no result ({exc!r}), see {log}")
        verdict = classify(traced_report, trace["rc"] if traced.returncode == 0 else traced.returncode, p, n)
        attempted += verdict.attempted
        failed += len(verdict.failed)
        errors.extend(f"traced: {e}" for e in verdict.errors)
        if traced_report != children[0].stdout:
            errors.append("traced report bytes differ from the untraced report")
        if not trace["restored"]:
            errors.append("a wrapped attribute was not restored after the traced run")
        metrics = {name: (trace["metrics"].get(name, 0), unit_of(name)) for name in metric_names()}
        metrics["trace.overhead_s"] = (traced.wall_s - statistics.median(wall), "s")
        result["trace"] = {"wall_s": traced.wall_s, "spans": str(spans.relative_to(ROOT))}

    correct = failed == 0 and not errors
    result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n")

    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    print(f"{args.workload}: verify-all --p {p} --n {n}, hash seed {hash_seed}, "
          f"{len(children)} runs in {window_s:.1f} s")
    for name, (value, unit) in metrics.items():
        samples = result["samples"].get(name) if unit == "s" else None
        spread = f"median of {len(samples)}, {tail(samples)}" if samples else ""
        print(f"  {name:48} {value:>14.6g} {unit:6} {spread}")
    print(f"  scope {json.dumps(scope)}")
    print(f"  provenance {json.dumps(result['provenance'])}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
