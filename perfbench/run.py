"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ann_ivf --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the engine up several times (``setup_s`` is their
median), runs the measured phase untraced and prints every end-to-end
metric.  ``--trace 1`` runs the measured phase once untraced and once
with every entry point of :mod:`perfbench.layers` wrapped, then prints
every per-layer metric, including the tracing overhead.  Either way the
last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A failed correctness check, or a program that cannot be imported, ends
the run with a nonzero exit code and no result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "perfbench" / "workloads.json"
OUT_DIR = ROOT / ".perfbench_out"

# Each of these selects a different program (executor, profiler, kernel
# variant, benchmark scale); they are cleared before the program is
# imported, and recorded.
PINNED_ENV = ("REPRO_EXECUTOR", "REPRO_PROFILE", "REPRO_KERNEL_MODE", "BENCH_SMOKE")
# One BLAS thread: the program is measured as one client on one core,
# independent of how many cores the host has or how busy they are.
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> Dict[str, str]:
    """Clear or set the variables that select the measured program.

    Returns each changed variable with its previous value.
    """
    changed = {}
    for name in PINNED_ENV:
        if name in os.environ:
            changed[name] = os.environ.pop(name)
    for name in BLAS_THREADS:
        if os.environ.get(name) != "1":
            changed[name] = os.environ.get(name, "")
            os.environ[name] = "1"
    return changed


def measured_program() -> Dict[str, Optional[str]]:
    """The git commit, when run in a checkout, and a digest of ``src/``.

    The digest identifies the measured sources even where the checkout
    is not a git repository or has uncommitted changes.
    """
    commit = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=False,
        )
        if out.returncode == 0:
            commit = out.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def write_out(name: str, lines: Sequence[str]) -> Path:
    """Write ``lines`` to ``.perfbench_out/<name>`` inside the checkout."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text("".join(line + "\n" for line in lines))
    return path.relative_to(ROOT)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken inputs for the benchmark's own tests")
    args = parser.parse_args(argv)

    changed = pin_environment()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import numpy

        from perfbench import measure
        from perfbench.layers import per_layer_units
        from perfbench.workloads import WORKLOADS, CheckFailed
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    print("# env " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(), **measured_program(),
        "changed_env": changed, "executor": "serial (thread mode, 1 worker)",
    }))
    tag = f"{cls.name}-{args.seed}"
    try:
        if args.trace:
            wrappers = json.loads(SPEC.read_text())[cls.name]["wrappers"]
            values, attempted, tracer = measure.per_layer(
                cls, args.seed, args.seconds, args.tiny, wrappers)
            units = per_layer_units()
            path = write_out(f"spans-{tag}.jsonl",
                             [json.dumps(span.as_dict(i)) for i, span in enumerate(tracer.spans)])
            print(f"# traced spans: {len(tracer.spans)} written to {path}; "
                  f"fired: {json.dumps(tracer.fired, sort_keys=True)}")
        else:
            workload, engine, rec, setups, logs = measure.run_untraced(
                cls, args.seed, args.seconds, measure.SETUP_REPEATS, args.tiny)
            measure.check(workload, rec)
            values = measure.end_to_end(workload, engine, rec, setups, logs)
            units = measure.END_TO_END_UNITS
            attempted = rec.attempted
            write_out(f"samples-{tag}.json", [json.dumps({
                "setups": setups, "reads": rec.reads, "read_sim_s": rec.read_sim,
                "writes": rec.writes.calls or [c for log in logs for c in log.calls],
                "host_ticks": list(zip(rec.host.ends, rec.host.durations)),
            })])
            raw = [wall for _, _, wall in rec.reads]
            print("# raw setup seconds: " + ", ".join(f"{b - a:.4f}" for a, b in setups))
            print(f"# reads: {len(raw)} (raw wall p50 {measure.percentile(raw, 50) * 1e3:.3f} ms,"
                  f" p99 {measure.percentile(raw, 99) * 1e3:.3f} ms), {len(rec.read_sim)} sim; "
                  f"extra: {json.dumps(rec.extra, sort_keys=True)}")
    except CheckFailed as exc:
        print(f"error: correctness check failed: {exc}", file=sys.stderr)
        return 1
    for name, value in values.items():
        print(f"{name:45s} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
