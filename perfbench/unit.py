"""One benchmark child process: a set-up probe or one timed unit.

Usage (``run.py`` starts it; it is not meant to be run by hand):

    python3 perfbench/unit.py setup --src SRC --workload W --seed N
    python3 perfbench/unit.py unit  --src SRC --workload W --seed N --work DIR [--trace]

Prints one JSON line.  A set-up probe records the moment the run is ready
to start, so that moment minus the parent's spawn time is the set-up time
of a fresh interpreter.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time
from pathlib import Path


def _import_package(src: Path) -> float:
    """Import stochaction and its CLI from ``src`` only; returns the import time."""
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import stochaction
    import stochaction.cli  # noqa: F401  (not imported by the package itself)
    elapsed = time.perf_counter() - started
    if Path(stochaction.__file__).resolve().parent != (src / "stochaction").resolve():
        raise SystemExit(f"stochaction was imported from {stochaction.__file__}, not {src}")
    return elapsed


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports (read only)."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line and line.rstrip().endswith(".so")}
    except OSError:
        return found
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = int(fn())
                break
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "unit"))
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, help="write the unit's spans here")
    args = parser.parse_args(argv)

    import_s = _import_package(args.src)
    import workloads

    if args.mode == "setup":
        workloads.setup(args.workload, args.seed)
        # CLOCK_MONOTONIC is system-wide, so the parent can subtract its spawn time
        ready_at = time.monotonic()
        print(json.dumps({"ready_at": ready_at, "import_s": import_s}), flush=True)
        return 0

    import tracing

    tracer = tracing.Tracer() if args.trace else None
    uninstall = tracing.instrument(tracer) if tracer else None
    cpu0 = _cpu_s()
    started = time.perf_counter()
    root = tracer.begin("unit") if tracer else None
    try:
        raw = workloads.run_unit(args.workload, args.seed, args.work)
    finally:
        if tracer:
            tracer.end(root)
    wall = time.perf_counter() - started
    cpu = _cpu_s() - cpu0
    if uninstall:
        uninstall()

    result = workloads.check_unit(args.workload, raw, args.work)
    result.update(wall_s=wall, cpu_s=cpu, import_s=import_s,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counters, import_s)
        bad = tracing.nesting_violations(tracer.spans)
        result["checks"]["trace_spans_nested"] = not bad
        if args.spans:
            args.spans.write_text(json.dumps({"spans": tracer.spans,
                                              "counters": tracer.counters}))
    else:
        result["blas_threads"] = blas_threads()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
