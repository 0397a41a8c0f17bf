"""Machine-speed probe: a fixed kernel timed in a process of its own.

Usage (``run.py`` starts it right before and right after every timed child):

    python3 perfbench/calibrate.py --kernel field|grid --threads N

Prints one JSON line ``{"cal_s": seconds, "cal_threads": N}``.  ``field``
is elementwise numpy, shaped like the velocity evaluation of the Born
units; ``grid`` is a sparse LU factorization and solves on a 128x128 grid,
memory-bound like the 2-D sweep.  It never
imports stochaction, so nothing the program under test leaves running in
its own process can slow the kernel down; ``run.py`` rescales unit and
set-up timings by the kernel's time.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor


def calibrate(threads: int = 1, rounds: int = 2000) -> float:
    """Seconds for a fixed numpy kernel shaped like the velocity evaluation.

    It uses no BLAS, so its time tracks only how fast the machine runs at
    that moment.  With ``threads`` > 1 the rounds are shared by that many
    threads, which then contend for the interpreter lock as a threaded unit
    does.
    """
    import numpy as np

    x = np.linspace(0.0, 2.0 * np.pi, 1024)
    q = np.linspace(-0.2, 0.2, 1024)
    c = np.array([0.7, 0.5 + 0.1j, 0.3j])[:, None]
    mu = np.array([-1.0, 0.0, 1.0])[:, None]

    def kernel(n):
        for _ in range(n):
            z = np.exp(1j * x)
            u = np.stack([np.conj(z), np.ones_like(z), z])
            shift = q[None, :] - mu
            psi = np.sum(c * np.exp(-0.5 * shift * shift / 0.005) * u, axis=0)
            np.abs(psi) ** 2

    started = time.perf_counter()
    if threads == 1:
        kernel(rounds)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(kernel, [rounds // threads] * threads))
    return time.perf_counter() - started


def calibrate_grid(n: int = 128, solves: int = 20) -> float:
    """Seconds to factorize a fixed sparse complex operator and step with it.

    Its factors take tens of MB, as the sweep's do, so its time tracks how
    fast the shared caches and memory serve at that moment.
    """
    import numpy as np
    from scipy.sparse import diags, identity, kron
    from scipy.sparse.linalg import splu

    d = diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    e = identity(n)
    lap = kron(d, e) + kron(e, d) + 0.1 * kron(d, d)
    started = time.perf_counter()
    lu = splu((identity(n * n) + 0.01j * lap).tocsc())
    rhs = (identity(n * n) - 0.01j * lap).tocsr()
    v = np.ones(n * n, dtype=complex)
    for _ in range(solves):
        v = lu.solve(rhs @ v)
    return time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kernel", choices=("field", "grid"), default="field")
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    cal_s = calibrate(args.threads) if args.kernel == "field" else calibrate_grid()
    print(json.dumps({"cal_s": cal_s, "cal_threads": args.threads}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
