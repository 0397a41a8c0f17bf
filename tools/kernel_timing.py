"""Per-call time of the Born velocity kernel, optionally against a git revision.

Times ``ModeFlow.effective(points, t, with_density=True)``, the call an RK4
stage makes, on the 3-mode state of ``examples/born.json`` at 64, 1024 and
4096 rows.  The rows sample that state's joint density at ``t = 0.3 t_M``:
ring angles uniform, pointers from the Gaussian mixture of the moving packets.
They are laid out as ``integrate_ensemble`` hands points to the flow: the
``(n, 2)`` view of component-major rows.  Each measurement runs in a fresh
interpreter and reports, per row count, the median over repeats of the mean
time per call:

    python3 tools/kernel_timing.py                  # the working tree alone
    python3 tools/kernel_timing.py --against HEAD   # working tree and HEAD

``--against REV`` extracts ``src/`` at REV with ``git archive`` into a
temporary directory through ``tools/revision.py``, as
``tools/result_hashes.py --against`` does (a revision git cannot archive
exits 2 with git's message), and alternates fresh interpreters on the
working tree and on REV (the side that runs first flips every round).  It
prints each side's median over the rounds and the ratio REV / working tree,
which is above 1 where the working tree is faster.  No tracer wraps the
calls, so this is the kernel-layer figure without perfbench's span
overhead.
"""
from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))   # also when loaded by path
from revision import ROOT, fresh_json, src_at  # noqa: E402

ROWS = (64, 1024, 4096)
ROUNDS = 5
REPEATS = 7
# calls per repeat: about 10 ms of kernel time at a few tens of ns per row
CALL_ROWS = 2**18


def measure() -> dict:
    """Median microseconds per kernel call at each of ``ROWS``, on the package imported."""
    import timeit

    import numpy as np
    from stochaction import parse_config
    from stochaction.rng import stream
    from stochaction.trajectories import ModeFlow

    cfg = parse_config((ROOT / "examples" / "born.json").read_text())
    physical = cfg.physical()
    flow = ModeFlow(cfg.state().prepare(physical, cfg.grid()), physical.g)
    t = flow.t0 + 0.3 * physical.t_M
    weights = np.abs(flow.coeffs) ** 2
    r = stream(7)
    out = {}
    for n in ROWS:
        packet = r.choice(len(weights), size=n, p=weights / weights.sum())
        points = np.stack([r.uniform(0.0, 2 * np.pi, n),
                           flow.centers(t)[packet] + flow.sigma * r.normal(size=n)], axis=-1)
        points = np.ascontiguousarray(points.T).T
        number = max(1, CALL_ROWS // n)
        call = lambda: flow.effective(points, t, with_density=True)  # noqa: E731
        call()
        times = timeit.repeat(call, number=number, repeat=REPEATS)
        out[n] = 1e6 * statistics.median(times) / number
    return out


def run_side(src: Path) -> dict:
    """:func:`measure` in a fresh interpreter whose ``PYTHONPATH`` is ``src``."""
    return {int(n): us for n, us in fresh_json(src, "kernel_timing", "measure").items()}


def report(sides: dict[str, list[dict]]) -> None:
    """Each side's median over its rounds per row count, and REV / working tree."""
    names = list(sides)
    medians = {name: {n: statistics.median(run[n] for run in runs) for n in ROWS}
               for name, runs in sides.items()}
    print("ModeFlow.effective(..., with_density=True), examples/born.json state, "
          f"t = 0.3 t_M; median us per call over {len(sides[names[0]])} fresh interpreters")
    header = f"{'rows':>6}" + "".join(f"{name:>20}" for name in names)
    print(header + (f"{names[1] + ' / ' + names[0]:>28}" if len(names) == 2 else ""))
    for n in ROWS:
        line = f"{n:>6}" + "".join(f"{medians[name][n]:>20.1f}" for name in names)
        if len(names) == 2:
            line += f"{medians[names[1]][n] / medians[names[0]][n]:>28.3f}"
        print(line)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="also time src/ at this git revision, alternating with the "
                             "working tree")
    args = parser.parse_args(argv)
    tree = "working tree"
    if args.against is None:
        report({tree: [run_side(ROOT / "src") for _ in range(ROUNDS)]})
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        srcs = {tree: ROOT / "src", args.against: src_at(args.against, Path(tmp))}
        sides = {name: [] for name in srcs}
        for k in range(ROUNDS):
            for name in (list(srcs) if k % 2 == 0 else list(srcs)[::-1]):
                sides[name].append(run_side(srcs[name]))
    report(sides)
    return 0


if __name__ == "__main__":
    sys.exit(main())
