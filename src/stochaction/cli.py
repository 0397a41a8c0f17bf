"""Command-line runner.

One subcommand per experiment kind plus a generic ``run``.  Exit codes:
0 success, 1 configuration error, 2 runtime error, 3 declared checks failed.
Runtime errors additionally leave a structured ``error.json`` in the output
directory.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import EXPERIMENT_KINDS, ConfigError, parse_config, serialize_config
from .core import canonical_json
from .experiments import EXIT_CONFIG, EXIT_RUNTIME, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stochaction",
                                     description="stochastic-action measurement simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS + ("run",):
        p = sub.add_parser(kind, help=f"run a {kind} experiment" if kind != "run"
                           else "run whatever kind the config declares")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--trials", type=int, default=None,
                       help="override ensemble.n_trials")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes, at most the CPU count (a lambda sweep "
                            "uses one per scale, up to the CPU count, whatever this says)")
        p.add_argument("--echo-config", action="store_true",
                       help="print the validated config and exit")
    return parser


def _apply_overrides(text: str, args) -> str:
    data = json.loads(text)
    if not isinstance(data, dict):
        return text   # parse_config names a top level or ensemble that is not an object
    if args.command != "run":
        declared = data.get("experiment")
        if declared is not None and declared != args.command:
            raise ConfigError([f"experiment: config declares {declared!r} "
                               f"but the {args.command!r} subcommand was used"])
        data["experiment"] = args.command
    if args.seed is not None:
        data["seed"] = args.seed
    if args.out is not None:
        data["out_dir"] = args.out
    if args.threads is not None:
        data["threads"] = args.threads
    if args.trials is not None and isinstance(data.setdefault("ensemble", {}), dict):
        data["ensemble"]["n_trials"] = args.trials
    return json.dumps(data)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(_apply_overrides(text, args))
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"invalid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.echo_config:
        print(serialize_config(cfg), end="")
        return 0
    try:
        return run_experiment(cfg)
    except Exception as exc:  # noqa: BLE001 - boundary turns faults into artifacts
        out_dir = Path(cfg["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if getattr(exc, "trial", None) is not None:
            payload["trial"] = exc.trial
        (out_dir / "error.json").write_text(canonical_json(payload))
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
