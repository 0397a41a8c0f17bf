"""What the tools' ``--against REV`` share: a revision's ``src/`` and a fresh interpreter on it.

``src_at`` extracts the package tree of a git revision; ``fresh_json`` runs
one function of a tool in a new interpreter whose ``PYTHONPATH`` is a given
package tree and returns what it printed as JSON.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = Path(__file__).resolve().parent


def src_at(rev: str, into: Path) -> Path:
    """``src/`` of git revision ``rev``, extracted with ``git archive`` into ``into``.

    A revision git cannot archive prints git's message and exits 2.
    """
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True)
    if archive.returncode != 0:
        sys.stderr.write(archive.stderr.decode(errors="replace"))
        sys.exit(2)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return into / "src"


def fresh_json(src: Path, module: str, function: str):
    """``module.function()`` of ``tools/``, run by a fresh interpreter in a
    temporary directory with ``PYTHONPATH`` set to ``src``; it prints the
    result as JSON, which this returns decoded."""
    code = (f"import json, sys; sys.path.insert(0, sys.argv[1]); import {module} as tool; "
            f"print(json.dumps(tool.{function}()))")
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run([sys.executable, "-c", code, str(TOOLS)],
                              env=dict(os.environ, PYTHONPATH=str(src)), cwd=cwd,
                              stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout)
