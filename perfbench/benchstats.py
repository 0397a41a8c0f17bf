"""Summaries of repeated measurements and the metric-name rule."""
from __future__ import annotations

import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Percentile levels tried from the top; a level is reported only when at
# least ten samples lie beyond it.
_LEVELS = (99.9, 99.0, 90.0)


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def percentile(values, level: float) -> float:
    """Linear-interpolated percentile (the 'inclusive' definition)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * level / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(values) -> dict:
    """Median and sample count, plus the highest percentile with >= 10 samples beyond it."""
    xs = list(values)
    out = {"median": statistics.median(xs), "n": len(xs)}
    for level in _LEVELS:
        if round(len(xs) * (100.0 - level) / 100.0, 9) >= 10.0:
            out[f"p{level:g}"] = percentile(xs, level)
            break
    return out
