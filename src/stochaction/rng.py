"""Counter-based random streams.

Every consumer of randomness derives its own Philox stream from
``(seed, purpose, index)``, so results never depend on scheduling order or
worker count.  ``purpose`` separates the independent uses of a trial's
randomness (initial draw, sign path, ...).

A Philox stream is a pure function of its key and counter, so one generator
reset to a key at counter 0 (:func:`rekey`) draws exactly what a newly built
one (:func:`stream`) would, at a fraction of the construction cost.
"""
from __future__ import annotations

import numpy as np

SEED_MAX = (1 << 64) - 1
# the largest stream index, and so the largest trial a run can key
INDEX_MAX = (1 << 48) - 1
# a new stream's counter and buffer words
_ZEROS4 = (0, 0, 0, 0)

# purpose tags
INITIAL = 1
SIGNS = 2
PRIOR = 3
GENERIC = 0


def _key(seed: int, purpose: int, index: int) -> tuple[int, int]:
    if seed < 0 or seed > SEED_MAX:
        raise ValueError("stream seed out of range")
    if index < 0 or index > INDEX_MAX:
        raise ValueError("stream index out of range")
    return seed, ((purpose & 0xFFFF) << 48) | index


def stream(seed: int, purpose: int = GENERIC, index: int = 0) -> np.random.Generator:
    """Independent generator keyed by (seed, purpose, index)."""
    key = np.array(_key(seed, purpose, index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rekey(gen: np.random.Generator, seed: int, purpose: int = GENERIC,
          index: int = 0) -> np.random.Generator:
    """Reset ``gen`` (Philox-backed) to the start of stream (seed, purpose, index).

    The draws that follow equal those of ``stream(seed, purpose, index)``.
    The state setter reads the counter, key and buffer word by word, so
    they go in as tuples of ints: no arrays are built, and the one shared
    constant is immutable, so concurrent chunks may re-key at once.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS4, "key": _key(seed, purpose, index)},
        "buffer": _ZEROS4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return gen
