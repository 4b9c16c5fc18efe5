"""Deterministic random-stream management.

Every stochastic component in this library draws from a numpy
``Generator`` derived from a user seed through ``SeedSequence.spawn``,
so that results are reproducible run-to-run and independent across
components (walkers vs. graph generation vs. weight assignment) —
important when an experiment compares two engines on "the same walk
workload".
"""

from __future__ import annotations

import numpy as np

from repro.errors import SnapshotError

__all__ = [
    "make_rng",
    "spawn_rngs",
    "derive_rng",
    "rng_state_words",
    "restore_rng_words",
]

_WORD = (1 << 64) - 1


def make_rng(seed: int | None) -> np.random.Generator:
    """A fresh PCG64 generator; ``None`` seeds from the OS."""
    return np.random.default_rng(seed)


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """``count`` independent generators derived from one seed."""
    sequence = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


def derive_rng(seed: int, *keys: int) -> np.random.Generator:
    """A generator keyed on ``(seed, *keys)``.

    Distinct key tuples give statistically independent streams; the
    same tuple always gives the same stream.  Used to pin e.g. "the
    RNG of simulated node 3" without coordinating global draw order.
    """
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=tuple(keys))
    return np.random.default_rng(sequence)


def rng_state_words(rng: np.random.Generator) -> np.ndarray:
    """A PCG64 stream's position as six ``uint64`` words — ``state``
    and ``inc`` as (high, low) pairs, then ``has_uint32`` and
    ``uinteger`` — so a checkpoint file holds plain integers and
    reading one never unpickles."""
    outer = rng.bit_generator.state
    if outer["bit_generator"] != "PCG64":
        raise SnapshotError(f"cannot checkpoint a {outer['bit_generator']} stream")
    state, inc = outer["state"]["state"], outer["state"]["inc"]
    words = [state >> 64, state & _WORD, inc >> 64, inc & _WORD]
    return np.asarray(words + [outer["has_uint32"], outer["uinteger"]], np.uint64)


def restore_rng_words(rng: np.random.Generator, words: np.ndarray) -> None:
    """Inverse of :func:`rng_state_words`; anything but six such words
    for a PCG64 generator is a :class:`SnapshotError`."""
    words = np.asarray(words)
    if words.shape != (6,) or words.dtype != np.uint64:
        raise SnapshotError(f"RNG state must be 6 uint64 words, got {words!r}")
    state_hi, state_lo, inc_hi, inc_lo, has_uint32, uinteger = words.tolist()
    if has_uint32 > 1 or uinteger >> 32:
        raise SnapshotError("RNG state carries an impossible buffered draw")
    try:
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": has_uint32,
            "uinteger": uinteger,
        }
    except ValueError as exc:  # numpy names the generator it wanted
        raise SnapshotError(f"RNG state does not fit this generator: {exc}") from exc
