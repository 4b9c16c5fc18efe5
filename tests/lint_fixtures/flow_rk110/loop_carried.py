"""A loop-carried chain: the Generator reaches the sink only after the
loop body has run six times, so the facts of one function must be
iterated to a true local fixed point, not a fixed number of rounds."""

import pickle

import numpy as np


def checkpoint_every_step(seed, items):
    for _ in items:
        out = pickle.dumps(e)  # expect: RK110
        e = d
        d = c
        c = b
        b = a
        a = np.random.default_rng(seed)
    return out
