"""RK101/RK102/RK103 positives: every undisciplined way to draw."""

import random
from random import shuffle

import numpy as np
from numpy.random import default_rng


def stdlib_draws(items):
    coin = random.random()  # expect: RK101
    pick = random.choice(items)  # expect: RK101
    shuffle(items)  # expect: RK101
    random.seed(42)  # expect: RK101
    return coin, pick


def unseeded_generators():
    a = np.random.default_rng()  # expect: RK102
    b = np.random.default_rng(None)  # expect: RK102
    c = default_rng()  # expect: RK102
    d = np.random.default_rng(seed=None)  # expect: RK102
    return a, b, c, d


def unseeded_bit_generators():
    a = np.random.Generator(np.random.PCG64())  # expect: RK102
    b = np.random.SeedSequence()  # expect: RK102
    c = np.random.MT19937(seed=None)  # expect: RK102
    d = np.random.SeedSequence(entropy=None, spawn_key=(1,))  # expect: RK102
    return a, b, c, d


def legacy_global_state(n):
    np.random.seed(7)  # expect: RK103
    xs = np.random.rand(n)  # expect: RK103
    ys = np.random.normal(size=n)  # expect: RK103
    zs = np.random.randint(0, 10, size=n)  # expect: RK103
    np.random.shuffle(xs)  # expect: RK103
    return xs, ys, zs
