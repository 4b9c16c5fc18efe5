"""RK403 positives: set iteration order feeding behaviour.

Mutable defaults and bare ``except:`` are ruff's (B006, E722); this
directory is excluded from ruff, so they have no fixture here.
"""


def order_depends_on_hash_seed(a, b, c):
    out = []
    for vertex in {a, b, c}:  # expect: RK403
        out.append(vertex)
    return out


def comprehension_over_set(values):
    return [v * 2 for v in set(values)]  # expect: RK403
