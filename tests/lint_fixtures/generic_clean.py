"""RK403 negatives, beside ruff's B006 / E722 territory."""


def collect(item, bucket=None):
    if bucket is None:
        bucket = []
    bucket.append(item)
    return bucket


def immutable_defaults(key, pair=(1, 2), label="x", limit=80):
    return key, pair, label, limit


def swallow_specifically(fn):
    try:
        return fn()
    except (ValueError, KeyError):
        return None


def sorted_set_iteration(a, b, c):
    # Sorting restores a deterministic order, and membership tests
    # never iterate.
    out = []
    for vertex in sorted({a, b, c}):
        out.append(vertex)
    needle = a in {b, c}
    return out, needle


def list_iteration(values):
    return [v * 2 for v in list(values)]
