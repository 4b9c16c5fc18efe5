"""Task factories.  The lambdas are born here; the call sites that
ship them to workers live in runner.py and look clean on their face."""


def build_task():
    return lambda x: x + 1


def build_task_indirect():
    # Two frames: factory of a factory's result.
    return build_task()


def shard_ids(count):
    # Negative: materialised list — picklable payload.
    return list(range(count))


def worker_fn(x):
    return x * 2
