"""Process-boundary call sites.  The unpicklable value is hidden behind
a variable or a helper call, or — the zero-hop case — written into the
call itself; RK310 reports all three at the call site."""

from flow_rk310.tasks import build_task_indirect, shard_ids, worker_fn


class WorkerPool:
    def run(self, fn, *payloads, describe=None):
        return [fn(p) for p in payloads]


def ships_lambda_through_two_frames(pool: WorkerPool):
    task = build_task_indirect()
    return pool.run(task, 1)  # expect: RK310


def ships_open_handle(pool: WorkerPool, path):
    handle = open(path, "r")
    return pool.run(worker_fn, handle)  # expect: RK310


def same_line_lambda(pool: WorkerPool):
    return pool.run(lambda x: x, 1)  # expect: RK310


def ships_materialised_payload(pool: WorkerPool):
    # Negative: module-level callable + list payload pickle fine.
    return pool.run(worker_fn, shard_ids(3))
