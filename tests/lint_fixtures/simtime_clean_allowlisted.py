# lint-fixture-path: src/repro/cluster/engine.py
"""RK210 negative: the allowlisted wall-time-accounting file."""

import time


def account_wall_time(stats):
    # cluster/engine.py is on WALL_CLOCK_ALLOWLIST: it reports host
    # wall time of the simulation run, which never feeds simulated
    # seconds or replayed decisions.
    stats.wall_time_seconds = time.perf_counter() - stats.wall_start
    return stats


def simulated_clock_is_fine(cost_model, messages):
    # Simulated seconds come from the cost model, never the host.
    return cost_model.batch_cost(len(messages))
