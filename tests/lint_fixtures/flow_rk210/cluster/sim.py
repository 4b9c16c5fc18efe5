"""Simulated-time code.  No direct clock reads, but wall-clock values
still arrive through calls — RK210's flow half."""

from flow_rk210.hosttime import budget_seconds


def schedule_with_host_budget(queue):
    deadline = budget_seconds()  # expect: RK210
    return deadline


def consume(value):
    # Taint arrives through the parameter; the region-entry hop is
    # flagged at the *caller* (see main.py), not re-flagged here.
    return value + 1.0


def derives_from_cost_model(cost_model):
    # Negative: simulated seconds come from the cost model, which is
    # the sanctioned way to make timing decisions in here.
    return cost_model.simulated_seconds * 2.0
