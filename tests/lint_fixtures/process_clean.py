"""RK310 negatives: the portable cross-process contract."""

import multiprocessing


def walk_shard(shard):
    return shard.walk()


def run_module_level(pool, shards):
    # Module-level callable plus plainly picklable payloads.
    return pool.run(walk_shard, shards, timeout=5.0)


def run_with_parent_side_describe(pool, shards):
    # describe= is invoked on the parent side only; a lambda there is
    # explicitly allowed (PARENT_SIDE_KWARGS).
    return pool.run(walk_shard, shards, describe=lambda s: s.name)


def spawn_module_level(shards):
    proc = multiprocessing.Process(target=walk_shard, args=(shards[0],))
    proc.start()
    return proc


def local_map_is_not_cross_process(items):
    # builtins.map takes lambdas all day; only pool-style attribute
    # calls on a pool-like receiver are treated as boundaries.
    return list(map(lambda x: x + 1, items))
