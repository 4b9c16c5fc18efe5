"""RK310 zero-hop positives: unportable values written into the call."""

import multiprocessing


def run_with_lambda(pool, shards):
    return pool.map(lambda shard: shard.walk(), shards)  # expect: RK310


def run_with_nested(pool, shards):
    def walk_shard(shard):
        return shard.walk()

    return pool.run(walk_shard, shards)  # expect: RK310


def spawn_with_lambda(n):
    proc = multiprocessing.Process(target=lambda: n * 2)  # expect: RK310
    proc.start()
    return proc


def payload_with_lambda(pool, walk_shard, shards):
    return pool.run(walk_shard, shards, key=lambda s: s.rank)  # expect: RK310


def payload_with_generator(pool, walk_shard, shards):
    return pool.map(walk_shard, (s.split() for s in shards))  # expect: RK310


def payload_with_open_file(pool, walk_shard, path):
    return pool.run(walk_shard, open(path))  # expect: RK310
