"""Bad fixture: REP009 — unpicklable and state-mutating workers."""

_CACHE = {}


def run(pool, shards):
    def measure(shard):
        return shard

    list(pool.imap_unordered(lambda shard: shard, shards))
    list(pool.map(measure, shards))
    return pool.submit(run_shard, shards)


def run_shard(shard):
    global _CACHE
    _CACHE = {}
    return shard
