"""Good fixture: REP009 — module-level, initializer-disciplined workers."""

_CONFIG = None


def _init_worker(config):
    global _CONFIG
    _CONFIG = config


def measure_shard(shard):
    return (_CONFIG, shard)


def run(pool_factory, shards, config):
    pool = pool_factory(initializer=_init_worker, initargs=(config,))
    return list(pool.imap_unordered(measure_shard, shards))
