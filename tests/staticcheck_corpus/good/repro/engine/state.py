"""Good fixture: workers read module state seeded by the initializer.

The initializer is the one sanctioned place to rebind module state,
and the task only *reads* ``_WORLD`` — so the REP009 reachability walk
finds no mutation.
"""

_WORLD = None


def _init_worker(world):
    global _WORLD
    _WORLD = world


def run_shard(shard):
    return 0 if _WORLD is None else len(shard)


def launch(pool_cls, world, shards):
    with pool_cls(initializer=_init_worker, initargs=(world,)) as pool:
        return list(pool.imap(run_shard, shards))
