"""Worker task that mutates module state through a helper (REP009).

The task itself never touches ``_RESULTS`` — it calls ``_record``,
which does. A check of the submitted callable alone cannot see that;
the REP009 call-graph reachability walk can.
"""

_RESULTS: dict = {}


def _record(key, value):
    _RESULTS[key] = value


def run_shard(shard):
    value = len(shard)
    _record(shard, value)
    return value


def launch(pool, shards):
    return list(pool.imap(run_shard, shards))
