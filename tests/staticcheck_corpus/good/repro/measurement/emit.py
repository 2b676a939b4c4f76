"""Good fixture: REP008 — ``sorted()`` at every set-iteration point that
reaches an output, a commutative fold that needs none, plus one
justified suppression (exercises the noqa path end to end)."""


def emit(hostnames: set) -> list:
    rows = [host for host in sorted(hostnames)]
    if len(hostnames) and "www" in hostnames:
        rows.append("www")
    return rows


def render(tags: frozenset) -> str:
    return ",".join(sorted(tags))


def digest(tags: set) -> int:
    total = 0
    for tag in tags:
        total ^= len(tag)
    return total


def reachable_count(edges: dict, start: str) -> int:
    seen: set = set()
    frontier = [start]
    while frontier:
        node = frontier.pop()
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(set(edges.get(node, ())) - seen)  # repro: noqa[REP008] -- traversal order cannot change the visited set; only len(seen) is returned
    return len(seen)
